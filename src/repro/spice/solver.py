"""DC and transient solution of MNA circuits: one batched engine.

* :func:`dc_operating_point` -- damped Newton-Raphson with automatic gmin
  stepping and a source-stepping (continuation) fallback on
  non-convergence, for one circuit or for G structurally identical
  circuits at once (a DC sweep or a Monte-Carlo population).
* :func:`transient` -- fixed-step backward-Euler integration (L-stable; the
  characterization flow picks steps ~100x smaller than the fastest
  transition, where BE's first-order error is negligible against the
  compact-model accuracy).
* :func:`transient_grid` -- the same integration for G structurally
  identical circuits stepped in lockstep, each on its own time grid
  (``t_stop``/``dt`` shared or one per circuit); the lockstep runs to
  the longest grid and a replica whose grid has ended is frozen.

All three run the same driver on a :class:`~repro.spice.mna.MNASystem`:
a single circuit is simply a batch of G = 1.  Results come back as
:class:`OperatingPoint` / :class:`OperatingPointBatch` /
:class:`TransientResult`, which expose per-node voltages (as
:class:`~repro.spice.waveform.Waveform` objects for a transient) and
per-source branch currents for energy integration.

Robustness: every public entry point accepts an optional
:class:`SolverBudget` bounding total Newton iterations and wall-clock
time, so one pathological solve cannot stall a library build (a
batch has one budget for the whole call).  Budget exhaustion raises
:class:`~repro.errors.SolverBudgetError`.  Every solve walks the
escalation ladder (plain NR -> gmin ladder -> source stepping) on
exactly the replicas that have not converged; a replica that fails the
whole ladder is evicted from its batch; a DC solve or a
single-circuit transient raises :class:`ConvergenceError` carrying the
full escalation history.

Performance: the inner loop is masked modified Newton.  The first
iteration of each solve reuses the Jacobian and frozen device companions
from the previous solve (in a transient, the previous timestep), so it
rebuilds only the RHS and costs *zero* compact-model calls.  Subsequent
iterations re-linearize; a solution is only ever accepted from a
fresh-Jacobian update (or, for circuits without nonlinear devices, from
the exact cached matrix).  Every escalation-ladder rung changes the
cache key and therefore starts from a fresh Jacobian.  Reused iterations
are counted in :attr:`SolverStats.jacobian_reuses`.  Each Newton
iteration makes one stacked compact-model call and one batched block
solve for the whole batch.
"""

from __future__ import annotations

import time as _time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigError, SolverBudgetError, SolverError
from repro.spice.mna import GMIN_DEFAULT, MNASystem
from repro.spice.netlist import Circuit
from repro.spice.waveform import Waveform

__all__ = ["ConvergenceError", "OperatingPoint", "OperatingPointBatch",
           "SolverBudget", "SolverStats", "TransientResult",
           "dc_operating_point", "transient", "transient_grid"]

#: Newton-Raphson voltage update clamp (V) -- classic damping for FETs.
_STEP_CLAMP = 0.25

_MAX_NR_ITERATIONS = 200
_VTOL = 1e-7

#: gmin continuation ladder, walked large to small on NR failure.
_GMIN_LADDER = (1e-3, 1e-5, 1e-7, 1e-9, GMIN_DEFAULT)

#: Source-stepping continuation ladder (fraction of full source value).
_SOURCE_LADDER = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)

#: Hard ceiling on transient steps: a t_stop/dt pair implying more is an
#: oversized input (one recorded float64 per node per step -- past this
#: the run would grind or OOM long before producing science), rejected
#: with a typed ConfigError instead of an allocation failure.
_MAX_TRANSIENT_STEPS = 5_000_000


class ConvergenceError(SolverError):
    """Raised when Newton-Raphson fails at every escalation level."""


@dataclass
class SolverStats:
    """Convergence-effort accounting for one solver entry point.

    Carried on :attr:`OperatingPoint.stats` and
    :attr:`TransientResult.stats` so callers can see what a solve cost
    without enabling telemetry (the counters are accumulated at
    escalation boundaries, not in the Newton inner loop, so keeping
    them always-on is free at hot-path granularity).
    """

    newton_iterations: int = 0
    """Total NR iterations, summed over timesteps and every ladder rung
    tried (a batch counts its lockstep iterations once)."""
    gmin_steps: int = 0
    """gmin-ladder rungs attempted (0 when plain NR converged)."""
    source_steps: int = 0
    """Source-stepping rungs attempted (0 unless the ladder escalated)."""
    timesteps: int = 0
    """Transient steps solved (0 for a DC solve); in a
    :func:`transient_grid` call, the lockstep steps (the longest
    grid's)."""
    budget_charges: int = 0
    """Times the :class:`SolverBudget` tracker was consulted."""
    dt_effective: float = 0.0
    """The timestep actually used (transient only); the smallest one
    when the replicas of a :func:`transient_grid` call step on
    different grids."""
    jacobian_reuses: int = 0
    """Newton iterations served by a reused Jacobian (modified Newton);
    0 for cold DC solves."""


@dataclass(frozen=True)
class SolverBudget:
    """Per-solve resource bounds.

    ``max_iterations`` caps the *total* Newton iterations spent by one
    ``dc_operating_point``/``transient`` call (summed over timesteps and
    continuation ladders); ``max_seconds`` caps its wall-clock time.
    ``None`` disables a bound.
    """

    max_iterations: int | None = None
    max_seconds: float | None = None

    def tracker(self) -> "_BudgetTracker":
        return _BudgetTracker(self)


class _BudgetTracker:
    """Mutable iteration/time accounting for one solve call."""

    def __init__(self, budget: SolverBudget):
        self.budget = budget
        self.iterations = 0
        self.charges = 0
        self.t0 = _time.monotonic()

    def charge(self, iterations: int) -> None:
        self.iterations += iterations
        self.charges += 1
        b = self.budget
        if b.max_iterations is not None and self.iterations > b.max_iterations:
            raise SolverBudgetError(
                f"solver iteration budget exhausted "
                f"({self.iterations} > {b.max_iterations})"
            )
        if b.max_seconds is not None:
            elapsed = _time.monotonic() - self.t0
            if elapsed > b.max_seconds:
                raise SolverBudgetError(
                    f"solver wall-clock budget exhausted "
                    f"({elapsed:.3f} s > {b.max_seconds} s)"
                )


class _JacobianCache:
    """Frozen per-replica Jacobian blocks + device companions across solves.

    Each replica's block carries the key of the linear-system *structure*
    it was built for -- (gmin, source_scale, companion on/off) -- so every
    escalation-ladder rung starts from a fresh Jacobian.  A block is only
    overwritten on iterations where its replica is still iterating, so
    every replica of a batch reuses exactly the linearization its solo
    solve would have cached.  ``fet_ieq`` holds the device Norton RHS
    currents of the cached linearizations: with them a bypass iteration
    rebuilds ``z`` via :meth:`MNASystem.rhs` without touching the compact
    model.  The cached "factorization" is the assembled stack itself: the
    blocks are tiny, so one batched ``np.linalg.solve`` (which factorizes
    each block inside LAPACK) costs less than holding G factorizations.
    ``reuses`` counts bypass iterations (one tick per batch iteration) and
    is published as :attr:`SolverStats.jacobian_reuses`.
    """

    __slots__ = ("a", "fet_ieq", "keys", "reuses")

    def __init__(self, system: MNASystem):
        g = system.n_replicas
        self.a = np.zeros((g, system.dim, system.dim))
        self.fet_ieq = np.zeros(g * system.n_fets)  # replica-major
        self.keys = np.full((g, 3), np.nan)  # NaN never matches
        self.reuses = 0

    def matches(self, key: tuple) -> np.ndarray:
        return (self.keys == key).all(axis=1)

    def store(self, mask: np.ndarray | None, key: tuple, a: np.ndarray,
              fet_ieq: np.ndarray) -> None:
        """Cache the blocks of the replicas in ``mask`` (``None``: all)."""
        if mask is None:
            self.a, self.fet_ieq = a, fet_ieq
            self.keys[:] = key
        else:
            g = mask.size
            np.copyto(self.a, a, where=mask[:, None, None])
            np.copyto(self.fet_ieq.reshape(g, -1), fet_ieq.reshape(g, -1),
                      where=mask[:, None])
            self.keys[mask] = key


@dataclass
class OperatingPoint:
    """DC solution: node voltages and source branch currents."""

    voltages: dict[str, float]
    source_currents: dict[str, float]
    iterations: int
    stats: SolverStats = field(default_factory=SolverStats)
    """Convergence effort of this solve (always populated)."""

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]


@dataclass
class OperatingPointBatch:
    """DC solutions of G replicas solved as one batch.

    ``voltages`` and ``source_currents`` map each node and source to a
    ``(G,)`` array holding replica ``r`` at index ``r``; :meth:`point`
    gives one replica as an :class:`OperatingPoint`.  ``stats`` is the
    batch's (lockstep iterations counted once).
    """

    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]
    stats: SolverStats

    def __getitem__(self, node: str) -> np.ndarray:
        return self.voltages[node]

    def point(self, r: int) -> OperatingPoint:
        """Replica ``r`` as a single-circuit result."""
        return OperatingPoint(
            voltages={n: float(v[r]) for n, v in self.voltages.items()},
            source_currents={n: float(i[r])
                             for n, i in self.source_currents.items()},
            iterations=self.stats.newton_iterations, stats=self.stats)


@dataclass
class TransientResult:
    """Transient solution over a fixed time grid."""

    time: np.ndarray
    voltages: dict[str, np.ndarray]
    source_currents: dict[str, np.ndarray]
    circuit_title: str = ""
    dt_effective: float = 0.0
    stats: SolverStats = field(default_factory=SolverStats)
    """Convergence effort of this run (always populated)."""

    def waveform(self, node: str) -> Waveform:
        """Return the node voltage as a measurable waveform."""
        return Waveform(self.time, self.voltages[node], name=node)

    def source_current(self, name: str) -> np.ndarray:
        return self.source_currents[name]

    def supply_energy(self, source_name: str, vdd: float) -> float:
        """Energy delivered by a DC supply over the window, in J.

        MNA source current flows from + terminal through the source, so a
        supplying source has negative branch current; energy delivered is
        ``-integral(V * I) dt``.
        """
        i = self.source_currents[source_name]
        return float(-np.trapezoid(i, self.time) * vdd)


def _linear_solve(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Batched block solve; a singular block poisons only its replica.

    ``np.linalg.solve`` rejects the whole batch when any block is
    singular, so on failure the blocks are re-solved one by one and the
    offenders come back as NaN rows -- which the masked Newton loop
    converts into a failure of exactly those replicas.
    """
    try:
        # The explicit trailing unit axis pins the gufunc signature to a
        # stack of column vectors on every numpy version.
        return np.linalg.solve(a, z[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(z)
        for g in range(z.shape[0]):
            try:
                out[g] = np.linalg.solve(a[g], z[g])
            except np.linalg.LinAlgError:
                out[g] = np.nan
        return out


def _newton_solve(
    system: MNASystem,
    x: np.ndarray,
    sources: np.ndarray,
    gmin: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    alive: np.ndarray,
    source_scale: float = 1.0,
    tracker: _BudgetTracker | None = None,
) -> tuple[int, np.ndarray]:
    """Lockstep masked modified-Newton solve of the replicas in ``alive``.

    ``x`` (``(G, dim)``) is updated in place for those replicas; per
    replica this is damped NR (block solve, node-voltage clamp,
    convergence once an update lands under ``_VTOL``).  A replica whose
    cached block matches this solve's key starts with a bypass iteration
    (frozen linearization, zero model calls); a bypass update is never
    accepted -- the next iteration re-linearizes and decides -- except
    for circuits without FinFETs, whose cached matrix is exact.

    Masked convergence: a converged replica is frozen (its block stops
    moving) while the others keep iterating; a replica whose update goes
    non-finite (singular block, non-finite sources) or that is still
    unconverged at the iteration cap has failed.  Returns ``(iterations,
    converged)``.
    """
    cache: _JacobianCache = system.jacobian_cache
    key = (gmin, source_scale, cap_companion is not None)
    linear = system.n_fets == 0
    n_nodes = system.n_nodes
    need = alive.copy()
    n_need = np.count_nonzero(need)
    failed = np.zeros_like(alive)
    if not n_need:
        return 0, failed
    for it in range(1, _MAX_NR_ITERATIONS + 1):
        every = n_need == need.size
        bypass = need & cache.matches(key) if linear or it == 1 else None
        if bypass is None or not bypass.any():
            bypass = None
            a, z, fet_ieq = system.assemble(x, sources, gmin, cap_companion,
                                            source_scale)
            cache.store(None if every else need, key, a, fet_ieq)
        else:
            # Bypass: the matrix (static + gmin + cap geq + frozen device
            # conductances) is unchanged, so only the RHS moves.
            cache.reuses += 1
            z_frozen = system.rhs(sources, cap_companion, cache.fet_ieq,
                                  source_scale)
            fresh = need & ~bypass
            if fresh.any():
                a, z, fet_ieq = system.assemble(x, sources, gmin,
                                                cap_companion, source_scale)
                cache.store(fresh, key, a, fet_ieq)
                a = np.where(bypass[:, None, None], cache.a, a)
                z = np.where(bypass[:, None], z_frozen, z)
            else:
                a, z = cache.a, z_frozen
        delta = _linear_solve(a, z) - x
        if not every:
            # Frozen replicas do not move: survivors never see a
            # converged or failed replica's state.
            delta[~need] = 0.0
        if not np.isfinite(delta).all():
            bad = ~np.isfinite(delta).all(axis=1)
            failed |= bad
            need &= ~bad
            delta[bad] = 0.0
            n_need = np.count_nonzero(need)
            if not n_need:
                return it, alive & ~failed
        if tracker is not None:
            tracker.charge(1)
        # Clamp only the node-voltage part; branch currents move freely.
        max_dv = np.abs(delta[:, :n_nodes]).max(axis=1) if n_nodes \
            else np.zeros(need.size)
        over = max_dv > _STEP_CLAMP
        if over.any():
            delta[over, :n_nodes] *= (_STEP_CLAMP / max_dv[over])[:, None]
        x += delta
        done = max_dv < _VTOL
        if bypass is not None and not linear:
            done &= ~bypass  # a stale bypass update is never accepted
        need &= ~done
        n_need = np.count_nonzero(need)
        if not n_need:
            return it, alive & ~failed
    # Iteration cap: whatever is still iterating failed to converge.
    return _MAX_NR_ITERATIONS, alive & ~failed & ~need


def _solve(
    system: MNASystem,
    x: np.ndarray,
    sources: np.ndarray,
    cap_companion: tuple[np.ndarray, np.ndarray] | None,
    alive: np.ndarray,
    tracker: _BudgetTracker | None,
    stats: SolverStats,
) -> tuple[int, dict[int, str]]:
    """Escalation ladder over the replicas in ``alive``.

    Plain NR first; the replicas that fail it restart from their entry
    point and walk gmin large to small, each rung starting from the
    previous solution; replicas that fail a gmin rung restart once more
    and ramp the source amplitude 0 -> 1 (the near-zero-bias circuit is
    almost linear, so the first rung converges from a cold start).  Each
    rung is one masked :func:`_newton_solve` over the replicas still on
    it, so converged replicas stay frozen throughout.  A replica that
    fails every rung is evicted: its ``alive`` bit is cleared and the
    returned dict maps it to its escalation history.  Returns
    ``(iterations, failures)``.
    """
    x0 = x.copy()
    its, ok = _newton_solve(system, x, sources, GMIN_DEFAULT, cap_companion,
                            alive, tracker=tracker)
    todo = alive & ~ok
    if not todo.any():
        return its, {}
    x[todo] = x0[todo]
    gmin_failed = np.full(todo.size, np.nan)
    for gmin in _GMIN_LADDER:
        stats.gmin_steps += 1
        n, ok = _newton_solve(system, x, sources, gmin, cap_companion,
                              todo, tracker=tracker)
        its += n
        gmin_failed[todo & ~ok] = gmin
        todo &= ok
        if not todo.any():
            break
    stepping = ~np.isnan(gmin_failed)
    if not stepping.any():
        return its, {}
    x[stepping] = x0[stepping]
    source_failed = np.full(todo.size, np.nan)
    for scale in _SOURCE_LADDER:
        stats.source_steps += 1
        n, ok = _newton_solve(system, x, sources, GMIN_DEFAULT,
                              cap_companion, stepping,
                              source_scale=scale, tracker=tracker)
        its += n
        source_failed[stepping & ~ok] = scale
        stepping &= ok
        if not stepping.any():
            break
    failures = {
        int(r): (f"plain NR failed, gmin ladder failed at "
                 f"gmin={gmin_failed[r]} (ladder={_GMIN_LADDER}), and "
                 f"source stepping failed at scale={source_failed[r]}")
        for r in np.flatnonzero(~np.isnan(source_failed))
    }
    alive[list(failures)] = False
    return its, failures


def _make_system(circuits: list[Circuit]) -> MNASystem:
    """Validate, build the batched system and install its Jacobian cache."""
    for circuit in circuits:
        circuit.validate()
    system = MNASystem(circuits)
    system.jacobian_cache = _JacobianCache(system)
    return system


def _publish(sp, kind: str, stats: SolverStats, system: MNASystem,
             tracker: _BudgetTracker | None, **attrs) -> None:
    """Close one solve's stats and fold them into telemetry (enabled only)."""
    if tracker is not None:
        stats.budget_charges = tracker.charges
    stats.jacobian_reuses = system.jacobian_cache.reuses
    if not telemetry.enabled():
        return
    sp.set(newton_iterations=stats.newton_iterations,
           gmin_steps=stats.gmin_steps, source_steps=stats.source_steps,
           **attrs)
    telemetry.count(f"solver.{kind}_solves")
    telemetry.count("solver.newton_iterations", stats.newton_iterations)
    if stats.gmin_steps:
        telemetry.count("solver.gmin_steps", stats.gmin_steps)
    if stats.source_steps:
        telemetry.count("solver.source_steps", stats.source_steps)
    if stats.budget_charges:
        telemetry.count("solver.budget_charges", stats.budget_charges)
    if stats.jacobian_reuses:
        telemetry.count("solver.jacobian_reuses", stats.jacobian_reuses)


def dc_operating_point(
    circuit: Circuit | list[Circuit],
    t: float = 0.0,
    budget: SolverBudget | None = None,
) -> OperatingPoint | OperatingPointBatch:
    """Solve the DC operating point with sources evaluated at time ``t``.

    ``circuit`` is one :class:`Circuit`, answered with an
    :class:`OperatingPoint`, or a list of G structurally identical
    circuits (one topology and temperature; per-replica element values,
    sources and device models -- the points of a DC sweep, the devices
    of a Monte-Carlo population), solved as one masked-Newton batch and
    answered with an :class:`OperatingPointBatch`.  Each replica of a
    batch is bit-equal to its own single-circuit solve.  A
    :class:`SolverBudget` bounds the whole call.

    Raises :class:`ConvergenceError` when the whole escalation ladder
    fails; for a batch the message names the first failed replica.
    """
    single = isinstance(circuit, Circuit)
    circuits = [circuit] if single else list(circuit)
    system = _make_system(circuits)
    g = system.n_replicas
    x = np.zeros((g, system.dim))
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats()
    with telemetry.span("spice.dc_operating_point",
                        circuit=circuits[0].title, replicas=g) as sp:
        its, failures = _solve(system, x, system.source_values(t), None,
                               np.ones(g, dtype=bool), tracker, stats)
        if failures:
            r = min(failures)
            msg = f"no convergence at t={t}: {failures[r]}"
            raise ConvergenceError(
                msg if single else
                f"replica {r} of {g} ({circuits[r].title!r}): {msg}")
        stats.newton_iterations = its
        _publish(sp, "dc", stats, system, tracker)
    batch = OperatingPointBatch(
        voltages={n: x[:, i] for i, n in enumerate(system.nodes)},
        source_currents={src.name: x[:, system.n_nodes + k]
                         for k, src in enumerate(circuits[0].sources)},
        stats=stats)
    return batch.point(0) if single else batch


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "be",
    budget: SolverBudget | None = None,
) -> TransientResult:
    """Fixed-step transient from a DC solution at ``t = 0``.

    Parameters
    ----------
    circuit:
        The circuit; its ``temperature_k`` selects the model corner.
    t_stop:
        End time in s.  Always simulated exactly: when ``t_stop`` is not
        an integer multiple of ``dt``, the step is snapped *down* to the
        nearest divisor (never up, so accuracy cannot silently degrade);
        the step actually used is reported as
        :attr:`TransientResult.dt_effective`.
    dt:
        Requested fixed timestep in s.
    record:
        Node names to record; ``None`` records every node.
    method:
        ``"be"`` (backward Euler, L-stable, default) or ``"trap"``
        (trapezoidal, second-order accurate; the usual SPICE default).
        Trapezoidal needs the capacitor branch-current history, which the
        integrator reconstructs from the companion at each step.
    budget:
        Optional :class:`SolverBudget` bounding the whole run.

    Raises :class:`ConvergenceError` when a step fails the whole
    escalation ladder.
    """
    return _transient([circuit], t_stop, dt, record, method, budget,
                      kind="transient")[0]


def transient_grid(
    circuits: list[Circuit],
    t_stop: float | Sequence[float],
    dt: float | Sequence[float],
    record: list[str] | None = None,
    method: str = "be",
    budget: SolverBudget | None = None,
) -> list[TransientResult | None]:
    """Fixed-step transient of G structurally identical circuits at once.

    The replicas (same topology, per-replica element values and source
    waveforms -- e.g. the load rows of an NLDM characterization arc) are
    tiled into one :class:`~repro.spice.mna.MNASystem` and stepped in
    lockstep: each Newton iteration makes ONE compact-model call and ONE
    batched block solve for the whole grid, and every source value is
    precomputed up front, so the per-step Python overhead is paid once
    per *call* instead of once per point.

    ``t_stop`` and ``dt`` are scalars (one grid for every replica) or
    one value per circuit.  Each replica gets its own grid, snapped as in
    :func:`transient`, and the lockstep runs to the longest one; a
    replica whose grid has ended is frozen like a converged one.  Since
    replicas never couple, every result equals the circuit's own
    :func:`transient` on its own grid.  The other parameters are those of
    :func:`transient`.

    Masked convergence / eviction: replicas that converge within a step
    freeze until the next step; a replica that fails the whole
    escalation ladder at some step is **evicted** -- its slot in the
    returned list is ``None`` and the survivors continue unperturbed.
    Callers replay evicted points on their own (see
    ``repro.cells.characterize._solve_point_resilient``), so one bad
    corner never voids the batch.  A :class:`SolverBudget` bounds the
    whole call; exhaustion raises
    :class:`~repro.errors.SolverBudgetError` (the batch, unlike a
    replica, cannot be partially salvaged).

    Returns one :class:`TransientResult` per input circuit, in order,
    with ``None`` for evicted replicas; each carries its own ``time``
    and ``dt_effective``, and its arrays are views into one buffer of the
    recorded nodes and source currents.  All results share the batch's
    :class:`SolverStats` object, whose ``timesteps`` counts the lockstep
    steps (the longest grid) and whose ``dt_effective`` is the smallest
    step of the call.
    """
    return _transient(circuits, t_stop, dt, record, method, budget,
                      kind="transient_grid")


def _per_replica(name: str, value, g: int) -> np.ndarray:
    """``value`` as a ``(G,)`` float array: a scalar for every replica
    or a sequence with one entry per replica."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(g, float(arr))
    if arr.shape != (g,):
        raise ConfigError(
            f"{name} must be a scalar or one value per circuit "
            f"({g}), got shape {arr.shape}", field="dt")
    return arr


def _transient(
    circuits: list[Circuit],
    t_stop,
    dt,
    record: list[str] | None,
    method: str,
    budget: SolverBudget | None,
    kind: str,
) -> list[TransientResult | None]:
    """The transient driver behind both public entry points.

    ``kind`` names the telemetry span (``spice.<kind>``) and counters.
    A ``"transient"`` run raises :class:`ConvergenceError` at the first
    failed step; a ``"transient_grid"`` run evicts the failed replica.
    ``t_stop`` and ``dt`` are scalars or one value per circuit.
    """
    circuits = list(circuits)
    g = len(circuits)
    t_stop = _per_replica("t_stop", t_stop, g)
    dt = _per_replica("dt", dt, g)
    if not (np.isfinite(dt).all() and np.isfinite(t_stop).all()
            and (dt > 0).all() and (t_stop > 0).all()):
        raise ConfigError("t_stop and dt must be finite and positive",
                          field="dt")
    if method not in ("be", "trap"):
        raise ConfigError(f"unknown integration method {method!r}",
                          field="method")
    ratio = float((t_stop / dt).max()) if g else 0.0
    if ratio > _MAX_TRANSIENT_STEPS:
        raise ConfigError(
            f"oversized transient: t_stop/dt = {ratio:.3g} steps "
            f"exceeds the {_MAX_TRANSIENT_STEPS} cap", field="dt")
    system = _make_system(circuits)
    record = system.nodes if record is None else record
    record_idx = [system.index(node) for node in record]  # validate early

    # Snap each dt down so its grid lands exactly on its t_stop.  The
    # 1e-9 slack absorbs representation error when t_stop/dt is an exact
    # integer in real arithmetic.  Replicas on one (t_stop, steps) grid
    # share its time array.
    n_steps = np.maximum(1, np.ceil(t_stop / dt - 1e-9).astype(np.int64))
    dt_eff = t_stop / n_steps
    n_max = int(n_steps.max())
    grids: dict[tuple[float, int], np.ndarray] = {}
    times = []
    for stop, n in zip(t_stop.tolist(), n_steps.tolist()):
        if (stop, n) not in grids:
            grids[stop, n] = np.linspace(0.0, stop, n + 1)
        times.append(grids[stop, n])
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats(timesteps=n_max, dt_effective=float(dt_eff.min()))

    # Every source value for the whole run, evaluated once per waveform
    # and grid: (n_max+1, G, n_sources).
    src_grid = system.source_grid(times)

    # The run records only the requested nodes and the source branch
    # currents, replica-major so that each result is a contiguous view.
    # Ground aliases (index -1) keep their preset zero column.
    columns = record_idx + list(range(system.n_nodes, system.dim))
    kept = [c for c, i in enumerate(columns) if i >= 0]
    kept_idx = [columns[c] for c in kept]
    trace = np.zeros((g, len(columns), n_max + 1))
    x = np.zeros((g, system.dim))
    alive = np.ones(g, dtype=bool)
    scale = 1.0 if method == "be" else 2.0
    geq = scale * system.cap_c / dt_eff[:, None]  # (G, n_caps)
    with telemetry.span(f"spice.{kind}", circuit=circuits[0].title,
                        replicas=g, t_stop=float(t_stop.max()),
                        steps=n_max) as sp:
        def solve(step: int, running: np.ndarray, cap_companion) -> None:
            its, failures = _solve(system, x, src_grid[step], cap_companion,
                                   running, tracker, stats)
            if failures and kind == "transient":
                raise ConvergenceError(
                    f"no convergence at t={times[0][step]}: {failures[0]}")
            alive[list(failures)] = False
            stats.newton_iterations += its
            trace[:, kept, step] = x[:, kept_idx]

        solve(0, alive.copy(), None)
        v_cap_prev = system.cap_voltages(x)
        i_cap_prev = np.zeros_like(v_cap_prev)  # branch currents start at 0
        for step in range(1, n_max + 1):
            # A replica whose grid has ended is frozen like a converged one.
            running = alive & (n_steps >= step)
            if not running.any():
                break
            if method == "be":
                # i_C = C/dt * (v - v_prev): geq = C/dt, ieq = -C/dt * v_prev.
                ieq = -geq * v_cap_prev
            else:
                # Trapezoidal: i = 2C/dt * (v - v_prev) - i_prev.
                ieq = -geq * v_cap_prev - i_cap_prev
            solve(step, running, (geq, ieq))
            v_cap_new = system.cap_voltages(x)
            if method == "trap":
                i_cap_prev = geq * (v_cap_new - v_cap_prev) - i_cap_prev
            v_cap_prev = v_cap_new
        _publish(sp, kind, stats, system, tracker,
                 dt_effective=stats.dt_effective,
                 survivors=int(alive.sum()),
                 evicted=int(g - alive.sum()))

    n_rec = len(record)
    results: list[TransientResult | None] = []
    for r in range(g):
        if not alive[r]:
            results.append(None)
            continue
        end = int(n_steps[r]) + 1
        results.append(TransientResult(
            time=times[r],
            voltages={n: trace[r, c, :end] for c, n in enumerate(record)},
            source_currents={s.name: trace[r, n_rec + k, :end]
                             for k, s in enumerate(circuits[r].sources)},
            circuit_title=circuits[r].title,
            dt_effective=float(dt_eff[r]),
            stats=stats,
        ))
    return results
