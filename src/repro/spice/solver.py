"""DC and transient solution of MNA circuits: one batched engine.

* :func:`dc_operating_point` -- damped Newton-Raphson with automatic gmin
  stepping and a source-stepping (continuation) fallback on
  non-convergence.
* :func:`transient` -- fixed-step backward-Euler integration (L-stable; the
  characterization flow picks steps ~100x smaller than the fastest
  transition, where BE's first-order error is negligible against the
  compact-model accuracy).
* :func:`transient_grid` -- the same integration for G structurally
  identical circuits stepped in lockstep on one shared time grid.

All three run the same driver on a :class:`~repro.spice.mna.MNASystem`:
a single circuit is simply a batch of G = 1.  Results come back as
:class:`OperatingPoint` / :class:`TransientResult`, which expose per-node
:class:`~repro.spice.waveform.Waveform` objects and per-source branch
currents for energy integration.

Robustness: every public entry point accepts an optional
:class:`SolverBudget` bounding total Newton iterations and wall-clock
time, so one pathological solve cannot stall a library build.  Budget
exhaustion raises :class:`~repro.errors.SolverBudgetError`.  Every solve
walks the escalation ladder (plain NR -> gmin ladder -> source stepping)
on exactly the replicas that have not converged; a replica that fails
the whole ladder is evicted from its batch, and a single-circuit solve
raises :class:`ConvergenceError` carrying the full escalation history.

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
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.errors import ConfigError, SolverBudgetError, SolverError
from repro.spice.mna import GMIN_DEFAULT, MNASystem
from repro.spice.netlist import Circuit
from repro.spice.waveform import Waveform

__all__ = ["BudgetConsumption", "ConvergenceError", "OperatingPoint",
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
    """Transient steps solved (0 for a DC solve)."""
    budget_charges: int = 0
    """Times the :class:`SolverBudget` tracker was consulted."""
    dt_effective: float = 0.0
    """The timestep actually used (transient only)."""
    jacobian_reuses: int = 0
    """Newton iterations served by a reused Jacobian (modified Newton);
    0 for cold DC solves."""


@dataclass(frozen=True)
class BudgetConsumption:
    """Snapshot of what a solve has drawn against a :class:`SolverBudget`."""

    iterations: int
    seconds: float
    max_iterations: int | None = None
    max_seconds: float | None = None

    @property
    def iterations_remaining(self) -> int | None:
        if self.max_iterations is None:
            return None
        return max(0, self.max_iterations - self.iterations)

    @property
    def seconds_remaining(self) -> float | None:
        if self.max_seconds is None:
            return None
        return max(0.0, self.max_seconds - self.seconds)


@dataclass(frozen=True)
class SolverBudget:
    """Per-solve resource bounds.

    ``max_iterations`` caps the *total* Newton iterations spent by one
    ``dc_operating_point``/``transient`` call (summed over timesteps and
    continuation ladders); ``max_seconds`` caps its wall-clock time.
    ``None`` disables a bound.

    A budget is observable mid-run: :meth:`consumed` reports what the
    most recent solve using this budget has drawn so far, so a caller
    can watch the remaining headroom instead of waiting for
    :class:`~repro.errors.SolverBudgetError` to fire.
    """

    max_iterations: int | None = None
    max_seconds: float | None = None
    _last_tracker: "_BudgetTracker | None" = field(
        default=None, repr=False, compare=False
    )

    def tracker(self) -> "_BudgetTracker":
        t = _BudgetTracker(self)
        # Frozen dataclass: the tracker backref is bookkeeping, not
        # identity, hence the direct __setattr__.
        object.__setattr__(self, "_last_tracker", t)
        return t

    def consumed(self) -> BudgetConsumption:
        """Iterations/wall-clock drawn by the most recent solve.

        Wall-clock advances in real time (not only at charge points),
        so polling mid-run sees the true elapsed cost even while the
        solver is grinding inside one Newton ladder.
        """
        t = self._last_tracker
        if t is None:
            return BudgetConsumption(0, 0.0, self.max_iterations,
                                     self.max_seconds)
        return BudgetConsumption(t.iterations, t.elapsed(),
                                 self.max_iterations, self.max_seconds)


class _BudgetTracker:
    """Mutable iteration/time accounting for one solve call."""

    def __init__(self, budget: SolverBudget):
        self.budget = budget
        self.iterations = 0
        self.charges = 0
        self.t0 = _time.monotonic()

    def elapsed(self) -> float:
        return _time.monotonic() - self.t0

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
    t: float,
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
        int(r): (f"no convergence at t={t}: plain NR failed, gmin ladder "
                 f"failed at gmin={gmin_failed[r]} (ladder={_GMIN_LADDER}), "
                 f"and source stepping failed at scale={source_failed[r]}")
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
    circuit: Circuit,
    t: float = 0.0,
    budget: SolverBudget | None = None,
) -> OperatingPoint:
    """Solve the DC operating point with sources evaluated at time ``t``.

    Raises :class:`ConvergenceError` when the whole escalation ladder
    fails.
    """
    system = _make_system([circuit])
    x = np.zeros((1, system.dim))
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats()
    with telemetry.span("spice.dc_operating_point",
                        circuit=circuit.title) as sp:
        its, failures = _solve(system, x, system.source_values(t), None,
                               np.ones(1, dtype=bool), tracker, stats, t)
        if failures:
            raise ConvergenceError(failures[0])
        stats.newton_iterations = its
        _publish(sp, "dc", stats, system, tracker)
    voltages = {n: float(x[0, i]) for i, n in enumerate(system.nodes)}
    currents = {
        src.name: float(x[0, system.n_nodes + k])
        for k, src in enumerate(circuit.sources)
    }
    return OperatingPoint(voltages=voltages, source_currents=currents,
                          iterations=its, stats=stats)


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
    t_stop: float,
    dt: float,
    record: list[str] | None = None,
    method: str = "be",
    budget: SolverBudget | None = None,
) -> list[TransientResult | None]:
    """Fixed-step transient of G structurally identical circuits at once.

    The replicas (same topology, per-replica element values and source
    waveforms -- e.g. one load row of an NLDM characterization grid) are
    tiled into one :class:`~repro.spice.mna.MNASystem` and stepped in
    lockstep on one shared time grid: each Newton iteration makes ONE
    compact-model call and ONE batched block solve for the whole grid,
    and every source value on the grid is precomputed up front, so the
    per-step Python overhead is paid once per *batch* instead of once
    per point.  Parameters are those of :func:`transient`.

    Masked convergence / eviction: replicas that converge within a step
    freeze until the next step; a replica that fails the whole
    escalation ladder at some step is **evicted** -- its slot in the
    returned list is ``None`` and the survivors continue unperturbed.
    Callers replay evicted points on their own (see
    ``repro.cells.characterize._solve_point_resilient``), so one bad
    corner never voids the batch.  A :class:`SolverBudget` bounds the
    whole batch; exhaustion raises
    :class:`~repro.errors.SolverBudgetError` (the batch, unlike a
    replica, cannot be partially salvaged).

    Returns one :class:`TransientResult` per input circuit, in order,
    with ``None`` for evicted replicas.  All results share the batch's
    :class:`SolverStats` object.
    """
    return _transient(circuits, t_stop, dt, record, method, budget,
                      kind="transient_grid")


def _transient(
    circuits: list[Circuit],
    t_stop: float,
    dt: float,
    record: list[str] | None,
    method: str,
    budget: SolverBudget | None,
    kind: str,
) -> list[TransientResult | None]:
    """The transient driver behind both public entry points.

    ``kind`` names the telemetry span (``spice.<kind>``) and counters.
    A ``"transient"`` run raises :class:`ConvergenceError` at the first
    failed step; a ``"transient_grid"`` run evicts the failed replica.
    """
    if not np.isfinite(dt) or not np.isfinite(t_stop) \
            or dt <= 0 or t_stop <= 0:
        raise ConfigError("t_stop and dt must be finite and positive",
                          field="dt")
    if method not in ("be", "trap"):
        raise ConfigError(f"unknown integration method {method!r}",
                          field="method")
    if t_stop / dt > _MAX_TRANSIENT_STEPS:
        raise ConfigError(
            f"oversized transient: t_stop/dt = {t_stop / dt:.3g} steps "
            f"exceeds the {_MAX_TRANSIENT_STEPS} cap", field="dt")
    system = _make_system(circuits)
    g = system.n_replicas
    record = system.nodes if record is None else record
    record_idx = [system.index(node) for node in record]  # validate early

    # Snap dt down so the grid lands exactly on t_stop.  The 1e-9 slack
    # absorbs representation error when t_stop/dt is an exact integer in
    # real arithmetic.
    n_steps = max(1, int(np.ceil(t_stop / dt - 1e-9)))
    dt_eff = t_stop / n_steps
    time = np.linspace(0.0, t_stop, n_steps + 1)
    tracker = budget.tracker() if budget is not None else None
    stats = SolverStats(timesteps=n_steps, dt_effective=dt_eff)

    # Every source value for the whole run, evaluated once (shared
    # waveforms once per batch): (n_steps+1, G, n_sources).
    src_grid = system.source_grid(time)

    # The whole run records into one preallocated array; per-node
    # waveforms are sliced out once at the end.
    x = np.zeros((g, system.dim))
    alive = np.ones(g, dtype=bool)
    solution = np.empty((n_steps + 1, g, system.dim))
    scale = 1.0 if method == "be" else 2.0
    geq = scale * system.cap_c / dt_eff  # (G, n_caps)
    with telemetry.span(f"spice.{kind}", circuit=circuits[0].title,
                        replicas=g, t_stop=t_stop, steps=n_steps) as sp:
        def solve(step: int, cap_companion) -> None:
            its, failures = _solve(system, x, src_grid[step], cap_companion,
                                   alive, tracker, stats, time[step])
            if failures and kind == "transient":
                raise ConvergenceError(failures[0])
            stats.newton_iterations += its
            solution[step] = x

        solve(0, None)
        v_cap_prev = system.cap_voltages(x)
        i_cap_prev = np.zeros_like(v_cap_prev)  # branch currents start at 0
        for step in range(1, n_steps + 1):
            if not alive.any():
                break
            if method == "be":
                # i_C = C/dt * (v - v_prev): geq = C/dt, ieq = -C/dt * v_prev.
                ieq = -geq * v_cap_prev
            else:
                # Trapezoidal: i = 2C/dt * (v - v_prev) - i_prev.
                ieq = -geq * v_cap_prev - i_cap_prev
            solve(step, (geq, ieq))
            v_cap_new = system.cap_voltages(x)
            if method == "trap":
                i_cap_prev = geq * (v_cap_new - v_cap_prev) - i_cap_prev
            v_cap_prev = v_cap_new
        _publish(sp, kind, stats, system, tracker, dt_effective=dt_eff,
                 survivors=int(alive.sum()),
                 evicted=int(g - alive.sum()))

    # Slice out recorded nodes; a trailing zero column serves ground
    # aliases (index -1) without per-step special-casing.
    extended = np.concatenate(
        [solution, np.zeros((n_steps + 1, g, 1))], axis=2)
    results: list[TransientResult | None] = []
    for r in range(g):
        if not alive[r]:
            results.append(None)
            continue
        volts = {
            n: np.ascontiguousarray(extended[:, r, i])
            for n, i in zip(record, record_idx)
        }
        src_currents = {
            s.name: np.ascontiguousarray(solution[:, r, system.n_nodes + k])
            for k, s in enumerate(circuits[r].sources)
        }
        results.append(TransientResult(
            time=time,
            voltages=volts,
            source_currents=src_currents,
            circuit_title=circuits[r].title,
            dt_effective=dt_eff,
            stats=stats,
        ))
    return results
