"""Modified nodal analysis: batched matrix assembly for the nonlinear solver.

An :class:`MNASystem` holds G structurally identical circuits (the
*replicas*); a single circuit is simply the ``G = 1`` case.  One
replica's unknown vector is ``[node voltages..., source branch
currents...]``; the system stacks G of them into ``(G, dim)`` and its
matrix is the block-diagonal stack ``A`` of shape ``(G, dim, dim)``.

Every stamp is compiled once in ``__init__`` from replica 0 into flat
scatter-index/value arrays (static conductances, the gmin diagonal,
capacitor companions, per-device FinFET entry coefficients with ground
masked out at compile time) and offset per replica.  :meth:`assemble` is
then a handful of ``np.add.at`` scatters plus ONE stacked compact-model
call (``repro.device.finfet.stack_models``) for every device of every
replica -- no Python loop over devices, capacitors, nodes or replicas per
Newton iteration.  :meth:`rhs` rebuilds the RHS around *frozen* device
companions, which makes the solver's modified-Newton bypass iterations
free of compact-model calls.

Replica blocks never couple: every method is elementwise per replica, so
block ``r`` is bit-equal to the system built from ``circuits[r]`` alone,
and the solver can freeze or evict one replica without perturbing the
others.
"""

from __future__ import annotations

import numpy as np

from repro.device.finfet import stack_models
from repro.errors import ConfigError, NetlistError
from repro.spice.netlist import GROUND_NAMES, Circuit

__all__ = ["MNASystem"]

#: Finite-difference step for device linearization (V).
_DERIV_STEP = 1e-5

#: Conductance from every node to ground, aiding DC convergence and making
#: capacitor-only nodes non-singular.
GMIN_DEFAULT = 1e-12

#: Per-device companion stamp pattern: (row, col, gm coeff, gds coeff)
#: selectors into the (drain, gate, source) index triple.  Ground rows and
#: columns are masked out at compile time.
_FET_MATRIX_PATTERN = (
    ("d", "g", 1.0, 0.0),
    ("d", "d", 0.0, 1.0),
    ("d", "s", -1.0, -1.0),
    ("s", "g", -1.0, 0.0),
    ("s", "d", 0.0, -1.0),
    ("s", "s", 1.0, 1.0),
)


class MNASystem:
    """G structurally identical circuits tiled into one batched system.

    The replicas of one characterization row (same cell, same stimulus
    edge, different load caps) share one topology, so the scatter
    indices are compiled once from ``circuits[0]`` and offset per
    replica; every per-replica quantity (element values, source
    waveforms) lives in a ``(G, ...)`` array.  All FinFETs across all
    replicas are folded into one stacked evaluator, so each Newton
    iteration makes ONE compact-model call for the whole batch.
    """

    def __init__(self, circuits: list[Circuit]):
        circuits = list(circuits)
        if not circuits:
            raise ConfigError("MNASystem needs at least one circuit",
                              field="circuits")
        _check_structure(circuits)
        ref = circuits[0]
        g = len(circuits)
        self.n_replicas = g
        self.temperature_k = ref.temperature_k
        self.nodes = ref.node_names()
        self._index = {name: i for i, name in enumerate(self.nodes)}
        for gnd in GROUND_NAMES:
            self._index[gnd] = -1
        self.n_nodes = len(self.nodes)
        self.n_sources = len(ref.sources)
        self.dim = dim = self.n_nodes + self.n_sources
        block = dim * dim

        #: Jacobian reuse state installed by the solver (kept here so the
        #: solver's internal call signatures stay monkeypatch-stable).
        self.jacobian_cache = None
        #: Last (gmin, geq-array, matrix) base bake; see _base_matrix.
        self._baked = None

        # Static (bias-independent) stamps: resistors and source incidence,
        # per replica, in the same order for every replica.
        self._static = np.zeros((g, dim, dim))
        for r, circ in enumerate(circuits):
            a = self._static[r]
            for res in circ.resistors:
                self._stamp_conductance(a, res.n1, res.n2,
                                        1.0 / res.resistance)
            for k, src in enumerate(circ.sources):
                row = self.n_nodes + k
                for node, sign in ((src.pos, 1.0), (src.neg, -1.0)):
                    i = self.index(node)
                    if i >= 0:
                        a[i, row] += sign
                        a[row, i] += sign
        self._sources = [circ.sources for circ in circuits]
        #: Flat indices of the node-diagonal entries (gmin stamp).
        self._diag_flat = np.arange(self.n_nodes) * (dim + 1)
        #: RHS rows of the source branch equations.
        self._src_rows = self.n_nodes + np.arange(self.n_sources)

        # Offset one replica's scatter arrays per replica: matrix-flat
        # indices shift by r*dim*dim into the raveled (G, dim, dim) stack,
        # RHS rows by r*dim, and per-element gather keys (device index,
        # cap index) by r*count into the replica-major value arrays.
        def tile(idx: list, stride: int) -> np.ndarray:
            idx = np.asarray(idx, dtype=int)
            return (np.tile(idx, g)
                    + np.repeat(np.arange(g) * stride, idx.size))

        # Capacitors: per-cap terminal indices (-1 = ground) plus the
        # masked scatter pattern for the four conductance entries and the
        # two RHS entries of each companion.
        caps = ref.capacitors
        n_caps = len(caps)
        #: (G, n_caps) capacitances -- the per-replica load values.
        self.cap_c = np.array(
            [[c.capacitance for c in circ.capacitors] for circ in circuits]
        ).reshape(g, n_caps)
        self._cap_i = np.array([self.index(c.n1) for c in caps], dtype=int)
        self._cap_j = np.array([self.index(c.n2) for c in caps], dtype=int)
        mat_flat, mat_sign, mat_k = [], [], []
        rhs_row, rhs_sign, rhs_k = [], [], []
        for k, (i, j) in enumerate(zip(self._cap_i, self._cap_j)):
            for r, c, sign in ((i, i, 1.0), (j, j, 1.0),
                               (i, j, -1.0), (j, i, -1.0)):
                if r >= 0 and c >= 0:
                    mat_flat.append(r * dim + c)
                    mat_sign.append(sign)
                    mat_k.append(k)
            for node, sign in ((i, -1.0), (j, 1.0)):
                if node >= 0:
                    rhs_row.append(node)
                    rhs_sign.append(sign)
                    rhs_k.append(k)
        self._cap_mat_flat = tile(mat_flat, block)
        self._cap_mat_sign = np.tile(mat_sign, g)
        self._cap_mat_k = tile(mat_k, n_caps)
        self._cap_rhs_row = tile(rhs_row, dim)
        self._cap_rhs_sign = np.tile(rhs_sign, g)
        self._cap_rhs_k = tile(rhs_k, n_caps)

        # FinFETs: grouped by model object, with one global device
        # ordering so all groups share one scatter pass and one stacked
        # evaluator.  tile=3*G serves the finite-difference layout
        # [base | vgs+step | vds+step] for the whole batch in one call.
        by_model: dict[int, list] = {}
        for fet in ref.finfets:
            by_model.setdefault(id(fet.model), []).append(fet)
        fets = [f for group in by_model.values() for f in group]
        self.n_fets = n_fets = len(fets)
        self._fet_d = np.array([self.index(f.drain) for f in fets], dtype=int)
        self._fet_g = np.array([self.index(f.gate) for f in fets], dtype=int)
        self._fet_s = np.array([self.index(f.source) for f in fets],
                               dtype=int)
        self._stack3 = None
        if n_fets:
            self._stack3 = stack_models(
                [group[0].model for group in by_model.values()],
                [len(group) for group in by_model.values()], tile=3 * g)
        mat_flat, mat_cgm, mat_cgds, mat_k = [], [], [], []
        rhs_row, rhs_sign, rhs_k = [], [], []
        for k in range(n_fets):
            terminal = {"d": self._fet_d[k], "g": self._fet_g[k],
                        "s": self._fet_s[k]}
            for rt, ct, cgm, cgds in _FET_MATRIX_PATTERN:
                r, c = terminal[rt], terminal[ct]
                if r >= 0 and c >= 0:
                    mat_flat.append(r * dim + c)
                    mat_cgm.append(cgm)
                    mat_cgds.append(cgds)
                    mat_k.append(k)
            for node, sign in ((terminal["d"], -1.0), (terminal["s"], 1.0)):
                if node >= 0:
                    rhs_row.append(node)
                    rhs_sign.append(sign)
                    rhs_k.append(k)
        self._fet_mat_flat = tile(mat_flat, block)
        self._fet_mat_cgm = np.tile(mat_cgm, g)
        self._fet_mat_cgds = np.tile(mat_cgds, g)
        self._fet_mat_k = tile(mat_k, n_fets)
        self._fet_rhs_row = tile(rhs_row, dim)
        self._fet_rhs_sign = np.tile(rhs_sign, g)
        self._fet_rhs_k = tile(rhs_k, n_fets)

    # ------------------------------------------------------------------ #
    def index(self, node: str) -> int:
        """Return the matrix row of a node (-1 for ground)."""
        try:
            return self._index[node]
        except KeyError:
            raise NetlistError(f"unknown node {node!r}",
                               element=node) from None

    def _stamp_conductance(
        self, matrix: np.ndarray, n1: str, n2: str, g: float
    ) -> None:
        i = self.index(n1)
        j = self.index(n2)
        if i >= 0:
            matrix[i, i] += g
        if j >= 0:
            matrix[j, j] += g
        if i >= 0 and j >= 0:
            matrix[i, j] -= g
            matrix[j, i] -= g

    def _extended(self, x: np.ndarray) -> np.ndarray:
        """(G, dim+1) copy with a trailing 0.0 so index -1 reads ground."""
        return np.concatenate(
            [x, np.zeros((self.n_replicas, 1))], axis=1)

    def source_values(self, t: float) -> np.ndarray:
        """(G, n_sources) source values at time ``t``."""
        return np.array(
            [[src.value(t) for src in srcs] for srcs in self._sources]
        ).reshape(self.n_replicas, self.n_sources)

    def source_grid(self, times: np.ndarray) -> np.ndarray:
        """(n_times, G, n_sources) source values over a whole time grid.

        Waveform objects shared across replicas (the common case: only
        the load differs within a characterization row) are evaluated
        once.  Precomputing the grid up front removes every per-iteration
        Python waveform call from the transient driver.
        """
        from repro.spice.sources import waveform_values

        times = np.asarray(times, dtype=float)
        out = np.empty((times.size, self.n_replicas, self.n_sources))
        cache: dict[int, np.ndarray] = {}
        for r, srcs in enumerate(self._sources):
            for k, src in enumerate(srcs):
                wave = src.waveform
                vals = cache.get(id(wave))
                if vals is None:
                    vals = waveform_values(wave, times)
                    cache[id(wave)] = vals
                out[:, r, k] = vals
        return out

    def cap_voltages(self, x: np.ndarray) -> np.ndarray:
        """(G, n_caps) capacitor branch voltages at solution ``x``."""
        v_ext = self._extended(x)
        return v_ext[:, self._cap_i] - v_ext[:, self._cap_j]

    # ------------------------------------------------------------------ #
    def assemble(
        self,
        x: np.ndarray,
        source_values: np.ndarray,
        gmin: float = GMIN_DEFAULT,
        cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
        source_scale: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the linearized system ``A x = z`` around ``x``.

        ``x`` is ``(G, dim)``; ``source_values`` is ``(G, n_sources)``
        (see :meth:`source_values` / :meth:`source_grid`), multiplied by
        ``source_scale`` -- the continuation parameter for source
        stepping.  ``cap_companion`` carries per-replica ``(geq, ieq)``
        arrays of shape ``(G, n_caps)`` from the transient integrator;
        ``None`` means DC (capacitors open).

        Returns ``A`` of shape ``(G, dim, dim)``, ``z`` of shape
        ``(G, dim)`` and the replica-major device Norton currents
        ``fet_ieq`` of shape ``(G * n_fets,)``.  With those frozen,
        :meth:`rhs` rebuilds ``z`` for a new timestep without any
        compact-model call.
        """
        a = self._base_matrix(gmin, cap_companion)
        z = self.rhs(source_values, cap_companion, None, source_scale)
        ieq_f = np.empty(0)
        if self.n_fets:
            gm, gds, ieq_f = self._device_linearization(x)
            np.add.at(
                a.reshape(-1), self._fet_mat_flat,
                self._fet_mat_cgm * gm[self._fet_mat_k]
                + self._fet_mat_cgds * gds[self._fet_mat_k],
            )
            np.add.at(z.reshape(-1), self._fet_rhs_row,
                      self._fet_rhs_sign * ieq_f[self._fet_rhs_k])
        return a, z, ieq_f

    def _base_matrix(self, gmin: float, cap_companion) -> np.ndarray:
        """Static + gmin + capacitor-geq stack, baked across iterations.

        Within one transient the integrator passes the *same* geq array
        object every step and gmin only changes on escalation, so the
        bias-independent part of ``A`` is cached keyed on
        ``(gmin, id(geq))`` and re-copied instead of re-scattered.  The
        bake performs the identical additions in the identical order, so
        the result is bit-equal to scattering afresh.
        """
        if cap_companion is None:
            a = self._static.copy()
            a.reshape(self.n_replicas, -1)[:, self._diag_flat] += gmin
            return a
        geq = np.asarray(cap_companion[0])
        baked = self._baked
        if baked is not None and baked[0] == gmin and baked[1] is geq:
            return baked[2].copy()
        a = self._static.copy()
        a.reshape(self.n_replicas, -1)[:, self._diag_flat] += gmin
        if self._cap_mat_k.size:
            np.add.at(a.reshape(-1), self._cap_mat_flat,
                      self._cap_mat_sign * geq.reshape(-1)[self._cap_mat_k])
        self._baked = (gmin, geq, a)
        return a.copy()

    def rhs(
        self,
        source_values: np.ndarray,
        cap_companion: tuple[np.ndarray, np.ndarray] | None,
        fet_ieq: np.ndarray | None,
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """(G, dim) RHS with *frozen* device companions ``fet_ieq``.

        Sources and capacitor companions are stamped for the new point;
        the device Norton currents are taken verbatim from a previous
        linearization (``None`` leaves them out).
        """
        z = np.zeros((self.n_replicas, self.dim))
        if self.n_sources:
            z[:, self._src_rows] = source_scale * source_values
        if cap_companion is not None and self._cap_rhs_k.size:
            ieq = np.asarray(cap_companion[1]).reshape(-1)
            np.add.at(z.reshape(-1), self._cap_rhs_row,
                      self._cap_rhs_sign * ieq[self._cap_rhs_k])
        if fet_ieq is not None and self.n_fets:
            np.add.at(z.reshape(-1), self._fet_rhs_row,
                      self._fet_rhs_sign * fet_ieq[self._fet_rhs_k])
        return z

    def _device_linearization(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(gm, gds, ieq), replica-major, from ONE stacked model call."""
        v_ext = self._extended(x)
        vgs = (v_ext[:, self._fet_g] - v_ext[:, self._fet_s]).reshape(-1)
        vds = (v_ext[:, self._fet_d] - v_ext[:, self._fet_s]).reshape(-1)
        n = vgs.size
        # Base point plus two perturbed points, all devices at once.
        vgs_all = np.concatenate([vgs, vgs + _DERIV_STEP, vgs])
        vds_all = np.concatenate([vds, vds, vds + _DERIV_STEP])
        ids_all = np.asarray(
            self._stack3.ids(vgs_all, vds_all, self.temperature_k))
        i0 = ids_all[:n]
        gm = (ids_all[n: 2 * n] - i0) / _DERIV_STEP
        gds = (ids_all[2 * n:] - i0) / _DERIV_STEP
        # Keep the Jacobian positive semi-definite-ish: tiny negative
        # numerical slopes are clipped.
        gm = np.maximum(gm, 0.0)
        gds = np.maximum(gds, 1e-15)
        ieq = i0 - gm * vgs - gds * vds
        return gm, gds, ieq


def _check_structure(circuits: list[Circuit]) -> None:
    """Replicas must be element-for-element the same topology."""
    ref = circuits[0]
    ref_nodes = ref.node_names()
    for r, circ in enumerate(circuits[1:], start=1):
        if circ.temperature_k != ref.temperature_k:
            raise NetlistError(
                f"replica {r} temperature {circ.temperature_k} K != "
                f"replica 0 {ref.temperature_k} K", element=circ.title)
        if circ.node_names() != ref_nodes:
            raise NetlistError(
                f"replica {r} node set differs from replica 0",
                element=circ.title)
        pairs = [
            (ref.resistors, circ.resistors,
             lambda e: (e.name, e.n1, e.n2)),
            (ref.capacitors, circ.capacitors,
             lambda e: (e.name, e.n1, e.n2)),
            (ref.sources, circ.sources,
             lambda e: (e.name, e.pos, e.neg)),
            (ref.finfets, circ.finfets,
             lambda e: (e.name, e.drain, e.gate, e.source)),
        ]
        for ref_elems, elems, keyfn in pairs:
            if [keyfn(e) for e in ref_elems] != [keyfn(e) for e in elems]:
                raise NetlistError(
                    f"replica {r} element structure differs from "
                    f"replica 0", element=circ.title)
        for ref_fet, fet in zip(ref.finfets, circ.finfets):
            if fet.model is not ref_fet.model:
                raise NetlistError(
                    f"replica {r} device {fet.name} uses a different "
                    f"model object than replica 0 (replicas must "
                    f"share models for stacked evaluation)",
                    element=fet.name)
