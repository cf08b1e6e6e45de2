"""Test oracle for the MNA engine: per-element stamping and plain Newton.

The engine compiles its stamps into scatter arrays and runs masked
modified Newton over a batch of replicas.  This module is the slow,
obviously-correct counterpart it is pinned against: every element is
stamped by a Python loop, every Newton iteration assembles afresh and
calls ``np.linalg.solve``, and convergence uses the engine's own
``_VTOL`` and step clamp.  It has no escalation ladder, so it only
serves circuits plain Newton can solve.

Used by ``tests/spice/test_kernel_equivalence.py`` (equivalence to
1e-9) and ``benchmarks/test_bench_spice_kernel.py`` (the speedup
baseline).
"""

from __future__ import annotations

import numpy as np

from repro.spice.mna import _DERIV_STEP, GMIN_DEFAULT
from repro.spice.netlist import GROUND_NAMES, Circuit
from repro.spice.solver import _MAX_NR_ITERATIONS, _STEP_CLAMP, _VTOL


def node_index(circuit: Circuit) -> dict[str, int]:
    """Matrix row of every node name; ground aliases map to -1."""
    index = {name: i for i, name in enumerate(circuit.node_names())}
    for g in GROUND_NAMES:
        index[g] = -1
    return index


def _stamp_conductance(a: np.ndarray, i: int, j: int, g: float) -> None:
    if i >= 0:
        a[i, i] += g
    if j >= 0:
        a[j, j] += g
    if i >= 0 and j >= 0:
        a[i, j] -= g
        a[j, i] -= g


def assemble_reference(
    circuit: Circuit,
    v_guess: np.ndarray,
    t: float,
    gmin: float = GMIN_DEFAULT,
    cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
    source_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Linearized ``A x = z`` around ``v_guess``, one element at a time."""
    index = node_index(circuit)
    n_nodes = len(circuit.node_names())
    dim = n_nodes + len(circuit.sources)
    a = np.zeros((dim, dim))
    z = np.zeros(dim)

    for r in circuit.resistors:
        _stamp_conductance(a, index[r.n1], index[r.n2], 1.0 / r.resistance)
    for k, src in enumerate(circuit.sources):
        row = n_nodes + k
        for node, sign in ((src.pos, 1.0), (src.neg, -1.0)):
            i = index[node]
            if i >= 0:
                a[i, row] += sign
                a[row, i] += sign
        # Branch equation V(pos) - V(neg) = value(t).
        z[row] = source_scale * src.value(t)

    # gmin to ground on every node.
    for i in range(n_nodes):
        a[i, i] += gmin

    # Capacitors as Norton companions (transient only).
    if cap_companion is not None:
        geq, ieq = cap_companion
        for c, g, i_eq in zip(circuit.capacitors, geq, ieq):
            i, j = index[c.n1], index[c.n2]
            _stamp_conductance(a, i, j, g)
            if i >= 0:
                z[i] -= i_eq
            if j >= 0:
                z[j] += i_eq

    # FinFETs: one vectorized model call per model object (base point
    # plus two perturbed points), then per-device stamping.
    def volt(i: int) -> float:
        return v_guess[i] if i >= 0 else 0.0

    groups: dict[int, list] = {}
    for fet in circuit.finfets:
        groups.setdefault(id(fet.model), []).append(fet)
    temp = circuit.temperature_k
    for fets in groups.values():
        d_idx = [index[f.drain] for f in fets]
        g_idx = [index[f.gate] for f in fets]
        s_idx = [index[f.source] for f in fets]
        vs = np.array([volt(i) for i in s_idx])
        vgs = np.array([volt(i) for i in g_idx]) - vs
        vds = np.array([volt(i) for i in d_idx]) - vs
        n = len(fets)
        vgs_all = np.concatenate([vgs, vgs + _DERIV_STEP, vgs])
        vds_all = np.concatenate([vds, vds, vds + _DERIV_STEP])
        ids_all = np.asarray(fets[0].model.ids(vgs_all, vds_all, temp))
        i0 = ids_all[:n]
        gm = np.maximum((ids_all[n: 2 * n] - i0) / _DERIV_STEP, 0.0)
        gds = np.maximum((ids_all[2 * n:] - i0) / _DERIV_STEP, 1e-15)
        ieq = i0 - gm * vgs - gds * vds
        for k in range(n):
            di, gi, si = d_idx[k], g_idx[k], s_idx[k]
            if di >= 0:
                if gi >= 0:
                    a[di, gi] += gm[k]
                a[di, di] += gds[k]
                if si >= 0:
                    a[di, si] -= gm[k] + gds[k]
                z[di] -= ieq[k]
            if si >= 0:
                if gi >= 0:
                    a[si, gi] -= gm[k]
                if di >= 0:
                    a[si, di] -= gds[k]
                a[si, si] += gm[k] + gds[k]
                z[si] += ieq[k]
    return a, z


def newton_reference(
    circuit: Circuit,
    x0: np.ndarray,
    t: float,
    cap_companion: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Plain damped full Newton: fresh assembly and solve every step."""
    n_nodes = len(circuit.node_names())
    x = x0.copy()
    for _ in range(_MAX_NR_ITERATIONS):
        a, z = assemble_reference(circuit, x, t, cap_companion=cap_companion)
        delta = np.linalg.solve(a, z) - x
        max_dv = float(np.abs(delta[:n_nodes]).max()) if n_nodes else 0.0
        if max_dv > _STEP_CLAMP:
            delta[:n_nodes] *= _STEP_CLAMP / max_dv
        x = x + delta
        if max_dv < _VTOL:
            return x
    raise AssertionError(f"oracle Newton did not converge at t={t}")


def split(circuit: Circuit, x: np.ndarray) -> tuple[dict, dict]:
    """(node voltages, source branch currents) of a solution vector;
    ``x`` may carry a leading time axis."""
    nodes = circuit.node_names()
    volts = {n: x[..., i] for i, n in enumerate(nodes)}
    currents = {s.name: x[..., len(nodes) + k]
                for k, s in enumerate(circuit.sources)}
    return volts, currents


def dc_reference(circuit: Circuit, t: float = 0.0) -> tuple[dict, dict]:
    """DC operating point from a cold start: (voltages, currents)."""
    dim = len(circuit.node_names()) + len(circuit.sources)
    return split(circuit, newton_reference(circuit, np.zeros(dim), t))


def transient_reference(
    circuit: Circuit, t_stop: float, dt: float
) -> tuple[dict, dict]:
    """Backward-Euler transient on the engine's snapped time grid:
    (voltage waveforms, source current waveforms)."""
    n_steps = max(1, int(np.ceil(t_stop / dt - 1e-9)))
    dt_eff = t_stop / n_steps
    time = np.linspace(0.0, t_stop, n_steps + 1)
    dim = len(circuit.node_names()) + len(circuit.sources)
    index = node_index(circuit)
    caps = circuit.capacitors
    geq = np.array([c.capacitance / dt_eff for c in caps])

    def cap_voltages(x: np.ndarray) -> np.ndarray:
        v = np.append(x, 0.0)  # index -1 reads ground
        return np.array([v[index[c.n1]] - v[index[c.n2]] for c in caps])

    solution = np.empty((n_steps + 1, dim))
    solution[0] = newton_reference(circuit, np.zeros(dim), 0.0)
    for step in range(1, n_steps + 1):
        ieq = -geq * cap_voltages(solution[step - 1])
        solution[step] = newton_reference(circuit, solution[step - 1],
                                          time[step], (geq, ieq))
    return split(circuit, solution)
