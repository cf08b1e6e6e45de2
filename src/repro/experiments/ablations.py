"""Ablation experiments (ABL-1..4): design choices the paper discusses.

* ABL-1 popcount hardware: "the lack of a popcount instruction in the
  RISC-V instruction set architecture ... Hardware support would reduce
  the computation time significantly" (Section VI-C);
* ABL-2 kNN sqrt shortcut: "the computationally expensive square root
  operation is unnecessary and removed" (Eq. 2);
* ABL-3 HDC precomputed XOR: Eq. 4's rearrangement vs. the naive form;
* ABL-4 SRAM leakage vs. temperature and supply voltage: the power levers
  of Section VII ("further power reduction could be achieved by ...
  supply voltage reduction").
"""

from __future__ import annotations

import numpy as np

from repro.core.report import format_table
from repro.power.sram import SRAMPowerModel

__all__ = [
    "run",
    "report",
    "run_popcount",
    "run_knn_sqrt",
    "run_hdc_precompute",
    "run_sram_sweep",
]


def _default_study():
    from repro.core import CryoStudy, StudyConfig

    return CryoStudy(StudyConfig(fast=True, shots=15))


def run_popcount(study=None, n_qubits: int = 20) -> dict:
    """ABL-1: soft popcount vs. custom cpop instruction."""
    study = study or _default_study()
    soft, _ = study.hdc_cycles(n_qubits, hardware_popcount=False)
    hard, _ = study.hdc_cycles(n_qubits, hardware_popcount=True)
    return {
        "n_qubits": n_qubits,
        "software_cycles": soft,
        "hardware_cycles": hard,
        "speedup": soft / hard,
    }


def run_knn_sqrt(study=None, n_qubits: int = 20) -> dict:
    """ABL-2: radicand comparison vs. explicit square root."""
    study = study or _default_study()
    plain, plain_res = study.knn_cycles(n_qubits, with_sqrt=False)
    sqrt, sqrt_res = study.knn_cycles(n_qubits, with_sqrt=True)
    assert np.array_equal(plain_res.labels, sqrt_res.labels), (
        "sqrt must not change labels (monotonicity)"
    )
    return {
        "n_qubits": n_qubits,
        "radicand_cycles": plain,
        "sqrt_cycles": sqrt,
        "overhead": sqrt / plain,
    }


def run_hdc_precompute(study=None, n_qubits: int = 20) -> dict:
    """ABL-3: Eq. 4 precomputed XOR vs. the naive two-XOR form.

    Includes the footprint cost and -- at large qubit counts -- the cache
    side of the trade: bigger per-qubit tables can *lose* to the naive
    form once they thrash the L1.
    """
    study = study or _default_study()
    pre, _ = study.hdc_cycles(n_qubits, precomputed_xor=True)
    naive, _ = study.hdc_cycles(n_qubits, precomputed_xor=False)
    pre_big, _ = study.hdc_cycles(400, precomputed_xor=True)
    naive_big, _ = study.hdc_cycles(400, precomputed_xor=False)
    return {
        "n_qubits": n_qubits,
        "precomputed_cycles": pre,
        "naive_cycles": naive,
        "precomputed_cycles_400q": pre_big,
        "naive_cycles_400q": naive_big,
        "footprint_overhead_bytes": 256,
    }


def run_sram_sweep(
    models=None,
    temperatures=(10.0, 25.0, 50.0, 77.0, 150.0, 300.0),
    vdds=(0.50, 0.60, 0.70),
    total_kib: float = 577.25,
) -> dict:
    """ABL-4: SRAM hold leakage across temperature and supply voltage."""
    if models is None:
        from repro.cells import TechModels
        from repro.device import golden_nfet, golden_pfet

        models = TechModels(golden_nfet(), golden_pfet())
    bits = int(total_kib * 1024 * 8)
    grid = {}
    for vdd in vdds:
        for t in temperatures:
            grid[(vdd, t)] = SRAMPowerModel(models, t, vdd=vdd).total_leakage(
                bits
            )
    return {"grid": grid, "temperatures": temperatures, "vdds": vdds,
            "total_kib": total_kib}


def run(study=None) -> dict:
    """All four ablations as one result bundle (ABL-1..4)."""
    study = study or _default_study()
    return {
        "popcount": run_popcount(study),
        "knn_sqrt": run_knn_sqrt(study),
        "hdc_precompute": run_hdc_precompute(study),
        "sram_sweep": run_sram_sweep(),
    }


def report(result: dict | None = None) -> str:
    result = result or run()
    pc = result["popcount"]
    sq = result["knn_sqrt"]
    hp = result["hdc_precompute"]
    sw = result["sram_sweep"]

    sections = [
        format_table(
            ["variant", "cycles/meas"],
            [
                ["HDC, software popcount", f"{pc['software_cycles']:.1f}"],
                ["HDC, hardware cpop", f"{pc['hardware_cycles']:.1f}"],
                ["speedup", f"{pc['speedup']:.2f}x"],
            ],
            title="ABL-1: popcount hardware support (paper Section VI-C)",
        ),
        format_table(
            ["variant", "cycles/meas"],
            [
                ["kNN, radicand compare", f"{sq['radicand_cycles']:.1f}"],
                ["kNN, explicit sqrt", f"{sq['sqrt_cycles']:.1f}"],
                ["overhead", f"{sq['overhead']:.2f}x"],
            ],
            title="ABL-2: the Eq. 2 square-root shortcut",
        ),
        format_table(
            ["variant", "20 qubits", "400 qubits"],
            [
                ["HDC, Eq. 4 precomputed",
                 f"{hp['precomputed_cycles']:.1f}",
                 f"{hp['precomputed_cycles_400q']:.1f}"],
                ["HDC, naive two-XOR",
                 f"{hp['naive_cycles']:.1f}",
                 f"{hp['naive_cycles_400q']:.1f}"],
            ],
            title=(
                "ABL-3: Eq. 4 precomputation "
                f"(+{hp['footprint_overhead_bytes']} B footprint)"
            ),
        ),
    ]
    rows = []
    for t in sw["temperatures"]:
        rows.append(
            [f"{t:g} K"]
            + [f"{sw['grid'][(v, t)] * 1e3:.3f}" for v in sw["vdds"]]
        )
    sections.append(
        format_table(
            ["temperature"] + [f"Vdd={v:.2f} V (mW)" for v in sw["vdds"]],
            rows,
            title=(
                f"ABL-4: SRAM hold leakage, {sw['total_kib']:.0f} KiB "
                "inventory (paper Section VII power levers)"
            ),
        )
    )
    return "\n\n".join(sections)


# ---------------------------------------------------------------------- #
from repro.experiments.registry import experiment  # noqa: E402
from repro.provenance import FidelitySpec, metric  # noqa: E402

FIDELITY = FidelitySpec(metrics=(
    metric("sram_leak_300k_mw", 193.0,
           lambda r: r["sram_sweep"]["grid"][(0.7, 300.0)] * 1e3,
           rel=0.10, source="Fig. 6 (SRAM leak 193 mW at 300 K)"),
    metric("popcount_speedup_gt1", 1.0,
           lambda r: float(r["popcount"]["speedup"] > 1.0),
           abs=0.1,
           source="SVI-C ('hardware support would reduce ... "
                  "significantly')"),
    metric("sqrt_overhead_gt1", 1.0,
           lambda r: float(r["knn_sqrt"]["overhead"] > 1.0),
           abs=0.1, source="Eq. 2 (sqrt 'unnecessary and removed')"),
))


@experiment("ablations", "ABL-1..4 -- design-choice ablations",
            report=report, order=80, fidelity=FIDELITY)
def _experiment(study, config):
    return run(study)
