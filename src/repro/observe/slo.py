"""Service-level objectives: burn-rate verdicts on serving counts.

The serving layer promises two objectives over one ``ERROR_BUDGET``:

* **latency** -- at most an ``ERROR_BUDGET`` fraction of requests may
  exceed the session's ``latency_ms`` target (the paper's
  per-classification decoherence budget, scaled for the
  JSON-over-socket host service exactly as the serving benchmark
  scales it);
* **errors** -- at most an ``ERROR_BUDGET`` fraction of requests may
  fail server-side (deadline expiries and internal errors burn budget;
  client mistakes -- 400/404 -- and typed 429 back-pressure do not:
  rejecting work *is* the overload contract).

:func:`evaluate` turns observed counts into an :class:`SLOReport` on
the same PASS/WARN/FAIL scale the fidelity machinery uses, graded by
**burn rate** -- the ratio of the observed bad fraction to the budget.
Burn rate <= 1.0 means the budget outlives the session (PASS); above
1.0 the budget is burning faster than allowed (WARN), and above
``FAST_BURN`` it is burning so fast the objective is effectively gone
(FAIL) -- the verdict ``repro report --strict`` gates on.

The server grades the session-cumulative counts: the same report
answers the ``{"op": "stats"}`` snapshot (and ``repro top``) while the
session runs and is folded into the ``kind="serve"`` RunRecord at
shutdown.  The rolling window only shows raw rates and quantiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.provenance.fidelity import FAIL, PASS, WARN

__all__ = ["SLOReport", "evaluate"]

#: The paper's per-classification decoherence budget (Fig. 2(c)).
DECOHERENCE_BUDGET_MS = 0.110

#: Wire scale for a batched JSON host service (matches the serving
#: benchmark's ``BUDGET_SCALE``): 110 us x 1000 = 110 ms per request.
DEFAULT_LATENCY_MS = DECOHERENCE_BUDGET_MS * 1000

#: Error budget: 1 % of requests may be slow/failed per objective.
ERROR_BUDGET = 0.01

#: Burn rate beyond which an objective FAILs instead of WARNing.
FAST_BURN = 2.0


@dataclass(frozen=True)
class SLOReport:
    """Graded objectives; shape mirrors the fidelity report dicts."""

    verdict: str
    checks: tuple[dict, ...]
    total: int

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "checks": [dict(c) for c in self.checks],
                "total": self.total}

    def metrics(self) -> dict[str, float]:
        """Flat burn-rate metrics for RunRecord.metrics."""
        return {f"serve.slo_{c['name']}_burn_rate": c["burn_rate"]
                for c in self.checks}


def _grade(burn_rate: float) -> str:
    if burn_rate <= 1.0:
        return PASS
    if burn_rate <= FAST_BURN:
        return WARN
    return FAIL


def evaluate(latency_ms: float, *, total: int, latency_violations: int,
             errors: int) -> SLOReport:
    """Grade observed counts against the objectives (module docstring).

    ``total`` requests, of which ``latency_violations`` exceeded the
    ``latency_ms`` target and ``errors`` failed server-side.  Zero
    traffic is a PASS with zero burn: an idle service has burned
    nothing.
    """
    checks = []
    worst = PASS
    for name, bad, objective in (
        ("latency", latency_violations,
         f"p(latency > {latency_ms:g} ms) <= {ERROR_BUDGET:g}"),
        ("errors", errors,
         f"p(server error) <= {ERROR_BUDGET:g}"),
    ):
        fraction = bad / total if total else 0.0
        burn = fraction / ERROR_BUDGET
        status = _grade(burn)
        checks.append({
            "name": name,
            "objective": objective,
            "bad": int(bad),
            "fraction": round(fraction, 6),
            "burn_rate": round(burn, 4),
            "status": status,
        })
        order = (PASS, WARN, FAIL)
        if order.index(status) > order.index(worst):
            worst = status
    return SLOReport(verdict=worst, checks=tuple(checks), total=int(total))
