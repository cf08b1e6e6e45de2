"""Coverage accounting for resilient characterization runs.

A library build used to be all-or-nothing: one unconverged transient in
~10^5 cell-characterization solves aborted the entire corner.  The
resilient build (:func:`repro.cells.library.build_library`) instead
records, per cell, whether it was characterized cleanly, recovered on
the retry ladder, or quarantined -- and returns this report alongside
the (possibly partial) library so flow stages can decide whether the
coverage is acceptable instead of dying on the first bad corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CoverageReport"]


@dataclass
class CoverageReport:
    """Per-cell outcome of one library characterization run."""

    library: str
    total: int = 0
    clean: list[str] = field(default_factory=list)
    degraded: dict[str, str] = field(default_factory=dict)
    """Cells that needed the retry ladder: name -> how they recovered."""
    quarantined: dict[str, str] = field(default_factory=dict)
    """Cells the build gave up on: name -> final failure."""
    build_seconds: dict[str, float] = field(default_factory=dict)
    """Per-cell characterization wall time: name -> seconds (includes
    quarantined cells -- the time was spent either way)."""
    total_seconds: float = 0.0
    """Wall time of the whole library build."""

    # -------------------------------------------------------------- #
    @property
    def characterized(self) -> int:
        return len(self.clean) + len(self.degraded)

    @property
    def coverage(self) -> float:
        """Fraction of the catalog that made it into the library."""
        return self.characterized / self.total if self.total else 1.0

    @property
    def complete(self) -> bool:
        return not self.quarantined

    def require(self, min_coverage: float = 1.0) -> None:
        """Raise if coverage fell below a floor -- the hook for flow
        stages that cannot tolerate holes (e.g. technology mapping needs
        every logic footprint present).  The error's ``cell`` is the
        first quarantined cell in catalog order."""
        from repro.errors import CharacterizationError

        if self.coverage < min_coverage:
            worst = ", ".join(
                f"{name} ({reason})"
                for name, reason in list(self.quarantined.items())[:5]
            )
            raise CharacterizationError(
                f"library {self.library!r} coverage "
                f"{self.coverage:.1%} < required {min_coverage:.1%}; "
                f"quarantined: {worst}",
                cell=next(iter(self.quarantined), ""),
            )

    def slowest_cells(self, n: int = 5) -> list[tuple[str, float]]:
        """The ``n`` most expensive cells of the build, slowest first."""
        ranked = sorted(self.build_seconds.items(), key=lambda kv: -kv[1])
        return ranked[:n]

    def summary(self) -> str:
        lines = [
            f"coverage report: {self.library}",
            f"  catalog {self.total} cells | clean {len(self.clean)} | "
            f"degraded {len(self.degraded)} | "
            f"quarantined {len(self.quarantined)} "
            f"({self.coverage:.1%} coverage)",
        ]
        if self.total_seconds:
            lines.append(f"  build time {self.total_seconds:.2f} s")
        for name, how in self.degraded.items():
            lines.append(f"  degraded    {name}: {how}")
        for name, reason in self.quarantined.items():
            lines.append(f"  quarantined {name}: {reason}")
        return "\n".join(lines)
