"""Static timing analysis (PrimeTime substitute) -- see Table 1."""

from repro.sta.analysis import (HoldReport, PathPoint, TimingReport,
                                analyze, analyze_hold)

__all__ = ["HoldReport", "PathPoint", "TimingReport", "analyze",
           "analyze_hold"]
