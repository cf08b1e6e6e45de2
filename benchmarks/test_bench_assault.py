"""Assault-corpus bench: the smoke+edge gate must stay CI-cheap.

The CI assault job runs the smoke and edge scenarios of
``tests/assault`` on every push; this bench times that same pytest run
in a subprocess, keeping its wall time on the regression radar the same
way the experiment benches do, and asserts the hard budget that makes
the job viable as a gate.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _smoke_edge():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-o", "addopts=", "-q",
         "-p", "no:cacheprovider", "-m", "smoke or edge", "tests/assault"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    return proc, time.perf_counter() - start


def test_bench_assault_smoke_edge(benchmark):
    proc, wall = benchmark.pedantic(_smoke_edge, rounds=1, iterations=1)
    summary = proc.stdout.strip().splitlines()[-1]
    print(f"\nassault smoke+edge: {summary} ({wall:.2f}s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Every scenario passes outright: none failed, none warned.
    assert re.match(r"\d+ passed, \d+ deselected in ", summary), summary
    # The CI gate budget: a hostile campaign that takes minutes never
    # gets run; smoke+edge must stay interactive.
    assert wall < 30.0
