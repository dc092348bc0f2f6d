"""Shared fixtures and helpers for the experiment benches.

Every bench prints the rows/series the paper reports.  Replication
counts and annealing budgets default to wall-clock-friendly values and
scale toward the paper's full setup via environment knobs:

* ``REPRO_RUNS``     — floorplanning runs per (benchmark, setup); the
  paper uses 50 (default here: 2)
* ``REPRO_SA_ITERS`` — SA iterations per run (default 1500)
* ``REPRO_BENCHES``  — comma-separated benchmark subset (default
  "n100,n300,ibm01"; the paper uses all six)
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.core.config import env_int

# the loop oracles some kernels time live in tests/oracles, importable
# as ``oracles.<module>`` exactly as the tests import them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def runs_per_setup() -> int:
    return env_int("REPRO_RUNS", 2)


def sa_iterations() -> int:
    return env_int("REPRO_SA_ITERS", 1500)


def bench_subset() -> list:
    raw = os.environ.get("REPRO_BENCHES", "n100,n300,ibm01")
    return [b.strip() for b in raw.split(",") if b.strip()]
