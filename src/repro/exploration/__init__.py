"""Exploratory power x TSV studies (paper Sec. 3, Fig. 2) and batch sweeps.

The 5 power x 6 TSV grid behind Fig. 2's initial findings, and the
durable multi-process/multi-host batch frontend (`run_batch`) for
Table 2-scale scenario sweeps.
"""

from .patterns import POWER_PATTERNS, TSV_PATTERNS, pattern_names, power_pattern, tsv_pattern
from .study import (
    ExplorationCell,
    run_batch,
    run_exploration,
    summarize_batch,
    summarize_findings,
)

__all__ = [
    "POWER_PATTERNS",
    "TSV_PATTERNS",
    "pattern_names",
    "power_pattern",
    "tsv_pattern",
    "ExplorationCell",
    "run_exploration",
    "summarize_findings",
    "run_batch",
    "summarize_batch",
]
