"""Output check of one flow record: any problem fails the call."""

from __future__ import annotations

import math
from typing import Any, Dict, List


def check_record(record: Dict[str, Any]) -> List[str]:
    """Problems with ``record``; an empty list means the output is correct."""
    problems: List[str] = []
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{key} is not finite: {value!r}")
    for key in ("correlation_r1", "correlation_r2", "dvfs_baseline_r", "dvfs_mitigated_r"):
        value = record.get(key, 0.0)
        if not isinstance(value, (int, float)) or not abs(value) <= 1.0:
            problems.append(f"|{key}| = {value!r} is not a correlation")
    # a short anneal may end outside the fixed outline on some seeds; that
    # is the record's ``feasible`` flag (reported, not a failure), but the
    # flag must agree with the floorplan, and nothing else may be illegal
    found = record.get("floorplan_problems", [])
    outside = [p for p in found if ": outside outline on die" in p]
    problems += [f"illegal floorplan: {p}" for p in found if p not in outside]
    if record.get("feasible") is not (not outside):
        problems.append(
            f"feasible={record.get('feasible')!r} but {len(outside)} modules leave the outline"
        )
    return problems
