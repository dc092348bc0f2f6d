"""Result records mirroring the paper's Table 2 rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

import numpy as np

__all__ = ["FlowMetrics", "aggregate_metrics", "format_table"]


@dataclass
class FlowMetrics:
    """All quantities Table 2 reports for one floorplanning run."""

    benchmark: str
    mode: str
    spatial_entropy_s1: float
    correlation_r1: float
    spatial_entropy_s2: float
    correlation_r2: float
    power_w: float
    critical_delay_ns: float
    wirelength_m: float
    peak_temp_k: float
    signal_tsvs: int
    dummy_tsvs: int
    voltage_volumes: int
    runtime_s: float
    feasible: bool = True
    #: fallbacks taken while producing this record (Woodbury→refactorize,
    #: a capped spectral PCG solve, bounded I/O retries, ...), counter per reason —
    #: how a sweep reports *how* it survived, not just that it did.  Counts
    #: depend on process cache state, so oracle comparisons exclude them
    #: (like ``runtime_s``).
    degradations: Dict[str, int] = field(default_factory=dict)
    #: integration style of the run ("3d" | "2.5d") and the mitigation
    #: mode ("static" | "dvfs" | "combined"); defaults match the legacy
    #: records and are omitted from :meth:`to_dict`, so pre-topology
    #: stored results and digests are unchanged
    topology: str = "3d"
    mitigation_mode: str = "static"
    #: runtime-governor leakage scores (mean |r| over traces and dies),
    #: 0.0 when the DVFS stage did not run
    dvfs_baseline_r: float = 0.0
    dvfs_mitigated_r: float = 0.0
    #: per-die verified correlations and spatial entropies, bottom die
    #: first; filled (and stored) only for more than 2 dies, where r1/r2
    #: and s1/s2 cannot hold every die
    correlations: List[float] = field(default_factory=list)
    entropies: List[float] = field(default_factory=list)

    _NUMERIC = (
        "spatial_entropy_s1",
        "correlation_r1",
        "spatial_entropy_s2",
        "correlation_r2",
        "power_w",
        "critical_delay_ns",
        "wirelength_m",
        "peak_temp_k",
        "signal_tsvs",
        "dummy_tsvs",
        "voltage_volumes",
        "runtime_s",
    )

    def to_dict(self) -> Dict[str, float | str | bool]:
        out: Dict[str, float | str | bool] = {
            "benchmark": self.benchmark,
            "mode": self.mode,
            "feasible": self.feasible,
        }
        for name in self._NUMERIC:
            out[name] = getattr(self, name)
        if self.degradations:
            out["degradations"] = dict(self.degradations)
        # non-default only: legacy 3d/static records stay byte-identical
        if self.topology != "3d":
            out["topology"] = self.topology
        if self.mitigation_mode != "static":
            out["mitigation_mode"] = self.mitigation_mode
        if self.dvfs_baseline_r or self.dvfs_mitigated_r:
            out["dvfs_baseline_r"] = self.dvfs_baseline_r
            out["dvfs_mitigated_r"] = self.dvfs_mitigated_r
        if len(self.correlations) > 2:
            out["correlations"] = list(self.correlations)
            out["entropies"] = list(self.entropies)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, float | str | bool]) -> "FlowMetrics":
        """Rebuild a record from :meth:`to_dict` output (results store)."""
        kwargs = {
            "benchmark": str(data["benchmark"]),
            "mode": str(data["mode"]),
            "feasible": bool(data.get("feasible", True)),
            "degradations": dict(data.get("degradations") or {}),
            "topology": str(data.get("topology", "3d")),
            "mitigation_mode": str(data.get("mitigation_mode", "static")),
            "dvfs_baseline_r": float(data.get("dvfs_baseline_r", 0.0)),
            "dvfs_mitigated_r": float(data.get("dvfs_mitigated_r", 0.0)),
            "correlations": [float(v) for v in data.get("correlations", ())],
            "entropies": [float(v) for v in data.get("entropies", ())],
        }
        for name in cls._NUMERIC:
            value = data[name]
            kwargs[name] = (
                int(value)
                if name in ("signal_tsvs", "dummy_tsvs", "voltage_volumes")
                else float(value)
            )
        return cls(**kwargs)


def aggregate_metrics(runs: Sequence[FlowMetrics]) -> Dict[str, float]:
    """Mean of every numeric metric over a set of runs (Table 2 averages)."""
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    out: Dict[str, float] = {}
    for name in FlowMetrics._NUMERIC:
        out[name] = float(np.mean([getattr(r, name) for r in runs]))
    return out


def format_table(
    rows: Mapping[str, Mapping[str, float]],
    metrics: Sequence[str],
    title: str = "",
) -> str:
    """Fixed-width text table: one column per benchmark, one line per metric.

    ``rows`` maps benchmark name -> {metric -> value}.  Mirrors Table 2's
    layout so bench output can be eyeballed against the paper.
    """
    names = list(rows)
    lines: List[str] = []
    if title:
        lines.append(title)
    header = f"{'metric':<24}" + "".join(f"{n:>12}" for n in names) + f"{'Avg':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for metric in metrics:
        vals = [rows[n].get(metric, float('nan')) for n in names]
        avg = float(np.nanmean(vals)) if vals else float("nan")
        cells = "".join(f"{v:>12.3f}" for v in vals)
        lines.append(f"{metric:<24}{cells}{avg:>12.3f}")
    return "\n".join(lines)
