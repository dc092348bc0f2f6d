"""The benchmark's workloads: inputs made from a seed, one public entry
call, and the deterministic record that call produces.

A run of a workload makes ``Workload.calls(seconds)`` entry calls, call
``j`` on inputs made from ``call_seed(seed, j)``, and reports medians.
To fit several cold calls in a run on a 2-core host, the flows are
scaled down from the ROADMAP's 18 s fixed flow (1500 SA iterations, 6
mitigation rounds, 48x48 verification); the TSC flow keeps its stage
proportions (anneal about half, mitigation about two fifths, verify
under a tenth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: analysis grids the run factorizes, for recording the resolved backend
    grids: Tuple[int, ...]
    #: seconds one call takes on a 2-core host, interpreter start and
    #: output checks included
    call_s: float

    def calls(self, seconds: float) -> int:
        """Entry calls one run makes to measure for about ``seconds``."""
        return max(3, round(seconds / self.call_s))


def call_seed(seed: int, call: int) -> int:
    return seed * 1000 + call


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "flow_tsc_n100",
            "n100 TSC flow, 3D, 150 SA iterations, 1 dummy-TSV round, 32x32 verify: "
            "anneal refresh and mitigation/verify factorizations both move it",
            (32,),
            6.5,
        ),
        Workload(
            "flow_2p5d_dvfs_n100",
            "n100 on a 2.5D interposer, 100 SA iterations, DVFS governor on 2 traces at 24x24: "
            "transient solves, no dummy-TSV or Woodbury work",
            (24, 32),
            8.5,
        ),
    )
}


def flow_config(name: str, seed: int):
    from repro.core.config import FlowConfig
    from repro.floorplan.annealer import AnnealConfig
    from repro.mitigation.dummy_tsv import MitigationConfig
    from repro.thermal.stack import TopologyConfig

    if name == "flow_tsc_n100":
        return FlowConfig(
            mode="tsc_aware",
            anneal=AnnealConfig(iterations=150, seed=seed, calibration_samples=8),
            # one round: a second one runs only on some seeds, which would make
            # the work, not just the host, vary between calls
            mitigation=MitigationConfig(samples=40, max_rounds=1, grid_nx=32, grid_ny=32),
            verify_nx=32,
            verify_ny=32,
        )
    if name == "flow_2p5d_dvfs_n100":
        return FlowConfig(
            mode="tsc_aware",
            anneal=AnnealConfig(iterations=100, seed=seed, calibration_samples=8),
            topology=TopologyConfig("2.5d"),
            mitigation=MitigationConfig(grid_nx=24, grid_ny=24, mode="dvfs", dvfs_traces=2),
            verify_nx=32,
            verify_ny=32,
        )
    raise KeyError(name)


def prepare(name: str, seed: int) -> Callable[[], Any]:
    """Generate the inputs and return the zero-argument entry call."""
    from repro.benchmarks.suite import load
    from repro.core import flow

    circuit, stack = load("n100")
    config = flow_config(name, seed)
    return lambda: flow.run_flow(circuit, stack, config)


def record_of(outcome) -> Dict[str, Any]:
    """The deterministic part of a flow's result (no host times)."""
    record = outcome.metrics.to_dict()
    record.pop("runtime_s", None)
    record["floorplan_problems"] = outcome.floorplan.validate()
    record["anneal_iterations"] = outcome.anneal_result.iterations
    record["anneal_accepted"] = outcome.anneal_result.accepted
    return record


def guards(name: str, record: Dict[str, Any]) -> Dict[str, float]:
    """Leakage and quality fields of one call, reported beside the
    end-to-end metrics.  ``leak_r1``/``leak_r2`` are |r| of the bottom/top
    die; they are deterministic per seed but spread too widely between
    annealing seeds to carry a regression bound."""
    out = {
        "leak_r1": abs(record["correlation_r1"]),
        "leak_r2": abs(record["correlation_r2"]),
    }
    out.update(
        (key, float(record[key]))
        for key in ("feasible", "wirelength_m", "critical_delay_ns", "peak_temp_k", "dummy_tsvs")
    )
    if name == "flow_2p5d_dvfs_n100":
        out["dvfs_r"] = float(record["dvfs_mitigated_r"])
    return out
