"""The end-to-end methodology flow (Fig. 3).

One :func:`run_flow` call executes the paper's pipeline for a benchmark:

1. multi-objective simulated annealing with in-loop leakage evaluation
   (fast thermal analysis, Pearson correlation, spatial entropy) and
   continuous voltage assignment;
2. a final, full-size voltage assignment on the chosen layout;
3. detailed thermal verification of the final correlation ("we found this
   fast analysis to be inferior to the detailed analysis of HotSpot ...
   thus, we also verify the final correlation after floorplanning");
4. in TSC mode, the post-processing stage: Gaussian activity sampling and
   correlation-guided insertion of dummy thermal TSVs.

The returned :class:`~repro.core.results.FlowMetrics` mirrors a Table 2
column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..benchmarks.generator import BenchmarkCircuit
from ..floorplan.annealer import AnnealResult, anneal
from ..floorplan.tempering import temper
from ..layout.die import StackConfig
from ..layout.floorplan import Floorplan3D
from ..layout.grid import GridSpec
from ..leakage.entropy import spatial_entropy
from ..leakage.pearson import die_correlation
from ..mitigation.dummy_tsv import MitigationReport, insert_dummy_tsvs
from ..mitigation.dvfs import WINDOWS as DVFS_WINDOWS
from ..mitigation.dvfs import DVFSReport, evaluate_dvfs
from ..power.assignment import assign_voltages
from ..power.volumes import sorted_rank
from ..thermal.stack import TopologyConfig
from ..thermal.steady_state import SolverCache, default_solver_cache
from ..timing.paths import TimingGraph
from .blas import one_blas_thread
from .config import FlowConfig
from .faults import degradations_since, snapshot_degradations
from .results import FlowMetrics

__all__ = ["FlowOutcome", "run_flow", "verify_correlations"]

#: voltage-volume growth bound of the final full-size assignment
FINAL_VOLUME_SIZE = 40


@dataclass
class FlowOutcome:
    """Everything a flow run produces."""

    metrics: FlowMetrics
    floorplan: Floorplan3D
    anneal_result: AnnealResult
    mitigation: Optional[MitigationReport]
    #: runtime-governor evaluation, present when the mitigation mode is
    #: "dvfs" or "combined"
    dvfs: Optional[DVFSReport]
    #: detailed per-die power/thermal maps at verification resolution
    power_maps: List[np.ndarray]
    thermal_maps: List[np.ndarray]


def verify_correlations(
    floorplan: Floorplan3D,
    grid: GridSpec,
    cache: SolverCache | None = None,
    topology: TopologyConfig | None = None,
) -> Tuple[List[float], List[np.ndarray], List[np.ndarray], float]:
    """Detailed verification: per-die correlations, maps, and peak temp.

    The solver comes from ``cache`` (default: the process-wide
    :class:`SolverCache`) and is keyed by the TSV densities of *all*
    adjacent die pairs — earlier revisions hardcoded the (0, 1) pair and
    silently ignored TSVs between upper dies of taller stacks.
    ``topology`` selects the stack style (``None`` is the 3D stack).
    The one solve states ``rhs_budget=1``, so on grids past 16x16
    (counted on the interposer's wider layer for 2.5D) the automatic rule
    sets up the spectral backend instead of factorizing (records move
    within 1e-9 relative).
    """
    cache = cache if cache is not None else default_solver_cache()
    solver = cache.solver_for_floorplan(floorplan, grid, rhs_budget=1, topology=topology)
    power_maps = [
        floorplan.power_map(d, grid) for d in range(floorplan.stack.num_dies)
    ]
    result = solver.solve(power_maps)
    corr = [die_correlation(p, t) for p, t in zip(power_maps, result.die_maps)]
    return corr, power_maps, result.die_maps, result.peak


def run_flow(
    circuit: BenchmarkCircuit,
    stack: StackConfig,
    config: FlowConfig | None = None,
    progress=None,
) -> FlowOutcome:
    """Floorplan ``circuit`` per the configured setup and verify leakage.

    ``progress`` (optional) receives one dict per pipeline stage
    transition — ``{"stage", "status", ...}`` for the anneal, voltage
    assignment, mitigation (one event per insertion round), and
    verification stages.  This is the hook the service layer
    (:mod:`repro.service`) streams to HTTP clients as NDJSON; library
    callers can ignore it entirely.

    The flow runs at one BLAS thread (:func:`~repro.core.blas.one_blas_thread`),
    so its record does not depend on the host's thread count.
    """
    deg_mark = snapshot_degradations()
    with one_blas_thread():
        return _run_flow(circuit, stack, config or FlowConfig(), progress, deg_mark)


def _run_flow(
    circuit: BenchmarkCircuit,
    stack: StackConfig,
    config: FlowConfig,
    progress,
    deg_mark,
) -> FlowOutcome:
    t_start = time.perf_counter()

    def emit(**event: object) -> None:
        if progress is not None:
            progress(dict(event))

    emit(
        stage="anneal", status="start", mode=config.mode,
        iterations=config.anneal.iterations, replicas=config.replicas,
    )

    if config.replicas > 1:
        result = temper(
            circuit.modules,
            stack,
            circuit.nets,
            circuit.terminals,
            mode=config.mode,
            config=config.anneal,
            replicas=config.replicas,
            exchange_every=config.exchange_every,
            processes=config.replica_processes,
        )
    else:
        result = anneal(
            circuit.modules,
            stack,
            circuit.nets,
            circuit.terminals,
            mode=config.mode,
            config=config.anneal,
        )
    floorplan = result.floorplan
    emit(
        stage="anneal", status="done",
        cost=float(result.cost), feasible=bool(result.feasible),
        accepted=int(result.accepted),
    )

    # final full-size voltage assignment on the chosen layout's arrays in
    # placement order, which ``result.netlist`` is compiled in
    timing = TimingGraph(result.netlist)
    names = timing.module_names
    x, y, w, h, die, power, delay = floorplan.module_arrays(names)
    slack = timing.max_delay_inflation(x + w / 2.0, y + h / 2.0, die, delay)
    rank = sorted_rank(names)
    assignment = assign_voltages(
        x[rank], y[rank], w[rank], h[rank], die[rank], rank, power[rank], slack[rank],
        objective=config.mode, max_volume_size=FINAL_VOLUME_SIZE,
    )
    floorplan = floorplan.with_voltages(
        dict(zip((names[k] for k in rank), assignment.voltages.tolist()))
    )
    timing_report = timing.evaluate(floorplan)
    emit(
        stage="assignment", status="done",
        volumes=int(assignment.num_volumes),
        critical_delay_ns=float(timing_report.critical_delay_ns),
    )

    mitigation: Optional[MitigationReport] = None
    dvfs: Optional[DVFSReport] = None
    if config.run_mitigation:
        mit_mode = config.mitigation.mode
        if mit_mode in ("static", "combined"):
            emit(stage="mitigation", status="start",
                 max_rounds=config.mitigation.max_rounds)
            mitigation = insert_dummy_tsvs(
                floorplan,
                config.mitigation,
                progress=(
                    None if progress is None
                    else lambda ev: emit(stage="mitigation", status="round", **ev)
                ),
                topology=config.topology,
            )
            floorplan = mitigation.floorplan
            emit(
                stage="mitigation", status="done",
                rounds=mitigation.rounds, inserted=mitigation.inserted,
                final_correlation=float(mitigation.final_correlation),
            )
        if mit_mode in ("dvfs", "combined"):
            # the governor runs on the final floorplan — after dummy-TSV
            # insertion in combined mode, so it measures the *residual*
            # leakage the static defense left behind
            emit(stage="dvfs", status="start",
                 traces=config.mitigation.dvfs_traces, windows=DVFS_WINDOWS)
            dvfs = evaluate_dvfs(
                floorplan, config.mitigation, topology=config.topology
            )
            emit(
                stage="dvfs", status="done",
                baseline_r=float(dvfs.baseline_score),
                mitigated_r=float(dvfs.mitigated_score),
            )

    grid = GridSpec(stack.outline, config.verify_nx, config.verify_ny)
    correlations, power_maps, thermal_maps, peak = verify_correlations(
        floorplan, grid, topology=config.topology
    )
    entropies = [spatial_entropy(p) for p in power_maps]

    # mitigation adds TSVs only: the timing graph's netlist still fits
    wirelength_um, _ = floorplan.wirelength(timing.netlist)
    runtime = time.perf_counter() - t_start
    metrics = FlowMetrics(
        benchmark=circuit.name,
        mode=config.mode,
        spatial_entropy_s1=float(entropies[0]),
        correlation_r1=float(correlations[0]),
        spatial_entropy_s2=float(entropies[1]) if len(entropies) > 1 else 0.0,
        correlation_r2=float(correlations[1]) if len(correlations) > 1 else 0.0,
        power_w=float(floorplan.total_power()),
        critical_delay_ns=float(timing_report.critical_delay_ns),
        wirelength_m=float(wirelength_um / 1e6),
        peak_temp_k=float(peak),
        signal_tsvs=len(floorplan.signal_tsvs),
        dummy_tsvs=len(floorplan.thermal_tsvs),
        voltage_volumes=assignment.num_volumes,
        runtime_s=runtime,
        feasible=result.feasible,
        degradations=degradations_since(deg_mark),
        topology=config.topology.kind,
        mitigation_mode=config.mitigation.mode,
        dvfs_baseline_r=float(dvfs.baseline_score) if dvfs is not None else 0.0,
        dvfs_mitigated_r=float(dvfs.mitigated_score) if dvfs is not None else 0.0,
        # r1/r2 and s1/s2 above hold one or two dies; the lists hold more
        correlations=[float(r) for r in correlations] if len(correlations) > 2 else [],
        entropies=[float(s) for s in entropies] if len(entropies) > 2 else [],
    )
    emit(
        stage="verify", status="done",
        peak_temp_k=float(peak),
        correlation_r1=metrics.correlation_r1,
        correlation_r2=metrics.correlation_r2,
    )
    return FlowOutcome(
        metrics=metrics,
        floorplan=floorplan,
        anneal_result=result,
        mitigation=mitigation,
        dvfs=dvfs,
        power_maps=power_maps,
        thermal_maps=thermal_maps,
    )
