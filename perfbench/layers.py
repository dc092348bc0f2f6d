"""Which functions of each layer the traced run wraps, and the per-layer
metrics computed from their spans.

Layer functions are wrapped wherever a ``repro`` module imported them
(``aliases=True``); the ``flow.*`` stage spans are then wrapped around
those, in the :mod:`repro.core.flow` namespace only, so they time
exactly what ``run_flow`` calls.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Tuple

from tracer import Recorder, Target

#: root span of a traced ``run_flow`` call
FLOW_SPAN = "flow.run_flow"

#: stage spans of ``run_flow``; ``flow.other_s`` is the entry span minus them
STAGES = ("anneal", "assignment", "mitigation", "dvfs", "verify")

#: (name, unit, source) of every per-layer metric, in BENCHMARK.json order;
#: a source is ("span", span name, "calls" | "s" | "self_s"), ("counter",
#: counter name) or ("derived",) for the values :func:`layer_metrics`
#: computes from the entry span
PER_LAYER: List[Tuple[str, str, tuple]] = [
    *[(f"flow.{stage}_s", "s", ("span", f"flow.{stage}", "s")) for stage in STAGES],
    ("flow.other_s", "s", ("derived",)),
    ("flow.span_coverage", "ratio", ("derived",)),
    ("trace.wall_s", "s", ("derived",)),
    ("trace.overhead", "ratio", ("derived",)),
    ("floorplan.evaluate_calls", "count", ("span", "floorplan.evaluate", "calls")),
    ("floorplan.evaluate_s", "s", ("span", "floorplan.evaluate", "s")),
    ("floorplan.evaluate_self_s", "s", ("span", "floorplan.evaluate", "self_s")),
    ("floorplan.realize_calls", "count", ("span", "floorplan.realize", "calls")),
    ("floorplan.realize_s", "s", ("span", "floorplan.realize", "s")),
    ("floorplan.realize_self_s", "s", ("span", "floorplan.realize", "self_s")),
    ("floorplan.calibrate_s", "s", ("span", "floorplan.calibrate", "s")),
    ("floorplan.accept_ratio", "ratio", ("counter", "floorplan.accept_ratio")),
    *[
        (f"{layer}.{fn}_{field}", unit, ("span", f"{layer}.{fn}", field))
        for layer, fn in (
            ("layout", "place_signal_tsvs"),
            ("layout", "tsv_density"),
            ("layout", "power_map"),
            ("power", "assign_voltages"),
            ("leakage", "spatial_entropy"),
            ("leakage", "die_correlation"),
        )
        for field, unit in (("calls", "count"), ("s", "s"))
    ],
    ("thermal.factor_calls", "count", ("span", "thermal.factor", "calls")),
    ("thermal.factor_s", "s", ("span", "thermal.factor", "s")),
    ("thermal.solve_calls", "count", ("span", "thermal.solve", "calls")),
    ("thermal.rhs_columns", "count", ("counter", "thermal.rhs_columns")),
    ("thermal.solve_s", "s", ("span", "thermal.solve", "s")),
    ("thermal.woodbury_attempts", "count", ("span", "thermal.woodbury", "calls")),
    ("thermal.woodbury_low_rank", "count", ("counter", "thermal.woodbury_low_rank")),
    ("thermal.woodbury_s", "s", ("span", "thermal.woodbury", "s")),
    ("thermal.cache_hits", "count", ("counter", "thermal.cache_hits")),
    ("thermal.cache_misses", "count", ("counter", "thermal.cache_misses")),
    ("thermal.fast_estimate_calls", "count", ("span", "thermal.fast_estimate", "calls")),
    ("thermal.fast_estimate_s", "s", ("span", "thermal.fast_estimate", "s")),
    ("thermal.fast_calibrate_s", "s", ("span", "thermal.fast_calibrate", "s")),
    ("thermal.transient_columns", "count", ("counter", "thermal.transient_columns")),
    ("thermal.transient_s", "s", ("span", "thermal.transient", "s")),
    ("mitigation.rounds", "count", ("counter", "mitigation.rounds")),
    ("mitigation.candidates", "count", ("counter", "mitigation.candidates")),
    ("mitigation.accepted_rounds", "count", ("counter", "mitigation.accepted_rounds")),
    ("mitigation.sample_s", "s", ("span", "mitigation.sample", "s")),
    ("mitigation.dvfs_traces", "count", ("counter", "mitigation.dvfs_traces")),
]

#: per-layer metric group -> the end-to-end metric it should move, and where
MOVES: Dict[str, str] = {
    "flow.*": "sum to wall_s",
    "floorplan.*, layout.*, power.*, leakage.spatial_entropy_*, thermal.fast_*": (
        "flow.anneal_s, hence wall_s: ~50% of flow_tsc_n100, ~35% of flow_2p5d_dvfs_n100"
    ),
    "thermal.factor_*, thermal.solve_*, thermal.rhs_columns, thermal.cache_*": (
        "flow.mitigation_s and flow.verify_s, hence wall_s, on flow_tsc_n100; "
        "flow.dvfs_s and flow.verify_s on flow_2p5d_dvfs_n100"
    ),
    "thermal.woodbury_*, mitigation.rounds/candidates/accepted_rounds/sample_s": (
        "flow.mitigation_s, hence wall_s, on flow_tsc_n100 only"
    ),
    "thermal.transient_*, mitigation.dvfs_traces": (
        "flow.dvfs_s, hence wall_s, on flow_2p5d_dvfs_n100 only"
    ),
    "Woodbury dense state (N x rank) / transient batch width": (
        "peak_rss_mib on flow_tsc_n100 / flow_2p5d_dvfs_n100"
    ),
}


def _count_factor(rec: Recorder, args, kwargs, result, state):
    if not rec.within("thermal.factor"):
        rec.add(f"thermal.factor_calls.{args[0].name}")


def _count_columns(columns):
    def after(rec: Recorder, args, kwargs, result, state):
        if not rec.within("thermal.solve"):
            rec.add("thermal.rhs_columns", columns(args, kwargs))

    return after


def _cache_before(args, kwargs):
    return args[0].hits, args[0].misses


def _cache_after(rec, args, kwargs, result, state):
    rec.add("thermal.cache_hits", args[0].hits - state[0])
    rec.add("thermal.cache_misses", args[0].misses - state[1])


def _woodbury_after(rec, args, kwargs, result, state):
    if args[0].is_low_rank:
        rec.add("thermal.woodbury_low_rank")


def _mitigation_after(rec, args, kwargs, report, state):
    rec.add("mitigation.rounds", report.rounds)
    rec.add(
        "mitigation.candidates",
        report.woodbury_candidates + report.refactorized_candidates,
    )
    rec.add("mitigation.accepted_rounds", len(report.correlation_trace) - 1)


def _dvfs_after(rec, args, kwargs, report, state):
    from repro.mitigation.dummy_tsv import MitigationConfig

    config = args[1] if len(args) > 1 else kwargs.get("config")
    rec.add("mitigation.dvfs_traces", (config or MitigationConfig(mode="dvfs")).dvfs_traces)


def _backend_classes():
    """Every factorization backend class that implements ``factor``."""
    from repro.thermal.backends.base import FactorizationBackend

    found, todo = [], [FactorizationBackend]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        factor = cls.__dict__.get("factor")
        if factor is not None and not getattr(factor, "__isabstractmethod__", False):
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def layer_targets() -> List[Target]:
    """Every wrapped function, layer functions first, then flow stages."""
    # modules by full name: some packages re-export a function under the
    # name of its module (``repro.leakage.pearson``)
    (flow, objectives, seqpair, floorplan, entropy, pearson, activity, dummy_tsv,
     dvfs, assignment, fast, steady_state, transient) = (
        importlib.import_module(f"repro.{name}")
        for name in (
            "core.flow", "floorplan.objectives", "floorplan.seqpair", "layout.floorplan",
            "leakage.entropy", "leakage.pearson", "mitigation.activity",
            "mitigation.dummy_tsv", "mitigation.dvfs", "power.assignment",
            "thermal.fast", "thermal.steady_state", "thermal.transient",
        )
    )
    Floorplan3D = floorplan.Floorplan3D

    solve_one = _count_columns(lambda a, k: 1)
    solve_many = _count_columns(lambda a, k: len(a[1]))
    targets = [
        Target(objectives.CostEvaluator, "evaluate", "floorplan.evaluate"),
        Target(objectives.CostEvaluator, "calibrate_scales", "floorplan.calibrate"),
        Target(seqpair.LayoutState, "realize_with_positions", "floorplan.realize"),
        Target(Floorplan3D, "place_signal_tsvs", "layout.place_signal_tsvs"),
        Target(Floorplan3D, "tsv_density", "layout.tsv_density"),
        Target(Floorplan3D, "power_map", "layout.power_map"),
        Target(assignment, "assign_voltages", "power.assign_voltages", aliases=True),
        Target(entropy, "spatial_entropy", "leakage.spatial_entropy", aliases=True),
        Target(pearson, "die_correlation", "leakage.die_correlation", aliases=True),
        Target(steady_state.SteadyStateSolver, "solve", "thermal.solve", after=solve_one),
        Target(steady_state.SteadyStateSolver, "solve_many", "thermal.solve", after=solve_many),
        Target(steady_state.WoodburySolver, "solve", "thermal.solve", after=solve_one),
        Target(steady_state.WoodburySolver, "solve_many", "thermal.solve", after=solve_many),
        Target(steady_state.WoodburySolver, "__init__", "thermal.woodbury",
               after=_woodbury_after),
        Target(steady_state.SolverCache, "solver", "thermal.cache_lookup",
               before=_cache_before, after=_cache_after),
        Target(steady_state.SolverCache, "incremental_solver", "thermal.cache_lookup",
               before=_cache_before, after=_cache_after),
        Target(fast.FastThermalModel, "estimate", "thermal.fast_estimate"),
        Target(objectives, "calibrated_thermal_model", "thermal.fast_calibrate",
               aliases=True),
        Target(transient.TransientSolver, "run", "thermal.transient",
               after=lambda rec, a, k, r, s: rec.add("thermal.transient_columns", 1)),
        Target(transient.TransientSolver, "run_many", "thermal.transient",
               after=lambda rec, a, k, r, s: rec.add("thermal.transient_columns", len(a[1]))),
        Target(activity, "sample_power_maps", "mitigation.sample", aliases=True),
        Target(dummy_tsv, "insert_dummy_tsvs", "mitigation.insert_dummy_tsvs",
               aliases=True, after=_mitigation_after),
        Target(dvfs, "evaluate_dvfs", "mitigation.evaluate_dvfs", aliases=True,
               after=_dvfs_after),
    ]
    targets += [
        Target(cls, "factor", "thermal.factor", after=_count_factor)
        for cls in _backend_classes()
    ]
    targets += [
        Target(flow, "anneal", "flow.anneal"),
        Target(flow, "temper", "flow.anneal"),
        Target(flow, "assign_voltages", "flow.assignment"),
        Target(flow, "insert_dummy_tsvs", "flow.mitigation"),
        Target(flow, "evaluate_dvfs", "flow.dvfs"),
        Target(flow, "verify_correlations", "flow.verify"),
        Target(flow, "spatial_entropy", "flow.verify"),
    ]
    return targets


def layer_metrics(
    summary: Dict[str, Dict[str, float]],
    counters: Dict[str, float],
    untraced_wall_s: float,
) -> Dict[str, float]:
    """The PER_LAYER values of one traced run."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    wall = summary[FLOW_SPAN]["s"]
    staged = sum(summary.get(f"flow.{stage}", empty)["s"] for stage in STAGES)
    derived = {
        "flow.other_s": wall - staged,
        "flow.span_coverage": staged / wall,
        "trace.wall_s": wall,
        "trace.overhead": wall / untraced_wall_s - 1.0,
    }
    out: Dict[str, float] = {}
    for metric, _unit, source in PER_LAYER:
        if source[0] == "derived":
            out[metric] = derived[metric]
        elif source[0] == "counter":
            out[metric] = float(counters.get(source[1], 0))
        else:
            out[metric] = float(summary.get(source[1], empty)[source[2]])
    return out
