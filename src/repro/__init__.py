"""repro — TSC-aware 3D-IC floorplanning.

Reproduction of Knechtel & Sinanoglu, "On Mitigation of Side-Channel
Attacks in 3D ICs: Decorrelating Thermal Patterns from Power and
Activity" (DAC 2017).

Quickstart::

    from repro import load_benchmark, run_flow, FlowConfig, FloorplanMode

    circuit, stack = load_benchmark("n100")
    outcome = run_flow(circuit, stack, FlowConfig(mode=FloorplanMode.TSC_AWARE))
    print(outcome.metrics.correlation_r1)

Subpackages
-----------
``repro.core``
    The flow of Fig. 3: annealing + leakage evaluation + verification +
    dummy-TSV post-processing.
``repro.layout`` / ``repro.benchmarks`` / ``repro.floorplan``
    Geometry, the synthetic GSRC/IBM-HB+ benchmarks (Table 1 suite), and
    the sequence-pair simulated-annealing engine.
``repro.thermal`` / ``repro.leakage`` / ``repro.timing`` / ``repro.power``
    Detailed + fast thermal analysis, the paper's Eq. 1-3 leakage models,
    Elmore timing, and voltage-volume assignment.
``repro.attacks`` / ``repro.mitigation``
    The Sec. 5 thermal side-channel attacks and the Sec. 6.2 mitigation.
"""

from .benchmarks import load as load_benchmark
from .core import (
    FlowConfig,
    FlowMetrics,
    FlowOutcome,
    aggregate_metrics,
    format_table,
    run_flow,
    verify_correlations,
)
from .api import JobSpec
from .exploration import run_batch, summarize_batch
from .floorplan import AnnealConfig, FloorplanMode, anneal
from .layout import Floorplan3D, GridSpec, Module, Net, Rect, StackConfig, Terminal
from .leakage import die_correlation, spatial_entropy, stability_map
from .mitigation import MitigationConfig, insert_dummy_tsvs
from .thermal import (
    FastThermalModel,
    SolverCache,
    SteadyStateSolver,
    build_stack,
    default_solver_cache,
)

__version__ = "0.4.0"

__all__ = [
    "load_benchmark",
    "FlowConfig",
    "FlowMetrics",
    "FlowOutcome",
    "aggregate_metrics",
    "format_table",
    "run_flow",
    "verify_correlations",
    "AnnealConfig",
    "FloorplanMode",
    "anneal",
    "Floorplan3D",
    "GridSpec",
    "Module",
    "Net",
    "Rect",
    "StackConfig",
    "Terminal",
    "die_correlation",
    "spatial_entropy",
    "stability_map",
    "MitigationConfig",
    "insert_dummy_tsvs",
    "FastThermalModel",
    "SteadyStateSolver",
    "SolverCache",
    "default_solver_cache",
    "build_stack",
    "JobSpec",
    "run_batch",
    "summarize_batch",
    "__version__",
]
