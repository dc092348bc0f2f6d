"""Thermal analysis substrate (paper Sec. 3-4 and Fig. 1).

Materials and the face-to-back layer stack, finite-volume RC network
assembly, the detailed steady-state solver the verification stage relies
on (Sec. 4's analysis role, plus opt-in low-rank Woodbury solves for
locally perturbed TSV patterns), the transient solver behind Fig. 1's
time-scale study, and the fast estimator used inside the annealing loop
(the exact solve of the TSV-free stack).
"""

from .fast import FastThermalModel
from .materials import (
    BEOL,
    BOND,
    COPPER,
    SILICON,
    TIM,
    Material,
    tsv_composite_lateral,
    tsv_composite_vertical,
)
from .rc_network import LowRankUpdate, ThermalNetwork, assemble, low_rank_update
from .stack import (
    DIMENSIONS,
    TOPOLOGY_KINDS,
    Layer,
    ThermalStack,
    TopologyConfig,
    build_stack,
    normalize_tsv_densities,
    stack_for_floorplan,
)
from .steady_state import (
    SolverCache,
    SteadyStateSolver,
    ThermalResult,
    WoodburySolver,
    default_solver_cache,
    woodbury_crossover_rank,
)
from .transient import TransientSolver, TransientTrace, thermal_time_constant

__all__ = [
    "FastThermalModel",
    "Material",
    "SILICON",
    "COPPER",
    "BEOL",
    "BOND",
    "TIM",
    "tsv_composite_lateral",
    "tsv_composite_vertical",
    "ThermalNetwork",
    "LowRankUpdate",
    "assemble",
    "low_rank_update",
    "Layer",
    "ThermalStack",
    "TopologyConfig",
    "TOPOLOGY_KINDS",
    "build_stack",
    "stack_for_floorplan",
    "normalize_tsv_densities",
    "DIMENSIONS",
    "SteadyStateSolver",
    "WoodburySolver",
    "SolverCache",
    "ThermalResult",
    "default_solver_cache",
    "woodbury_crossover_rank",
    "TransientSolver",
    "TransientTrace",
    "thermal_time_constant",
]
