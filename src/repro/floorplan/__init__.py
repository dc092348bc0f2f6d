"""Floorplanning engine (paper Sec. 6, the Fig. 3 annealing stage).

Per-die sequence pairs, the simulated-annealing loop, and the
multi-objective cost evaluator whose TSC-aware mode folds the Eq. 1/
Eq. 3 leakage terms into the classical area/wirelength/thermal mix.
"""

from .annealer import AnnealChain, AnnealConfig, AnnealResult, anneal
from .moves import apply_random_move
from ..layout.net import CompiledNetlist
from .objectives import CostBreakdown, CostEvaluator, FloorplanMode, ObjectiveWeights
from .seqpair import DieSequencePair, LayoutState, pack_die
from .tempering import resolve_replica_processes, temper

__all__ = [
    "AnnealChain",
    "AnnealConfig",
    "AnnealResult",
    "anneal",
    "temper",
    "resolve_replica_processes",
    "apply_random_move",
    "CompiledNetlist",
    "CostBreakdown",
    "CostEvaluator",
    "FloorplanMode",
    "ObjectiveWeights",
    "DieSequencePair",
    "LayoutState",
    "pack_die",
]
