"""Configuration for the end-to-end TSC-aware floorplanning flow."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..floorplan.annealer import AnnealConfig
from ..floorplan.objectives import FloorplanMode
from ..mitigation.dummy_tsv import MitigationConfig
from ..thermal.stack import TopologyConfig

__all__ = ["FlowConfig", "env_int", "pairs_with_mitigation"]


def pairs_with_mitigation(mode: str, mitigation_mode: str) -> bool:
    """Whether a flow of ``mode`` may run ``mitigation_mode``.  Only the
    TSC flow runs mitigation, so a runtime or combined mode pairs with
    ``tsc_aware`` alone: elsewhere it would run no governor yet record
    the mode."""
    return mitigation_mode == "static" or mode == FloorplanMode.TSC_AWARE


def env_int(name: str, default: int) -> int:
    """Integer knob from the environment (experiment-scaling helper).

    Used by the benchmark harnesses: ``REPRO_RUNS`` and ``REPRO_SA_ITERS``
    scale replication counts and annealing budgets toward the paper's
    full setup (50 runs).
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}")


@dataclass(frozen=True)
class FlowConfig:
    """One floorplanning flow invocation (Fig. 3).

    ``mode`` selects the power-aware baseline or the TSC-aware setup; the
    mitigation post-processing (dummy thermal TSVs, the DVFS governor or
    both) runs only in TSC mode, matching the paper's evaluation, so a
    power-aware config must keep ``mitigation.mode`` static.
    """

    mode: str = FloorplanMode.POWER_AWARE
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    mitigation: MitigationConfig = field(default_factory=lambda: MitigationConfig(
        samples=40, max_rounds=6, grid_nx=32, grid_ny=32
    ))
    #: grid for the detailed post-floorplanning verification (Sec. 6:
    #: "we also verify the final correlation after floorplanning")
    verify_nx: int = 48
    verify_ny: int = 48
    #: parallel-tempering replicas for the annealing stage; 1 = the plain
    #: single-chain anneal (bit-identical to the legacy path)
    replicas: int = 1
    #: moves each replica advances between replica-exchange attempts
    exchange_every: int = 50
    #: worker processes for the replica pool; None = auto (cpu-bounded,
    #: serial inside batch-pool workers — see repro.floorplan.tempering)
    replica_processes: int | None = None
    #: integration style: the paper's vertical 3D stack (default) or a
    #: 2.5D silicon-interposer layout with dies side by side
    topology: TopologyConfig = field(default_factory=TopologyConfig)

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.exchange_every < 1:
            raise ValueError("exchange_every must be >= 1")
        if self.mode not in FloorplanMode.ALL:
            raise ValueError(
                f"mode must be '{FloorplanMode.POWER_AWARE}' or "
                f"'{FloorplanMode.TSC_AWARE}', got {self.mode!r}"
            )
        if not pairs_with_mitigation(self.mode, self.mitigation.mode):
            raise ValueError(
                f"mitigation mode {self.mitigation.mode!r} needs mode "
                f"'{FloorplanMode.TSC_AWARE}' (got {self.mode!r}): only the "
                "TSC flow runs mitigation"
            )

    @property
    def run_mitigation(self) -> bool:
        return self.mode == FloorplanMode.TSC_AWARE
