"""The wire-level job vocabulary of the evaluation service.

:class:`JobSpec` is the *request*: everything that determines one flow
invocation's outcome, and nothing else.  It is the one job type of the
repo: a spec submitted over HTTP, a job enqueued into a shared
:class:`~repro.core.queue.WorkQueue` directory, and a ``repro.cli
batch`` grid entry are all ``JobSpec`` documents with one results-store
identity (:meth:`JobSpec.key`) — a sweep finished on a worker pool is
already "completed" to the service, and vice versa.

:class:`JobResult` is the *response*: the recorded
:class:`~repro.core.results.FlowMetrics` plus the provenance a client
needs to trust it — whether the result was recomputed or reused from the
store, and how the process-wide solver cache behaved while producing it.

Both serialize through :mod:`repro.core.schema`: versioned documents,
unknown keys tolerated with a warning, bad values rejected with the same
``ValueError`` direct construction raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional

from ..core import schema
from ..core.config import FlowConfig
from ..core.results import FlowMetrics
from ..core.store import artifact_digest
from ..floorplan.annealer import AnnealConfig
from ..floorplan.objectives import FloorplanMode
from ..thermal.stack import TopologyConfig

__all__ = ["JobSpec", "JobResult"]


@dataclass(frozen=True)
class JobSpec:
    """One flow-evaluation request (the service's stable input schema).

    Validation happens at construction — a spec that deserialized is a
    spec that can run, so a malformed HTTP submission fails with a 400
    before any solver state is touched, never mid-flow.
    """

    benchmark: str
    mode: str = FloorplanMode.POWER_AWARE
    seed: int = 0
    iterations: int = 1500
    grid: int = 32
    num_dies: int = 2
    #: parallel-tempering replicas for the annealing stage (1 = plain SA);
    #: inside a pool worker the replica chains advance serially unless
    #: REPRO_REPLICA_PROCESSES overrides — see repro.floorplan.tempering
    replicas: int = 1
    exchange_every: int = 50
    #: integration style ("3d" | "2.5d") and mitigation mode
    #: ("static" | "dvfs" | "combined"; the last two in TSC mode only);
    #: the defaults reproduce the legacy vertical-stack static-TSV runs
    #: bit-identically
    topology: str = "3d"
    mitigation_mode: str = "static"

    def __post_init__(self) -> None:
        from ..benchmarks import benchmark_names

        if self.benchmark not in benchmark_names():
            raise ValueError(
                f"unknown benchmark {self.benchmark!r} "
                f"(choose from {', '.join(benchmark_names())})"
            )
        if self.grid < 2:
            raise ValueError("grid must be >= 2")
        if self.num_dies < 2:
            raise ValueError("num_dies must be >= 2")
        # every other field is checked by the config it maps to
        self.to_flow_config()

    def to_json(self) -> dict:
        """Versioned JSON document (see :mod:`repro.core.schema`)."""
        return schema.to_json_dict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "JobSpec":
        """Rebuild from :meth:`to_json` output (or a legacy unstamped
        ``asdict`` queue payload); unknown keys warn, bad values raise
        the same ``ValueError`` construction would."""
        return schema.from_json_dict(cls, data)

    def to_flow_config(self) -> FlowConfig:
        """The :class:`~repro.core.config.FlowConfig` this spec runs —
        the only job-to-config mapping, shared by every frontend."""
        config = FlowConfig(
            mode=self.mode,
            anneal=AnnealConfig(iterations=self.iterations, seed=self.seed),
            verify_nx=self.grid,
            verify_ny=self.grid,
            replicas=self.replicas,
            exchange_every=self.exchange_every,
            topology=TopologyConfig(kind=self.topology),
        )
        if self.mitigation_mode != "static":
            config = replace(
                config,
                mitigation=replace(config.mitigation, mode=self.mitigation_mode),
            )
        return config

    def key(self) -> str:
        """Stable identity of this job in a results store.

        Every field that changes the outcome participates, so resuming a
        sweep with different knobs never reuses a stale record.  The
        replica/topology/mitigation suffixes appear only for non-default
        jobs, so every key written before those knobs existed still
        matches its job.
        """
        key = (
            f"{self.benchmark}|{self.mode}|seed{self.seed}"
            f"|it{self.iterations}|grid{self.grid}|dies{self.num_dies}"
        )
        if self.replicas != 1:
            key += f"|rep{self.replicas}x{self.exchange_every}"
        if self.topology != "3d":
            key += f"|top{self.topology}"
        if self.mitigation_mode != "static":
            key += f"|mit{self.mitigation_mode}"
        return key

    def job_id(self) -> str:
        """Short stable identifier derived from :meth:`key` (URL-safe)."""
        return artifact_digest("jobspec", self.key())[:16]


@dataclass
class JobResult:
    """One completed (or failed) evaluation, with provenance.

    ``reused`` distinguishes a recomputation from a
    :class:`~repro.core.store.ResultsStore` playback; ``solver_cache``
    holds the process solver cache's hit/miss/disk-hit *deltas* over
    this job, which is how a client (and the acceptance tests) can tell
    a warm evaluation from a cold one.
    """

    job_id: str
    key: str
    status: str = "completed"
    reused: bool = False
    metrics: Optional[FlowMetrics] = None
    solver_cache: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None

    def to_json(self) -> dict:
        """Versioned JSON document (see :mod:`repro.core.schema`)."""
        return schema.to_json_dict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "JobResult":
        """Rebuild from :meth:`to_json` output."""
        return schema.from_json_dict(cls, data)
