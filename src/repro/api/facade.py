"""The versioned facade over the warm solver stack.

Everything a frontend needs — the asyncio HTTP service
(:mod:`repro.service`), the CLI, a notebook — goes through these three
calls instead of wiring benchmarks, configs, caches, and stores by
hand:

* :func:`run_flow_job` — evaluate one :class:`JobSpec` in-process,
  reusing any :class:`~repro.core.store.ResultsStore` record and
  reporting the solver cache's behaviour;
* :func:`submit` — hand a spec to a shared
  :class:`~repro.core.queue.WorkQueue` directory for distributed
  workers;
* :func:`queue_status` — one JSON-ready progress document, identical
  whether served over HTTP (``GET /v1/queue/status``) or printed by
  ``repro.cli sweep-status --json``.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from ..core.store import ResultsStore
from .jobs import JobResult, JobSpec

__all__ = [
    "API_VERSION",
    "execute_spec",
    "run_flow_job",
    "submit",
    "queue_status",
]

#: URL prefix version of the HTTP surface (``/v1/...``); bumps only on
#: breaking changes to routes or response shapes — field additions are
#: covered by the schema layer's unknown-key tolerance
API_VERSION = "v1"

Progress = Optional[Callable[[dict], None]]


def execute_spec(spec: JobSpec, config=None, progress: Progress = None):
    """Run one spec's flow and return the full
    :class:`~repro.core.flow.FlowOutcome` (no store interaction).

    The lower-level sibling of :func:`run_flow_job` for callers that
    need the floorplan/maps, not just the metrics record.  ``config``
    overrides the spec's canonical :meth:`JobSpec.to_flow_config` —
    interactive knobs like ``--replica-processes`` ride here; callers
    using a results store must not override fields that change the
    outcome.
    """
    from ..benchmarks import load
    from ..core.flow import run_flow

    circuit, stack = load(spec.benchmark, num_dies=spec.num_dies)
    return run_flow(
        circuit, stack, config if config is not None else spec.to_flow_config(),
        progress=progress,
    )


def run_flow_job(
    spec: JobSpec,
    store: Union[ResultsStore, str, Path, None] = None,
    progress: Progress = None,
    reuse_store: bool = True,
) -> JobResult:
    """Evaluate one :class:`JobSpec` in this process.

    With a ``store``, a spec whose key is already recorded returns the
    durable record (``reused=True``) without touching a solver, and a
    freshly computed result is appended before returning — resubmitting
    a completed spec is free, exactly like resuming a ``batch`` sweep.
    ``reuse_store=False`` forces the computation while still recording
    it (the service uses this for requests admitted while an identical
    job was in flight: they re-execute and hit the warm cache instead of
    racing the store).

    The process-wide :class:`~repro.thermal.steady_state.SolverCache`'s
    counter deltas over this call land in :attr:`JobResult.solver_cache`.
    """
    from ..thermal.steady_state import default_solver_cache

    if isinstance(store, (str, Path)):
        store = ResultsStore(store)
    key = spec.key()
    job_id = spec.job_id()
    if store is not None and reuse_store:
        recorded = store.get(key)
        if recorded is not None:
            return JobResult(
                job_id=job_id, key=key, status="completed",
                reused=True, metrics=recorded,
            )
    cache = default_solver_cache()
    before = cache.counters()
    outcome = execute_spec(spec, progress=progress)
    after = cache.counters()
    deltas = {
        name: int(after[name]) - int(before[name])
        for name in ("hits", "misses")
    }
    if store is not None:
        store.append(key, outcome.metrics)
    return JobResult(
        job_id=job_id, key=key, status="completed",
        reused=False, metrics=outcome.metrics, solver_cache=deltas,
    )


def submit(
    spec: JobSpec,
    queue_dir: Union[str, Path],
    retry_failed: bool = False,
) -> Dict[str, object]:
    """Enqueue one spec for distributed workers (``repro.cli work``).

    The payload travels in the versioned :meth:`JobSpec.to_json` form,
    which queue workers of any revision deserialize tolerantly.
    Idempotent per key: a spec already queued (or completed) is not
    re-added; ``retry_failed`` clears a recorded failure so workers try
    again.  Returns ``{"job_id", "key", "enqueued"}``.
    """
    from ..core.queue import WorkQueue

    queue = WorkQueue(queue_dir)
    enqueued = queue.enqueue(spec.key(), spec.to_json())
    if retry_failed:
        queue.clear_failure(spec.key())
    return {"job_id": spec.job_id(), "key": spec.key(), "enqueued": bool(enqueued)}


def queue_status(
    queue_dir: Union[str, Path],
    lease_ttl: float = 300.0,
) -> Dict[str, object]:
    """One machine-readable progress document for a queue directory.

    This is *the* shared payload: ``repro.cli sweep-status --json``
    prints it and ``GET /v1/queue/status`` serves it, so dashboards and
    scripts parse one shape regardless of transport.  ``healthy`` is
    true when nothing has failed or been quarantined — an empty queue
    is healthy, not an error.
    """
    from ..core.queue import WorkQueue

    status = WorkQueue(queue_dir, lease_ttl=lease_ttl).status()
    return {
        "schema_version": 1,
        "queue_dir": str(queue_dir),
        **asdict(status),
        "healthy": status.failed == 0,
    }
