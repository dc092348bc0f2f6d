"""repro.api — the stable, versioned facade over the flow stack.

The contract other processes program against: :class:`JobSpec` in,
:class:`JobResult` out, with schema-versioned JSON on the wire (see
:mod:`repro.core.schema`) and one results-store identity shared with
``batch`` sweeps and distributed queue workers.  The asyncio HTTP
frontend (:mod:`repro.service`) is a thin shell over exactly these
calls; anything it can do, a library caller can do directly::

    from repro.api import JobSpec, run_flow_job

    result = run_flow_job(JobSpec("n10", iterations=40), store="runs/s1")
    print(result.metrics.correlation_r1, result.reused)
"""

from .facade import (
    API_VERSION,
    execute_spec,
    queue_status,
    run_flow_job,
    submit,
)
from .jobs import JobResult, JobSpec

__all__ = [
    "API_VERSION",
    "JobSpec",
    "JobResult",
    "execute_spec",
    "queue_status",
    "run_flow_job",
    "submit",
]
