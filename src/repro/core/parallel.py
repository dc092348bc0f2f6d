"""How many cores one job may fan out to.

Batch pool workers (:func:`repro.exploration.study.batch_worker_main`)
set ``REPRO_IN_POOL_WORKER=1``: their sibling processes already keep
every core busy with one job each, so parallelism nested inside a job
(tempering's replica pool) stays serial there instead of
oversubscribing the host.

Cores are the CPUs this process may run on (its affinity mask, which
``taskset`` and cpusets narrow), not every CPU of the host.
"""

from __future__ import annotations

import os

__all__ = ["IN_POOL_ENV", "fanout_cores", "usable_cores"]

#: set by pool workers so nested parallelism defaults to serial
IN_POOL_ENV = "REPRO_IN_POOL_WORKER"


def usable_cores() -> int:
    """The number of CPUs this process may run on; the host's CPU count
    where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fanout_cores() -> int:
    """1 inside a batch-pool worker, else :func:`usable_cores`."""
    if os.environ.get(IN_POOL_ENV):
        return 1
    return usable_cores()
