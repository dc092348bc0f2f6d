"""How many cores one job may fan out to.

Batch pool workers (:func:`repro.exploration.study.batch_worker_main`)
set ``REPRO_IN_POOL_WORKER=1``: their sibling processes already keep
every core busy with one job each, so parallelism nested inside a job
(tempering's replica pool, the DVFS kernels' per-die Lanczos chains)
stays serial there instead of oversubscribing the host.
"""

from __future__ import annotations

import os

__all__ = ["IN_POOL_ENV", "fanout_cores"]

#: set by pool workers so nested parallelism defaults to serial
IN_POOL_ENV = "REPRO_IN_POOL_WORKER"


def fanout_cores() -> int:
    """1 inside a batch-pool worker, else this host's CPU count."""
    if os.environ.get(IN_POOL_ENV):
        return 1
    return os.cpu_count() or 1
