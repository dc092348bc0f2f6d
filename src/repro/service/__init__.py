"""repro.service — leakage evaluation as a service.

A stdlib-only asyncio HTTP frontend (``python -m repro.cli serve``)
over the :mod:`repro.api` facade: submit :class:`~repro.api.JobSpec`
documents, stream per-round progress as NDJSON (one JSON document per
line: a client decodes each line with ``json.loads``), share one warm
process-wide solver cache across all requests, and reuse durable
:class:`~repro.core.store.ResultsStore` records instead of recomputing.
See ``docs/SERVICE.md`` for the route reference and operational notes.
"""

from .http import run, serve
from .state import ServiceJob, ServiceState

__all__ = ["ServiceJob", "ServiceState", "run", "serve"]
