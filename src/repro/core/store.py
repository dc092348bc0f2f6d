"""Persisted sweep results: an append-only store of flow records.

Paper-scale sweeps (50 seeds x six benchmarks x two setups) run for
hours; losing everything to one interruption — or keeping every
:class:`~repro.core.results.FlowMetrics` only in worker memory — caps the
scale a study can reach.  :class:`ResultsStore` makes each completed flow
durable the moment it finishes:

* records append to ``results.jsonl`` (one JSON object per line), so an
  interrupted sweep resumes by skipping every job key already present;
* a torn final line (the process died mid-write) is ignored on load,
  keeping the file valid after any crash.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .faults import TornWriteFault, fault_point, retry_io
from .results import FlowMetrics

__all__ = [
    "ResultsStore",
    "artifact_digest",
]

#: bump when the record layout changes; loaders skip newer-schema lines
_SCHEMA = 1


def artifact_digest(*parts: object) -> str:
    """Stable filename-safe digest of ``repr``-able cache-key parts."""
    h = hashlib.sha1()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class ResultsStore:
    """Append-only JSONL store of per-job :class:`FlowMetrics`.

    Keys are caller-defined job identities (see ``JobSpec.key()``); the
    last record per key wins, so re-running a job simply supersedes it.

    ``filename`` names the JSONL file inside ``root`` — the distributed
    queue (:mod:`repro.core.queue`) gives every worker its own shard file
    in a shared directory and consolidates them with
    :meth:`merge_shards`.
    """

    def __init__(self, root: str | Path, filename: str = "results.jsonl") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / filename
        #: parsed records memoized against the file's (mtime_ns, size) —
        #: resuming a large sweep reads the JSONL once, not per caller
        self._cache_stamp: Optional[Tuple[int, int]] = None
        self._cache: Dict[str, Tuple[FlowMetrics, Optional[int]]] = {}

    def __len__(self) -> int:
        return len(self.completed())

    def __contains__(self, key: str) -> bool:
        return key in self.completed()

    def _ends_with_newline(self) -> bool:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) == b"\n"
        except (OSError, ValueError):  # absent or empty file
            return True

    def append(self, key: str, metrics: FlowMetrics, epoch: Optional[int] = None) -> None:
        """Durably record one finished job (flushed + fsynced per line).

        ``epoch`` is the writer's fencing token (see
        :meth:`~repro.core.queue.WorkQueue.claim`): :meth:`merge_shards`
        uses it to discard records a fenced-out zombie worker appended
        after losing its lease.  Transient fs errors — including an
        injected torn write, which leaves a half line this same method
        heals on retry — cost a bounded retry, not the record.
        """
        record = {"schema": _SCHEMA, "key": key, "metrics": metrics.to_dict()}
        if epoch is not None:
            record["epoch"] = int(epoch)
        line = json.dumps(record, sort_keys=True)

        def write() -> None:
            # a torn final line (crash mid-append) must not swallow this
            # record too: terminate it first so we always start a fresh line
            heal = not self._ends_with_newline()
            with open(self.path, "a", encoding="utf-8") as fh:
                if heal:
                    fh.write("\n")
                try:
                    fault_point("store.append")
                except TornWriteFault:
                    # act out the crash-mid-write the heal path exists
                    # for: half the line lands, durably, with no newline
                    fh.write(line[: max(1, len(line) // 2)])
                    fh.flush()
                    os.fsync(fh.fileno())
                    raise
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())

        retry_io(write, site="store.append")

    def _records(self) -> Iterator[Tuple[str, FlowMetrics, Optional[int]]]:
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if record.get("schema", 0) > _SCHEMA:
                        continue
                    epoch = record.get("epoch")
                    yield (
                        record["key"],
                        FlowMetrics.from_dict(record["metrics"]),
                        int(epoch) if epoch is not None else None,
                    )
                except (ValueError, KeyError, TypeError):
                    # torn or foreign line (e.g. the process died
                    # mid-append); everything before it is still good
                    continue

    def _stamp(self) -> Optional[Tuple[int, int]]:
        try:
            st = self.path.stat()
            return (st.st_mtime_ns, st.st_size)
        except OSError:
            return None

    def records(self) -> Dict[str, Tuple[FlowMetrics, Optional[int]]]:
        """All durable results with their fencing epochs (last per key)."""
        stamp = self._stamp()
        if stamp is None:
            return {}
        if stamp != self._cache_stamp:
            self._cache = {key: (m, epoch) for key, m, epoch in self._records()}
            self._cache_stamp = stamp
        return dict(self._cache)

    def completed(self) -> Dict[str, FlowMetrics]:
        """All durable results, keyed by job key (last record wins)."""
        return {key: metrics for key, (metrics, _epoch) in self.records().items()}

    def get(self, key: str) -> Optional[FlowMetrics]:
        """The recorded result for one job key, or None when absent.

        The point lookup the service layer's resubmission dedupe rides:
        an identical :class:`~repro.api.JobSpec` submitted again returns
        this record instead of recomputing the flow.
        """
        entry = self.records().get(key)
        return entry[0] if entry is not None else None

    def keys(self) -> List[str]:
        return list(self.records())

    def merge_shards(
        self,
        shards: Iterable["ResultsStore" | str | Path],
        fences: Optional[Mapping[str, int]] = None,
    ) -> int:
        """Consolidate per-worker shard stores into this store.

        Dedup is key-level: a key already present here — or already taken
        from an earlier shard in this call — is skipped, so a job that
        two workers both completed (a lease expired under a live-but-slow
        worker) lands exactly once.  Flow execution is deterministic per
        key, so duplicate completions carry identical records and the
        choice of survivor does not matter.  Returns the number of
        records appended.

        ``fences`` maps job keys to the current fencing epoch (see
        :meth:`WorkQueue.fence_epochs`): a shard record carrying an
        older epoch was appended by a zombie worker *after* its lease
        was reclaimed, and is discarded — including superseding such a
        record already merged here before the reclamation happened.
        Records without an epoch (direct store appends) always pass.
        """
        fences = dict(fences) if fences else {}

        def fenced_out(key: str, epoch: Optional[int]) -> bool:
            return epoch is not None and epoch < fences.get(key, 0)

        have: Dict[str, Optional[int]] = {
            key: epoch for key, (_m, epoch) in self.records().items()
        }
        merged = 0
        for shard in shards:
            if isinstance(shard, (str, Path)):
                shard_path = Path(shard)
                shard = ResultsStore(shard_path.parent, filename=shard_path.name)
            for key, (metrics, epoch) in shard.records().items():
                if fenced_out(key, epoch):
                    continue
                if key in have and not fenced_out(key, have[key]):
                    continue
                self.append(key, metrics, epoch=epoch)
                have[key] = epoch
                merged += 1
        return merged

