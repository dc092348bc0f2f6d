"""End-to-end tests for the asyncio HTTP evaluation service.

The server runs on an ephemeral port inside each test's own event
loop; HTTP calls go through urllib in executor threads (the service's
actual zero-dependency client story).  The acceptance trio lives here:

* an HTTP-submitted job is bit-identical to the offline ``run_flow``
  oracle;
* the second of two identical *concurrent* submissions re-executes and
  hits the warm shared solver cache (counter-verified);
* resubmitting a completed spec replays the ResultsStore record without
  recomputation.
"""

import asyncio
import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import JobSpec
from repro.service import ServiceState, serve

SPEC = {"benchmark": "n100", "iterations": 25, "grid": 12}


def comparable(metrics: dict) -> dict:
    """A metrics document minus the per-run noise (wall-clock, cache-state
    dependent degradation counters) — everything else must be identical."""
    return {k: v for k, v in metrics.items()
            if k not in ("runtime_s", "degradations")}


class Client:
    """Blocking urllib calls dispatched off the event loop."""

    def __init__(self, base: str, loop: asyncio.AbstractEventLoop) -> None:
        self.base = base
        self.loop = loop

    def _request(self, method, path, doc=None, timeout=120, raw=False):
        data = json.dumps(doc).encode() if doc is not None else None
        req = urllib.request.Request(self.base + path, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                body = resp.read()
                return resp.status, body if raw else json.loads(body)
        except urllib.error.HTTPError as exc:
            body = exc.read()
            return exc.code, body if raw else json.loads(body)

    async def get(self, path, **kw):
        return await self.loop.run_in_executor(
            None, lambda: self._request("GET", path, **kw)
        )

    async def post(self, path, doc, **kw):
        return await self.loop.run_in_executor(
            None, lambda: self._request("POST", path, doc, **kw)
        )


def service_test(test_coro):
    """Run ``test_coro(state, client)`` under a live server."""

    def runner(state_kwargs=None):
        async def main():
            state = ServiceState(**(state_kwargs or {}))
            server = await serve(state, port=0)
            port = server.sockets[0].getsockname()[1]
            client = Client(f"http://127.0.0.1:{port}/v1",
                            asyncio.get_running_loop())
            try:
                await test_coro(state, client)
            finally:
                server.close()
                await server.wait_closed()
                await state.close()

        asyncio.run(main())

    return runner


async def poll_terminal(client, job_id, timeout=120.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, doc = await client.get(f"/jobs/{job_id}")
        assert status == 200
        if doc["status"] in ("completed", "failed"):
            return doc
        assert asyncio.get_running_loop().time() < deadline, "job never finished"
        await asyncio.sleep(0.2)


class TestEndToEnd:
    def test_http_job_matches_offline_oracle(self, tmp_path):
        from repro.api import execute_spec

        oracle = execute_spec(JobSpec(**SPEC)).metrics.to_dict()

        async def scenario(state, client):
            status, doc = await client.post("/jobs?wait=1", SPEC)
            assert status == 200
            assert doc["status"] == "completed"
            produced = doc["result"]["metrics"]
            for name, value in oracle.items():
                if name in ("runtime_s", "degradations"):
                    continue
                assert produced[name] == value, name

        service_test(scenario)(dict(store_dir=tmp_path, workers=2))

    def test_concurrent_identical_jobs_share_warm_cache(self, tmp_path):
        from repro.thermal.steady_state import default_solver_cache

        # deterministic cold start: other tests in this process may have
        # already warmed the shared cache with this very spec
        default_solver_cache().clear()

        async def scenario(state, client):
            first, second = await asyncio.gather(
                client.post("/jobs?wait=1", SPEC),
                client.post("/jobs?wait=1", SPEC),
            )
            (s1, d1), (s2, d2) = first, second
            assert s1 == 200 and s2 == 200
            r1, r2 = d1["result"], d2["result"]
            assert d1["id"] != d2["id"]  # admission-final: both executed
            assert not r1["reused"] and not r2["reused"]
            # bit-identical metrics either way
            assert comparable(r1["metrics"]) == comparable(r2["metrics"])
            # exactly one of them ran second and rode the warm cache
            caches = sorted(
                (r1["solver_cache"], r2["solver_cache"]),
                key=lambda c: c["misses"],
            )
            assert caches[0]["hits"] > 0 and caches[0]["misses"] == 0
            assert caches[1]["misses"] > 0

            # resubmission after completion: the store record, no compute
            s3, d3 = await client.post("/jobs?wait=1", SPEC)
            assert s3 == 200
            assert d3["dispatch"] == "store"
            assert d3["result"]["reused"] is True
            assert comparable(d3["result"]["metrics"]) == comparable(r1["metrics"])
            assert state.counters["reused"] == 1

        service_test(scenario)(dict(store_dir=tmp_path, workers=2))

    def test_events_stream_ndjson(self, tmp_path):
        async def scenario(state, client):
            status, doc = await client.post("/jobs", SPEC)
            assert status == 202
            job_id = doc["id"]
            # live-follow while the job runs, then compare with the doc
            status, raw = await client.get(f"/jobs/{job_id}/events", raw=True)
            assert status == 200
            events = [json.loads(line) for line in raw.splitlines() if line.strip()]
            stages = [(e.get("stage"), e.get("status")) for e in events]
            assert stages[0] == ("service", "running")
            assert ("anneal", "start") in stages
            assert ("verify", "done") in stages
            assert stages[-1] == ("service", "completed")
            final = await poll_terminal(client, job_id)
            assert final["events"] == len(events)

        service_test(scenario)(dict(store_dir=tmp_path))

    def test_async_submit_then_poll(self, tmp_path):
        async def scenario(state, client):
            status, doc = await client.post("/jobs", dict(SPEC, seed=7))
            assert status == 202 and doc["status"] in ("queued", "running")
            final = await poll_terminal(client, doc["id"])
            assert final["status"] == "completed"
            assert final["result"]["metrics"]["benchmark"] == "n100"

        service_test(scenario)(dict(store_dir=tmp_path))


class TestQueueFanOut:
    def test_large_jobs_fan_out_to_watch_worker(self, tmp_path):
        from repro.core.queue import WorkQueue, run_worker
        from repro.exploration.study import execute_batch_payload

        qdir = tmp_path / "q"
        queue = WorkQueue(qdir, lease_ttl=30.0)
        worker = threading.Thread(
            target=run_worker,
            args=(queue, execute_batch_payload),
            kwargs=dict(watch=True, max_jobs=1, poll_interval=0.05),
            daemon=True,
        )
        worker.start()

        async def scenario(state, client):
            status, doc = await client.post("/jobs?wait=1", SPEC)
            assert status == 200
            assert doc["dispatch"] == "queue"
            assert doc["status"] == "completed"
            stages = [(e.get("stage"), e.get("status")) for e in
                      (await state_events(state, doc["id"]))]
            assert ("queue", "enqueued") in stages
            assert ("queue", "completed") in stages
            # the fan-out result also landed in the service's store
            assert state.store.get(JobSpec(**SPEC).key()) is not None
            # and the queue-status route reports the drained queue
            status, qdoc = await client.get("/queue/status")
            assert status == 200
            assert qdoc["completed"] == 1 and qdoc["healthy"]

        async def state_events(state, job_id):
            return state.jobs[job_id].events

        service_test(scenario)(dict(
            store_dir=tmp_path / "store", queue_dir=qdir,
            queue_threshold=1, poll_interval=0.05,
        ))
        worker.join(timeout=30)
        assert not worker.is_alive()

    def test_queued_job_waits_out_retries_then_reports_terminal_failure(
        self, tmp_path
    ):
        """A retriable worker failure keeps the service polling; only the
        failure that spends the pool's budget fails the service job."""
        from repro.core.queue import WorkQueue

        qdir = tmp_path / "q"
        pool = WorkQueue(qdir, lease_ttl=30.0, max_attempts=2, retry_backoff=0.0)

        async def fail_next_claim(loop):
            deadline = loop.time() + 30.0
            while (lease := await loop.run_in_executor(None, pool.claim, "w0")) is None:
                assert loop.time() < deadline, "job never became claimable"
                await asyncio.sleep(0.05)
            await loop.run_in_executor(
                None, pool.record_failure, lease, "boom", "w0"
            )

        async def scenario(state, client):
            loop = asyncio.get_running_loop()
            status, doc = await client.post("/jobs", SPEC)
            assert status == 202 and doc["dispatch"] == "queue"
            await fail_next_claim(loop)  # attempt 1 of 2: a retry is due
            await asyncio.sleep(0.5)  # ten service polls
            status, polled = await client.get(f"/jobs/{doc['id']}")
            assert polled["status"] == "running"
            await fail_next_claim(loop)  # attempt 2 of 2: quarantined
            final = await poll_terminal(client, doc["id"], timeout=30.0)
            assert final["status"] == "failed"
            assert "RuntimeError" in final["error"]
            assert "failed on the worker pool: boom" in final["error"]

        service_test(scenario)(dict(
            store_dir=tmp_path / "store", queue_dir=qdir,
            queue_threshold=1, poll_interval=0.05,
        ))

    def test_small_jobs_stay_inline_below_threshold(self, tmp_path):
        async def scenario(state, client):
            status, doc = await client.post("/jobs?wait=1", SPEC)
            assert status == 200 and doc["dispatch"] == "inline"

        service_test(scenario)(dict(
            store_dir=tmp_path / "store", queue_dir=tmp_path / "q",
            queue_threshold=10_000,
        ))


class TestHttpErrors:
    def test_error_surface(self, tmp_path):
        async def scenario(state, client):
            status, doc = await client.post("/jobs", dict(SPEC, iterations=0))
            assert status == 400 and "iterations" in doc["error"]
            status, doc = await client.post("/jobs", dict(SPEC, mode="bogus"))
            assert status == 400 and "mode" in doc["error"]
            status, _ = await client.get("/jobs/no-such-job")
            assert status == 404
            status, _ = await client.get("/nope")
            assert status == 404
            status, _ = await client.get("/jobs")
            assert status == 405
            status, _ = await client.get("/queue/status")
            assert status == 404  # no --queue-dir configured
            status, doc = await client.post(
                "/jobs?wait=1", dict(SPEC, seed=9, rococo=True)
            )
            assert status == 200
            assert any("rococo" in w for w in doc["warnings"])

        service_test(scenario)(dict(store_dir=tmp_path))

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "\u00b2"])
    def test_malformed_content_length_is_400(self, tmp_path, length):
        """A Content-Length that is not a decimal digit string is the
        client's error: it used to reach ``int()``/``readexactly`` and
        come back as a 500."""

        async def scenario(state, client):
            host, port = urllib.parse.urlsplit(client.base).netloc.split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(
                f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {length}\r\n\r\n{{}}".encode("latin-1")
            )
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(), 30)
            writer.close()
            await writer.wait_closed()
            assert status_line.split()[1] == b"400", status_line
            assert not state.jobs

        service_test(scenario)(dict(store_dir=tmp_path))

    def test_stalled_request_times_out_with_408(self, tmp_path, monkeypatch):
        """A client that announces a 5-byte body and sends 2 gets a 408
        once the read deadline passes, and the connection closes: the
        handler is not held until the client gives up."""
        import repro.service.http as service_http

        monkeypatch.setattr(service_http, "_READ_TIMEOUT_S", 0.2)

        async def scenario(state, client):
            host, port = urllib.parse.urlsplit(client.base).netloc.split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(
                f"POST /v1/jobs HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Length: 5\r\n\r\n{}".encode("latin-1")
            )
            await writer.drain()
            # read() returns at EOF: the server answered and closed
            response = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            await writer.wait_closed()
            assert response.split()[1] == b"408", response
            assert b"Connection: close" in response
            assert not state.jobs

        service_test(scenario)(dict(store_dir=tmp_path))

    def test_runtime_mitigation_outside_tsc_mode_is_400(self, tmp_path):
        async def scenario(state, client):
            for mitigation_mode in ("dvfs", "combined"):
                status, doc = await client.post(
                    "/jobs", dict(SPEC, mitigation_mode=mitigation_mode)
                )
                assert status == 400 and "needs mode 'tsc_aware'" in doc["error"]

        service_test(scenario)(dict(store_dir=tmp_path))

    def test_healthz_reports_counters(self, tmp_path):
        async def scenario(state, client):
            await client.post("/jobs?wait=1", SPEC)
            status, doc = await client.get("/healthz")
            assert status == 200 and doc["status"] == "ok"
            assert doc["jobs"]["submitted"] == 1
            assert doc["jobs"]["completed"] == 1
            assert set(doc["solver_cache"]) >= {"hits", "misses"}

        service_test(scenario)(dict(store_dir=tmp_path))


class TestServiceState:
    def test_queue_threshold_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            ServiceState(queue_threshold=10)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceState(workers=0)
