"""The asyncio HTTP frontend — stdlib only, one file, no framework.

A deliberately small HTTP/1.1 surface over :class:`ServiceState`
(every route is a thin shell over :mod:`repro.api`):

======  ==============================  =======================================
POST    ``/v1/jobs``                    submit a :class:`~repro.api.JobSpec`
                                        (JSON body); ``?wait=1`` blocks until
                                        terminal and returns the full document
GET     ``/v1/jobs/<id>``               job status + result document
GET     ``/v1/jobs/<id>/events``        NDJSON stream of progress events
                                        (anneal/assignment/mitigation-round/
                                        verify), live until the job ends
GET     ``/v1/queue/status``            the shared queue-progress document
                                        (identical to ``sweep-status --json``)
GET     ``/v1/healthz``                 liveness + solver-cache counters
======  ==============================  =======================================

Responses are JSON with ``Connection: close`` (one request per
connection keeps the parser honest and the service boring); errors are
``{"error": ...}`` with a 4xx/5xx status.  The event stream is
``application/x-ndjson``, flushed per event, so ``urllib`` and ``curl``
both consume it line-by-line with zero client dependencies.
"""

from __future__ import annotations

import asyncio
import json
import warnings
from typing import Tuple
from urllib.parse import parse_qs, urlsplit

from ..api import API_VERSION, JobSpec, queue_status
from ..core.schema import SchemaWarning
from .state import ServiceState

__all__ = ["serve", "run"]

#: request-size guards: this service fronts a solver farm, not the web
_MAX_REQUEST_LINE = 8192
_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 1 << 20
#: seconds a client has to send its whole request (line, headers and
#: body): a client that stalls mid-request must not hold its handler
_READ_TIMEOUT_S = 30.0

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 413: "Payload Too Large",
    500: "Internal Server Error",
}


def _response(status: int, body: dict, extra: str = "") -> bytes:
    payload = (json.dumps(body, sort_keys=True) + "\n").encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"{extra}"
        "Connection: close\r\n\r\n"
    )
    return head.encode() + payload


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, dict, bytes]:
    """Parse one request: (method, target, headers, body)."""
    line = await reader.readline()
    if not line:
        raise _HttpError(400, "empty request")
    if len(line) > _MAX_REQUEST_LINE:
        raise _HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _HttpError(400, f"malformed request line: {line!r}")
    method, target, _version = parts
    headers = {}
    total = 0
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(400, f"malformed content-length: {raw_length!r}")
    length = int(raw_length)
    if length > _MAX_BODY_BYTES:
        raise _HttpError(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _parse_spec(body: bytes) -> Tuple[JobSpec, list]:
    """Decode a JobSpec body; returns (spec, tolerated-warning strings)."""
    try:
        data = json.loads(body.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"request body is not valid JSON: {exc}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SchemaWarning)
        try:
            spec = JobSpec.from_json(data)
        except (ValueError, TypeError) as exc:
            raise _HttpError(400, str(exc))
    notes = [
        str(w.message) for w in caught if issubclass(w.category, SchemaWarning)
    ]
    return spec, notes


async def _handle(
    state: ServiceState,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            try:
                method, target, _headers, body = await asyncio.wait_for(
                    _read_request(reader), _READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                raise _HttpError(
                    408, f"request not received within {_READ_TIMEOUT_S:g} s"
                )
            url = urlsplit(target)
            query = parse_qs(url.query)
            segments = [s for s in url.path.split("/") if s]
            await _route(state, writer, method, segments, query, body)
        except _HttpError as exc:
            writer.write(_response(exc.status, {"error": exc.message}))
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return
        except Exception as exc:  # a bug must not kill the accept loop
            writer.write(_response(500, {"error": f"{type(exc).__name__}: {exc}"}))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _route(
    state: ServiceState,
    writer: asyncio.StreamWriter,
    method: str,
    segments: list,
    query: dict,
    body: bytes,
) -> None:
    if not segments or segments[0] != API_VERSION:
        raise _HttpError(404, f"unknown path (routes live under /{API_VERSION}/)")
    rest = segments[1:]

    if rest == ["jobs"]:
        if method != "POST":
            raise _HttpError(405, "submit jobs with POST /v1/jobs")
        spec, notes = _parse_spec(body)
        job = state.submit(spec)
        if query.get("wait", ["0"])[0] in ("1", "true", "yes"):
            await state.wait(job)
            doc = job.document()
            if notes:
                doc["warnings"] = notes
            writer.write(_response(200, doc))
            return
        doc = job.document()
        if notes:
            doc["warnings"] = notes
        writer.write(_response(202, doc, extra=f"Location: /v1/jobs/{job.id}\r\n"))
        return

    if len(rest) >= 2 and rest[0] == "jobs":
        job = state.jobs.get(rest[1])
        if job is None:
            raise _HttpError(404, f"no such job: {rest[1]}")
        if method != "GET":
            raise _HttpError(405, "job resources are read-only")
        if len(rest) == 2:
            writer.write(_response(200, job.document()))
            return
        if rest[2:] == ["events"]:
            await _stream_events(state, writer, job)
            return
        raise _HttpError(404, f"unknown job resource: {'/'.join(rest[2:])}")

    if rest == ["queue", "status"]:
        if method != "GET":
            raise _HttpError(405, "queue status is read-only")
        if state.queue_dir is None:
            raise _HttpError(404, "this service has no --queue-dir configured")
        loop = asyncio.get_running_loop()
        doc = await loop.run_in_executor(
            None, lambda: queue_status(state.queue_dir, lease_ttl=state.lease_ttl)
        )
        writer.write(_response(200, doc))
        return

    if rest == ["healthz"]:
        if method != "GET":
            raise _HttpError(405, "health is read-only")
        writer.write(_response(200, state.health_document()))
        return

    raise _HttpError(404, f"unknown route: /{'/'.join(segments)}")


async def _stream_events(state, writer: asyncio.StreamWriter, job) -> None:
    writer.write(
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n\r\n"
    )
    await writer.drain()
    async for event in state.events(job):
        writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
        await writer.drain()


async def serve(
    state: ServiceState, host: str = "127.0.0.1", port: int = 8765
) -> asyncio.AbstractServer:
    """Start the server; returns the listening ``asyncio`` server.

    ``port=0`` binds an ephemeral port (tests); the bound address is on
    ``server.sockets[0].getsockname()``.
    """

    async def handler(reader, writer):
        await _handle(state, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)


def run(
    state: ServiceState,
    host: str = "127.0.0.1",
    port: int = 8765,
) -> int:
    """Blocking entry point for ``repro.cli serve``; Ctrl-C stops it.
    The bound address and the stop are printed to standard output."""

    async def main() -> None:
        server = await serve(state, host=host, port=port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        print(f"serving on http://{bound_host}:{bound_port}/{API_VERSION} "
              f"({state.workers} worker thread(s))")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("service stopped")
    return 0
