"""Thin HTTP and stdio front ends over :class:`~repro.serve.server.PowerServer`.

Hand-rolled on ``asyncio`` streams — no web framework, no dependencies.  The
HTTP surface is deliberately tiny:

* ``POST /jobs`` — body is a :class:`~repro.api.spec.RunSpec` JSON payload;
  responds ``202 {"job_id": ...}`` immediately (the job queues, and
  coalesces with every request that reaches the server within its
  coalescing window).
* ``GET /jobs`` — every known job, one summary line each.
* ``GET /jobs/<id>`` — the full job record (state, events, error).
* ``GET /jobs/<id>/result`` — blocks until the job finishes, then the
  :class:`~repro.api.spec.EstimateResult` payload (``409`` + the structured
  error when the job failed).
* ``GET /jobs/<id>/profile`` — blocks until the job finishes, then the
  :class:`~repro.power.profile.PowerProfile` payload (``404`` when the job
  was not submitted with ``power_profile``; ``409`` on failure).
* ``GET /jobs/<id>/events`` — live NDJSON stream of progress events, one
  JSON object per line, closing after the terminal event; a finished
  profiled job's ``done`` event carries a downsampled windowed-power
  summary.
* ``GET /stats`` — server + cache statistics (including the process-wide
  compile counters that prove coalescing).
* ``GET /metrics`` — the process-wide :mod:`repro.obs` metrics registry in
  Prometheus text exposition format (scrape-ready).

The stdio front end (:func:`run_stdio`) speaks the same operations as JSON
lines on stdin/stdout — for supervisors that prefer pipes over sockets:
``{"op": "submit", "spec": {...}}`` → ``{"ok": true, "job_id": ...}``, plus
``status``, ``result`` (waits), ``events`` (streams), ``stats`` and
``shutdown``.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Dict, Optional, TextIO, Tuple

from repro import obs
from repro.serve.server import JobFailed, PowerServer

#: maximum accepted request-body size (a RunSpec payload is tiny)
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


def _response(status: int, payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


def _text_response(status: int, text: str, content_type: str) -> bytes:
    body = text.encode()
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


class HttpFrontend:
    """Minimal HTTP/1.1 server bridging sockets to a :class:`PowerServer`."""

    def __init__(
        self, server: PowerServer, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._listener: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._listener = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # resolve the kernel-assigned port when asked for an ephemeral one
        self.port = self._listener.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- connection
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, body = await self._read_request(reader)
            if method is not None:
                await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # a broken handler must not kill the loop
            try:
                writer.write(
                    _response(500, {"error": f"{type(exc).__name__}: {exc}"})
                )
            except ConnectionError:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Tuple[Optional[str], str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            return None, "", b""
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None, "", b""
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = min(int(value.strip()), MAX_BODY_BYTES)
                except ValueError:
                    content_length = 0
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return method, path, body

    # ---------------------------------------------------------------- routing
    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        server = self.server
        if method == "POST" and path == "/jobs":
            try:
                spec = json.loads(body.decode() or "{}")
                job_id = await server.submit(spec, remote=True)
            except (ValueError, KeyError, TypeError) as exc:
                writer.write(_response(400, {"error": str(exc)}))
                return
            writer.write(_response(202, {"job_id": job_id}))
            return
        if method != "GET":
            writer.write(_response(405, {"error": f"no route {method} {path}"}))
            return
        if path == "/stats":
            writer.write(_response(200, server.stats()))
            return
        if path == "/metrics":
            writer.write(
                _text_response(
                    200,
                    obs.render_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            )
            return
        if path == "/jobs":
            writer.write(
                _response(
                    200,
                    {
                        "jobs": [
                            {
                                "job_id": r.job_id,
                                "state": r.state,
                                "design": r.spec.design,
                                "engine": r.spec.engine,
                                "seed": r.spec.seed,
                                "cached": r.cached,
                                "group_size": r.group_size,
                            }
                            for r in server.store.jobs()
                        ]
                    },
                )
            )
            return
        if path.startswith("/jobs/"):
            segments = path[len("/jobs/"):].split("/")
            job_id, tail = segments[0], segments[1:]
            try:
                record = server.status(job_id)
            except KeyError:
                writer.write(_response(404, {"error": f"unknown job {job_id}"}))
                return
            if not tail:
                writer.write(_response(200, record.to_dict()))
                return
            if tail == ["result"]:
                try:
                    result = await server.result(job_id)
                except JobFailed as failed:
                    writer.write(
                        _response(
                            409,
                            {
                                "state": failed.record.state,
                                "error": failed.record.error,
                            },
                        )
                    )
                    return
                writer.write(_response(200, result.to_dict()))
                return
            if tail == ["profile"]:
                try:
                    result = await server.result(job_id)
                except JobFailed as failed:
                    writer.write(
                        _response(
                            409,
                            {
                                "state": failed.record.state,
                                "error": failed.record.error,
                            },
                        )
                    )
                    return
                if result.profile is None:
                    writer.write(
                        _response(
                            404,
                            {
                                "error": f"job {job_id} has no power profile "
                                         f"(submit with power_profile=true)",
                            },
                        )
                    )
                    return
                writer.write(_response(200, result.profile.to_dict()))
                return
            if tail == ["events"]:
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/x-ndjson\r\n"
                    b"Connection: close\r\n\r\n"
                )
                async for event in server.events(job_id):
                    writer.write(
                        json.dumps(event.to_dict(), sort_keys=True).encode()
                        + b"\n"
                    )
                    await writer.drain()
                return
        writer.write(_response(404, {"error": f"no route {method} {path}"}))


# ------------------------------------------------------------------- stdio
async def run_stdio(
    server: PowerServer,
    input_stream: Optional[TextIO] = None,
    output_stream: Optional[TextIO] = None,
) -> None:
    """Serve JSON-line operations over stdin/stdout until EOF/``shutdown``."""
    stdin = input_stream if input_stream is not None else sys.stdin
    stdout = output_stream if output_stream is not None else sys.stdout
    loop = asyncio.get_running_loop()

    def reply(payload: Dict[str, object]) -> None:
        stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        stdout.flush()

    while True:
        line = await loop.run_in_executor(None, stdin.readline)
        if not line:
            return
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "shutdown":
                reply({"ok": True, "op": "shutdown"})
                return
            if op == "submit":
                job_id = await server.submit(request["spec"], remote=True)
                reply({"ok": True, "job_id": job_id})
            elif op == "status":
                record = server.status(request["job_id"])
                reply({"ok": True, "job": record.to_dict()})
            elif op == "result":
                try:
                    result = await server.result(request["job_id"])
                    reply({"ok": True, "result": result.to_dict()})
                except JobFailed as failed:
                    reply(
                        {
                            "ok": False,
                            "state": failed.record.state,
                            "error": failed.record.error,
                        }
                    )
            elif op == "events":
                async for event in server.events(request["job_id"]):
                    reply({"ok": True, "event": event.to_dict()})
            elif op == "stats":
                reply({"ok": True, "stats": server.stats()})
            else:
                reply({"ok": False, "error": f"unknown op {op!r}"})
        except (ValueError, KeyError, TypeError) as exc:
            reply({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
