"""Asyncio HTTP front end of the simulation service (stdlib only).

A deliberately small HTTP/1.1 server over :func:`asyncio.start_server`
— no web framework, no new dependencies — exposing the scheduler as a
JSON API:

==========================  =============================================
``GET  /v1/healthz``        liveness probe
``GET  /v1/stats``          scheduler + shared-store counters
``POST /v1/submit``         submit a batch of :class:`~repro.service.
                            requests.JobRequest` payloads for a tenant;
                            returns one typed ticket per job
``GET  /v1/jobs/<key>``     poll one job; ``?result=1`` attaches the
                            completed result (base64 of the *stored*
                            pickle bytes) plus summary metrics
``GET  /v1/stream?keys=…``  newline-delimited JSON progress events until
                            every requested key is terminal
==========================  =============================================

Backpressure is typed end to end: a submit whose every job was shed
returns **429** with ``{"error": "backpressure", "retry_after": …}``
(and a ``Retry-After`` header); partially shed batches return 200 and
per-ticket reasons, so clients retry only what was rejected.

Progress events are *order-independent* payloads — each line carries
the job key, its state and the terminal/total counts, never a position
— so two clients streaming the same batch can assert the same event
set whatever order completions land in.  A client that disconnects
mid-stream costs the server one cancelled coroutine; the scheduler and
every other connection are unaffected (pinned by the fault tests).

Every connection serves one request and closes (``Connection: close``);
the service's unit of work is a batch, not a chatty session, and
one-shot connections keep the parser trivially robust.
"""

from __future__ import annotations

import asyncio
import base64
import json
import threading
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.requests import JobRequest, RequestError, resolve
from repro.service.scheduler import (
    DONE,
    FAILED,
    SHED,
    ResultNotReady,
    ServiceScheduler,
)

#: States that end a key's participation in a progress stream.
_TERMINAL = (DONE, FAILED, "unknown")

#: Reasons phrase per status code (only the ones we emit).
_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Request line + each header line are capped (a raw socket poking at
#: the port must not balloon memory), as is a submit body.
_MAX_LINE = 16 * 1024
_MAX_BODY = 8 * 1024 * 1024


class _HttpError(Exception):
    """Internal: abort request handling with a typed JSON error."""

    def __init__(self, status: int, error: str, detail: str = ""):
        super().__init__(detail or error)
        self.status = status
        self.payload = {"error": error}
        if detail:
            self.payload["detail"] = detail


def _json_bytes(payload: Any) -> bytes:
    """Compact, key-sorted JSON encoding (deterministic on the wire)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def _result_payload(scheduler: ServiceScheduler, key: str) -> dict:
    """The result attachment of a completed job.

    ``result_b64`` is the base64 of the pickle bytes as *stored* — the
    byte-identity contract with library-mode execution is checked
    against exactly this payload — and ``metrics`` a JSON summary for
    clients that do not want to unpickle.
    """
    result = scheduler.result(key)
    payload = scheduler.result_bytes(key)
    return {
        "result_b64": base64.b64encode(payload).decode("ascii"),
        "metrics": {
            "epi": result.epi,
            "execution_seconds": result.execution_seconds,
            "instructions": result.timing.instructions,
            "cycles": result.timing.cycles,
            "energy_joules": result.energy.total,
        },
    }


class ServiceAPI:
    """The HTTP server wrapping one :class:`ServiceScheduler`.

    Parameters
    ----------
    scheduler : ServiceScheduler
        The (started) scheduler handling submissions.
    host, port : str, int
        Bind address; port 0 picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    poll_interval : float
        How often progress streams re-snapshot job states.
    """

    def __init__(
        self,
        scheduler: ServiceScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.05,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self._server: asyncio.base_events.Server | None = None

    # --------------------------------------------------------- lifecycle
    async def start(self) -> "ServiceAPI":
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (binds first when needed)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting connections and close the server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------- connection
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve one request on one connection, then close it."""
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, target, body = request
            await self._route(method, target, body, writer)
        except _HttpError as error:
            await self._respond(writer, error.status, error.payload)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away: its problem, not the service's
        except Exception as error:  # pragma: no cover - defensive
            try:
                await self._respond(
                    writer,
                    500,
                    {"error": "internal", "detail": repr(error)},
                )
            except OSError:
                pass
        finally:
            # Suppress CancelledError too: shutdown cancels in-flight
            # handlers, and this close is best-effort either way.
            try:
                writer.close()
                await writer.wait_closed()
            except (
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
                OSError,
            ):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        """Parse one HTTP/1.1 request: (method, target, body)."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=30.0
            )
        except asyncio.TimeoutError:
            return None
        if not line.strip():
            return None
        if len(line) > _MAX_LINE:
            raise _HttpError(400, "bad_request", "request line too long")
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise _HttpError(400, "bad_request", "malformed request line")
        content_length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if len(header) > _MAX_LINE:
                raise _HttpError(400, "bad_request", "header too long")
            name, _sep, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _HttpError(
                        400, "bad_request", "bad content-length"
                    )
        if content_length > _MAX_BODY:
            raise _HttpError(400, "bad_request", "body too large")
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, target, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        headers: dict[str, str] | None = None,
    ) -> None:
        """Write one complete JSON response."""
        body = _json_bytes(payload)
        lines = [
            f"HTTP/1.1 {status} {_PHRASES.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------ routes
    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Dispatch one parsed request to its endpoint."""
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        if path == "/v1/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True})
            return
        if path == "/v1/stats" and method == "GET":
            await self._respond(writer, 200, self._stats_payload())
            return
        if path == "/v1/submit":
            if method != "POST":
                raise _HttpError(405, "method_not_allowed", "POST only")
            await self._submit(body, writer)
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            key = path[len("/v1/jobs/"):]
            query = parse_qs(url.query)
            with_result = query.get("result", ["0"])[0] not in ("0", "")
            await self._job(key, with_result, writer)
            return
        if path == "/v1/stream" and method == "GET":
            query = parse_qs(url.query)
            keys = [
                key
                for clause in query.get("keys", [])
                for key in clause.split(",")
                if key
            ]
            if not keys:
                raise _HttpError(400, "bad_request", "no keys requested")
            await self._stream(keys, writer)
            return
        raise _HttpError(404, "not_found", f"{method} {path}")

    def _stats_payload(self) -> dict:
        """Scheduler + store counters for ``/v1/stats``."""
        payload: dict = {
            "scheduler": self.scheduler.stats.to_dict(),
            "queue_depth": self.scheduler.queue_depth(),
        }
        store = self.scheduler.results.store
        if store is not None:
            summary = store.summary()
            payload["store"] = {
                "counters": dict(store.stats),
                "entries": summary.entries,
                "payload_bytes": summary.payload_bytes,
                "shards": summary.shards,
                "scratch_files": summary.scratch_files,
            }
        return payload

    async def _submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """``POST /v1/submit``: resolve, admit, answer with tickets."""
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(400, "bad_request", f"bad JSON: {error}")
        if not isinstance(payload, dict):
            raise _HttpError(400, "bad_request", "body must be an object")
        tenant = payload.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise _HttpError(400, "bad_request", "missing tenant")
        raw_requests = payload.get("requests")
        if not isinstance(raw_requests, list) or not raw_requests:
            raise _HttpError(400, "bad_request", "missing requests")
        try:
            jobs = [
                resolve(JobRequest.from_dict(raw)) for raw in raw_requests
            ]
        except RequestError as error:
            raise _HttpError(400, "bad_request", str(error))
        loop = asyncio.get_running_loop()
        tickets = await loop.run_in_executor(
            None, self.scheduler.submit, tenant, jobs
        )
        ticket_payloads = [ticket.to_dict() for ticket in tickets]
        shed = [t for t in tickets if t.state == SHED]
        if shed and len(shed) == len(tickets):
            retry_after = max(t.retry_after or 0.0 for t in shed)
            await self._respond(
                writer,
                429,
                {
                    "error": "backpressure",
                    "reason": shed[0].reason,
                    "retry_after": retry_after,
                    "tickets": ticket_payloads,
                },
                headers={"Retry-After": f"{retry_after:.3f}"},
            )
            return
        await self._respond(writer, 200, {"tickets": ticket_payloads})

    async def _job(
        self, key: str, with_result: bool, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/jobs/<key>``: poll state, optionally ship result."""
        try:
            payload = self.scheduler.state_of(key)
        except KeyError:
            raise _HttpError(404, "not_found", f"unknown job {key!r}")
        if with_result:
            try:
                payload.update(_result_payload(self.scheduler, key))
            except ResultNotReady:
                # Never a partial result: the state already says why.
                pass
        await self._respond(writer, 200, payload)

    async def _stream(
        self, keys: list[str], writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/stream``: push order-independent progress events."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head)
        await writer.drain()
        ordered = sorted(set(keys))
        last: dict[str, str] = {}
        while True:
            snap = self.scheduler.snapshot(ordered)
            states = {
                key: snap.get(key, {"key": key, "state": "unknown"})
                for key in ordered
            }
            done = sum(
                1
                for payload in states.values()
                if payload["state"] in _TERMINAL
            )
            for key in ordered:
                payload = states[key]
                if last.get(key) == payload["state"]:
                    continue
                last[key] = payload["state"]
                event = dict(payload)
                event.update({"done": done, "total": len(ordered)})
                writer.write(_json_bytes(event))
            await writer.drain()
            if done == len(ordered):
                writer.write(
                    _json_bytes(
                        {
                            "event": "complete",
                            "done": done,
                            "total": len(ordered),
                        }
                    )
                )
                await writer.drain()
                return
            await asyncio.sleep(self.poll_interval)


# ---------------------------------------------------------- sync hosting
class ServiceHandle:
    """A running service (event loop on a background thread).

    Returned by :func:`serve_in_thread`; exposes the bound address and
    a :meth:`close` that tears the server down.  The scheduler's
    lifecycle stays with the caller.
    """

    def __init__(
        self,
        api: ServiceAPI,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.api = api
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        """Bound host."""
        return self.api.host

    @property
    def port(self) -> int:
        """Bound (possibly ephemeral) port."""
        return self.api.port

    def close(self) -> None:
        """Stop the server and join its thread (idempotent).

        Cancels any in-flight request coroutines (e.g. progress streams
        abandoned by disconnected clients) before stopping the loop, so
        nothing is left to die noisily at garbage collection.
        """
        if not self.thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(), self.loop
        )
        try:
            future.result(timeout=5.0)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=5.0)

    async def _shutdown(self) -> None:
        """Close the server, then cancel and reap in-flight handlers."""
        await self.api.aclose()
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_in_thread(
    scheduler: ServiceScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    poll_interval: float = 0.05,
) -> ServiceHandle:
    """Start a :class:`ServiceAPI` on a dedicated event-loop thread.

    The blocking-world entry point used by tests, the smoke harness
    and the CLI client helpers.  The socket is bound in the calling
    thread before the loop thread starts, so a bind failure (e.g. a
    busy port) closes the loop and raises its ``OSError`` here; on
    return the ephemeral port is resolved on the handle.
    """
    api = ServiceAPI(
        scheduler, host=host, port=port, poll_interval=poll_interval
    )
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(api.start())
    except BaseException:
        loop.close()
        raise

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-service-api", daemon=True
    )
    thread.start()
    return ServiceHandle(api, loop, thread)
