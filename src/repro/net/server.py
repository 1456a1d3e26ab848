"""Asyncio TCP ingestion front-end over a :class:`ServingDaemon`.

:class:`NetworkServer` is the network edge of the serving stack: it
accepts framed requests (:mod:`repro.net.protocol`), polices them with
per-connection token-bucket rate limiting and an in-flight quota, and
bridges each admitted request into the daemon's bounded queue with
:meth:`~repro.runtime.daemon.ServingDaemon.try_submit` — the
*non-blocking* submission path, so a full queue becomes a retryable
``queue-full`` error frame on the wire instead of a stalled event loop.
A future's done-callback runs on the daemon thread that resolved it:
for a plain response it encodes the RESPONSE frame right there, while
that thread is still warm, and hands the bytes to the loop with one
``call_soon_threadsafe``; no coroutine ever blocks on
``Future.result()``. The loop thread writes every frame straight to
the connection's transport, so frames go out in the order the loop
handles them, and the read loop awaits ``drain()`` before it reads the
next frame, so a client that stops reading stops being read.

Failure containment mirrors the daemon's: a malformed frame gets a
final ``protocol-error`` frame and the connection closes; a client that
disconnects mid-request abandons only its own responses (counted in
:attr:`ServerStats.disconnected_inflight`); per-request execution
errors come back as error frames classified retryable/fatal by
:mod:`repro.runtime.recovery`. The server itself holds no execution
state — kill it and the daemon keeps draining.

**Streaming** (``stream=True`` on a request frame) interleaves
PROGRESS lifecycle frames — bridged off the daemon's ``progress`` hook
with ``call_soon_threadsafe`` — and delivers the logits as a sequence
of PARTIAL row-slices (``REPRO_STREAM_CHUNK_ROWS`` rows each, the last
one carrying the summary). Reassembled slices are byte-identical to
the plain RESPONSE: streaming changes delivery, never results.

The server is topology-agnostic: ``daemon`` may be a single
:class:`~repro.runtime.daemon.ServingDaemon` or a
:class:`~repro.net.router.DaemonRouter` fanning over N replicas — both
expose the same non-blocking submission surface.

:class:`ServerThread` runs the whole event loop in a background thread
for synchronous contexts (tests, examples, the ``repro serve`` CLI).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Optional, Set, Tuple

import numpy as np

from repro.net import protocol
from repro.runtime.env import env_int
from repro.runtime.recovery import QueueFull, classify

class TokenBucket:
    """Classic token-bucket rate limiter (monotonic clock).

    ``rate`` tokens refill per second up to ``burst``; :meth:`take`
    consumes one if available. A ``rate`` of None disables limiting.
    """

    def __init__(self, rate: Optional[float], burst: Optional[float] = None) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be > 0 (or None), got {rate}")
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 0) * 2 or 1.0)
        if rate is not None and self.burst < 1.0:
            raise ValueError(f"burst must allow at least one token, got {self.burst}")
        self._tokens = self.burst
        self._stamp = time.monotonic()

    def take(self, now: Optional[float] = None) -> bool:
        if self.rate is None:
            return True
        now = time.monotonic() if now is None else now
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class ServerStats:
    """Counters of one server's lifetime (snapshot via
    :attr:`NetworkServer.stats`)."""

    connections: int = 0  # accepted, lifetime
    open_connections: int = 0  # live right now
    requests: int = 0  # well-formed request frames received
    responses: int = 0  # response frames written
    errors_sent: int = 0  # error frames written (all codes)
    rejected_queue_full: int = 0  # daemon admission shed the request
    rejected_rate_limited: int = 0  # token bucket said no
    rejected_quota: int = 0  # per-connection in-flight ceiling hit
    bad_requests: int = 0  # payloads the daemon refused (fatal)
    protocol_errors: int = 0  # framing violations (connection died)
    disconnected_inflight: int = 0  # responses dropped: client left early
    streamed_responses: int = 0  # requests answered with PARTIAL slices
    partials_sent: int = 0  # PARTIAL frames written
    progress_sent: int = 0  # PROGRESS frames written

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _Connection:
    """Per-connection policing + write-back state."""

    def __init__(self, server: "NetworkServer", writer) -> None:
        self.bucket = TokenBucket(server.rate_limit_rps, server.rate_burst)
        self.inflight = 0
        self.closed = False
        self.writer = writer

    def send(self, data: bytes) -> None:
        """Write one encoded frame (event-loop thread only): frames go
        out whole, in call order."""
        if not self.closed:
            self.writer.write(data)


class NetworkServer:
    """Asyncio TCP server bridging wire requests into a daemon.

    Parameters
    ----------
    daemon:
        The :class:`~repro.runtime.daemon.ServingDaemon` requests are
        submitted to (via its non-blocking ``try_submit``). The server
        does not own it: close order is the caller's business (close
        the server first, then the daemon).
    host / port:
        Listen address; port 0 picks an ephemeral port, readable from
        :attr:`address` after :meth:`start`.
    max_inflight_per_client:
        In-flight request ceiling per connection; beyond it requests
        are refused with a retryable ``quota-exceeded`` error frame.
    rate_limit_rps / rate_burst:
        Per-connection token-bucket rate limit (requests/second and
        burst size). ``None`` disables rate limiting.
    max_frame_bytes:
        Frame payload ceiling enforced before any buffering.
    stream_chunk_rows:
        Rows per PARTIAL frame for streamed responses (default from
        ``REPRO_STREAM_CHUNK_ROWS``, 32). Must be >= 1.
    """

    def __init__(
        self,
        daemon,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight_per_client: int = 32,
        rate_limit_rps: Optional[float] = None,
        rate_burst: Optional[float] = None,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
        stream_chunk_rows: Optional[int] = None,
    ) -> None:
        if max_inflight_per_client < 1:
            raise ValueError(
                f"max_inflight_per_client must be >= 1, got {max_inflight_per_client}"
            )
        self.daemon = daemon
        self.host = host
        self.port = port
        self.max_inflight_per_client = int(max_inflight_per_client)
        self.rate_limit_rps = rate_limit_rps
        self.rate_burst = rate_burst
        self.max_frame_bytes = int(max_frame_bytes)
        if stream_chunk_rows is None:
            stream_chunk_rows = env_int("REPRO_STREAM_CHUNK_ROWS", 32, minimum=1)
        if stream_chunk_rows < 1:
            raise ValueError(
                f"stream_chunk_rows must be >= 1, got {stream_chunk_rows}"
            )
        self.stream_chunk_rows = int(stream_chunk_rows)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stats = ServerStats()
        self._stats_lock = threading.Lock()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._closing = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (after :meth:`start`)."""
        return self.host, self.port

    @property
    def stats(self) -> ServerStats:
        with self._stats_lock:
            return ServerStats(**self._stats.as_dict())

    def _bump(self, counter: str, delta: int = 1) -> None:
        with self._stats_lock:
            setattr(self._stats, counter, getattr(self._stats, counter) + delta)

    # ------------------------------------------------------------------
    async def start(self) -> "NetworkServer":
        """Bind and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, tear down live connections. Idempotent."""
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        self._bump("connections")
        self._bump("open_connections")
        conn = _Connection(self, writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        last_request_id = 0
        try:
            while True:
                header = await reader.readexactly(protocol.HEADER.size)
                kind, payload_len, request_id = protocol.parse_header(
                    header, max_frame_bytes=self.max_frame_bytes
                )
                last_request_id = request_id
                payload = (
                    await reader.readexactly(payload_len) if payload_len else b""
                )
                frame = protocol.decode_payload(kind, request_id, payload)
                self._dispatch(conn, frame)
                await writer.drain()
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away; nothing to answer
        except protocol.ProtocolError as exc:
            # One final error frame, then the connection dies: the
            # stream offset is unrecoverable after a framing violation.
            self._bump("protocol_errors")
            self._send_error(
                conn, last_request_id, protocol.ERR_PROTOCOL, str(exc)
            )
        except asyncio.CancelledError:
            # aclose() cancels live connections to tear them down. The
            # handler must then end normally: asyncio's stream callback
            # reports a *cancelled* handler task as an unhandled error.
            if not self._closing:
                raise
        finally:
            conn.closed = True
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # aclose() may also land here, after the client left.
                if not self._closing:
                    raise
            self._bump("open_connections", -1)
            if task is not None:
                self._conn_tasks.discard(task)

    # ------------------------------------------------------------------
    def _send_error(
        self, conn: _Connection, request_id: int, code: str, message: str
    ) -> None:
        self._bump("errors_sent")
        conn.send(protocol.encode_error(request_id, code, message))

    def _dispatch(self, conn: _Connection, frame: protocol.Frame) -> None:
        if isinstance(frame, protocol.ControlFrame):
            if frame.kind == protocol.PING:
                conn.send(protocol.encode_pong(frame.request_id))
            return
        if not isinstance(frame, protocol.RequestFrame):
            raise protocol.ProtocolError(
                f"server accepts only REQUEST/PING frames, got kind {frame.kind}"
            )
        self._bump("requests")
        rid = frame.request_id
        if not conn.bucket.take():
            self._bump("rejected_rate_limited")
            self._send_error(
                conn,
                rid,
                protocol.ERR_RATE_LIMITED,
                f"connection exceeded {self.rate_limit_rps:g} requests/s",
            )
            return
        if conn.inflight >= self.max_inflight_per_client:
            self._bump("rejected_quota")
            self._send_error(
                conn,
                rid,
                protocol.ERR_QUOTA,
                f"connection already has {conn.inflight} requests in flight "
                f"(quota {self.max_inflight_per_client})",
            )
            return
        # The decode gave a read-only view over the frame buffer; hand
        # the daemon its own writable copy so execution can slice and
        # convert freely while the buffer is recycled.
        images = np.array(frame.images)
        labels = None if frame.labels is None else np.array(frame.labels)
        progress = None
        if frame.stream:
            loop = self._loop

            def progress(stage, detail, c=conn, r=rid):
                # Runs on daemon threads; hop to the loop to write.
                loop.call_soon_threadsafe(self._progress, c, r, stage, detail)

        try:
            future = self.daemon.try_submit(
                images, labels=labels, seed=frame.seed, progress=progress
            )
        except QueueFull:
            self._bump("rejected_queue_full")
            self._send_error(
                conn,
                rid,
                protocol.ERR_QUEUE_FULL,
                "serving queue is at capacity; back off and retry",
            )
            return
        except RuntimeError as exc:  # daemon closed
            self._send_error(conn, rid, protocol.ERR_CLOSING, str(exc))
            return
        except (ValueError, TypeError) as exc:
            self._bump("bad_requests")
            self._send_error(conn, rid, protocol.ERR_BAD_REQUEST, str(exc))
            return
        conn.inflight += 1
        future.add_done_callback(
            lambda fut, c=conn, r=rid, s=frame.stream: self._on_done(c, r, fut, s)
        )

    def _on_done(
        self, conn: _Connection, request_id: int, future, stream: bool
    ) -> None:
        """Done-callback, on the thread that resolved the future (the
        daemon's consumer): encode a plain response there, then hand
        it to the loop. ``protocol.encode_response`` is looked up at
        call time so instrumentation can wrap it."""
        data = None
        if not stream and not conn.closed and future.exception() is None:
            result = future.result()
            data = protocol.encode_response(
                request_id, result.logits, _wire_summary(result)
            )
        self._loop.call_soon_threadsafe(
            self._resolved, conn, request_id, future, stream, data
        )

    def _progress(
        self, conn: _Connection, request_id: int, stage: str, detail: dict
    ) -> None:
        """Write one streamed lifecycle marker (on the event loop)."""
        if conn.closed:
            return
        self._bump("progress_sent")
        conn.send(protocol.encode_progress(request_id, stage, detail))

    def _resolved(
        self,
        conn: _Connection,
        request_id: int,
        future,
        stream: bool,
        data: Optional[bytes],
    ) -> None:
        """Runs on the event loop once the daemon resolves a future;
        ``data`` is the plain response already encoded off-loop."""
        conn.inflight -= 1
        if conn.closed:
            # The client left before its answer arrived: drop it. The
            # daemon already did the work; only the write-back is moot.
            self._bump("disconnected_inflight")
            future.exception()  # consume, avoid the unretrieved warning
            return
        exc = future.exception()
        if exc is not None:
            code = (
                protocol.ERR_QUEUE_FULL
                if isinstance(exc, QueueFull)
                else protocol.ERR_INTERNAL
                if classify(exc) == "retryable"
                else protocol.ERR_BAD_REQUEST
            )
            if code == protocol.ERR_BAD_REQUEST:
                self._bump("bad_requests")
            self._send_error(
                conn,
                request_id,
                code,
                f"{type(exc).__name__}: {exc}",
            )
            return
        result = future.result()
        self._bump("responses")
        if stream:
            self._stream_result(conn, request_id, result)
            return
        conn.send(data)

    def _stream_result(self, conn: _Connection, request_id: int, result) -> None:
        """Deliver one result as PARTIAL row-slices (the last slice
        carries the summary). The slices are written back to back on
        the loop thread, so they arrive contiguous and in sequence."""
        self._bump("streamed_responses")
        chunk = self.stream_chunk_rows
        total = result.logits.shape[0]
        offsets = list(range(0, total, chunk)) or [0]
        for seq, offset in enumerate(offsets):
            last = seq == len(offsets) - 1
            self._bump("partials_sent")
            conn.send(
                protocol.encode_partial(
                    request_id,
                    result.logits[offset : offset + chunk],
                    offset=offset,
                    seq=seq,
                    last=last,
                    summary=_wire_summary(result) if last else None,
                )
            )


def _wire_summary(result) -> dict:
    """The flat, JSON-safe result summary a response frame carries."""
    summary = {}
    for key, value in result.summary().items():
        if isinstance(value, (str, bool)) or value is None:
            summary[key] = value
        elif isinstance(value, (int, float)):
            summary[key] = float(value) if isinstance(value, float) else int(value)
        else:
            summary[key] = str(value)
    summary.setdefault("micro_batches", int(result.micro_batches))
    return summary


class ServerThread:
    """Run a :class:`NetworkServer` event loop in a background thread.

    The synchronous harness tests, examples, and the CLI use: start it,
    read ``(host, port)``, drive it with blocking clients, close it.

    ::

        with ServerThread(daemon, rate_limit_rps=500) as (host, port):
            with NetworkClient(host, port) as client:
                result = client.infer(images, seed=7)
    """

    def __init__(self, daemon, **server_kwargs) -> None:
        self._daemon = daemon
        self._kwargs = server_kwargs
        self.server: Optional[NetworkServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("ServerThread is already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("network server failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError("network server failed to start") from self._startup_error
        return self.server.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = NetworkServer(self._daemon, **self._kwargs)
        try:
            loop.run_until_complete(server.start())
        # taxonomy: fatal — startup failure is re-raised to the caller
        except BaseException as exc:  # noqa: BLE001 - reported to starter
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self.server = server
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.aclose())
            loop.close()

    def close(self) -> None:
        if self._loop is None or not self._thread or not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
