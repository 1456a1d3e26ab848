"""``repro.net`` — the network serving tier.

The ingestion edge in front of the runtime's
:class:`~repro.runtime.daemon.ServingDaemon`::

    clients ──frames──▶ asyncio server ──try_submit──▶ router ──▶ replica daemons
       ▲                                                │ waves
       └── response / PARTIAL / PROGRESS frames ◀───────┘

* :mod:`repro.net.protocol` — the length-prefixed framed wire protocol
  (versioned header, request ids, ndarray payloads, typed error
  frames, opt-in streaming kinds) with strict decode validation.
  Documented in ``docs/PROTOCOL.md``.
* :mod:`repro.net.server` — :class:`NetworkServer`, the asyncio TCP
  front-end with per-connection token-bucket rate limiting, in-flight
  quotas, and streamed (PROGRESS/PARTIAL) delivery;
  :class:`ServerThread` runs it from sync code.
* :mod:`repro.net.router` — :class:`DaemonRouter`, seed-sticky routing
  over N daemon replicas with spillover, classified failover, health
  eviction, and probe-driven re-admission. Duck-types the daemon
  surface, so the server sits over either.
* :mod:`repro.net.client` — :class:`NetworkClient` (blocking) and
  :class:`AsyncNetworkClient` (multiplexed asyncio) plus
  :class:`RemoteResult` / :class:`RemoteError` and the
  ``infer_stream`` consumers.

The wire benchmark lives outside the library: ``perfbench/run.py
--workload wire-trickle|wire-load`` drives ``repro serve`` with an
open-loop generator and bit-checks every response.
"""

from repro.net.client import (
    AsyncNetworkClient,
    NetworkClient,
    RemoteError,
    RemoteResult,
    StreamPartial,
    StreamProgress,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR,
    PARTIAL,
    PING,
    PONG,
    PROGRESS,
    REQUEST,
    RESPONSE,
    RETRYABLE_CODES,
    VERSION,
    ControlFrame,
    ErrorFrame,
    FrameDecoder,
    FrameTooLarge,
    PartialFrame,
    ProgressFrame,
    ProtocolError,
    RequestFrame,
    ResponseFrame,
    decode_payload,
    encode_error,
    encode_partial,
    encode_ping,
    encode_pong,
    encode_progress,
    encode_request,
    encode_response,
    parse_header,
)
from repro.net.router import DaemonRouter, ReplicaHandle, RouterStats
from repro.net.server import NetworkServer, ServerStats, ServerThread, TokenBucket

__all__ = [
    "VERSION",
    "REQUEST",
    "RESPONSE",
    "ERROR",
    "PING",
    "PONG",
    "PROGRESS",
    "PARTIAL",
    "DEFAULT_MAX_FRAME_BYTES",
    "RETRYABLE_CODES",
    "RequestFrame",
    "ResponseFrame",
    "ErrorFrame",
    "ControlFrame",
    "ProgressFrame",
    "PartialFrame",
    "FrameDecoder",
    "ProtocolError",
    "FrameTooLarge",
    "encode_request",
    "encode_response",
    "encode_error",
    "encode_ping",
    "encode_pong",
    "encode_progress",
    "encode_partial",
    "decode_payload",
    "parse_header",
    "NetworkServer",
    "ServerThread",
    "ServerStats",
    "TokenBucket",
    "DaemonRouter",
    "ReplicaHandle",
    "RouterStats",
    "NetworkClient",
    "AsyncNetworkClient",
    "RemoteResult",
    "RemoteError",
    "StreamProgress",
    "StreamPartial",
]
