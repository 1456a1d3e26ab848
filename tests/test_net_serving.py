"""Network serving tier end to end: framed requests over real sockets
into the asyncio server, through the daemon's single consumer thread,
and back — bit-identical to in-process serial Sessions with the same
seeds. Plus the policing paths (rate limit, quota, queue-full) and the
malformed-input guarantee: a hostile byte stream gets an error frame
and a closed connection, never a crashed server.

Run via ``make check-runtime`` (bounded workers + a hard timeout).
"""

import asyncio
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import Engine, ServingDaemon, Session
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.net import (
    AsyncNetworkClient,
    DaemonRouter,
    FrameDecoder,
    NetworkClient,
    RemoteError,
    ServerThread,
    StreamPartial,
    StreamProgress,
    protocol,
)
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture(scope="module")
def small_engine():
    rng = new_rng(0)
    cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
    head = HeadStage(
        weight=pm(rng, (10, 48)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    return Engine(network, micro_batch=8)


@pytest.fixture(scope="module")
def request_data():
    rng = new_rng(99)
    images = rng.standard_normal((48, 64))
    labels = rng.integers(0, 10, size=48)
    return images, labels


@contextmanager
def serving_stack(engine, *, daemon_kwargs=None, **server_kwargs):
    """A daemon + background asyncio server; yields (host, port, thread)."""
    kwargs = {"seed": 0}
    kwargs.update(daemon_kwargs or {})
    daemon = ServingDaemon(engine, **kwargs)
    thread = ServerThread(daemon, **server_kwargs)
    try:
        host, port = thread.start()
        yield host, port, thread
    finally:
        thread.close()
        daemon.close(drain=True)


def _wait_for(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _recv_outcome(client):
    """A response frame, or the RemoteError a shed request raised."""
    try:
        return client.recv()
    except RemoteError as exc:
        return exc


class TestWireBitIdentity:
    """Acceptance: responses over the wire are bit-identical to serial
    in-process Session runs with the same explicit seeds."""

    def test_single_request_matches_serial_session(
        self, small_engine, request_data
    ):
        images, labels = request_data
        want = Session(small_engine, seed=7).run(images[:16], labels=labels[:16])
        with serving_stack(small_engine) as (host, port, _):
            with NetworkClient(host, port) as client:
                got = client.infer(images[:16], labels[:16], seed=7)
        np.testing.assert_array_equal(got.logits, want.logits)
        assert got.accuracy == want.accuracy
        assert got.summary["total_windows"] == want.total_windows

    @pytest.mark.parametrize("replicas", [1, 2], ids=["daemon", "router-2"])
    def test_concurrent_clients_all_bit_identical(
        self, small_engine, request_data, replicas
    ):
        """Three concurrent clients, coalesced waves, explicit
        per-request seeds, every other request streamed: every wire
        response replays serially, over one daemon or a 2-replica
        router."""
        images, _ = request_data
        pool = [images[:8], images[8:24], images[24:48]]
        if replicas == 1:
            target = ServingDaemon(small_engine, seed=0)
        else:
            target = DaemonRouter.build([small_engine] * replicas, seed=0)
        thread = ServerThread(target, stream_chunk_rows=8)
        got = {}

        def client_loop(host, port, index):
            with NetworkClient(host, port) as client:
                for k in range(index, 9, 3):
                    batch = pool[k % len(pool)]
                    infer = client.infer_streamed if k % 2 else client.infer
                    got[k] = infer(batch, seed=500 + k).logits

        try:
            host, port = thread.start()
            clients = [
                threading.Thread(target=client_loop, args=(host, port, index))
                for index in range(3)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=60)
        finally:
            thread.close()
            target.close(drain=True)
        assert sorted(got) == list(range(9))
        for k, logits in got.items():
            want = Session(small_engine, seed=500 + k).run(pool[k % len(pool)])
            np.testing.assert_array_equal(logits, want.logits)

    def test_async_client_multiplexes_one_connection(
        self, small_engine, request_data
    ):
        images, _ = request_data
        batches = [images[:8], images[8:16], images[16:32], images[32:48]]
        reference = [
            Session(small_engine, seed=100 + i).run(b)
            for i, b in enumerate(batches)
        ]

        async def drive(host, port):
            client = await AsyncNetworkClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *(
                        client.infer(batch, seed=100 + i)
                        for i, batch in enumerate(batches)
                    )
                )
            finally:
                await client.aclose()

        with serving_stack(small_engine) as (host, port, _):
            results = asyncio.run(drive(host, port))
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_pipelined_sync_client_matches_by_request_id(
        self, small_engine, request_data
    ):
        images, _ = request_data
        with serving_stack(small_engine) as (host, port, _):
            with NetworkClient(host, port) as client:
                ids = [client.send(images[:8], seed=s) for s in (11, 12, 13)]
                by_id = {}
                for _ in ids:
                    result = client.recv()
                    by_id[result.request_id] = result
        assert sorted(by_id) == sorted(ids)
        for request_id, seed in zip(ids, (11, 12, 13)):
            want = Session(small_engine, seed=seed).run(images[:8])
            np.testing.assert_array_equal(by_id[request_id].logits, want.logits)

    def test_ping_round_trips(self, small_engine):
        with serving_stack(small_engine) as (host, port, _):
            with NetworkClient(host, port) as client:
                assert client.ping() < 5.0


class TestStreamingDelivery:
    """Opt-in PROGRESS/PARTIAL delivery: reassembled streams are
    bit-identical to the plain response (streaming changes delivery,
    never results), slices are contiguous, and plain requests on the
    same connection never see the new kinds."""

    def test_streamed_response_reassembles_bit_identical(
        self, small_engine, request_data
    ):
        images, labels = request_data
        want = Session(small_engine, seed=7).run(images[:16], labels=labels[:16])
        events = []
        with serving_stack(small_engine, stream_chunk_rows=5) as (host, port, _):
            with NetworkClient(host, port) as client:
                got = client.infer_streamed(
                    images[:16], labels[:16], seed=7, on_event=events.append
                )
        np.testing.assert_array_equal(got.logits, want.logits)
        assert got.accuracy == want.accuracy
        # The last slice (offset 15) becomes the final RemoteResult, so
        # on_event observes the three non-final slices.
        partials = [e for e in events if isinstance(e, StreamPartial)]
        assert len(partials) == 3, "16 rows / chunk 5 -> 4 slices, 3 intermediate"
        assert [p.offset for p in partials] == [0, 5, 10]
        assert [p.seq for p in partials] == [0, 1, 2]
        assert all(not p.last for p in partials)
        progress = [e for e in events if isinstance(e, StreamProgress)]
        assert {p.stage for p in progress} <= {"queued", "planned", "executing"}
        assert any(p.stage == "queued" for p in progress)

    def test_streamed_and_plain_interleave_on_one_connection(
        self, small_engine, request_data
    ):
        """A pipelined plain request and a stream share the connection:
        the stream consumer re-buffers the plain response for recv(),
        and both results are bit-identical to serial sessions."""
        images, _ = request_data
        plain_want = Session(small_engine, seed=21).run(images[:8])
        stream_want = Session(small_engine, seed=22).run(images[8:24])
        with serving_stack(small_engine, stream_chunk_rows=4) as (host, port, _):
            with NetworkClient(host, port) as client:
                plain_id = client.send(images[:8], seed=21)
                streamed = client.infer_streamed(images[8:24], seed=22)
                plain = client.recv()
        assert plain.request_id == plain_id
        np.testing.assert_array_equal(plain.logits, plain_want.logits)
        np.testing.assert_array_equal(streamed.logits, stream_want.logits)

    def test_stream_survives_foreign_frame_in_its_own_recv_batch(self):
        """Regression: a foreign (plain) response landing alone in one
        recv batch, with the stream's frames still in transit, must not
        livelock ``infer_stream`` — the foreign frame is deferred while
        the socket is drained, then handed back to ``recv()``.

        Uses a scripted socket so the batch boundaries are exact; over
        a real socket the interleave test above only hits this split
        nondeterministically."""

        class ScriptedSocket:
            def __init__(self, chunks):
                self._chunks = list(chunks)

            def sendall(self, data):
                pass

            def recv(self, _n):
                assert self._chunks, "client recv'd past the scripted frames"
                return self._chunks.pop(0)

            def shutdown(self, *args):
                pass

            def close(self):
                pass

        plain_logits = np.arange(6, dtype=np.float64).reshape(2, 3)
        stream_logits = np.arange(12, dtype=np.float64).reshape(4, 3)
        # The client sends the plain request (id 1) then the streamed
        # one (id 2); the wire answers with id 1's response ALONE in the
        # first batch, id 2's frames only in later batches.
        chunks = [
            protocol.encode_response(1, plain_logits, {"accuracy": 0.5}),
            protocol.encode_progress(2, "queued", {"rows": 4})
            + protocol.encode_partial(2, stream_logits[:2], offset=0, seq=0),
            protocol.encode_partial(
                2, stream_logits[2:], offset=2, seq=1, last=True, summary={}
            ),
        ]
        client = NetworkClient.__new__(NetworkClient)
        client._sock = ScriptedSocket(chunks)
        client._decoder = FrameDecoder()
        client._ready = []
        client._next_id = 1
        client._closed = False

        outcome = {}

        # Issue the plain request first so it owns id 1, matching the
        # scripted wire; then stream as id 2.
        def scenario():
            try:
                plain_id = client.send(np.zeros((2, 3)), seed=21)
                events = []
                outcome["streamed"] = client.infer_streamed(
                    np.zeros((4, 3)), seed=22, on_event=events.append
                )
                outcome["events"] = events
                outcome["plain_id"] = plain_id
                outcome["plain"] = client.recv()
            except BaseException as exc:  # surfaced after the join
                outcome["error"] = exc

        worker = threading.Thread(target=scenario, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), (
            "infer_stream livelocked on a foreign frame in its own "
            "recv batch"
        )
        if "error" in outcome:
            raise outcome["error"]
        np.testing.assert_array_equal(
            outcome["streamed"].logits, stream_logits
        )
        assert [e.stage for e in outcome["events"] if isinstance(e, StreamProgress)] == ["queued"]
        plain = outcome["plain"]
        assert plain.request_id == outcome["plain_id"]
        np.testing.assert_array_equal(plain.logits, plain_logits)

    def test_async_concurrent_streams_multiplex_one_connection(
        self, small_engine, request_data
    ):
        images, _ = request_data
        batches = [images[:16], images[16:32], images[32:48]]
        reference = [
            Session(small_engine, seed=300 + i).run(b)
            for i, b in enumerate(batches)
        ]

        async def drive(host, port):
            client = await AsyncNetworkClient.connect(host, port)
            try:
                return await asyncio.gather(
                    client.infer_streamed(batches[0], seed=300),
                    client.infer_streamed(batches[1], seed=301),
                    client.infer(batches[2], seed=302),  # plain, same conn
                )
            finally:
                await client.aclose()

        with serving_stack(small_engine, stream_chunk_rows=4) as (host, port, _):
            results = asyncio.run(drive(host, port))
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_server_counts_streamed_delivery(self, small_engine, request_data):
        images, _ = request_data
        with serving_stack(small_engine, stream_chunk_rows=4) as (
            host,
            port,
            thread,
        ):
            with NetworkClient(host, port) as client:
                client.infer_streamed(images[:8], seed=1)
                client.infer(images[:8], seed=2)
            stats = thread.server.stats
        assert stats.streamed_responses == 1
        assert stats.partials_sent == 2, "8 rows / chunk 4 -> 2 slices"
        assert stats.progress_sent >= 1
        assert stats.responses >= 1, "the plain request stays plain"

    def test_streaming_through_router_stays_bit_identical(
        self, small_engine, request_data
    ):
        """The server over a 2-replica DaemonRouter: streamed and plain
        responses both replay serially — topology is invisible on the
        wire."""
        images, _ = request_data
        router = DaemonRouter.build(
            [small_engine, small_engine],
            seed=0,
            probe_interval_s=0.05,
        )
        thread = ServerThread(router, stream_chunk_rows=8)
        try:
            host, port = thread.start()
            with NetworkClient(host, port) as client:
                for seed in (40, 41, 42, 43):
                    want = Session(small_engine, seed=seed).run(images[:24])
                    streamed = client.infer_streamed(images[:24], seed=seed)
                    plain = client.infer(images[:24], seed=seed)
                    np.testing.assert_array_equal(streamed.logits, want.logits)
                    np.testing.assert_array_equal(plain.logits, want.logits)
            assert router.stats.routed >= 8
        finally:
            thread.close()
            router.close(drain=True)


class TestDirectWrites:
    """The loop thread writes frames straight to the transport: the wire
    order is the order the loop handles them in."""

    def test_progress_partial_response_order_on_the_wire(
        self, small_engine, request_data
    ):
        """A streamed request pipelined with a plain one: the stream's
        PROGRESS frames, then its PARTIAL slices in sequence, then the
        plain RESPONSE — each bit-identical to a serial session."""
        images, _ = request_data
        streamed_want = Session(small_engine, seed=41).run(images[:16])
        plain_want = Session(small_engine, seed=42).run(images[16:24])
        blob = protocol.encode_request(
            1, images[:16], seed=41, stream=True
        ) + protocol.encode_request(2, images[16:24], seed=42)
        frames = []
        with serving_stack(small_engine, stream_chunk_rows=5) as (host, port, _):
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(blob)
                decoder = FrameDecoder()
                while not any(f.request_id == 2 for f in frames):
                    data = sock.recv(65536)
                    assert data, f"connection closed after {frames}"
                    frames += decoder.feed(data)
        order = [
            (
                f.request_id,
                type(f).__name__,
                getattr(f, "stage", getattr(f, "seq", None)),
            )
            for f in frames
        ]
        assert order == [
            (1, "ProgressFrame", "queued"),
            (1, "ProgressFrame", "planned"),
            (1, "ProgressFrame", "executing"),
            (1, "PartialFrame", 0),
            (1, "PartialFrame", 1),
            (1, "PartialFrame", 2),
            (1, "PartialFrame", 3),
            (2, "ResponseFrame", None),
        ]
        partials = [f for f in frames if isinstance(f, protocol.PartialFrame)]
        np.testing.assert_array_equal(
            np.concatenate([p.logits for p in partials]), streamed_want.logits
        )
        np.testing.assert_array_equal(frames[-1].logits, plain_want.logits)

    def test_shutdown_leaves_no_daemon_or_server_thread(
        self, small_engine, request_data
    ):
        images, _ = request_data
        before = set(threading.enumerate())
        with serving_stack(small_engine) as (host, port, _):
            with NetworkClient(host, port) as client:
                client.infer(images[:8], seed=1)
            started = [
                t for t in set(threading.enumerate()) - before
                if t.name.startswith("repro-")
            ]
            assert sorted(t.name for t in started) == [
                "repro-daemon-consumer",
                "repro-net-server",
            ]
        assert not any(thread.is_alive() for thread in started)


class TestAdmissionPolicing:
    def test_rate_limit_returns_retryable_error(self, small_engine, request_data):
        images, _ = request_data
        with serving_stack(
            small_engine, rate_limit_rps=0.01, rate_burst=1
        ) as (host, port, thread):
            with NetworkClient(host, port) as client:
                first = client.infer(images[:8], seed=1)
                assert first.logits.shape == (8, 10)
                with pytest.raises(RemoteError) as info:
                    client.infer(images[:8], seed=2)
            assert info.value.code == "rate-limited"
            assert info.value.retryable is True
            assert thread.server.stats.rejected_rate_limited == 1

    def test_quota_caps_inflight_per_connection(self, small_engine, request_data):
        images, _ = request_data
        with serving_stack(
            small_engine, max_inflight_per_client=1
        ) as (host, port, thread):
            with NetworkClient(host, port) as client:
                with small_engine._exec_lock:  # stall execution
                    first_id = client.send(images[:8], seed=1)
                    client.send(images[:8], seed=2)
                    # the quota rejection arrives while the first
                    # request is still stalled in the pipeline
                    with pytest.raises(RemoteError) as info:
                        client.recv()
                    assert info.value.code == "quota-exceeded"
                    assert info.value.retryable is True
                answer = client.recv()
            assert answer.request_id == first_id
            assert thread.server.stats.rejected_quota == 1

    def test_queue_full_sheds_and_survivors_stay_bit_identical(
        self, small_engine, request_data
    ):
        """A saturated daemon sheds with retryable queue-full error
        frames; every accepted request still resolves bit-identically
        once the pipeline drains."""
        images, _ = request_data
        daemon_kwargs = {
            "max_queue": 1,
            "max_wave_images": 1,
        }
        n = 12
        with serving_stack(
            small_engine, daemon_kwargs=daemon_kwargs
        ) as (host, port, thread):
            with NetworkClient(host, port) as client:
                with small_engine._exec_lock:  # stall the executor
                    for seed in range(n):
                        client.send(images[:8], seed=seed)
                    # wait until the server has answered the shed ones
                    _wait_for(
                        lambda: thread.server.stats.rejected_queue_full
                        + thread.server.stats.responses
                        + daemon_inflight(thread) >= n
                    )
                outcomes = [_recv_outcome(client) for _ in range(n)]
        shed = [o for o in outcomes if isinstance(o, RemoteError)]
        served = [o for o in outcomes if not isinstance(o, RemoteError)]
        assert shed, "the bounded queue must shed under a stalled executor"
        assert all(e.code == "queue-full" and e.retryable for e in shed)
        assert len(served) + len(shed) == n
        for result in served:
            seed = result.request_id - 1  # ids are 1-based in send order
            want = Session(small_engine, seed=seed).run(images[:8])
            np.testing.assert_array_equal(result.logits, want.logits)

    def test_bad_request_is_fatal_not_retryable(self, small_engine):
        with serving_stack(small_engine) as (host, port, _):
            with NetworkClient(host, port) as client:
                with pytest.raises(RemoteError) as info:
                    client.infer(np.zeros((4, 9)), seed=1)  # wrong fan-in
        assert info.value.retryable is False


def daemon_inflight(thread) -> int:
    return thread.server.daemon.stats.in_flight


class TestMalformedInputOverTheWire:
    """Fuzz the live server: every hostile stream gets an error frame
    (where a frame can still be written) and a closed connection — and
    the server keeps serving well-formed clients afterwards."""

    def _raw(self, host, port, blob, timeout=10.0):
        """Send raw bytes; return every byte the server answers."""
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            answer = b""
            while True:
                data = sock.recv(65536)
                if not data:
                    return answer
                answer += data

    @pytest.mark.parametrize(
        "blob",
        [
            b"\xde\xad\xbe\xef" * 8,  # garbage magic
            protocol.HEADER.pack(b"RB", 99, 1, 0, 1),  # bad version
            protocol.HEADER.pack(b"RB", 1, 77, 0, 1),  # unknown kind
            protocol.HEADER.pack(b"RB", 1, 1, 2**31, 1),  # oversize prefix
            protocol.HEADER.pack(b"RB", 1, 1, 24, 5) + b"x" * 24,  # junk payload
        ],
        ids=["garbage", "bad-version", "bad-kind", "oversize", "junk-payload"],
    )
    def test_hostile_stream_gets_error_frame_and_close(
        self, small_engine, blob, request_data
    ):
        images, _ = request_data
        with serving_stack(small_engine) as (host, port, thread):
            answer = self._raw(host, port, blob)
            frames = FrameDecoder().feed(answer)
            assert len(frames) == 1
            assert isinstance(frames[0], protocol.ErrorFrame)
            assert frames[0].code == "protocol-error"
            assert thread.server.stats.protocol_errors == 1
            # the server is still alive and still correct
            with NetworkClient(host, port) as client:
                want = Session(small_engine, seed=3).run(images[:8])
                got = client.infer(images[:8], seed=3)
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_truncated_frame_then_disconnect_is_harmless(
        self, small_engine, request_data
    ):
        images, _ = request_data
        with serving_stack(small_engine) as (host, port, thread):
            blob = protocol.encode_request(1, images[:8])[:-7]
            assert self._raw(host, port, blob) == b""
            assert thread.server.stats.protocol_errors == 0
            with NetworkClient(host, port) as client:
                assert client.infer(images[:8], seed=1).logits.shape == (8, 10)

    def test_random_fuzz_never_kills_the_server(self, small_engine, request_data):
        images, _ = request_data
        rng = np.random.default_rng(777)
        with serving_stack(small_engine) as (host, port, _):
            for _ in range(10):
                blob = (
                    rng.integers(0, 256, size=int(rng.integers(1, 400)))
                    .astype(np.uint8)
                    .tobytes()
                )
                self._raw(host, port, blob)
            with NetworkClient(host, port) as client:
                want = Session(small_engine, seed=21).run(images[:8])
                np.testing.assert_array_equal(
                    client.infer(images[:8], seed=21).logits, want.logits
                )


class TestDisconnectContainment:
    def test_client_disconnect_mid_request_spares_others(
        self, small_engine, request_data
    ):
        """A client that vanishes with a request in flight abandons only
        its own response: the daemon finishes the work, the server drops
        the orphaned write-back, and a concurrent client's response is
        bit-identical to serial."""
        images, _ = request_data
        want = Session(small_engine, seed=33).run(images[:16])
        with serving_stack(small_engine) as (host, port, thread):
            with small_engine._exec_lock:  # hold responses back
                victim = NetworkClient(host, port)
                victim.send(images[16:32], seed=34)
                _wait_for(lambda: thread.server.stats.requests >= 1)
                victim.close()  # gone before its answer exists
                survivor = NetworkClient(host, port)
                survivor.send(images[:16], seed=33)
            try:
                got = survivor.recv()
            finally:
                survivor.close()
            assert _wait_for(
                lambda: thread.server.stats.disconnected_inflight == 1
            )
        np.testing.assert_array_equal(got.logits, want.logits)

    def test_close_with_client_attached_leaves_no_loop_error(
        self, small_engine, request_data
    ):
        """Closing the server while a client is still connected cancels
        that connection's handler; the cancellation must end cleanly
        instead of reaching the event loop's exception handler."""
        images, _ = request_data
        loop_errors = []
        router = DaemonRouter.build([small_engine, small_engine], seed=0)
        thread = ServerThread(router)
        try:
            host, port = thread.start()
            thread._loop.set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            client = NetworkClient(host, port)
            try:
                client.infer(images[:8], seed=3)
                thread.close()  # the client is still attached
            finally:
                client.close()
        finally:
            thread.close()
            router.close(drain=True)
        assert loop_errors == []

    def test_close_just_after_client_leaves_leaves_no_loop_error(
        self, small_engine, request_data
    ):
        """A client that leaves just before the server closes: its
        handler can still be closing the transport when aclose() cancels
        it, and that cancellation must not reach the event loop's
        exception handler either. The window is narrow, so the scenario
        repeats."""
        images, _ = request_data
        loop_errors = []
        for _ in range(25):
            daemon = ServingDaemon(small_engine, seed=0)
            thread = ServerThread(daemon)
            try:
                host, port = thread.start()
                thread._loop.set_exception_handler(
                    lambda loop, context: loop_errors.append(context)
                )
                with NetworkClient(host, port) as client:
                    client.infer(images[:8], seed=1)
            finally:
                thread.close()
                daemon.close()
        assert loop_errors == []

    def test_server_stats_snapshot_counts(self, small_engine, request_data):
        images, _ = request_data
        with serving_stack(small_engine) as (host, port, thread):
            with NetworkClient(host, port) as client:
                client.infer(images[:8], seed=1)
                client.infer(images[8:16], seed=2)
            stats = thread.server.stats
        assert stats.connections == 1
        assert stats.requests == 2
        assert stats.responses == 2
        assert stats.errors_sent == 0
        assert stats.as_dict()["responses"] == 2
