"""ServingDaemon: queueing, coalescing bit-identity, failure isolation,
shutdown semantics, and Session lifecycle guarantees."""

import json
import os
import queue
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.api import Engine, ServingDaemon, Session
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.runtime import ShardParallelScheduler
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


def _requests(images, labels):
    bounds = [(0, 8), (8, 24), (24, 29), (29, 48)]  # uneven on purpose
    return (
        [images[a:b] for a, b in bounds],
        [labels[a:b] for a, b in bounds],
    )


def _submit_executing(daemon, images):
    """Submit one request and return its future once its wave is
    executing (the ``executing`` progress stage has fired)."""
    executing = threading.Event()

    def progress(stage, _detail):
        if stage == "executing":
            executing.set()

    future = daemon.submit(images, progress=progress)
    assert executing.wait(timeout=10), "the first wave never started executing"
    return future


def _assert_coalesced(stats, n):
    """An n-request burst submitted while holding the engine's execution
    lock: the first wave leaves at once and blocks on the lock, the rest
    queue behind it and leave together — at most two waves, every
    request but possibly the first coalesced."""
    assert stats.waves <= 2, stats
    assert stats.coalesced_requests >= n - 1, stats


class TestCoalescingBitIdentity:
    """Acceptance: coalesced daemon logits are bit-identical to the same
    requests run uncoalesced through a serial Session."""

    def test_coalesced_wave_matches_serial_session(self, small_engine, request_data):
        images, labels = request_data
        requests, request_labels = _requests(images, labels)
        reference = Session(small_engine, seed=42).run_many(
            requests, labels=request_labels
        )
        with ServingDaemon(small_engine, seed=42) as daemon:
            with small_engine._exec_lock:
                futures = [
                    daemon.submit(r, labels=l)
                    for r, l in zip(requests, request_labels)
                ]
            results = [f.result(timeout=30) for f in futures]
            stats = daemon.stats
        _assert_coalesced(stats, len(requests))
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)
            assert got.accuracy == want.accuracy
            assert got.micro_batches == want.micro_batches
            assert got.total_windows == want.total_windows

    def test_zero_window_still_coalesces_queued_burst(self, small_engine, request_data):
        """The consumer merges whatever is already queued (no waiting)."""
        images, _ = request_data
        requests = [images[:8]] * 6
        reference = Session(small_engine, seed=9).run_many(requests)
        with ServingDaemon(small_engine, seed=9) as daemon:
            results = daemon.run_many(requests)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_seed_per_request_matches_serving_contract(self, small_engine, request_data):
        """seed_per_request replays per-request child-seeded sessions bit
        for bit: child seeds are drawn from the daemon seed in arrival
        order, one generator draw per request."""
        images, labels = request_data
        requests, request_labels = _requests(images, labels)
        gen = new_rng(21)
        reference = [
            Session(small_engine, seed=int(gen.integers(0, 2**63 - 1))).run(
                request, labels=request_labels[index]
            )
            for index, request in enumerate(requests)
        ]
        with ServingDaemon(small_engine, seed=21, seed_per_request=True) as daemon:
            report = daemon.serve(requests, labels=request_labels)
        assert report.waves is not None and report.waves >= 1
        for got, want in zip(report.results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)
            assert got.accuracy == want.accuracy

    def test_daemon_over_process_pool_matches_serial(self, small_engine, request_data):
        images, _ = request_data
        requests = [images[:16], images[16:48]]
        reference = Session(small_engine, seed=4).run_many(requests)
        with ShardParallelScheduler(workers=2) as scheduler:
            with ServingDaemon(small_engine, scheduler=scheduler, seed=4) as daemon:
                results = daemon.run_many(requests)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_explicit_submit_seed_pins_one_request(self, small_engine, request_data):
        images, _ = request_data
        want = Session(small_engine, seed=77).run(images[:8])
        with ServingDaemon(small_engine) as daemon:
            got = daemon.submit(images[:8], seed=77).result()
        np.testing.assert_array_equal(got.logits, want.logits)


class TestWorkConservingCoalescing:
    """One consumer, no window: an idle consumer takes a wave at once,
    and requests queued behind a running wave leave together the moment
    it finishes."""

    def test_idle_executor_dispatches_at_once(self, small_engine, request_data):
        images, _ = request_data
        want = Session(small_engine, seed=13).run(images[:8])
        with ServingDaemon(small_engine, seed=13) as daemon:
            start = time.monotonic()
            got = daemon.submit(images[:8]).result(timeout=30)
            elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"a lone request waited {elapsed:.2f}s"
        np.testing.assert_array_equal(got.logits, want.logits)

    def test_executor_going_idle_ends_the_wait(self, small_engine, request_data):
        images, _ = request_data
        requests = [images[i * 8 : (i + 1) * 8] for i in range(5)]
        reference = Session(small_engine, seed=17).run_many(requests)
        with ServingDaemon(small_engine, seed=17) as daemon:
            with small_engine._exec_lock:
                futures = [_submit_executing(daemon, requests[0])]
                futures += [daemon.submit(r) for r in requests[1:]]
            start = time.monotonic()
            results = [f.result(timeout=30) for f in futures]
            elapsed = time.monotonic() - start
            stats = daemon.stats
        assert elapsed < 5.0, f"the follow-up wave waited {elapsed:.2f}s"
        assert stats.waves == 2
        assert stats.coalesced_requests == 4
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)


def _daemon_threads():
    return {t for t in threading.enumerate() if t.name.startswith("repro-daemon-")}


class TestSingleConsumer:
    def test_open_daemon_owns_one_thread_and_close_joins_it(
        self, small_engine, request_data
    ):
        images, _ = request_data
        before = _daemon_threads()
        daemon = ServingDaemon(small_engine, seed=0)
        try:
            owned = _daemon_threads() - before
            assert len(owned) == 1, owned
            daemon.run_many([images[:8], images[8:16]])
            assert _daemon_threads() - before == owned
        finally:
            daemon.close()
        assert not any(thread.is_alive() for thread in owned)


class TestServingEdgeCases:
    def test_zero_request_run_many(self, small_engine):
        with ServingDaemon(small_engine, seed=0) as daemon:
            assert daemon.run_many([]) == []
        assert Session(small_engine, seed=0).run_many([]) == []
        report = ServingDaemon(small_engine, seed=0)
        try:
            assert report.serve([]).n_requests == 0
        finally:
            report.close()

    def test_failing_request_does_not_wedge_the_queue(self, small_engine, request_data):
        """A request whose execution raises fails its own future only;
        neighbours in the same wave still complete — bit-identically to
        the uncoalesced serial sequence (which also draws plan seeds
        for the doomed request before it fails)."""
        images, _ = request_data
        ref_session = Session(small_engine, seed=5)
        ref_good = ref_session.run(images[:8])
        with pytest.raises(ValueError):
            ref_session.run(np.full((4, 9), 0.5))
        ref_tail = ref_session.run(images[8:16])
        reference = [ref_good, ref_tail]
        with ServingDaemon(small_engine, seed=5) as daemon:
            # The bad request shares its wave with at least one neighbour
            # in every possible split of this burst into two waves.
            with small_engine._exec_lock:
                good = daemon.submit(images[:8])
                bad = daemon.submit(np.full((4, 9), 0.5))  # wrong fan-in
                tail = daemon.submit(images[8:16])
            with pytest.raises(ValueError):
                bad.result(timeout=30)
            np.testing.assert_array_equal(
                good.result(timeout=30).logits, reference[0].logits
            )
            np.testing.assert_array_equal(
                tail.result(timeout=30).logits, reference[1].logits
            )
            stats = daemon.stats
        _assert_coalesced(stats, 3)
        assert stats.failed == 1
        assert stats.completed == 2
        # the daemon still serves after the failure
        with ServingDaemon(small_engine, seed=5) as daemon:
            assert daemon.submit(images[:8]).result(timeout=30).batch_size == 8

    def test_malformed_submit_rejected_in_caller(self, small_engine):
        with ServingDaemon(small_engine) as daemon:
            with pytest.raises(ValueError):
                daemon.submit(np.zeros(64))  # unbatched

    def test_close_drains_in_flight_requests(self, small_engine, request_data):
        images, _ = request_data
        daemon = ServingDaemon(small_engine, seed=1)
        futures = [daemon.submit(images[:8]) for _ in range(5)]
        daemon.close(drain=True)
        for future in futures:
            assert future.result(timeout=30).batch_size == 8
        assert daemon.stats.completed == 5

    def test_close_without_drain_fails_pending(self, small_engine, request_data):
        """Queued-but-unstarted requests get a clear error instead of
        hanging forever."""
        images, _ = request_data
        # a large burst so some requests are still queued at close time
        daemon = ServingDaemon(small_engine, seed=1, max_wave_images=8)
        futures = [daemon.submit(images[:8]) for _ in range(12)]
        daemon.close(drain=False)
        outcomes = []
        for future in futures:
            try:
                future.result(timeout=30)
                outcomes.append("done")
            except RuntimeError:
                outcomes.append("failed")
        assert "done" in outcomes or "failed" in outcomes
        assert all(o in ("done", "failed") for o in outcomes)
        # every future resolved one way or the other — nothing hangs
        assert len(outcomes) == 12

    def test_submit_after_close_rejected(self, small_engine, request_data):
        images, _ = request_data
        daemon = ServingDaemon(small_engine)
        daemon.close()
        with pytest.raises(RuntimeError):
            daemon.submit(images[:8])
        daemon.close()  # idempotent

    def test_bounded_queue_times_out(self, small_engine, request_data):
        images, _ = request_data
        # max_wave_images=1: the wave closes after its first request, so
        # the consumer never races the test for the second submission.
        daemon = ServingDaemon(small_engine, seed=0, max_queue=1, max_wave_images=1)
        try:
            # Stall the consumer mid-wave by holding the engine's
            # execution lock from this thread; the daemon then fills:
            # one wave blocked executing and one request in the
            # admission queue — two slots with max_wave_images=1.
            with small_engine._exec_lock:
                for _ in range(2):
                    daemon.submit(images[:8], timeout=5.0)
                with pytest.raises(queue.Full):  # no room for a third
                    daemon.submit(images[:8], timeout=0.05)
            # lock released: everything in flight completes on drain
            daemon.close(drain=True)
            assert daemon.stats.completed == 2
        finally:
            daemon.close(drain=False)

    def test_stats_snapshot(self, small_engine, request_data):
        images, _ = request_data
        with ServingDaemon(small_engine, seed=0) as daemon:
            daemon.run_many([images[:8], images[8:16]])
            stats = daemon.stats
        assert stats.submitted == 2
        assert stats.completed == 2
        assert stats.total_images == 16
        assert stats.waves >= 1
        assert stats.as_dict()["submitted"] == 2


class TestBackpressureGauges:
    """try_submit + the live queue-depth/in-flight gauges the network
    tier sheds load with."""

    def test_try_submit_never_blocks_and_gauges_track_saturation(
        self, small_engine, request_data
    ):
        from repro.runtime.recovery import QueueFull

        images, _ = request_data
        daemon = ServingDaemon(small_engine, seed=0, max_queue=1, max_wave_images=1)
        try:
            with small_engine._exec_lock:  # stall the consumer
                accepted = []
                rejections = consecutive = 0
                deadline = time.monotonic() + 20.0
                # A rejection before saturation is transient (the
                # consumer just has not drained the slot yet); five in
                # a row spanning 100ms means the daemon is truly full.
                while consecutive < 5 and time.monotonic() < deadline:
                    try:
                        accepted.append(daemon.try_submit(images[:8]))
                        consecutive = 0
                    except QueueFull:
                        rejections += 1
                        consecutive += 1
                        time.sleep(0.02)
                assert consecutive == 5, "try_submit must shed, not block"
                stats = daemon.stats
                # capacity: 1 executing wave + admission queue 1 (see
                # the bounded-queue test)
                assert len(accepted) == 2
                assert stats.in_flight == 2
                assert stats.queue_depth == 1
                assert stats.rejected == rejections
            daemon.close(drain=True)
            for future in accepted:
                assert future.result(timeout=30).batch_size == 8
            stats = daemon.stats
            assert stats.in_flight == 0
            assert stats.queue_depth == 0
            assert stats.completed == 2
        finally:
            daemon.close(drain=False)

    def test_gauges_are_zero_when_idle(self, small_engine, request_data):
        images, _ = request_data
        with ServingDaemon(small_engine, seed=0) as daemon:
            daemon.submit(images[:8]).result(timeout=30)
            stats = daemon.stats
        assert stats.in_flight == 0
        assert stats.queue_depth == 0
        assert stats.as_dict()["in_flight"] == 0

    def test_try_submit_rejected_after_close(self, small_engine, request_data):
        images, _ = request_data
        daemon = ServingDaemon(small_engine, seed=0)
        daemon.close()
        with pytest.raises(RuntimeError):
            daemon.try_submit(images[:8])


class TestWarmPoolReuse:
    """The prewarmed worker pool persists across waves: a stable pool
    generation is the observable proof that no wave paid a pool rebuild
    (or a re-warmup) after startup."""

    def test_prewarm_builds_pool_once_and_waves_reuse_it(
        self, small_engine, request_data
    ):
        images, _ = request_data
        requests = [images[:16], images[16:32], images[32:48]]
        reference = Session(small_engine, seed=11).run_many(requests)
        with ShardParallelScheduler(workers=1) as scheduler:
            assert scheduler.pool_generation == 0
            with ServingDaemon(
                small_engine,
                seed=11,
                scheduler=scheduler,
                prewarm=True,
            ) as daemon:
                generation = scheduler.pool_generation
                assert generation == 1, "prewarm must build the pool up front"
                results = [daemon.submit(r).result() for r in requests]
                assert daemon.stats.waves >= 1
            # Every wave ran on the same pool the prewarm built.
            assert scheduler.pool_generation == generation
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)

    def test_warmed_fork_pool_exits_without_tracker_warnings(self):
        """A pool warmed from a single-threaded process forks its
        workers; their shm attaches must land in the parent's resource
        tracker, or each worker's own tracker warns about the parent's
        unlinked segments at exit."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.api import Engine
            from repro.hardware.accelerator import TiledLinearLayer
            from repro.hardware.config import HardwareConfig
            from repro.mapping.compiler import CompiledNetwork, LinearStage, SignStage
            from repro.runtime import ShardParallelScheduler

            cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
            rng = np.random.default_rng(0)
            layer = TiledLinearLayer(cfg, np.sign(rng.standard_normal((64, 48))), seed=1)
            engine = Engine(
                CompiledNetwork([SignStage(), LinearStage(layer=layer)], cfg),
                micro_batch=8,
            )
            with ShardParallelScheduler(workers=2) as scheduler:
                scheduler.warm(engine.network)
                engine.session(seed=0, scheduler=scheduler).run(
                    rng.standard_normal((32, 64))
                )
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


class TestServeBenchCli:
    def test_serve_bench_rows_share_a_schema_and_bits(self, tmp_path, capsys):
        """``repro serve-bench`` runs a coalesced and a prewarmed
        parallel daemon, bit-checks one against the other, and writes
        two rows with the same key set."""
        from repro import cli

        out = tmp_path / "serve_bench.json"
        code = cli.main(
            [
                "serve-bench", "--workers", "2", "--requests", "2",
                "--batch", "8", "--epochs", "1", "--json", str(out),
            ]
        )
        assert code == 0
        assert "bit-identity: 2/2" in capsys.readouterr().out
        rows = json.loads(out.read_text())["rows"]
        assert [row["mode"] for row in rows] == [
            "daemon-coalesced", "daemon-parallel",
        ]
        assert set(rows[0]) == set(rows[1])


class TestSessionLifecycle:
    def test_closed_session_rejects_run(self, small_engine, request_data):
        images, _ = request_data
        session = small_engine.session(seed=0)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run(images[:8])
        with pytest.raises(RuntimeError, match="closed"):
            session.run_many([images[:8]])

    def test_close_is_idempotent(self, small_engine):
        session = small_engine.session(seed=0, scheduler="shard-parallel")
        session.close()
        session.close()  # second close must not blow up on the dead pool

    def test_context_manager_closes(self, small_engine, request_data):
        images, _ = request_data
        with small_engine.session(seed=0) as session:
            session.run(images[:8])
        with pytest.raises(RuntimeError):
            session.run(images[:8])
