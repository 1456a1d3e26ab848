"""DaemonRouter: seed-sticky routing, spillover past full queues,
classified failover, health eviction / probe re-admission, and the
determinism contract — every routed response bit-identical to a serial
``Session`` run with the same seed, regardless of replica count."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.api import Engine, ServingDaemon, Session
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.net.router import PROBE_SEED, DaemonRouter, RouterStats
from repro.runtime.recovery import PoisonedPayload, QueueFull
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


def _engine(seed=0):
    rng = new_rng(seed)
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
def small_engine():
    return _engine()


@pytest.fixture(scope="module")
def images():
    return new_rng(99).standard_normal((16, 64))


class StubDaemon:
    """Duck-typed replica for routing-policy tests: scripted to accept,
    refuse (QueueFull), or resolve its future with a chosen failure —
    no timing, no threads."""

    def __init__(self, name, *, full=False, fail_with=None, alive=True):
        self.name = name
        self.full = full  # try_submit raises QueueFull
        self.fail_with = fail_with  # accepted future fails with this
        self.alive = alive  # reported by .healthy
        self.accepted = []  # (seed, rows) per accepted request
        self.closed = False

    def try_submit(self, images, labels=None, *, seed=None, progress=None):
        if self.closed:
            raise RuntimeError(f"{self.name} is closed")
        if self.full:
            raise QueueFull(f"{self.name} queue full")
        self.accepted.append((seed, int(np.asarray(images).shape[0])))
        future = Future()
        if self.fail_with is not None:
            future.set_exception(self.fail_with)
        else:
            future.set_result({"seed": seed, "replica": self.name})
        return future

    submit = try_submit

    @property
    def healthy(self):
        return self.alive and not self.closed

    @property
    def queue_depth(self):
        return 0

    @property
    def in_flight(self):
        return 0

    def drain(self, timeout=None):
        return True

    def close(self, *, drain=True, timeout=None):
        self.closed = True


def _stub_router(stubs, **kwargs):
    kwargs.setdefault("probe_interval_s", 0.01)
    return DaemonRouter(stubs, **kwargs)


class TestConstruction:
    def test_needs_at_least_one_replica(self):
        with pytest.raises(ValueError, match="at least one"):
            DaemonRouter([])

    def test_duplicate_replica_names_rejected(self):
        stubs = [StubDaemon("replica"), StubDaemon("replica")]
        with pytest.raises(ValueError, match="unique"):
            DaemonRouter(stubs)

    def test_build_names_replicas_and_owns_them(self, small_engine):
        router = DaemonRouter.build([small_engine, small_engine], seed=0)
        try:
            assert [h.name for h in router.replicas] == ["replica-0", "replica-1"]
        finally:
            router.close()
        assert all(not h.daemon.healthy for h in router.replicas)

    def test_submit_after_close_refused(self):
        router = _stub_router([StubDaemon("a")])
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.try_submit(np.zeros((1, 4)))


class TestRoutingPolicy:
    def test_sticky_by_seed_modulo_replicas(self, images):
        stubs = [StubDaemon(f"r{i}") for i in range(3)]
        with _stub_router(stubs) as router:
            for seed in (0, 1, 2, 3, 4, 5):
                router.try_submit(images, seed=seed).result(timeout=5)
        assert [len(s.accepted) for s in stubs] == [2, 2, 2]
        for i, stub in enumerate(stubs):
            assert all(seed % 3 == i for seed, _ in stub.accepted)

    def test_seedless_on_seeded_router_draws_explicit_child_seeds(self, images):
        stubs = [StubDaemon(f"r{i}") for i in range(2)]
        with _stub_router(stubs, seed=7) as router:
            for _ in range(6):
                router.try_submit(images).result(timeout=5)
        seeds = [seed for s in stubs for seed, _ in s.accepted]
        assert all(isinstance(seed, int) for seed in seeds), (
            "seedless requests on a seeded router must travel with an "
            "explicit child seed (replayable on any replica)"
        )
        # The draw is from the router generator in arrival order.
        rng = new_rng(7)
        want = [int(rng.integers(0, 2**63 - 1)) for _ in range(6)]
        assert sorted(seeds) == sorted(want)

    def test_seedless_on_unseeded_router_round_robins(self, images):
        stubs = [StubDaemon(f"r{i}") for i in range(2)]
        with _stub_router(stubs) as router:
            for _ in range(4):
                router.try_submit(images).result(timeout=5)
        assert [len(s.accepted) for s in stubs] == [2, 2]
        assert all(seed is None for s in stubs for seed, _ in s.accepted)

    def test_spillover_past_full_replica(self, images):
        stubs = [StubDaemon("r0", full=True), StubDaemon("r1")]
        with _stub_router(stubs) as router:
            router.try_submit(images, seed=0).result(timeout=5)  # sticky to r0
            stats = router.stats
        assert len(stubs[1].accepted) == 1
        assert stats.spillovers == 1
        assert stats.evictions == 0, "queue-full is load, not a health signal"
        assert stats.per_replica["r0"]["admitted"] is True

    def test_all_replicas_full_raises_queue_full_synchronously(self, images):
        stubs = [StubDaemon("r0", full=True), StubDaemon("r1", full=True)]
        with _stub_router(stubs) as router:
            with pytest.raises(QueueFull, match="capacity"):
                router.try_submit(images, seed=0)
            assert router.stats.exhausted == 1


class TestFailover:
    def test_retryable_failure_fails_over_and_evicts(self, images):
        stubs = [StubDaemon("r0", fail_with=OSError("shm gone")), StubDaemon("r1")]
        with _stub_router(stubs) as router:
            result = router.try_submit(images, seed=0).result(timeout=5)
            stats = router.stats
        assert result["replica"] == "r1"
        assert result["seed"] == 0, "failover must re-submit the same seed"
        assert stats.failovers == 1
        assert stats.evictions == 1
        assert stats.per_replica["r0"]["admitted"] is False
        assert stats.per_replica["r0"]["failures"] == 1

    def test_fatal_failure_propagates_without_eviction(self, images):
        stubs = [
            StubDaemon("r0", fail_with=PoisonedPayload("bad payload")),
            StubDaemon("r1"),
        ]
        with _stub_router(stubs) as router:
            future = router.try_submit(images, seed=0)
            with pytest.raises(PoisonedPayload):
                future.result(timeout=5)
            stats = router.stats
        assert len(stubs[1].accepted) == 0, "fatal failures must not fail over"
        assert stats.evictions == 0, "fatal failures do not indict the replica"
        assert stats.per_replica["r0"]["admitted"] is True

    def test_cluster_wide_retryable_outage_surfaces_original_error(self, images):
        stubs = [
            StubDaemon("r0", fail_with=OSError("down 0")),
            StubDaemon("r1", fail_with=OSError("down 1")),
        ]
        with _stub_router(stubs) as router:
            future = router.try_submit(images, seed=0)
            with pytest.raises(OSError):
                future.result(timeout=5)
            assert router.stats.evictions == 2

    def test_evicted_replica_readmitted_by_probe(self, images):
        failing = StubDaemon("r0", fail_with=OSError("transient"))
        stubs = [failing, StubDaemon("r1")]
        with _stub_router(stubs, probe_interval_s=0.01) as router:
            router.try_submit(images, seed=0).result(timeout=5)
            assert router.stats.per_replica["r0"]["admitted"] is False
            failing.fail_with = None  # replica recovers
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if router.stats.per_replica["r0"]["admitted"]:
                    break
                time.sleep(0.01)
            stats = router.stats
        assert stats.per_replica["r0"]["admitted"] is True
        assert stats.readmissions == 1

    def test_probe_requests_use_probe_seed(self, images):
        failing = StubDaemon("r0", fail_with=OSError("transient"))
        stubs = [failing, StubDaemon("r1")]
        probe_images = np.zeros((2, 64))
        with _stub_router(
            stubs, probe_interval_s=0.01, probe_images=probe_images
        ) as router:
            router.try_submit(images, seed=0).result(timeout=5)
            failing.fail_with = None
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if router.stats.per_replica["r0"]["admitted"]:
                    break
                time.sleep(0.01)
            stats = router.stats
        assert stats.per_replica["r0"]["admitted"] is True
        assert stats.probes >= 1
        probe_submissions = [
            (seed, rows) for seed, rows in failing.accepted[1:]
        ]
        assert (PROBE_SEED, 2) in probe_submissions, (
            "the probe must run the probe batch with the fixed PROBE_SEED"
        )

    def test_unhealthy_replica_not_readmitted(self, images):
        failing = StubDaemon("r0", fail_with=OSError("dead"), alive=False)
        stubs = [failing, StubDaemon("r1")]
        with _stub_router(stubs, probe_interval_s=0.01) as router:
            router.try_submit(images, seed=0).result(timeout=5)
            time.sleep(0.1)  # several probe sweeps
            stats = router.stats
        assert stats.per_replica["r0"]["admitted"] is False
        assert stats.readmissions == 0


class TestDaemonSurface:
    """The router must be a drop-in for one ServingDaemon under
    NetworkServer: same methods, same gauges, same close semantics."""

    def test_gauges_and_health(self):
        stubs = [StubDaemon("r0"), StubDaemon("r1")]
        router = _stub_router(stubs)
        try:
            assert router.healthy is True
            assert router.queue_depth == 0
            assert router.in_flight == 0
            assert router.drain(timeout=1.0) is True
        finally:
            router.close()
        assert router.healthy is False
        assert all(s.closed for s in stubs)

    def test_stats_snapshot_is_detached(self, images):
        stubs = [StubDaemon("r0")]
        with _stub_router(stubs) as router:
            router.try_submit(images, seed=0).result(timeout=5)
            snap = router.stats
            assert isinstance(snap, RouterStats)
            snap.routed = 10_000
            assert router.stats.routed == 1

    def test_aggregate_daemon_stats_sums_replicas(self, small_engine, images):
        with DaemonRouter.build([small_engine, small_engine], seed=3) as router:
            futures = [router.try_submit(images, seed=s) for s in range(4)]
            for f in futures:
                f.result(timeout=30)
            total = router.aggregate_daemon_stats()
            per = [h.daemon.stats for h in router.replicas]
        assert total.completed == sum(s.completed for s in per) == 4
        assert total.submitted == sum(s.submitted for s in per)
        assert total.waves == sum(s.waves for s in per)


class TestBitIdentity:
    """Acceptance: responses are bit-identical to a serial Session with
    the same seed — independent of replica count or placement."""

    def test_seeded_requests_match_serial_session_any_replica_count(
        self, small_engine, images
    ):
        reference = {
            seed: Session(small_engine, seed=seed).run(images) for seed in range(5)
        }
        for n_replicas in (1, 3):
            with DaemonRouter.build([small_engine] * n_replicas, seed=0) as router:
                futures = {
                    seed: router.try_submit(images, seed=seed) for seed in range(5)
                }
                for seed, future in futures.items():
                    got = future.result(timeout=30)
                    np.testing.assert_array_equal(
                        got.logits,
                        reference[seed].logits,
                        err_msg=f"seed {seed} with {n_replicas} replicas",
                    )

    def test_replicas_from_fresh_engines_are_bit_identical(self, images):
        """Engines compiled independently from the same trained model
        produce identical logits (fixed compile seed) — the property
        the CLI's multi-replica mode rests on."""
        a, b = _engine(), _engine()
        want = Session(a, seed=11).run(images)
        with DaemonRouter.build([a, b], seed=0) as router:
            sticky_b = [s for s in range(20) if s % 2 == 1][:3]
            for seed in [11] + sticky_b:
                got = router.try_submit(images, seed=11).result(timeout=30)
                np.testing.assert_array_equal(got.logits, want.logits)

    def test_per_replica_pool_schedulers_stay_warm(self, images):
        """``repro serve --replicas 2 --serve-workers 2`` gives each
        replica its own pool: alternating replicas must not rebuild
        either pool (a pool holds one network), and every response
        matches a serial session with the same seed."""
        from argparse import Namespace

        from repro.cli import _serve_target

        args = Namespace(serve_workers=2, max_queue=16, seed=0)
        engines = [_engine(), _engine()]
        router, schedulers = _serve_target(args, engines)
        try:
            assert isinstance(router, DaemonRouter)
            assert len(schedulers) == 2
            for seed in range(8):  # sticky by seed: replicas alternate
                got = router.try_submit(images, seed=seed).result(timeout=60)
                want = Session(engines[0], seed=seed).run(images)
                np.testing.assert_array_equal(
                    got.logits, want.logits, err_msg=f"seed {seed}"
                )
            assert [s.pool_generation for s in schedulers] == [1, 1]
        finally:
            router.close()
            for scheduler in schedulers:
                scheduler.close()

    def test_single_worker_serve_target_has_no_pool(self, small_engine):
        from argparse import Namespace

        from repro.cli import _serve_target

        args = Namespace(serve_workers=1, max_queue=16, seed=0)
        daemon, schedulers = _serve_target(args, [small_engine])
        with daemon:
            assert isinstance(daemon, ServingDaemon)
            assert schedulers == []
            assert daemon._scheduler.name == "serial"
            assert daemon.backend == "stochastic"

    def test_failover_is_bit_identical(self, small_engine, images):
        """A request that fails over to another replica returns exactly
        the bits the original replica would have produced."""
        want = Session(small_engine, seed=6).run(images)
        real = ServingDaemon(small_engine, name="real")
        broken = StubDaemon("broken", fail_with=OSError("shm gone"))
        with DaemonRouter(
            [broken, real], probe_interval_s=0.01
        ) as router:
            got = router.try_submit(images, seed=6).result(timeout=30)
        np.testing.assert_array_equal(got.logits, want.logits)

    def test_concurrent_seeded_submissions_all_match(self, small_engine, images):
        reference = {
            seed: Session(small_engine, seed=seed).run(images)
            for seed in range(8)
        }
        with DaemonRouter.build([small_engine, small_engine], seed=0) as router:
            futures = {}
            barrier = threading.Barrier(4 + 1)

            def worker(worker_seeds):
                barrier.wait()
                for seed in worker_seeds:
                    futures[seed] = router.try_submit(images, seed=seed)

            threads = [
                threading.Thread(target=worker, args=([s, s + 4],))
                for s in range(4)
            ]
            for t in threads:
                t.start()
            barrier.wait()
            for t in threads:
                t.join()
            for seed, future in futures.items():
                got = future.result(timeout=30)
                np.testing.assert_array_equal(
                    got.logits, reference[seed].logits, err_msg=f"seed {seed}"
                )
