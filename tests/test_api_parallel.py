"""Pool shard execution through ``ShardParallelScheduler``, the
daemon's batch ``serve()`` report, the ``repro run --workers`` default
scheduler, and Engine correctness fixes (empty-batch accuracy,
run_many labels, backend instance caching)."""

import multiprocessing
import threading
import warnings

import numpy as np
import pytest

from repro.api import (
    Engine,
    ServingDaemon,
    backend_aliases,
    get_backend,
    plan_shards,
)
from repro.api.engine import set_default_scheduler
from repro.api.results import merge_telemetry
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
    compile_model,
)
from repro.mapping.executor import evaluate_accuracy
from repro.runtime import ShardParallelScheduler
from repro.utils.rng import new_rng

from tests.test_mapping_compiler import quick_mlp  # noqa: F401  (fixture)


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


def make_small_engine():
    """A crossbar engine built directly from +-1 weights (no training:
    fast enough to run many sharded requests through a process pool).
    Each call builds a fresh copy: same weights, same compile-time
    sampler streams."""
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
def small_engine():
    return make_small_engine()


@pytest.fixture(scope="module")
def request_data():
    rng = new_rng(99)
    images = rng.standard_normal((40, 64))
    labels = rng.integers(0, 10, size=40)
    return images, labels


def run_merged(scheduler, network, images, plan):
    """Merged ``(logits, telemetry)`` of one plan run on ``scheduler``."""
    outputs = scheduler.run_shards(network, images, plan)
    logits = np.concatenate([part for part, _ in outputs], axis=0)
    return logits, merge_telemetry(records for _, records in outputs)


class TestParallelDeterminism:
    """Acceptance: N-worker ``ShardParallelScheduler`` output is
    bit-identical to serial execution for the same Session seed."""

    def test_serial_vs_1_vs_4_workers_bit_identical(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=11).run(images)
        assert serial.micro_batches == 5
        for workers in (1, 4):
            with ShardParallelScheduler(workers=workers) as scheduler:
                parallel = small_engine.session(seed=11, scheduler=scheduler).run(
                    images
                )
            np.testing.assert_array_equal(
                parallel.logits, serial.logits, err_msg=f"workers={workers}"
            )
            assert parallel.backend == "stochastic"
            assert parallel.micro_batches == serial.micro_batches

    def test_parallel_trained_model_matches_serial(self, quick_mlp):
        """Same property through the real compile path (BN matching,
        thresholds, multi-layer reseeding)."""
        model, _, test = quick_mlp
        engine = Engine.from_model(model, micro_batch=16)
        images = test.images[:40]
        serial = engine.session(seed=5).run(images)
        with ShardParallelScheduler(workers=2) as scheduler:
            parallel = engine.session(seed=5, scheduler=scheduler).run(images)
        np.testing.assert_array_equal(parallel.logits, serial.logits)

    def test_telemetry_merges_across_workers(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=3).run(images)
        with ShardParallelScheduler(workers=4) as scheduler:
            parallel = small_engine.session(seed=3, scheduler=scheduler).run(images)
        assert parallel.total_windows == serial.total_windows
        assert len(parallel.layers) == len(serial.layers)
        assert [t.kind for t in parallel.layers] == [t.kind for t in serial.layers]

    def test_successive_parallel_runs_stay_stochastic(self, small_engine, request_data):
        images, _ = request_data
        with ShardParallelScheduler(workers=2) as scheduler:
            session = small_engine.session(seed=4, scheduler=scheduler)
            a = session.run(images)
            b = session.run(images)
        assert not np.array_equal(a.logits, b.logits)

    def test_empty_request_through_parallel_backend(self, small_engine):
        with ShardParallelScheduler(workers=2) as scheduler:
            result = small_engine.session(seed=0, scheduler=scheduler).run(
                np.zeros((0, 64))
            )
        assert result.logits.shape == (0, 10)
        assert result.batch_size == 0

    def test_inner_backend_configurable(self, small_engine, request_data):
        images, _ = request_data
        serial = small_engine.session(seed=9).run(
            images, backend="stochastic-fused-batched"
        )
        with ShardParallelScheduler(
            workers=2, inner="stochastic-fused-batched"
        ) as scheduler:
            parallel = small_engine.session(seed=9, scheduler=scheduler).run(images)
        np.testing.assert_array_equal(parallel.logits, serial.logits)
        assert parallel.backend == "stochastic-fused-batched"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ShardParallelScheduler(workers=0)
        with pytest.raises(KeyError):
            ShardParallelScheduler(inner="nonsense")


class TestCallerGroup:
    """With ``workers=W >= 2`` the calling thread runs the last shard
    group itself and the pool holds ``W - 1`` processes."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_warm_pool_owns_workers_minus_one_children(self, small_engine, workers):
        before = set(multiprocessing.active_children())
        with ShardParallelScheduler(workers=workers) as scheduler:
            scheduler.warm(small_engine.network)
            children = set(multiprocessing.active_children()) - before
            # REPRO_MAX_POOL_WORKERS (the runtime tiers set 2) caps W.
            assert scheduler.workers <= workers
            assert len(children) == max(1, scheduler.workers - 1)

    @pytest.mark.parametrize(
        "inner", ["stochastic", "stochastic-batched", "stochastic-packed"]
    )
    @pytest.mark.parametrize("warm", [True, False], ids=["lanes", "executor"])
    def test_pooled_logits_equal_serial(self, small_engine, request_data, inner, warm):
        images, _ = request_data
        for workers in (2, 3):
            with ShardParallelScheduler(workers=workers, inner=inner) as scheduler:
                if warm:
                    scheduler.warm(small_engine.network)
                for shards in (1, 2, 3, 8):
                    x = np.resize(images, (8 * shards, images.shape[1]))
                    serial = small_engine.session(seed=shards, backend=inner).run(x)
                    with small_engine.session(
                        seed=shards, scheduler=scheduler
                    ) as session:
                        pooled = session.run(x)
                    assert pooled.micro_batches == shards
                    np.testing.assert_array_equal(
                        pooled.logits,
                        serial.logits,
                        err_msg=f"workers={workers} shards={shards}",
                    )

    @pytest.mark.parametrize("inner", ["stochastic", "stochastic-packed"])
    def test_seedless_session_beside_pooled_waves_keeps_its_bits(
        self, request_data, inner
    ):
        """Pooled waves never touch the live network's sampler streams
        (the caller's group draws from per-shard generators; a bit-level
        inner backend's waves stay on the workers), so a seedless
        session sharing the engine draws exactly what it draws alone."""
        images, _ = request_data
        alone_engine = make_small_engine()
        with alone_engine.session() as session:
            alone = [
                session.run(images[:16], backend=inner).logits for _ in range(6)
            ]

        engine = make_small_engine()
        got = []
        turn = [threading.Event() for _ in range(6)]
        done = [threading.Event() for _ in range(6)]

        def seedless():
            with engine.session() as session:
                for i in range(6):
                    turn[i].wait(timeout=60)
                    got.append(session.run(images[:16], backend=inner).logits)
                    done[i].set()

        with ShardParallelScheduler(workers=2, inner=inner) as scheduler:
            scheduler.warm(engine.network)
            thread = threading.Thread(target=seedless)
            thread.start()
            try:
                for i in range(6):
                    with engine.session(seed=i, scheduler=scheduler) as pooled:
                        pooled.run(images)
                    turn[i].set()
                    done[i].wait(timeout=60)
            finally:
                for event in turn:
                    event.set()
                thread.join(timeout=60)
        assert len(got) == len(alone)
        for want, have in zip(alone, got):
            np.testing.assert_array_equal(have, want)


class TestShardPlan:
    def test_plan_covers_batch_without_overlap(self):
        plan = plan_shards(37, 8, rng=new_rng(0))
        assert [s.start for s in plan.shards] == [0, 8, 16, 24, 32]
        assert [s.stop for s in plan.shards] == [8, 16, 24, 32, 37]
        assert len({s.seed for s in plan.shards}) == len(plan)

    def test_plan_seeds_deterministic(self):
        a = plan_shards(32, 8, rng=new_rng(7))
        b = plan_shards(32, 8, rng=new_rng(7))
        assert [s.seed for s in a.shards] == [s.seed for s in b.shards]

    def test_empty_batch_gets_one_empty_shard(self):
        plan = plan_shards(0, 8, rng=new_rng(0))
        assert len(plan) == 1
        assert (plan.shards[0].start, plan.shards[0].stop) == (0, 0)

    def test_unseeded_plan_carries_no_seeds(self):
        plan = plan_shards(16, 8)
        assert all(s.seed is None for s in plan.shards)


class TestExpressLanes:
    """``warm()`` on a fork-context pool parks every worker on a
    dedicated pipe lane; waves then bypass the executor's dispatch
    machinery. The lanes must change *only* the transport, never the
    bits, and a severed lane must take the normal rebuild-and-retry
    recovery path."""

    def _warmed(self, network, **kwargs):
        scheduler = ShardParallelScheduler(**kwargs)
        scheduler.warm(network)
        if scheduler._lanes is None:  # spawn-context host/thread state
            scheduler.close()
            pytest.skip("fork start method unavailable; no lanes to test")
        return scheduler

    def test_lane_wave_bit_identical_to_executor_wave(
        self, small_engine, request_data
    ):
        images, _ = request_data
        network = small_engine.network
        plan_seed = 13
        with self._warmed(network, workers=2) as warmed:
            plan = plan_shards(len(images), 8, rng=new_rng(plan_seed))
            lane_logits, _ = run_merged(warmed, network, images, plan)
        with ShardParallelScheduler(workers=2) as cold:  # executor path
            plan = plan_shards(len(images), 8, rng=new_rng(plan_seed))
            pool_logits, _ = run_merged(cold, network, images, plan)
        np.testing.assert_array_equal(lane_logits, pool_logits)

    def test_severed_lane_rebuilds_and_recovers(self, small_engine, request_data):
        import os as _os
        import signal

        images, _ = request_data
        network = small_engine.network
        with self._warmed(network, workers=1) as scheduler:
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            baseline, _ = run_merged(scheduler, network, images, plan)
            generation = scheduler.pool_generation
            for proc in scheduler._pool._processes.values():
                _os.kill(proc.pid, signal.SIGKILL)
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            recovered, _ = run_merged(scheduler, network, images, plan)
            log = scheduler.last_recovery
            assert log is not None and log.recovered
            assert any(
                entry["action"] == "rebuild-pool" for entry in log.retries
            )
            assert scheduler.pool_generation > generation
            np.testing.assert_array_equal(recovered, baseline)
            # Re-warming the rebuilt pool re-parks the lanes.
            scheduler.warm(network)
            assert scheduler._lanes is not None
            plan = plan_shards(len(images), 8, rng=new_rng(5))
            relaned, _ = run_merged(scheduler, network, images, plan)
            np.testing.assert_array_equal(relaned, baseline)


class TestServing:
    """The batch-at-once ``serve()`` report, served by the coalescing
    daemon (child-seeded per request, like one session per request)."""

    def test_results_in_submission_order_with_accuracy(
        self, small_engine, request_data
    ):
        images, labels = request_data
        requests = [images[:8], images[8:24], images[24:40]]
        request_labels = [labels[:8], labels[8:24], labels[24:40]]
        with ServingDaemon(small_engine, seed=0, seed_per_request=True) as daemon:
            report = daemon.serve(requests, labels=request_labels)
        assert [r.batch_size for r in report.results] == [8, 16, 16]
        assert report.n_requests == 3
        assert report.total_images == 40
        assert report.wall_time_s > 0
        assert report.images_per_s > 0
        assert 0.0 <= report.accuracy <= 1.0
        summary = report.summary()
        assert summary["n_requests"] == 3
        assert summary["accuracy"] == report.accuracy

    def test_seeded_serving_replays_identically(self, small_engine, request_data):
        """Wave boundaries must not leak into results: a burst that
        coalesces and the same requests one at a time replay the same
        child-seeded bits."""
        images, _ = request_data
        requests = [images[:12]] * 6
        with ServingDaemon(small_engine, seed=21, seed_per_request=True) as daemon:
            a = daemon.serve(requests)
        with ServingDaemon(small_engine, seed=21, seed_per_request=True) as daemon:
            b = [daemon.submit(r).result(timeout=30) for r in requests]
        for left, right in zip(a.results, b):
            np.testing.assert_array_equal(left.logits, right.logits)

    def test_serving_with_shared_parallel_backend(self, small_engine, request_data):
        """Two daemons over one pool scheduler replay each other, and the
        report counts the pool's workers."""
        images, labels = request_data
        requests = [images[:10], images[10:20], images[20:40]]
        request_labels = [labels[:10], labels[10:20], labels[20:40]]
        with ShardParallelScheduler(workers=2) as scheduler:
            reports = []
            for _ in range(2):
                with ServingDaemon(
                    small_engine, scheduler=scheduler, seed=1, seed_per_request=True
                ) as daemon:
                    reports.append(daemon.serve(requests, labels=request_labels))
            assert scheduler.pool_generation == 1
        report, replay = reports
        assert report.backend == "stochastic"
        assert report.workers == 2
        for left, right in zip(report.results, replay.results):
            np.testing.assert_array_equal(left.logits, right.logits)

    def test_unlabelled_serving_reports_no_accuracy(self, small_engine, request_data):
        images, _ = request_data
        with ServingDaemon(small_engine, seed=0) as daemon:
            report = daemon.serve([images[:4], images[4:8]])
        assert report.accuracy is None
        assert "accuracy" not in report.summary()

    def test_misaligned_labels_rejected(self, small_engine, request_data):
        images, labels = request_data
        with ServingDaemon(small_engine) as daemon:
            with pytest.raises(ValueError):
                daemon.serve([images[:4]], labels=[labels[:4], labels[4:8]])

    def test_empty_request_list(self, small_engine):
        with ServingDaemon(small_engine) as daemon:
            report = daemon.serve([])
        assert report.n_requests == 0
        assert report.accuracy is None
        assert report.waves == 0


class TestDefaultScheduler:
    """``set_default_scheduler`` (what ``repro run --workers`` installs)
    moves scheduler-less ``stochastic`` sessions onto the pool, and only
    those."""

    def test_stochastic_session_runs_on_installed_pool(
        self, small_engine, request_data
    ):
        images, _ = request_data
        serial = small_engine.session(seed=7).run(images)
        with ShardParallelScheduler(workers=2) as pool:
            previous = set_default_scheduler(pool)
            try:
                for backend in (None, "stochastic", "auto"):
                    with small_engine.session(seed=7, backend=backend) as session:
                        assert session._scheduler is pool
                        pooled = session.run(images)
                    np.testing.assert_array_equal(pooled.logits, serial.logits)
                    assert pooled.backend == "stochastic"
                assert pool.pool_generation == 1  # sessions never close it
            finally:
                assert set_default_scheduler(previous) is pool

    def test_other_sessions_untouched(self, small_engine, request_data):
        images, _ = request_data
        with ShardParallelScheduler(workers=2) as pool:
            previous = set_default_scheduler(pool)
            try:
                ideal = small_engine.session(backend="ideal")
                explicit = small_engine.session(seed=7, scheduler="serial")
                assert ideal._scheduler is not pool
                assert explicit._scheduler is not pool
                ideal.run(images)
                explicit.run(images)
                assert pool.pool_generation == 0  # never built
            finally:
                set_default_scheduler(previous)

    def test_uninstall_restores_serial(self, small_engine):
        with ShardParallelScheduler(workers=2) as pool:
            previous = set_default_scheduler(pool)
            set_default_scheduler(previous)
        session = small_engine.session(seed=7)
        assert session._scheduler.name == "serial"


class TestEngineFixes:
    def test_empty_batch_evaluate_returns_zero_warning_free(self, small_engine):
        images = np.zeros((0, 64))
        labels = np.array([], dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert small_engine.evaluate(images, labels) == 0.0
            result = small_engine.run(images, labels=labels)
            assert result.accuracy == 0.0

    def test_empty_batch_shim_consistent_with_engine(self, quick_mlp):
        """The legacy shim no longer special-cases the empty set — both
        paths flow through InferenceResult.accuracy."""
        model, _, test = quick_mlp
        network = compile_model(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shim = evaluate_accuracy(
                network, test.images[:0], test.labels[:0], mode="ideal"
            )
            engine = Engine(network).evaluate(
                test.images[:0], test.labels[:0], backend="ideal"
            )
        assert shim == engine == 0.0

    def test_run_many_threads_labels_through(self, small_engine, request_data):
        images, labels = request_data
        session = small_engine.session(seed=0)
        results = session.run_many(
            [images[:8], images[8:20]], labels=[labels[:8], labels[8:20]]
        )
        assert [r.batch_size for r in results] == [8, 12]
        for result, expected in zip(results, [labels[:8], labels[8:20]]):
            np.testing.assert_array_equal(result.labels, expected)
            assert result.accuracy is not None
            manual = float((result.predictions == expected).mean())
            assert result.accuracy == manual

    def test_run_many_partial_labels(self, small_engine, request_data):
        images, labels = request_data
        session = small_engine.session(seed=0)
        results = session.run_many(
            [images[:8], images[8:16]], labels=[labels[:8], None]
        )
        assert results[0].accuracy is not None
        assert results[1].accuracy is None

    def test_run_many_misaligned_labels_rejected(self, small_engine, request_data):
        images, labels = request_data
        with pytest.raises(ValueError):
            small_engine.session().run_many([images[:8]], labels=[labels[:8], None])

    def test_stateless_backends_cached(self):
        for name in ("ideal", "stochastic", "stochastic-fused-batched"):
            assert get_backend(name) is get_backend(name), name
        assert get_backend("exact") is get_backend("ideal")

    def test_aliases_listed(self):
        aliases = backend_aliases()
        assert aliases["exact"] == "ideal"
        assert aliases["auto"] == "stochastic"

    def test_cli_backends_lists_aliases(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "stochastic-batched" in out
        assert "exact" in out and "alias of 'ideal'" in out
        assert "auto" in out and "alias of 'stochastic'" in out
