"""Runtime planning + scheduling: ExecutionPlan DAGs, scheduler
registry, tile-parallel determinism, and the shared-memory transport."""

import numpy as np
import pytest

from repro.api import Engine
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
    compile_model,
)
from repro.runtime import (
    ActivationRing,
    ExecutionPlan,
    SerialScheduler,
    ShardParallelScheduler,
    TileParallelScheduler,
    available_schedulers,
    compile_plan,
    concat_plans,
    plan_shards,
    resolve_scheduler,
)
from repro.runtime import transport as transport_mod
from repro.utils.rng import new_rng

from tests.test_mapping_compiler import quick_vgg  # noqa: F401  (fixture)


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture(scope="module")
def tiled_engine():
    """A crossbar engine whose linear stage spans 4x3 tiles, so plans
    have real column-tile fan-out."""
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
def request_images():
    return new_rng(99).standard_normal((40, 64))


class TestExecutionPlan:
    def test_tasks_cover_shards_stages_and_tiles(self, tiled_engine):
        network = tiled_engine.network
        shard_plan = plan_shards(20, 8, rng=new_rng(0))
        plan = compile_plan(network, shard_plan, input_shape=(64,))
        assert isinstance(plan, ExecutionPlan)
        assert len(plan) == 3  # 8 + 8 + 4 rows
        layer = network.stages[1].layer
        # per shard: 1 encode + n_col_tiles linear + 1 head
        expected = len(shard_plan) * (2 + layer.n_col_tiles)
        assert len(plan.tasks) == expected
        assert plan.tile_width(1) == layer.n_col_tiles
        assert plan.tile_width(0) == plan.tile_width(2) == 1

    def test_dependencies_chain_within_shard_only(self, tiled_engine):
        plan = compile_plan(
            tiled_engine.network, plan_shards(16, 8, rng=new_rng(0)),
            input_shape=(64,),
        )
        by_id = {t.id: t for t in plan.tasks}
        for task in plan.tasks:
            for dep in task.deps:
                parent = by_id[dep]
                assert parent.shard == task.shard
                assert parent.stage == task.stage - 1
        # topological order: every dep precedes its dependent
        for task in plan.tasks:
            assert all(dep < task.id for dep in task.deps)

    def test_costs_match_window_telemetry(self, tiled_engine, request_images):
        """Plan cost estimates must equal what the telemetry measures —
        they derive from the same LayerWorkload geometry."""
        session = tiled_engine.session(seed=3)
        plan = session.preview_plan(request_images)
        result = session.run(request_images)
        assert plan.total_cost == result.total_windows
        # critical path: shards and tiles parallel, stages serial
        assert 0 < plan.critical_path_cost() <= plan.total_cost

    def test_stage_workloads_recorded(self, tiled_engine):
        plan = compile_plan(
            tiled_engine.network, plan_shards(8, 8, rng=new_rng(0)),
            input_shape=(64,),
        )
        kinds = [None if w is None else w for w in plan.stage_workloads]
        assert kinds[0] is None  # encode carries no workload
        assert plan.stage_workloads[1].in_features == 64
        assert plan.stage_workloads[1].out_features == 48
        assert plan.stage_workloads[2].out_features == 10

    def test_conv_geometry_positions(self, quick_vgg):
        model, _, test = quick_vgg
        engine = Engine.from_model(model, micro_batch=8)
        x = test.images[:4]
        plan = engine.session(seed=0).preview_plan(x)
        conv_tasks = [t for t in plan.tasks if t.kind == "conv"]
        assert conv_tasks, "VGG plan must contain conv tasks"
        assert all(t.cost > 0 for t in conv_tasks)

    def test_preview_plan_does_not_advance_session(self, tiled_engine, request_images):
        a = tiled_engine.session(seed=11)
        b = tiled_engine.session(seed=11)
        a.preview_plan(request_images)  # must not consume generator state
        ra = a.run(request_images)
        rb = b.run(request_images)
        np.testing.assert_array_equal(ra.logits, rb.logits)

    def test_concat_plans_preserves_seeds_and_offsets(self):
        a = plan_shards(10, 4, rng=new_rng(1))
        b = plan_shards(6, 4, rng=new_rng(2))
        combined = concat_plans([a, b])
        assert combined.batch_size == 16
        assert [s.seed for s in combined.shards] == [
            s.seed for s in a.shards
        ] + [s.seed for s in b.shards]
        assert [s.start for s in combined.shards] == [0, 4, 8, 10, 14]
        assert [s.index for s in combined.shards] == list(range(5))


class TestSchedulerRegistry:
    def test_first_class_schedulers_registered(self):
        names = available_schedulers()
        for name in ("serial", "shard-parallel", "tile-parallel"):
            assert name in names

    def test_resolve_by_name_and_instance(self):
        serial, owned = resolve_scheduler("serial")
        assert isinstance(serial, SerialScheduler) and not owned
        again, _ = resolve_scheduler("serial")
        assert serial is again  # stateless: shared instance
        tile, owned = resolve_scheduler("tile-parallel")
        assert isinstance(tile, TileParallelScheduler) and owned
        tile.close()
        passthrough, owned = resolve_scheduler(tile)
        assert passthrough is tile and not owned

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(KeyError):
            resolve_scheduler("nonsense")

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            TileParallelScheduler(workers=0)
        with pytest.raises(ValueError):
            ShardParallelScheduler(workers=0)
        with pytest.raises(ValueError):
            ShardParallelScheduler(transport="carrier-pigeon")

    def test_worker_cap_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_POOL_WORKERS", "2")
        sched = ShardParallelScheduler(workers=8)
        assert sched.workers == 2
        sched.close()


class TestTileParallelScheduler:
    def test_bit_identical_to_serial_packed(self, tiled_engine, request_images):
        """Column tiles draw from their own generators, so concurrent
        tile execution replays the serial packed path bit for bit."""
        serial = tiled_engine.session(seed=7, backend="stochastic-packed").run(
            request_images
        )
        with tiled_engine.session(
            seed=7, backend="stochastic-packed", scheduler="tile-parallel"
        ) as session:
            tiled = session.run(request_images)
        np.testing.assert_array_equal(tiled.logits, serial.logits)
        assert tiled.total_windows == serial.total_windows

    def test_ideal_backend_unwrapped(self, tiled_engine, request_images):
        """Deterministic strategies bypass the tile splitter."""
        serial = tiled_engine.session(backend="ideal").run(request_images)
        with tiled_engine.session(
            backend="ideal", scheduler="tile-parallel"
        ) as session:
            tiled = session.run(request_images)
        np.testing.assert_array_equal(tiled.logits, serial.logits)

    def test_counters_fold_once_per_pass(self, tiled_engine, request_images):
        layer = tiled_engine.network.stages[1].layer
        before = layer.n_passes
        with tiled_engine.session(
            seed=1, backend="stochastic-packed", scheduler="tile-parallel",
            micro_batch=None,
        ) as session:
            session.run(request_images)
        assert layer.n_passes == before + layer.n_row_tiles * layer.n_col_tiles


class TestActivationTransport:
    def test_publish_load_roundtrip(self):
        ring = ActivationRing(slots=2)
        try:
            x = new_rng(0).standard_normal((12, 7))
            lease = ring.publish(x)
            ticket = lease.ticket(3, 9)
            out = transport_mod.load(ticket)
            np.testing.assert_array_equal(out, x[3:9])
            assert out.flags.owndata  # a copy, not a view into the segment
            lease.release()
        finally:
            ring.close()

    def test_slots_are_reused_across_waves(self):
        ring = ActivationRing(slots=1)
        try:
            first = ring.publish(np.zeros((4, 4)))
            name = first.ticket(0, 4).segment
            first.release()
            second = ring.publish(np.ones((4, 4)))
            assert second.ticket(0, 4).segment == name  # same slot, reused
            second.release()
        finally:
            ring.close()

    def test_growing_wave_gets_bigger_slot(self):
        ring = ActivationRing(slots=1)
        try:
            small = ring.publish(np.zeros((2, 2)))
            small.release()
            big = np.arange(100000, dtype=np.float64).reshape(1000, 100)
            lease = ring.publish(big)
            out = transport_mod.load(lease.ticket(0, 1000))
            np.testing.assert_array_equal(out, big)
            lease.release()
        finally:
            ring.close()

    def test_closed_ring_rejects_publish(self):
        ring = ActivationRing(slots=1)
        ring.close()
        with pytest.raises(transport_mod.TransportUnavailable):
            ring.publish(np.zeros((2, 2)))

    def test_transports_bit_identical(self, tiled_engine, request_images):
        """The transport moves bytes, never randomness: shm and pickle
        produce the same logits for the same plan."""
        with ShardParallelScheduler(workers=2, transport="shm") as shm:
            a = tiled_engine.session(seed=5, scheduler=shm).run(request_images)
            assert shm.transport == "shm"  # did not silently fall back
        with ShardParallelScheduler(workers=2, transport="pickle") as pickled:
            b = tiled_engine.session(seed=5, scheduler=pickled).run(request_images)
        np.testing.assert_array_equal(a.logits, b.logits)


class TestSessionSchedulerIntegration:
    def test_shard_parallel_scheduler_via_session(self, tiled_engine, request_images):
        serial = tiled_engine.session(seed=13).run(request_images)
        with tiled_engine.session(seed=13, scheduler="shard-parallel") as session:
            parallel = session.run(request_images)
        np.testing.assert_array_equal(parallel.logits, serial.logits)

    def test_pool_scheduler_executes_session_backend(self, tiled_engine, request_images):
        """A session-built pool scheduler adopts the session backend —
        the workers must run what the caller asked for, and the result
        must say so."""
        serial = tiled_engine.session(backend="ideal").run(request_images)
        with tiled_engine.session(
            backend="ideal", scheduler="shard-parallel"
        ) as session:
            pooled = session.run(request_images)
        np.testing.assert_array_equal(pooled.logits, serial.logits)
        assert pooled.backend == "ideal"

    def test_caller_configured_pool_scheduler_wins_and_labels(self, tiled_engine, request_images):
        serial = tiled_engine.session(
            seed=9, backend="stochastic-fused-batched"
        ).run(request_images)
        with ShardParallelScheduler(
            workers=2, inner="stochastic-fused-batched"
        ) as sched:
            pooled = tiled_engine.session(seed=9, scheduler=sched).run(
                request_images
            )
            # explicit conflicting backend is rejected, not dropped
            with pytest.raises(ValueError, match="conflicts"):
                tiled_engine.session(backend="ideal", scheduler=sched)
        np.testing.assert_array_equal(pooled.logits, serial.logits)
        assert pooled.backend == "stochastic-fused-batched"

    def test_pool_scheduler_rejects_run_override(self, tiled_engine, request_images):
        with tiled_engine.session(scheduler="shard-parallel") as session:
            with pytest.raises(ValueError, match="per-run backend"):
                session.run(request_images, backend="ideal")

    def test_moved_symbols_still_importable_from_engine(self):
        # the facade re-exports the planning surface parallel.py and the
        # executor shims import
        from repro.api.engine import (  # noqa: F401
            Shard,
            ShardPlan,
            _run_pool,
            plan_shards,
            run_stages,
            seed_shard,
        )
        from repro.runtime.plan import plan_shards as runtime_plan_shards

        assert plan_shards is runtime_plan_shards
