"""Adaptive scheduler + cost model: break-even boundaries, forced-mode
override, bit-identity to serial on every chooser outcome, daemon wave
decisions, and the pool-worker environment-cap validation."""

import json
import threading

import numpy as np
import pytest

from repro.api import (
    AdaptiveScheduler,
    CostCoefficients,
    CostModel,
    Engine,
    ServingDaemon,
    Session,
)
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
)
from repro.runtime import compile_plan, plan_shards
from repro.runtime.costmodel import (
    calibrate,
    candidate_modes,
    load_cost_model,
)
from repro.runtime.scheduler import _worker_cap
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture(scope="module")
def tiled_engine():
    """Crossbar engine whose linear stage spans 4x3 tiles (64->48 on
    Cs=16), plus a 48->10 stage — real shard *and* tile fan-out."""
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


def _plan_for(engine, n, micro_batch=8, seed=0, input_shape=(64,)):
    return compile_plan(
        engine.network,
        plan_shards(n, micro_batch, rng=new_rng(seed)),
        input_shape=input_shape,
    )


# ----------------------------------------------------------------------
# Cost coefficients: persistence + validation.
# ----------------------------------------------------------------------
class TestCostCoefficients:
    def test_json_round_trip(self, tmp_path):
        coeffs = CostCoefficients(
            window_cost_s=1e-7, break_even_windows=123.0, source="calibrated"
        )
        path = tmp_path / "coeffs.json"
        coeffs.save(path)
        loaded = CostCoefficients.load(path)
        assert loaded == coeffs
        payload = json.loads(path.read_text())
        assert payload["source"] == "calibrated"

    def test_unknown_keys_ignored_on_load(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"window_cost_s": 1e-6, "bogus": 1}))
        assert CostCoefficients.load(path).window_cost_s == 1e-6

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CostCoefficients(window_cost_s=0.0)
        with pytest.raises(ValueError):
            CostCoefficients(shard_dispatch_s=-1.0)
        with pytest.raises(ValueError):
            CostCoefficients(break_even_windows=float("nan"))

    def test_load_cost_model_env(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        CostCoefficients(break_even_windows=77.0).save(path)
        monkeypatch.setenv("REPRO_COST_COEFFICIENTS", str(path))
        assert load_cost_model().coefficients.break_even_windows == 77.0
        monkeypatch.delenv("REPRO_COST_COEFFICIENTS")
        assert load_cost_model().coefficients == CostCoefficients()
        with pytest.raises(TypeError):
            load_cost_model(object())


# ----------------------------------------------------------------------
# The chooser: candidates, break-even boundaries, forcing.
# ----------------------------------------------------------------------
class TestChooser:
    def test_candidate_modes_respect_contracts(self, tiled_engine):
        seeded = _plan_for(tiled_engine, 40)
        assert candidate_modes(seeded, backend_name="stochastic") == [
            "serial",
            "shard-parallel",
        ]
        # tile fan-out only for per-tile-generator backends
        assert candidate_modes(seeded, backend_name="stochastic-packed") == [
            "serial",
            "shard-parallel",
            "tile-parallel",
        ]
        # deterministic strategies never tile-split
        assert candidate_modes(
            seeded, backend_name="stochastic-packed", deterministic=True
        ) == ["serial", "shard-parallel"]
        # seedless shards cannot ship to the pool
        unseeded = compile_plan(
            tiled_engine.network, plan_shards(40, 8), input_shape=(64,)
        )
        assert candidate_modes(unseeded, backend_name="stochastic") == ["serial"]
        # unregistered names cannot be resolved by workers
        assert candidate_modes(seeded, backend_name="no-such-backend") == ["serial"]
        # single-shard plans have no shard axis
        single = _plan_for(tiled_engine, 8)
        assert candidate_modes(single, backend_name="stochastic") == ["serial"]

    def test_break_even_boundary(self, tiled_engine):
        """Plans just below the threshold stay serial even when the
        model predicts a fan-out win; just above, the prediction rules."""
        plan = _plan_for(tiled_engine, 40)  # 5 shards
        assert plan.total_cost > 0
        # Zero fan-out overhead => shard-parallel always predicted
        # cheaper; only the break-even gate keeps serial.
        below = CostModel(
            CostCoefficients(
                break_even_windows=plan.total_cost + 1.0,
                shard_dispatch_s=0.0,
                pool_warmup_s=0.0,
            )
        )
        choice = below.choose(
            plan, workers=2, modes=("serial", "shard-parallel")
        )
        assert choice.mode == "serial"
        assert "break-even" in choice.reason
        above = CostModel(
            CostCoefficients(
                break_even_windows=plan.total_cost,  # plan cost not < threshold
                shard_dispatch_s=0.0,
                pool_warmup_s=0.0,
            )
        )
        choice = above.choose(
            plan, workers=2, modes=("serial", "shard-parallel")
        )
        assert choice.mode == "shard-parallel"

    def test_overhead_comparison_prefers_serial(self, tiled_engine):
        """Above break-even, enormous dispatch overhead still keeps the
        plan serial — the comparison, not just the gate, protects."""
        plan = _plan_for(tiled_engine, 40)
        model = CostModel(
            CostCoefficients(
                break_even_windows=1.0,
                shard_dispatch_s=10.0,
                pool_warmup_s=10.0,
                tile_dispatch_s=10.0,
            )
        )
        choice = model.choose(
            plan,
            workers=2,
            modes=("serial", "shard-parallel", "tile-parallel"),
        )
        assert choice.mode == "serial"

    def test_predictions_cover_candidates(self, tiled_engine):
        plan = _plan_for(tiled_engine, 40)
        model = CostModel()
        choice = model.choose(
            plan, workers=2, modes=("serial", "shard-parallel", "tile-parallel")
        )
        assert set(choice.predictions) == {
            "serial",
            "shard-parallel",
            "tile-parallel",
        }
        assert all(p > 0 for p in choice.predictions.values())
        assert [d.stage for d in choice.stages] == [0, 1, 2]
        with pytest.raises(ValueError):
            model.predict(plan, "warp-drive")
        with pytest.raises(ValueError):
            model.choose(plan, modes=("shard-parallel",))

    def test_forced_mode_must_be_available(self, tiled_engine):
        plan = _plan_for(tiled_engine, 8)  # single shard: serial only
        model = CostModel()
        with pytest.raises(ValueError, match="not available"):
            model.choose(plan, modes=("serial",), force="shard-parallel")


# ----------------------------------------------------------------------
# Adaptive execution through the Session: bit-identity on every outcome.
# ----------------------------------------------------------------------
class TestAdaptiveSession:
    def test_small_plan_runs_serial_and_matches(self, tiled_engine, request_images):
        serial = tiled_engine.session(seed=7).run(request_images)
        with tiled_engine.session(seed=7, scheduler="adaptive") as session:
            adaptive = session.run(request_images)
        np.testing.assert_array_equal(adaptive.logits, serial.logits)
        assert adaptive.decisions is not None
        assert {d.mode for d in adaptive.decisions} == {"serial"}
        assert adaptive.total_windows == serial.total_windows

    def test_large_plan_fans_out_and_matches(self, tiled_engine, request_images):
        serial = tiled_engine.session(seed=7).run(request_images)
        model = CostModel(
            CostCoefficients(
                break_even_windows=1.0, shard_dispatch_s=0.0, pool_warmup_s=0.0
            )
        )
        with AdaptiveScheduler(workers=2, cost_model=model) as scheduler:
            with tiled_engine.session(seed=7, scheduler=scheduler) as session:
                fanned = session.run(request_images)
        np.testing.assert_array_equal(fanned.logits, serial.logits)
        assert {d.mode for d in fanned.decisions} == {"shard-parallel"}
        # predicted vs measured are both populated for executed stages
        for decision in fanned.decisions:
            assert decision.predicted_s >= 0
            assert decision.measured_s is not None

    def test_tile_outcome_matches_serial_packed(self, tiled_engine, request_images):
        serial = tiled_engine.session(
            seed=3, backend="stochastic-packed", micro_batch=None
        ).run(request_images)
        # Single shard: the shard axis is unavailable, tile fan-out wins
        # once past break-even.
        model = CostModel(
            CostCoefficients(
                break_even_windows=1.0,
                tile_dispatch_s=1e-9,
                stage_overhead_s=1e-9,
            )
        )
        with AdaptiveScheduler(workers=2, cost_model=model) as scheduler:
            with tiled_engine.session(
                seed=3,
                backend="stochastic-packed",
                micro_batch=None,
                scheduler=scheduler,
            ) as session:
                tiled = session.run(request_images)
        np.testing.assert_array_equal(tiled.logits, serial.logits)
        modes = {d.mode for d in tiled.decisions}
        assert "tile-parallel" in modes
        # single-tile / zero-cost stages inside a tiled plan stay serial
        assert tiled.decisions[0].mode == "serial"

    def test_forced_mode_override_env(
        self, tiled_engine, request_images, monkeypatch
    ):
        serial = tiled_engine.session(seed=5).run(request_images)
        # Force fan-out on a plan the break-even gate would keep serial.
        monkeypatch.setenv("REPRO_FORCE_SCHEDULER", "shard-parallel")
        with AdaptiveScheduler(workers=2) as scheduler:
            with tiled_engine.session(seed=5, scheduler=scheduler) as session:
                forced = session.run(request_images)
        np.testing.assert_array_equal(forced.logits, serial.logits)
        assert {d.mode for d in forced.decisions} == {"shard-parallel"}

    def test_forced_mode_invalid_or_unavailable(
        self, tiled_engine, request_images, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FORCE_SCHEDULER", "warp-drive")
        with AdaptiveScheduler(workers=2) as scheduler:
            with tiled_engine.session(seed=5, scheduler=scheduler) as session:
                with pytest.raises(ValueError, match="REPRO_FORCE_SCHEDULER"):
                    session.run(request_images)
        # tile fan-out is not a candidate for the fused-table backend
        monkeypatch.setenv("REPRO_FORCE_SCHEDULER", "tile-parallel")
        with AdaptiveScheduler(workers=2) as scheduler:
            with tiled_engine.session(seed=5, scheduler=scheduler) as session:
                with pytest.raises(ValueError, match="not available"):
                    session.run(request_images)

    def test_unseeded_session_plans_with_entropy(self, tiled_engine, request_images):
        """requires_seeds: an unseeded adaptive session gets real shard
        seeds (fresh entropy), so a pool choice stays correct."""
        with tiled_engine.session(scheduler="adaptive") as session:
            result = session.run(request_images)
            assert result.logits.shape == (40, 10)
            assert result.decisions is not None

    def test_fixed_scheduler_results_carry_no_decisions(
        self, tiled_engine, request_images
    ):
        result = tiled_engine.session(seed=1).run(request_images)
        assert result.decisions is None

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveScheduler(workers=0)


# ----------------------------------------------------------------------
# Calibration.
# ----------------------------------------------------------------------
class TestCalibration:
    def test_calibrate_fits_and_round_trips(self, tiled_engine, request_images, tmp_path):
        model = calibrate(
            tiled_engine,
            request_images,
            repeats=1,
            workers=2,
            probe_pool=False,
            probe_tiles=False,
        )
        coeffs = model.coefficients
        assert coeffs.source == "calibrated"
        assert coeffs.window_cost_s > 0
        assert coeffs.break_even_windows > 0
        path = tmp_path / "calibrated.json"
        coeffs.save(path)
        assert CostCoefficients.load(path) == coeffs
        # A calibrated model drives the adaptive scheduler end to end.
        with AdaptiveScheduler(workers=2, cost_model=model) as scheduler:
            with tiled_engine.session(seed=2, scheduler=scheduler) as session:
                result = session.run(request_images)
        serial = tiled_engine.session(seed=2).run(request_images)
        np.testing.assert_array_equal(result.logits, serial.logits)


# ----------------------------------------------------------------------
# Daemon waves through the chooser.
# ----------------------------------------------------------------------
class TestDaemonAdaptive:
    def test_coalescing_flips_serial_to_shard_parallel(self, tiled_engine, request_images):
        """A singleton request stays below break-even (serial); a
        coalesced wave's merged plan crosses it and fans out."""
        images = request_images
        single_windows = 8 * 12  # 8 rows x (4 row-tiles x 3 col-tiles)
        model = CostModel(
            CostCoefficients(
                break_even_windows=2.5 * single_windows,
                shard_dispatch_s=0.0,
                pool_warmup_s=0.0,
            )
        )
        with AdaptiveScheduler(workers=2, cost_model=model) as scheduler:
            with ServingDaemon(
                tiled_engine,
                backend="stochastic",
                seed=11,
                seed_per_request=True,
                micro_batch=4,
                coalesce_window_s=5.0,
                scheduler=scheduler,
            ) as daemon:
                single = daemon.submit(images[:8]).result(timeout=60)
                stats = daemon.stats
                assert stats.mode_waves == {"serial": 1}
                assert [d["mode"] for d in stats.decisions] == [
                    "serial",
                    "serial",
                    "serial",
                ]
                requests = [images[i * 8 : (i + 1) * 8] for i in range(5)]
                # The burst's first request leaves alone (idle executor)
                # and runs serial, blocked on the held execution lock; the
                # other four coalesce behind it into one wide wave.
                executing = threading.Event()
                with tiled_engine._exec_lock:
                    futures = [
                        daemon.submit(
                            requests[0],
                            progress=lambda stage, _: stage == "executing"
                            and executing.set(),
                        )
                    ]
                    assert executing.wait(timeout=30)
                    futures += [daemon.submit(r) for r in requests[1:]]
                results = [f.result(timeout=60) for f in futures]
                burst = daemon.stats
                assert burst.waves - stats.waves <= 2
                assert burst.coalesced_requests >= len(requests) - 1
                assert burst.mode_waves.get("shard-parallel", 0) >= 1

        # Bit-identity: replay the per-request child-seeded sessions.
        gen = new_rng(11)
        child_seeds = [int(gen.integers(0, 2**63 - 1)) for _ in range(6)]
        reference = Session(tiled_engine, seed=child_seeds[0], micro_batch=4).run(
            images[:8]
        )
        np.testing.assert_array_equal(single.logits, reference.logits)
        for index, result in enumerate(results):
            reference = Session(
                tiled_engine, seed=child_seeds[index + 1], micro_batch=4
            ).run(images[index * 8 : (index + 1) * 8])
            np.testing.assert_array_equal(result.logits, reference.logits)

    def test_daemon_scheduler_needs_layer_level_backend(self, tiled_engine):
        with pytest.raises(ValueError, match="layer-level"):
            ServingDaemon(
                tiled_engine, backend="stochastic-parallel", scheduler="adaptive"
            ).close()

    def test_daemon_pool_scheduler_adopts_daemon_backend(
        self, tiled_engine, request_images
    ):
        """A daemon-built pool scheduler must execute the daemon's
        backend, not the scheduler default — waves silently running a
        different backend would break the bit-identity contract."""
        reference = tiled_engine.session(backend="ideal").run(request_images)
        with ServingDaemon(
            tiled_engine,
            backend="ideal",
            scheduler="shard-parallel",
            coalesce_window_s=0.0,
        ) as daemon:
            result = daemon.submit(request_images).result(timeout=60)
        assert result.backend == "ideal"
        np.testing.assert_array_equal(result.logits, reference.logits)

    def test_daemon_rejects_conflicting_pool_scheduler(self, tiled_engine):
        from repro.runtime import ShardParallelScheduler

        with ShardParallelScheduler(workers=2, inner="stochastic") as scheduler:
            with pytest.raises(ValueError, match="conflicts"):
                ServingDaemon(
                    tiled_engine, backend="ideal", scheduler=scheduler
                ).close()
            # without an explicit backend= the scheduler's inner wins
            # and the daemon relabels itself accordingly
            with ServingDaemon(tiled_engine, scheduler=scheduler) as daemon:
                assert daemon.backend == "stochastic"

    def test_daemon_stats_decisions_default_none(self, tiled_engine, request_images):
        with ServingDaemon(tiled_engine, seed=0, coalesce_window_s=0.0) as daemon:
            daemon.submit(request_images[:8]).result(timeout=60)
            stats = daemon.stats
        assert stats.decisions is None
        assert stats.mode_waves == {}


# ----------------------------------------------------------------------
# Environment-cap validation (the check-runtime knob).
# ----------------------------------------------------------------------
class TestWorkerCapValidation:
    def test_valid_cap_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_POOL_WORKERS", "2")
        assert _worker_cap(8) == 2
        assert _worker_cap(1) == 1

    def test_unset_or_blank_is_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_POOL_WORKERS", raising=False)
        assert _worker_cap(8) == 8
        monkeypatch.setenv("REPRO_MAX_POOL_WORKERS", "  ")
        assert _worker_cap(8) == 8

    @pytest.mark.parametrize("bad", ["zero", "2.5", "-1", "0"])
    def test_garbage_or_non_positive_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MAX_POOL_WORKERS", bad)
        with pytest.raises(ValueError, match="REPRO_MAX_POOL_WORKERS"):
            _worker_cap(8)

    def test_scheduler_construction_surfaces_cap_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_POOL_WORKERS", "banana")
        with pytest.raises(ValueError, match="REPRO_MAX_POOL_WORKERS"):
            AdaptiveScheduler(workers=4)
