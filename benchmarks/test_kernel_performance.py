"""Microbenchmarks of the simulation kernels (repeatable, timed hot).

Not a paper artifact — these track the cost of the library's inner loops
(crossbar sampling, SC counting, binary convolution) so performance
regressions in the simulator itself are visible. Both execution paths of
the sampling engine are timed: the fused Binomial sample-and-count fast
path (``sample_window_counts``, exact APC) and the bit-level path on raw
and bit-packed windows (approximate APC). Run with
``--bench-json=BENCH_kernels.json`` to append the timings to the
cross-PR trajectory file.
"""

import numpy as np
import pytest

from repro.api import Engine
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.circuits.apc import ApproximateParallelCounter
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.runtime import ShardParallelScheduler
from repro.sc.packed import pack_bits


@pytest.fixture(scope="module")
def pm(request):
    rng = np.random.default_rng(0)

    def make(shape):
        return np.where(rng.random(shape) < 0.5, 1.0, -1.0)

    return make


def test_perf_crossbar_sample_window(benchmark, pm):
    """Fused fast path: Binomial per-column window counts."""
    cfg = HardwareConfig(crossbar_size=72, window_bits=16)
    xbar = CrossbarArray(cfg, pm((72, 72)), seed=0)
    activations = pm((64, 72))
    xbar.sample_window_counts(activations)  # build cached tables once
    result = benchmark(xbar.sample_window_counts, activations)
    assert result.shape == (64, 72)
    assert result.min() >= 0 and result.max() <= 16


def test_perf_crossbar_sample_window_bits(benchmark, pm):
    """Bit-level reference path: the raw (L, N, cols) window."""
    cfg = HardwareConfig(crossbar_size=72, window_bits=16)
    xbar = CrossbarArray(cfg, pm((72, 72)), seed=0)
    activations = pm((64, 72))
    result = benchmark(xbar.sample_window, activations)
    assert result.shape == (16, 64, 72)


def test_perf_crossbar_sample_window_packed(benchmark, pm):
    """Bit-level path with uint64 bit-plane packing."""
    cfg = HardwareConfig(crossbar_size=72, window_bits=16)
    xbar = CrossbarArray(cfg, pm((72, 72)), seed=0)
    activations = pm((64, 72))
    result = benchmark(xbar.sample_window, activations, packed=True)
    assert result.words.shape == (1, 64, 72)
    assert result.n_bits == 16


def test_perf_tiled_layer_forward(benchmark, pm):
    """Exact APC -> fused-count fast path end to end."""
    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((144, 64)), seed=0)
    activations = pm((32, 144))
    layer.forward(activations)  # build cached sampler tables once
    result = benchmark(layer.forward, activations)
    assert result.shape == (32, 64)


def test_perf_tiled_layer_forward_fused_batched(benchmark, pm):
    """`stochastic-fused-batched` backend: one Generator.binomial draw
    over the concatenated column tiles (the RNG-bottleneck attack)."""
    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((144, 64)), seed=0)
    activations = pm((32, 144))
    layer.forward_fused_batched(activations)  # warm caches once
    result = benchmark(layer.forward_fused_batched, activations)
    assert result.shape == (32, 64)


def test_perf_tiled_layer_forward_batched(benchmark, pm):
    """The vendored batched-draw kernel (``repro.sc.binomial``): the
    layer pass on caller-owned uniforms — one ``Generator.random`` call
    sliced into the vectorized inverse-CDF gather. Same laws as the
    ``fused_batched`` row above; this row should beat it (table gather
    vs ``Generator.binomial``)."""
    from repro.sc.binomial import DrawBatch

    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((144, 64)), seed=0)
    activations = pm((32, 144))
    layer.forward(activations)  # build cached sampler tables once
    total = layer.n_row_tiles * activations.shape[0] * layer.out_features
    rng = np.random.default_rng(0)

    def one_pass():
        return layer.forward_batched(
            activations, uniforms=DrawBatch(rng, total)
        )

    result = benchmark(one_pass)
    assert result.shape == (32, 64)


def test_perf_tiled_layer_forward_bitlevel(benchmark, pm):
    """Approximate APC -> packed bit-level path end to end."""
    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((144, 64)), seed=0, approximate_layers=1)
    activations = pm((32, 144))
    result = benchmark(layer.forward, activations)
    assert result.shape == (32, 64)


def test_perf_apc_count(benchmark, pm):
    apc = ApproximateParallelCounter(0)
    bits = (np.random.default_rng(1).random((64, 16, 256)) < 0.5).astype(np.int64)
    result = benchmark(apc.count, bits, axis=1)
    assert result.shape == (64, 256)


def test_perf_apc_count_packed(benchmark, pm):
    """Packed-word OR-compress + popcount throughput (not comparable to
    test_perf_apc_count: this pushes 64x the bits — 16 lines of 64-bit
    windows across 64*256 columns — through the approximate APC).
    """
    apc = ApproximateParallelCounter(1)
    bits = np.random.default_rng(1).random((16, 64, 64, 256)) < 0.5
    words = pack_bits(bits, axis=1)
    result = benchmark(apc.count_packed, words)
    assert result.shape == (64, 256)


def test_perf_binary_conv2d(benchmark, pm):
    x = Tensor(pm((16, 12, 16, 16)))
    w = Tensor(pm((16, 12, 3, 3)))
    result = benchmark(lambda: F.conv2d(x, w, padding=1))
    assert result.shape == (16, 16, 16, 16)


# ----------------------------------------------------------------------
# Session-level shard execution: serial vs the ShardParallelScheduler
# process pool. One VGG-eval-sized batch (256 images) split into
# micro-batch shards; same seed everywhere, so every row computes
# bit-identical logits and the timings compare pure execution strategy.
# The multi-worker rows beat serial only when the host has cores to
# spare — on a single-core box they measure the IPC overhead floor
# (pickled shards + per-shard reseed), which is worth tracking too.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shard_engine(pm):
    """A crossbar-heavy engine built directly from +-1 weights (no
    training): 288->144 on Cs=36 (8x4 tiles) plus a software head."""
    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((288, 144)), seed=0)
    head = HeadStage(
        weight=pm((10, 144)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    engine = Engine(network, micro_batch=32)
    images = pm((256, 288))
    engine.run(images[:32], seed=0)  # warm the sampler tables once
    return engine, images


def _bench_session(benchmark, engine, images, backend, rounds=9, scheduler=None):
    session = engine.session(seed=0, backend=backend, scheduler=scheduler)
    result = session.run(images)  # warm path (and worker pool) once
    benchmark.pedantic(session.run, args=(images,), rounds=rounds, iterations=1)
    return result


def test_perf_session_serial_stochastic(benchmark, shard_engine):
    # 15 rounds (vs the suite's 9): this row and the warm-pool row below
    # are ratio-gated against each other by bench-smoke, and the min of
    # a noisy-host sample converges to the true floor with more rounds.
    engine, images = shard_engine
    result = _bench_session(benchmark, engine, images, "stochastic", rounds=15)
    assert result.logits.shape == (256, 10)
    assert result.micro_batches == 8


def test_perf_session_adaptive_warm_pool(benchmark, shard_engine):
    """The warm-pool acceptance row: a single-worker pool, warmed before
    timing, on the standard burst. The chooser — no
    ``REPRO_FORCE_SCHEDULER`` anywhere — must route the burst to the
    pooled mode on its own, and the pooled logits must be bit-identical
    to a serial session with the same seed. ``bench-smoke`` (CI) guards
    this row against >20% regressions.

    Deliberately defined right after the serial row it is ratio-gated
    against: benchmarks run in definition order, and keeping the
    compared pair back-to-back stops slow within-run host drift from
    leaking into the pooled/serial ratio."""
    from repro.api import AdaptiveScheduler

    engine, images = shard_engine
    with AdaptiveScheduler(workers=1) as scheduler:
        scheduler.warm(engine.network, inner="stochastic")
        session = engine.session(seed=0, backend="stochastic", scheduler=scheduler)
        session.run(images)  # settle the pooled path once
        benchmark.pedantic(session.run, args=(images,), rounds=15, iterations=1)
        with engine.session(
            seed=0, backend="stochastic", scheduler=scheduler
        ) as fresh:
            pooled = fresh.run(images)
    with engine.session(seed=0, backend="stochastic") as fresh:
        serial = fresh.run(images)
    assert {d.mode for d in pooled.decisions} == {"shard-parallel"}
    assert np.array_equal(pooled.logits, serial.logits)


def test_perf_session_serial_batched(benchmark, shard_engine):
    """The vendored batched-draw kernel (``stochastic-batched``): every
    uniform a shard will consume hoisted into one ``Generator.random``
    call, served to the fused inverse-CDF lookup as consecutive slices.
    Bit-identical to the ``stochastic`` row's sampling; this row should
    beat it — same math, one RNG invocation per shard instead of one
    per layer pass."""
    engine, images = shard_engine
    result = _bench_session(benchmark, engine, images, "stochastic-batched")
    assert result.logits.shape == (256, 10)
    assert result.micro_batches == 8


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_perf_session_parallel_shards(benchmark, shard_engine, workers):
    engine, images = shard_engine
    with ShardParallelScheduler(workers=workers) as scheduler:
        result = _bench_session(
            benchmark, engine, images, "stochastic", scheduler=scheduler
        )
    assert result.logits.shape == (256, 10)
    assert result.micro_batches == 8


# ----------------------------------------------------------------------
# Adaptive scheduler vs the fixed schedulers, on the same request the
# serial/parallel session rows above time: the adaptive row should
# track whichever fixed row its cost model predicts is cheapest. With
# default coefficients the 8k-window burst sits above break-even, but a
# *cold* scheduler is charged the pool warmup, so the first row (cold,
# 4 workers) tracks serial; the warm-pool acceptance row (defined next
# to the serial row above, so the gated pair times back-to-back) is the
# one the chooser sends to the pool. The small-batch row shows the
# break-even fallback costs nothing.
# `make bench` also refreshes the calibrated coefficients next to the
# timings (benchmarks/results/cost_coefficients.json).
# ----------------------------------------------------------------------
def test_perf_session_adaptive_scheduler(benchmark, shard_engine):
    from repro.api import AdaptiveScheduler

    engine, images = shard_engine
    with AdaptiveScheduler(workers=4) as scheduler:
        session = engine.session(seed=0, backend="stochastic", scheduler=scheduler)
        result = session.run(images)  # warm path (and any pool) once
        benchmark.pedantic(session.run, args=(images,), rounds=9, iterations=1)
        result = session.run(images)
    assert result.logits.shape == (256, 10)
    assert result.decisions is not None  # chooser telemetry present
    assert all(d.mode in ("serial", "shard-parallel") for d in result.decisions)


def test_perf_session_adaptive_small_batch(benchmark, shard_engine):
    """Sub-break-even request: the chooser must fall back to serial, so
    this row measures the pure decision overhead on tiny plans."""
    from repro.api import AdaptiveScheduler

    engine, images = shard_engine
    small = images[:16]
    with AdaptiveScheduler(workers=4) as scheduler:
        session = engine.session(seed=0, backend="stochastic", scheduler=scheduler)
        session.run(small)
        benchmark.pedantic(session.run, args=(small,), rounds=9, iterations=1)
        result = session.run(small)
    assert result.logits.shape == (16, 10)
    assert {d.mode for d in result.decisions} == {"serial"}


def test_perf_cost_model_calibration(benchmark, shard_engine, request):
    """One calibration pass over the shard engine. Only a `make bench`
    run (--bench-json active) refreshes the persisted coefficients —
    plain test runs must not overwrite the tracked artifact with
    whatever machine happened to run them."""
    import pathlib

    from repro.api import calibrate

    engine, images = shard_engine
    model = benchmark.pedantic(
        calibrate,
        args=(engine, images[:64]),
        kwargs=dict(repeats=1, workers=2),
        rounds=1,
        iterations=1,
    )
    coefficients = model.coefficients
    assert coefficients.source == "calibrated"
    assert coefficients.window_cost_s > 0
    if request.config.getoption("--bench-json"):
        results_dir = pathlib.Path(__file__).parent / "results"
        results_dir.mkdir(exist_ok=True)
        coefficients.save(results_dir / "cost_coefficients.json")


# ----------------------------------------------------------------------
# Serving: the runtime's coalescing `ServingDaemon` on the in-process
# "stochastic" backend over 8 x 32-row requests. The daemon merges the
# burst into coalesced waves (one execution sweep, no thread handoff
# per request); the rows in BENCH_kernels.json track it across PRs.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_requests(shard_engine):
    _, images = shard_engine
    return [images[i * 32 : (i + 1) * 32] for i in range(8)]


def test_perf_daemon_coalesced(benchmark, shard_engine, serving_requests):
    from repro.api import ServingDaemon

    engine, _ = shard_engine
    # window=0: batch submission needs no arrival wait — the consumer
    # coalesces whatever the burst already queued and never idles out a
    # deadline (a nonzero window only pays off for trickling arrivals).
    with ServingDaemon(
        engine,
        backend="stochastic",
        seed=0,
        seed_per_request=True,
    ) as daemon:
        daemon.serve(serving_requests)  # warm
        benchmark.pedantic(
            daemon.serve, args=(serving_requests,), rounds=9, iterations=1
        )
        report = daemon.serve(serving_requests)
    assert report.n_requests == 8
    assert report.total_images == 256
    # The burst coalesces: far fewer execution waves than requests.
    assert report.waves is not None and report.waves <= report.n_requests
