"""burst-serial and burst-pooled: closed-loop ``Session.run`` on the
standard burst.

The standard burst is the kernel benchmarks' shape: 256 x 288 +-1
inputs through one 288 -> 144 crossbar layer (Cs = 36, L = 8) and a
10-class software head, in ``micro_batch = 32`` shards (8 per burst).
The network is fixed (the program under test); only the inputs and the
session seeds come from ``--seed``.

One caller runs ``Session.run`` back to back. Call ``i`` uses input
pair ``i % PAIRS`` (a burst and a session seed), so every result can be
checked bit for bit against a serial ``Session(engine, seed=k)`` run of
the same pair computed before the timed loop.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import numpy as np

import host
import metrics
from spans import Tracer, install_kernel_layers

BURST_ROWS = 256
IN_FEATURES = 288
OUT_FEATURES = 144
CROSSBAR = 36
WINDOW_BITS = 8
MICRO_BATCH = 32
#: Distinct bursts per run (top-1 agreement averages over all of them).
BURSTS = 16
#: Distinct (burst, session seed) pairs the closed loop cycles through.
PAIRS = 32
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: The timed loop is cut into blocks this long; throughput and latency
#: percentiles are medians over the blocks, so a burst of interference
#: from outside the benchmark moves one block, not the run. Two seconds
#: hold over 200 calls, enough for a p95 with ten samples beyond it.
BLOCK_S = 2.0
#: Latency limit for ``rps_at_slo`` on a 256-image burst.
SLO_MS = 100.0


def build_engine():
    """The standard-burst engine: weights from a fixed seed, like the
    kernel benchmarks' ``shard_engine``."""
    from repro.api import Engine
    from repro.hardware.accelerator import TiledLinearLayer
    from repro.hardware.config import HardwareConfig
    from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage

    rng = np.random.default_rng(0)

    def pm(shape):
        return np.where(rng.random(shape) < 0.5, 1.0, -1.0)

    cfg = HardwareConfig(crossbar_size=CROSSBAR, window_bits=WINDOW_BITS)
    layer = TiledLinearLayer(cfg, pm((IN_FEATURES, OUT_FEATURES)), seed=0)
    head = HeadStage(
        weight=pm((10, OUT_FEATURES)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    return Engine(network, micro_batch=MICRO_BATCH)


def make_inputs(seed: int):
    rng = np.random.default_rng([seed, 0xB0257])
    bursts = [
        np.where(rng.random((BURST_ROWS, IN_FEATURES)) < 0.5, 1.0, -1.0)
        for _ in range(BURSTS)
    ]
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=PAIRS)]
    return bursts, seeds


class _Setup:
    """One set-up: engine (and warmed pool), timed to the first result."""

    def __init__(self, pooled: bool, burst: np.ndarray, seed: int) -> None:
        from repro.api import AdaptiveScheduler

        start = time.perf_counter()
        self.engine = build_engine()
        self.scheduler = None
        if pooled:
            self.scheduler = AdaptiveScheduler(workers=os.cpu_count() or 1)
            self.scheduler.warm(self.engine.network, inner="stochastic")
        self.session(seed).run(burst)
        self.seconds = time.perf_counter() - start

    def session(self, seed: int):
        return self.engine.session(seed=seed, scheduler=self.scheduler)

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()


def run(seed: int, seconds: float, trace: bool, pooled: bool) -> dict:
    bursts, seeds = make_inputs(seed)
    shm_before = host.shm_segments()

    setups: List[float] = []
    setup = None
    for repeat in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
        setup = _Setup(pooled, bursts[repeat % BURSTS], seeds[repeat % PAIRS])
        setups.append(setup.seconds)

    # References: serial sessions and the noise-free ideal backend, on
    # the same engine, outside the timed loop.
    reference, serial_ms, agreement = [], [], []
    ideal = [
        setup.engine.session(seed=0).run(b, backend="ideal").predictions
        for b in bursts
    ]
    for pair in range(PAIRS):
        with setup.engine.session(seed=seeds[pair]) as session:
            t0 = time.perf_counter()
            result = session.run(bursts[pair % BURSTS])
            serial_ms.append((time.perf_counter() - t0) * 1e3)
        reference.append(result.logits)
        agreement.append(float(np.mean(result.predictions == ideal[pair % BURSTS])))

    tracer = Tracer() if trace else None
    latencies: List[float] = []
    blocks: List[List[float]] = [[]]
    block_end = time.perf_counter() + BLOCK_S
    traced_ms: List[float] = []
    untraced_ms: List[float] = []
    counts: Dict[int, int] = {}
    mismatched = pooled_calls = recovery_attempts = 0
    windows_per_image = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        pair = i % PAIRS
        # A traced run alternates traced and untraced calls, so the
        # tracing overhead is measured on interleaved, paired samples.
        traced = tracer is not None and i % 2 == 0
        if traced:
            install_kernel_layers(tracer)
        session = setup.session(seeds[pair])
        t0 = time.perf_counter()
        result = session.run(bursts[pair % BURSTS])
        elapsed = (time.perf_counter() - t0) * 1e3
        if traced:
            tracer.uninstall()
            traced_ms.append(elapsed)
        elif tracer is not None:
            untraced_ms.append(elapsed)
        latencies.append(elapsed)
        if time.perf_counter() > block_end:
            blocks.append([])
            block_end += BLOCK_S
        blocks[-1].append(elapsed)
        counts[pair] = counts.get(pair, 0) + 1
        if not np.array_equal(result.logits, reference[pair]):
            mismatched += 1
        modes = {d.mode for d in result.decisions or ()}
        pooled_calls += modes == {"shard-parallel"}
        if result.recovery is not None:
            recovery_attempts += len(result.recovery["retries"]) + bool(
                result.recovery["fallback"]
            )
        windows_per_image = result.total_windows / result.batch_size
        i += 1
    setup.close()

    calls = len(latencies)
    if len(blocks) > 1 and len(blocks[-1]) < len(blocks[0]) / 2:
        blocks[-2].extend(blocks.pop())  # fold a short tail into its neighbour
    p50 = metrics.median([metrics.percentile(b, 50) for b in blocks])
    p95 = metrics.median([metrics.percentile(b, 95) for b in blocks])
    images_per_s = metrics.median([len(b) * BURST_ROWS / (sum(b) / 1e3) for b in blocks])
    top1 = sum(agreement[p] * n for p, n in counts.items()) / calls
    clean = mismatched == 0 and p95 <= SLO_MS
    e2e = {
        "setup_s": metrics.median(setups),
        "throughput_images_per_s": images_per_s,
        "latency_p50_ms": p50,
        "latency_p95_ms": p95,
        # One closed-loop caller: the request rate it sustained, scored
        # against the burst latency limit like any other load point.
        "rps_at_slo": metrics.rps_at_slo(
            [(images_per_s / BURST_ROWS, p95, clean)], SLO_MS, 2 * SLO_MS
        ),
        "top1_match_ideal": top1,
    }
    layer = {
        "hardware.windows_per_image": windows_per_image,
        "runtime.scheduler.pool_mode_share": pooled_calls / calls,
        "runtime.recovery.attempts": recovery_attempts,
        "runtime.teardown.shm_leaked": len(host.shm_segments() - shm_before),
        "runtime.teardown.children_left": host.children_left(),
    }
    details = {
        "calls": calls,
        "blocks": [
            [len(b), metrics.percentile(b, 50), metrics.percentile(b, 95)] for b in blocks
        ],
        "setup_s_each": setups,
        "latency_max_q": metrics.highest_supported_percentile(min(len(b) for b in blocks)),
        "serial_reference_ms_p50": metrics.median(serial_ms),
    }
    if pooled:
        from repro.runtime.scheduler import _pool_context

        details["pool_start_method"] = _pool_context().get_start_method()
    if tracer is not None:
        workers = (os.cpu_count() or 1) if pooled else 1
        layer.update(_layer_metrics(tracer, workers, serial_ms, traced_ms, untraced_ms))
        details["spans"] = len(tracer.spans())
    return {
        "attempted": calls,
        "failed": mismatched,
        "correct": mismatched == 0,
        "e2e": e2e,
        "layer": layer,
        "details": details,
        "spans": tracer.spans() if tracer is not None else [],
    }


def _layer_metrics(tracer: Tracer, workers: int, serial_ms, traced_ms, untraced_ms) -> dict:
    spans = tracer.spans()
    table = metrics.self_times(spans)
    waves = [
        (end - start) * 1e3
        for name, start, end, _ in spans
        if name == "runtime.scheduler.run_shards"
    ]
    layer = metrics.layer_metrics(table, int(table["api.session_run"]["calls"]))
    layer.update(
        {
            # Serial shard compute over the pool's capacity for one wave:
            # 1.0 would be perfect scaling across the workers.
            "runtime.scheduler.parallel_efficiency": metrics.ratio(
                metrics.median(serial_ms), workers * metrics.median(waves)
            ),
            "trace.self_time_coverage": metrics.root_coverage(table, "api.session_run"),
            "trace.overhead_ms_per_request": metrics.median(traced_ms)
            - metrics.median(untraced_ms),
        }
    )
    return layer
