"""Golden logits: the fused sampling kernel's output bits are pinned.

Each case runs a seeded request and compares the sha256 digest of its
logits against a constant recorded before the kernel's internal dtypes
were narrowed (int32 gather index, uint8 counts, float32 strip matmul).
The contract in ``docs/ARCHITECTURE.md`` is that kernel dtypes are an
implementation detail: same uniforms, same tables, same bits. A changed
digest means a changed sample, not a changed dtype.

The cases cover every path that reaches the kernel:

* the standard burst (288->144 on Cs=36, L=8, 8 shards of 32 rows)
  through ``SerialScheduler``, ``run_stages_group`` over 4 shards, and a
  2-worker ``ShardParallelScheduler``;
* the ``stochastic``, ``stochastic-batched``, ``stochastic-fused-batched``
  and ``stochastic-packed`` backends;
* a multi-layer net whose fan-in is not a multiple of Cs (the padding
  path), a window with L > 127 (``counts_by_search``) and a window whose
  CDF table is too large to cache (the ``Generator.binomial`` fallback).
"""

import hashlib

import numpy as np
import pytest

from repro.api import Engine
from repro.api.backends import get_backend
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import (
    CompiledNetwork,
    HeadStage,
    LinearStage,
    SignStage,
)
from repro.runtime import SerialScheduler, ShardParallelScheduler
from repro.runtime.plan import run_stages_group


def _digest(logits: np.ndarray) -> str:
    a = np.ascontiguousarray(logits)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def _head(rng, classes, width):
    return HeadStage(
        weight=np.where(rng.random((classes, width)) < 0.5, 1.0, -1.0),
        alpha=np.ones(classes),
        gamma=np.ones(classes),
        beta=np.zeros(classes),
        mean=np.zeros(classes),
        var=np.ones(classes),
        eps=1e-5,
    )


def _network(widths, crossbar_size, window_bits, seed=0):
    """SignStage -> Linear layers of ``widths`` -> a 10-class head."""
    rng = np.random.default_rng(seed)
    cfg = HardwareConfig(crossbar_size=crossbar_size, window_bits=window_bits)
    stages = [SignStage()]
    for fan_in, fan_out in zip(widths, widths[1:]):
        w = np.where(rng.random((fan_in, fan_out)) < 0.5, 1.0, -1.0)
        stages.append(LinearStage(layer=TiledLinearLayer(cfg, w, seed=0)))
    stages.append(_head(rng, 10, widths[-1]))
    return CompiledNetwork(stages, cfg)


@pytest.fixture(scope="module")
def burst():
    """The standard burst: 256 +-1 images of 288 features."""
    network = _network([288, 144], crossbar_size=36, window_bits=8)
    rng = np.random.default_rng(1)
    images = np.where(rng.random((256, 288)) < 0.5, 1.0, -1.0)
    return Engine(network, micro_batch=32), images


STANDARD_BURST = "a13d47c4bba5f45fa70d0e2ba7dff52a378bd09b8788032b82b9ec8019ce40ba"

GOLDEN = {
    "group-4-shards": "aaba66abb1b29a6fddd74cea3d6c368c8d5807458407a2d3769107fc1c3230ce",
    "stochastic-batched": "5b04f75a5022aeeda60c5b0724dee768a312d9fd6f9f87b20c9c5c91d2b2c389",
    "stochastic-fused-batched": "9af899a0fe54e0d523c24fb03007e9a5432bb5a1660eeb9c13a49675c55baccd",
    "stochastic-packed": "1c98a795a55cf5fc82acc12f27dd5bf61b14c7bf005b6d1adea21e381b5fcd19",
    "padded-multilayer": "d9ea74bf5a6b4d1b27a52c0ec345ef36c9f0a419e6f989f08b8ee7ead50c2acd",
    "padded-multilayer-fused-batched": "93a605b5a0bd6ba4cfe7ea020971a56dae263101d0f189dd36f4649f7f3ca3e1",
    "long-window-search": "9868683eb9f0932063e0b56fb32031e2a04d364743c9a9cc5704636cb0502aa1",
    "uncached-binomial": "eae3c91d048b8204efc15872d880cc576405607bad7f3e416205d20bebfe51cc",
}


def test_standard_burst_serial(burst):
    engine, images = burst
    with engine.session(seed=7, backend="stochastic", scheduler=SerialScheduler()) as s:
        assert _digest(s.run(images).logits) == STANDARD_BURST


def test_standard_burst_shard_parallel(burst):
    engine, images = burst
    with ShardParallelScheduler(workers=2) as scheduler:
        with engine.session(seed=7, backend="stochastic", scheduler=scheduler) as s:
            assert _digest(s.run(images).logits) == STANDARD_BURST


def test_group_executor_four_shards(burst):
    engine, images = burst
    specs = [(1000 + i, 32 * i, 32 * (i + 1)) for i in range(4)]
    grouped = run_stages_group(
        engine.network, images[:128], specs, get_backend("stochastic")
    )
    logits = np.concatenate([out for out, _ in grouped], axis=0)
    assert _digest(logits) == GOLDEN["group-4-shards"]


@pytest.mark.parametrize(
    "backend",
    ["stochastic-batched", "stochastic-fused-batched", "stochastic-packed"],
)
def test_standard_burst_backends(burst, backend):
    engine, images = burst
    with engine.session(seed=7, backend=backend) as s:
        assert _digest(s.run(images[:64]).logits) == GOLDEN[backend]


@pytest.mark.parametrize(
    "backend, key",
    [
        ("stochastic", "padded-multilayer"),
        ("stochastic-fused-batched", "padded-multilayer-fused-batched"),
    ],
)
def test_padded_multilayer(backend, key):
    # 50 % 16 and 40 % 16 are non-zero: both layers zero-pad their last
    # row strip.
    network = _network([50, 40, 24], crossbar_size=16, window_bits=8)
    images = np.random.default_rng(2).standard_normal((40, 50))
    engine = Engine(network, micro_batch=16)
    with engine.session(seed=3, backend=backend) as s:
        assert _digest(s.run(images).logits) == GOLDEN[key]


@pytest.mark.parametrize(
    "window_bits, key",
    [(200, "long-window-search"), (2000, "uncached-binomial")],
)
def test_windows_off_the_quantile_table(window_bits, key):
    network = _network([40, 48], crossbar_size=16, window_bits=window_bits)
    sampler = network.tiled_layers[0]._fused_sampler
    has_cdf = sampler._count_cdf_table(window_bits) is not None
    # L > 127 has no quantile table; L = 2000 overflows the CDF cache.
    assert sampler._count_quant_table(window_bits) is None
    assert has_cdf == (window_bits == 200)
    images = np.random.default_rng(4).standard_normal((24, 40))
    engine = Engine(network, micro_batch=8)
    with engine.session(seed=5, backend="stochastic") as s:
        assert _digest(s.run(images).logits) == GOLDEN[key]
