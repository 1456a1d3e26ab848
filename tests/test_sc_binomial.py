"""Vendored binomial kernel (``repro.sc.binomial``).

Three layers of guarantees:

* the :class:`DrawBatch` contract — one ``Generator.random(total)``
  call sliced into consecutive pieces is *bit-identical* to the
  per-layer ``random(shape)`` calls it replaces (that identity is what
  lets the batched backend hoist every draw into one generator call);
* the inverse-CDF count kernels (quantized table gather and branchless
  binary search) agree exactly with the brute-force ``#{cdf_k <= u}``
  reference on the same uniforms — including uniforms sitting exactly
  on CDF levels and in stepped bins;
* batched-draw execution is bit-identical from the layer pass
  (``forward_batched`` on rng vs a pre-drawn batch) up through the
  grouped shard executor (``run_stages_group`` vs per-shard serial
  ``run_stages``) for both group-vectorizable backends.

Plus the quantile table's blocked build: the bytes of recorded tables
are pinned by sha256, and its temporaries stay bounded.
"""

import hashlib
import tracemalloc

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
from repro.runtime.plan import (
    group_vectorizable,
    run_stages,
    run_stages_group,
    seed_shard,
)
from repro.sc.binomial import (
    QUANT_BINS,
    QUANT_BUILD_BLOCK,
    DrawBatch,
    _quantile_rows,
    counts_by_quantile,
    counts_by_search,
    quantile_table,
)
from repro.utils.rng import binomial_cdf, new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


# ----------------------------------------------------------------------
# DrawBatch: the draw-hoisting contract
# ----------------------------------------------------------------------
class TestDrawBatch:
    def test_slices_bit_identical_to_per_call_draws(self):
        shapes = [(3, 4), (2,), (5, 1, 2), (0, 7), (6,)]
        total = sum(int(np.prod(s)) for s in shapes)
        batch = DrawBatch(np.random.default_rng(7), total)
        direct = np.random.default_rng(7)
        for shape in shapes:
            np.testing.assert_array_equal(batch.take(shape), direct.random(shape))
        assert batch.remaining == 0

    def test_accounting_and_exhaustion(self):
        batch = DrawBatch(new_rng(0), 10)
        assert (batch.total, batch.consumed, batch.remaining) == (10, 0, 10)
        assert batch.take((2, 3)).shape == (2, 3)
        assert (batch.consumed, batch.remaining) == (6, 4)
        with pytest.raises(ValueError, match="exhausted"):
            batch.take((5,))
        # A failed take must not consume anything.
        assert batch.remaining == 4
        batch.take((4,))
        assert batch.remaining == 0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            DrawBatch(new_rng(0), -1)


# ----------------------------------------------------------------------
# Count kernels vs the brute-force inverse-CDF reference
# ----------------------------------------------------------------------
def _laws(bits, values=9, cols=5, seed=0):
    """A (values, cols) grid of Binomial(bits, p) CDFs plus random
    element indices/uniforms shaped like a sampler call."""
    rng = new_rng(seed)
    p = np.clip(rng.random((values, cols)), 1e-3, 1 - 1e-3)
    cdf = binomial_cdf(p, bits)
    idx = rng.integers(0, values, size=(64, cols))
    u = rng.random((64, cols))
    return cdf, idx, u, np.arange(cols)


def _reference_counts(cdf, idx, u, col_ids):
    """count = #{k < L : cdf_k <= u}, materializing every CDF row."""
    n = cdf.shape[-1] - 1
    rows = cdf.reshape(-1, n + 1)[idx * col_ids.shape[-1] + col_ids]
    return (rows[..., :n] <= u[..., None]).sum(axis=-1)


class TestCountKernels:
    @pytest.mark.parametrize("bits", [1, 8, 31, 127])
    def test_quantile_kernel_is_exact(self, bits):
        cdf, idx, u, col_ids = _laws(bits)
        quant = quantile_table(cdf, QUANT_BINS)
        got = counts_by_quantile(quant, cdf, idx, u, col_ids)
        np.testing.assert_array_equal(got, _reference_counts(cdf, idx, u, col_ids))

    @pytest.mark.parametrize("bits", [1, 8, 31, 127])
    def test_search_kernel_is_exact(self, bits):
        cdf, idx, u, col_ids = _laws(bits)
        got = counts_by_search(cdf, idx, u, col_ids)
        np.testing.assert_array_equal(got, _reference_counts(cdf, idx, u, col_ids))

    def test_uniforms_on_cdf_levels_resolve_exactly(self):
        # u exactly equal to a CDF level is the boundary both kernels
        # must get right (`<=` semantics); these all land in stepped
        # bins, exercising the quantile path's exact-resolution branch.
        bits = 16
        cdf, idx, _, col_ids = _laws(bits, seed=3)
        n = cdf.shape[-1] - 1
        rows = cdf.reshape(-1, n + 1)[idx * col_ids.shape[-1] + col_ids]
        level = new_rng(4).integers(0, n, size=idx.shape)
        u = np.minimum(
            np.take_along_axis(rows, level[..., None], axis=-1)[..., 0],
            np.nextafter(1.0, 0.0),
        )
        want = _reference_counts(cdf, idx, u, col_ids)
        quant = quantile_table(cdf, QUANT_BINS)
        np.testing.assert_array_equal(
            counts_by_quantile(quant, cdf, idx, u, col_ids), want
        )
        np.testing.assert_array_equal(
            counts_by_search(cdf, idx, u, col_ids), want
        )


# ----------------------------------------------------------------------
# The quantile table's blocked build
# ----------------------------------------------------------------------
#: sha256 of the standard burst layer's quantile table (288 -> 144,
#: Cs = 36, L = 8: 10,512 laws), recorded with the one-shot build.
BURST_TABLE_DIGEST = "affe6bc9bd8f31b8eef3a5ffc842025f903e572583217230f112dcf5f01df5ce"
#: sha256 of the tables of ``trained_mlp(Cs=16, L=8, epochs=8)``'s
#: compiled layers, recorded with the one-shot build.
MLP_TABLE_DIGEST = "657a68eb4f11560eb257628b11d5c60816f750beeae5e468e780a28c098e90b0"


def _burst_layer():
    """The standard burst's crossbar layer (the kernel benchmarks' and
    perfbench's ``build_engine`` weights)."""
    rng = np.random.default_rng(0)
    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    return TiledLinearLayer(cfg, pm(rng, (288, 144)), seed=0)


def _table_digest(layers, bits):
    digest = hashlib.sha256()
    for layer in layers:
        table = layer._fused_sampler._count_quant_table(bits)
        digest.update(f"{table.dtype.str}{table.shape}".encode())
        digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


class TestQuantileTableBuild:
    def test_blocks_match_a_one_shot_build(self):
        # A law count that is not a multiple of the block size.
        cdf, _, _, _ = _laws(8, values=2 * QUANT_BUILD_BLOCK // 7 + 3, cols=7)
        n = cdf.shape[-1] - 1
        one_shot = _quantile_rows(cdf.reshape(-1, n + 1)[:, :n], QUANT_BINS)
        np.testing.assert_array_equal(quantile_table(cdf, QUANT_BINS), one_shot)

    def test_burst_table_bytes_unchanged(self):
        assert _table_digest([_burst_layer()], 8) == BURST_TABLE_DIGEST

    def test_reference_mlp_table_bytes_unchanged(self):
        from repro.experiments import common

        hardware = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
        model, _, _, _ = common.trained_mlp(hardware, epochs=8)
        network = Engine.from_model(model).network
        assert _table_digest(network.tiled_layers, 8) == MLP_TABLE_DIGEST

    def test_burst_table_build_memory_is_bounded(self):
        cdf = _burst_layer()._fused_sampler._count_cdf_table(8)
        assert cdf.shape == (73, 144, 9)
        tracemalloc.start()
        try:
            quantile_table(cdf, QUANT_BINS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A one-shot build peaks at ~50 MB; the table itself is 2.7 MB.
        assert peak < 12 * 2**20


# ----------------------------------------------------------------------
# Layer pass: forward_batched on rng vs a pre-drawn DrawBatch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batched_layer():
    rng = new_rng(3)
    cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
    x = pm(new_rng(5), (12, 64))
    return layer, x


def _draw_total(layer, n_rows):
    # The sizing rule the runtime uses (see batched_draw_elements).
    return layer.n_row_tiles * n_rows * layer.out_features


class TestForwardBatched:
    def test_rng_vs_drawbatch_bit_identical(self, batched_layer):
        layer, x = batched_layer
        assert layer.supports_batched_draws()
        out_rng = layer.forward_batched(x, rng=np.random.default_rng(11))
        draws = DrawBatch(np.random.default_rng(11), _draw_total(layer, x.shape[0]))
        out_batch = layer.forward_batched(x, uniforms=draws)
        np.testing.assert_array_equal(out_rng, out_batch)
        assert draws.remaining == 0

    def test_one_batch_spans_many_passes(self, batched_layer):
        layer, x = batched_layer
        gen = np.random.default_rng(13)
        per_pass = [layer.forward_batched(x, rng=gen) for _ in range(2)]
        draws = DrawBatch(
            np.random.default_rng(13), 2 * _draw_total(layer, x.shape[0])
        )
        batched = [layer.forward_batched(x, uniforms=draws) for _ in range(2)]
        for want, got in zip(per_pass, batched):
            np.testing.assert_array_equal(want, got)

    def test_long_window_fallback_rejects_uniforms(self):
        # A window too long for the cached CDF tables falls back to
        # Generator.binomial, which cannot consume pre-drawn uniforms.
        rng = new_rng(3)
        cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=2000)
        layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
        x = pm(new_rng(5), (4, 64))
        assert not layer.supports_batched_draws()
        layer.forward_batched(x, rng=np.random.default_rng(1))  # rng path still works
        with pytest.raises(ValueError, match="supports_batched_draws"):
            layer.forward_batched(
                x, uniforms=DrawBatch(np.random.default_rng(1), 10_000)
            )


# ----------------------------------------------------------------------
# Grouped shard executor vs per-shard serial execution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def group_network():
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
    x = new_rng(99).standard_normal((20, 64))
    return network, x


class TestGroupExecutor:
    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_group_bit_identical_to_per_shard_serial(self, group_network, backend):
        network, x = group_network
        strategy = get_backend(backend)
        assert group_vectorizable(network, strategy)
        specs = [(101, 0, 7), (202, 7, 12), (303, 12, 20)]  # uneven shards
        grouped = run_stages_group(network, x, specs, strategy)
        assert len(grouped) == len(specs)
        for (seed, start, stop), (logits, telemetry) in zip(specs, grouped):
            rng = seed_shard(network, seed)
            serial_telemetry = []
            want = run_stages(
                network, x[start:stop], strategy, rng, serial_telemetry
            )
            np.testing.assert_array_equal(logits, want)
            assert len(telemetry) == len(serial_telemetry)

    def test_repeated_groups_reuse_scratch_bit_identically(self, group_network):
        """The kernel's scratch buffers carry nothing from one call to
        the next, including across a call of another shape."""
        network, x = group_network
        strategy = get_backend("stochastic")
        specs = [(101, 0, 7), (202, 7, 12), (303, 12, 20)]
        first = run_stages_group(network, x, specs, strategy)
        run_stages_group(network, x[:5], [(404, 0, 5)], strategy)
        again = run_stages_group(network, x, specs, strategy)
        for (a, _), (b, _) in zip(first, again):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("backend", ["stochastic", "stochastic-batched"])
    def test_conv_group_bit_identical_to_per_shard_serial(self, backend):
        """Conv stages lay each shard's ``rows * positions`` uniforms
        side by side in the group's scratch buffer; across several
        crossbar stages, the batched backend's consecutive fills are the
        slices of its one per-shard draw."""
        from repro.mapping.compiler import compile_model
        from repro.models.vgg import VggSmall

        hw = HardwareConfig(crossbar_size=36, gray_zone_ua=10.0, window_bits=4)
        model = VggSmall(image_size=16, width_multiplier=0.0625, hardware=hw, seed=0)
        model.eval()
        network = compile_model(model)
        strategy = get_backend(backend)
        assert group_vectorizable(network, strategy)
        x = new_rng(5).standard_normal((6, 3, 16, 16))
        specs = [(11, 0, 2), (22, 2, 3), (33, 3, 6)]
        grouped = run_stages_group(network, x, specs, strategy)
        for (seed, start, stop), (logits, _) in zip(specs, grouped):
            rng = seed_shard(network, seed)
            want = run_stages(network, x[start:stop], strategy, rng, [])
            np.testing.assert_array_equal(logits, want)

    def test_string_backend_rejected(self, group_network):
        network, x = group_network
        with pytest.raises(ValueError, match="not group-vectorizable"):
            run_stages_group(network, x, [(1, 0, 20)], "stochastic")

    def test_batched_backend_session_is_reproducible(self, group_network):
        network, _ = group_network
        engine = Engine(network, micro_batch=8)
        images = new_rng(99).standard_normal((20, 64))
        with engine.session(seed=6, backend="stochastic-batched") as a:
            first = a.run(images).logits
        with engine.session(seed=6, backend="stochastic-batched") as b:
            second = b.run(images).logits
        np.testing.assert_array_equal(first, second)
