"""Tests for the tiled accelerator (multi-crossbar + SC accumulation)."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api.backends import get_backend
from repro.hardware.accelerator import AqfpAccelerator, TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray
from repro.runtime.scheduler import _TileSplitStrategy


def make_layer(in_features=40, out_features=20, cs=16, gz=2.4, window=16, seed=0):
    rng = np.random.default_rng(seed)
    weights = np.where(rng.random((in_features, out_features)) < 0.5, 1.0, -1.0)
    cfg = HardwareConfig(crossbar_size=cs, gray_zone_ua=gz, window_bits=window)
    return TiledLinearLayer(cfg, weights, seed=seed), weights


class TestTiling:
    def test_tile_grid_dimensions(self):
        layer, _ = make_layer(40, 20, cs=16)
        assert layer.n_row_tiles == 3  # ceil(40/16)
        assert layer.n_col_tiles == 2  # ceil(20/16)
        assert len(layer.tiles) == 3
        assert len(layer.tiles[0]) == 2

    def test_tiles_partition_weights_exactly(self):
        layer, weights = make_layer(40, 20, cs=16)
        reassembled = np.concatenate(
            [np.concatenate([t.weights for t in row], axis=1) for row in layer.tiles],
            axis=0,
        )
        np.testing.assert_array_equal(reassembled, weights)

    def test_single_tile_case(self):
        layer, _ = make_layer(8, 8, cs=16)
        assert layer.n_row_tiles == layer.n_col_tiles == 1

    def test_threshold_divided_across_row_tiles(self):
        """Paper Sec. 5.2: Ith divided evenly over the K crossbars."""
        rng = np.random.default_rng(0)
        weights = np.where(rng.random((32, 4)) < 0.5, 1.0, -1.0)
        cfg = HardwareConfig(crossbar_size=16)
        thresholds = np.array([4.0, -2.0, 0.0, 8.0])
        layer = TiledLinearLayer(cfg, weights, threshold_ua=thresholds, seed=0)
        for row in layer.tiles:
            np.testing.assert_allclose(row[0].threshold_ua, thresholds / 2)

    def test_rejects_bad_weights(self):
        cfg = HardwareConfig(crossbar_size=8)
        with pytest.raises(ValueError):
            TiledLinearLayer(cfg, np.full((4, 4), 0.5))
        with pytest.raises(ValueError):
            TiledLinearLayer(cfg, np.ones(4))


class TestForward:
    def test_output_shape_and_alphabet(self):
        layer, _ = make_layer()
        a = np.where(np.random.default_rng(1).random((5, 40)) < 0.5, 1.0, -1.0)
        out = layer(a)
        assert out.shape == (5, 20)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_activation_validation(self):
        layer, _ = make_layer()
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 39)))

    def test_ideal_output_is_sign_of_full_product(self):
        layer, weights = make_layer()
        a = np.where(np.random.default_rng(2).random((6, 40)) < 0.5, 1.0, -1.0)
        expected = np.where(a @ weights >= 0, 1.0, -1.0)
        np.testing.assert_array_equal(layer.ideal_output(a), expected)

    def test_ideal_output_respects_thresholds(self):
        rng = np.random.default_rng(0)
        weights = np.where(rng.random((32, 4)) < 0.5, 1.0, -1.0)
        cfg = HardwareConfig(crossbar_size=16)
        thr_values = np.array([3.0, -3.0, 0.0, 1.0])
        layer = TiledLinearLayer(
            cfg, weights, threshold_ua=thr_values * cfg.unit_current_ua, seed=0
        )
        a = np.where(rng.random((8, 32)) < 0.5, 1.0, -1.0)
        expected = np.where(a @ weights >= thr_values, 1.0, -1.0)
        np.testing.assert_array_equal(layer.ideal_output(a), expected)

    def test_stochastic_agrees_with_ideal_when_noise_negligible(self):
        """Tiny gray zone + single tile -> hardware equals ideal.

        Odd fan-in guarantees no exactly-zero column sums (which would
        be legitimate coin flips for the device)."""
        layer, weights = make_layer(in_features=13, out_features=6, cs=16, gz=0.01)
        a = np.where(np.random.default_rng(3).random((10, 13)) < 0.5, 1.0, -1.0)
        np.testing.assert_array_equal(layer(a), layer.ideal_output(a))

    def test_long_window_recovers_ideal_decision_multi_tile(self):
        """In the dithering regime, longer windows converge on the true
        sign of the cross-tile sum — the SC accumulation module's job."""
        layer, weights = make_layer(
            in_features=48, out_features=8, cs=16, gz=60.0, window=512, seed=4
        )
        rng = np.random.default_rng(5)
        a = np.where(rng.random((20, 48)) < 0.5, 1.0, -1.0)
        ideal = layer.ideal_output(a)
        out = layer(a)
        clear = np.abs(a @ weights) >= 6  # decisions with margin
        agreement = (out == ideal)[clear].mean()
        assert agreement > 0.95

    def test_expected_preactivation_sign_tracks_ideal(self):
        layer, weights = make_layer(gz=5.0)
        a = np.where(np.random.default_rng(6).random((10, 40)) < 0.5, 1.0, -1.0)
        expected_sign = np.where(layer.expected_preactivation(a) >= 0, 1.0, -1.0)
        ideal = layer.ideal_output(a)
        margin = np.abs(a @ weights) >= 4
        assert (expected_sign == ideal)[margin].mean() > 0.95

    def test_pass_counters(self):
        layer, _ = make_layer(40, 20, cs=16)
        a = np.ones((3, 40))
        layer(a)
        assert layer.n_passes == 3 * 2  # row tiles x col tiles
        assert layer.n_inferences == 3

    def test_seeded_reproducibility(self):
        a = np.ones((4, 40))
        l1, _ = make_layer(seed=9)
        l2, _ = make_layer(seed=9)
        np.testing.assert_array_equal(l1(a), l2(a))


def _eager_reseed(layer, seed):
    """Reference reseed: the same child-seed draw as
    ``reseed_sampling``, applied to every tile at once."""
    layer.reseed(seed)
    children = layer.rng.integers(
        0, 2**63 - 1, size=layer.n_row_tiles * layer.n_col_tiles + 1
    )
    tiles = [tile for row in layer.tiles for tile in row]
    for tile, child in zip(tiles, children[:-1]):
        tile.reseed(int(child))
    layer._fused_sampler.reseed(int(children[-1]))


def _tile_parallel(layer, a, dense=False):
    base = get_backend("stochastic-dense" if dense else "stochastic-packed")
    with ThreadPoolExecutor(max_workers=2) as pool:
        return _TileSplitStrategy(base, pool, dense).run_layer(layer, a, rng=None)


class TestLazyTileSeeds:
    """``reseed_sampling`` applies the tile seeds on the next read of
    ``tiles``: the fused path never pays them, and the bit-level paths
    draw exactly what an eager reseed would give them."""

    def test_fused_forward_reseeds_one_crossbar(self, monkeypatch):
        layer, _ = make_layer(40, 40, cs=16)  # 3 x 3 tiles
        a = np.where(np.random.default_rng(1).random((5, 40)) < 0.5, 1.0, -1.0)
        reseeded = []
        reseed = CrossbarArray.reseed

        def counting(crossbar, seed):
            reseeded.append(crossbar)
            reseed(crossbar, seed)

        monkeypatch.setattr(CrossbarArray, "reseed", counting)
        layer.reseed_sampling(7)
        layer.forward(a)
        assert reseeded == [layer._fused_sampler]

    @pytest.mark.parametrize(
        "run",
        [
            lambda layer, a: layer.forward_packed(a),
            lambda layer, a: layer.forward_dense(a),
            lambda layer, a: _tile_parallel(layer, a),
            lambda layer, a: _tile_parallel(layer, a, dense=True),
        ],
        ids=["packed", "dense", "tile-parallel", "tile-parallel-dense"],
    )
    def test_bit_level_paths_match_an_eager_reseed(self, run):
        lazy, _ = make_layer(40, 40, cs=16, seed=4)
        eager, _ = make_layer(40, 40, cs=16, seed=4)
        a = np.where(np.random.default_rng(2).random((6, 40)) < 0.5, 1.0, -1.0)
        for seed in (11, 12):
            lazy.reseed_sampling(seed)
            _eager_reseed(eager, seed)
            # A fused pass in between draws from the fused sampler only.
            np.testing.assert_array_equal(lazy.forward(a), eager.forward(a))
            for _ in range(2):  # the second pass continues the streams
                np.testing.assert_array_equal(run(lazy, a), run(eager, a))


class TestAqfpAccelerator:
    def test_pipeline_forwarding(self):
        l1, _ = make_layer(in_features=24, out_features=16, cs=16, gz=0.01)
        l2, _ = make_layer(in_features=16, out_features=8, cs=16, gz=0.01, seed=1)
        acc = AqfpAccelerator([l1, l2])
        a = np.where(np.random.default_rng(0).random((5, 24)) < 0.5, 1.0, -1.0)
        out = acc(a)
        assert out.shape == (5, 8)
        assert len(acc) == 2

    def test_append(self):
        acc = AqfpAccelerator()
        layer, _ = make_layer()
        acc.append(layer)
        assert len(acc) == 1
