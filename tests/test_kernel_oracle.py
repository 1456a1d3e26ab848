"""The quantile count kernel against its int64 oracle, and the dtype
contract around it.

``reference_counts_by_quantile`` below is the kernel as it stood before
its index and count dtypes were narrowed: an ``intp`` gather index built
in several passes, ``int64`` counts, and stepped bins resolved through
boolean masks. It is kept here, unoptimised, as the oracle. The
production kernel must return the same values, as ``uint8``, for any
shape, window length, uniform (bin edges included) and index dtype.

The kernel's dtypes are internal: ``CrossbarArray.sample_window_counts``
still returns ``int64``, and ``accumulate_counts`` gives the same
decision for ``uint8`` counts as for ``int64`` ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray
from repro.sc.accumulate import ScAccumulationModule
from repro.sc.binomial import QUANT_BINS, counts_by_quantile, quantile_table
from repro.utils.rng import binomial_cdf


def reference_counts_by_quantile(quant, cdf, idx, u, col_ids):
    """The int64 kernel: one gather, stepped bins fixed up by mask."""
    n = cdf.shape[-1] - 1
    cols = col_ids.shape[-1]
    m_bins = quant.shape[-1]
    bins = (u * m_bins).astype(np.intp)
    law = idx.astype(np.intp) * cols
    law += col_ids
    law *= m_bins
    law += bins
    entry = quant.reshape(-1)[law]
    counts = (entry & 0x7F).astype(np.int64)
    flagged = entry >= 0x80
    if flagged.any():
        cell = idx[flagged] * cols + np.broadcast_to(col_ids, idx.shape)[flagged]
        rows = cdf.reshape(-1, n + 1)[cell]
        counts[flagged] = (rows[:, :n] <= u[flagged][:, None]).sum(axis=-1)
    return counts


def _tables(rng, values, cols, bits):
    p = np.clip(rng.random((values, cols)), 1e-3, 1 - 1e-3)
    cdf = binomial_cdf(p, bits)
    return cdf, quantile_table(cdf, QUANT_BINS)


def _check(quant, cdf, idx, u, col_ids):
    want = reference_counts_by_quantile(quant, cdf, idx, u, col_ids)
    for dtype in (np.int32, np.intp):
        got = counts_by_quantile(quant, cdf, idx.astype(dtype), u, col_ids)
        assert got.dtype == np.uint8
        assert got.shape == idx.shape
        np.testing.assert_array_equal(got, want)
    return want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(1, 127),
    values=st.integers(1, 12),
    cols=st.integers(1, 9),
    lead=st.lists(st.integers(1, 6), min_size=0, max_size=2),
)
def test_random_shapes_and_windows(seed, bits, values, cols, lead):
    rng = np.random.default_rng(seed)
    cdf, quant = _tables(rng, values, cols, bits)
    shape = tuple(lead) + (cols,)
    idx = rng.integers(0, values, size=shape)
    u = rng.random(shape)
    _check(quant, cdf, idx, u, np.arange(cols))


@pytest.mark.parametrize("bits", [1, 8, 64, 127])
def test_uniforms_on_bin_edges(bits):
    # k/M is the left edge of bin k and k/M - 2**-53 the last double of
    # bin k - 1: the bin index must truncate the same way on both.
    rng = np.random.default_rng(bits)
    values, cols = 7, 5
    cdf, quant = _tables(rng, values, cols, bits)
    k = np.arange(QUANT_BINS, dtype=np.float64)
    edges = np.concatenate([k / QUANT_BINS, k[1:] / QUANT_BINS - 2.0**-53])
    assert edges.min() >= 0.0 and edges.max() < 1.0
    u = np.repeat(edges[:, None], cols, axis=1)
    idx = rng.integers(0, values, size=u.shape)
    _check(quant, cdf, idx, u, np.arange(cols))


def test_many_stepped_bins():
    # L = 127 spreads the CDF levels of each row over more than a tenth
    # of its 256 bins (about 1% of elements land in stepped bins on the
    # standard burst), and uniforms drawn at (and next to) the levels
    # themselves land in stepped bins, so most elements take the exact
    # fix-up branch.
    rng = np.random.default_rng(11)
    values, cols, bits = 9, 6, 127
    p = np.linspace(0.2, 0.8, values * cols).reshape(values, cols)
    cdf = binomial_cdf(p, bits)
    quant = quantile_table(cdf, QUANT_BINS)
    assert ((quant >= 0x80).mean(axis=-1) > 0.1).all()
    idx = rng.integers(0, values, size=(40, cols))
    rows = cdf.reshape(-1, bits + 1)[idx * cols + np.arange(cols)]
    level = rng.integers(0, bits, size=idx.shape)
    on_level = np.take_along_axis(rows, level[..., None], axis=-1)[..., 0]
    below = np.nextafter(on_level, 0.0)
    u = np.minimum(np.stack([on_level, below]), np.nextafter(1.0, 0.0))
    idx = np.stack([idx, idx])
    bins = (u * QUANT_BINS).astype(np.intp)
    law = (idx * cols + np.arange(cols)) * QUANT_BINS + bins
    assert (quant.reshape(-1)[law] >= 0x80).mean() > 0.5
    _check(quant, cdf, idx, u, np.arange(cols))


# ----------------------------------------------------------------------
# Public dtype contract
# ----------------------------------------------------------------------
def _crossbar(window_bits, rows=16, cols=12):
    rng = np.random.default_rng(window_bits)
    cfg = HardwareConfig(crossbar_size=rows, gray_zone_ua=10.0, window_bits=window_bits)
    weights = np.where(rng.random((rows, cols)) < 0.5, 1.0, -1.0)
    x = np.where(rng.random((20, rows)) < 0.5, 1.0, -1.0)
    return CrossbarArray(cfg, weights, seed=3), x


@pytest.mark.parametrize(
    "window_bits",
    # quantile table, binary search (L > 127), Generator.binomial
    # (CDF table too large to cache).
    [8, 200, 20_000],
)
def test_sample_window_counts_returns_int64(window_bits):
    xbar, x = _crossbar(window_bits)
    counts = xbar.sample_window_counts(x)
    assert counts.dtype == np.int64
    assert counts.shape == (20, 12)
    assert counts.min() >= 0 and counts.max() <= window_bits


def test_sample_window_counts_matches_internal_counts():
    xbar, x = _crossbar(8)
    xbar.reseed(5)
    public = xbar.sample_window_counts(x)
    xbar.reseed(5)
    internal = xbar._sample_counts_for_values(xbar.column_values(x), 8)
    assert internal.dtype == np.uint8
    np.testing.assert_array_equal(public, internal)


@pytest.mark.parametrize(
    "k, bits",
    # K * L > 255 in all three; K = 300 is past what uint16 holds for
    # arbitrary uint8 terms, so it takes numpy's default promotion.
    [(49, 8), (49, 127), (300, 127)],
)
def test_accumulate_counts_on_uint8(k, bits):
    rng = np.random.default_rng(k + bits)
    module = ScAccumulationModule(n_crossbars=k, window_bits=bits)
    wide = rng.integers(0, bits + 1, size=(k, 16, 10))
    # Push some totals to the extremes, where wrapping would show.
    wide[:, 0] = bits
    wide[:, 1] = 0
    narrow = wide.astype(np.uint8)
    assert wide.sum(axis=0).max() == k * bits > 255
    np.testing.assert_array_equal(
        module.accumulate_counts(narrow), module.accumulate_counts(wide)
    )
    # The comparator sees the true total, not a wrapped one.
    assert (module.accumulate_counts(narrow)[0] == 1.0).all()
