"""The AQFP crossbar synapse array (paper Sec. 4.1-4.2, Fig. 3).

Each logic-in-memory (LiM) cell stores one binary weight and XNORs it
with the row activation; the per-cell output currents merge in the
analog domain down each column, attenuated by the growing inductance
(``I1(Cs)``). An AQFP buffer per column detects the sign of the merged
current — stochastically, per Eq. (1) — acting as sign function + ADC.

The simulation is fully vectorized: a batch of activation vectors is
multiplied against the stored weight matrix, scaled to micro-amperes,
and pushed through the buffer's probability law.

Two sampling granularities are offered:

* :meth:`CrossbarArray.sample_window` — the raw L-bit window, optionally
  bit-packed (:class:`~repro.sc.packed.PackedStream`), for callers that
  need individual bits (approximate APC, correlation diagnostics).
* :meth:`CrossbarArray.sample_window_counts` — the fused fast path: the
  per-column number of ones in the window drawn directly from
  ``Binomial(L, p)``. Because the window bits are i.i.d. Bernoulli(p),
  the count distribution is *exactly* Binomial — no approximation — and
  the ``(L, N, cols)`` bit tensor is never materialized.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import special

from repro.hardware.config import HardwareConfig
from repro.sc.binomial import (
    QUANT_BINS as _QUANT_BINS,
    counts_by_quantile,
    counts_by_search,
    quantile_table,
    scratch_array,
)
from repro.sc.packed import PackedStream
from repro.utils.rng import RngMixin, SeedLike, binomial_cdf

_SQRT_PI = math.sqrt(math.pi)

#: Cap on a cached per-crossbar Binomial CDF table (floats). Above this
#: the fused count sampler falls back to ``Generator.binomial`` instead
#: of caching ``(2 * rows + 1, cols, L + 1)`` CDF levels.
_MAX_COUNT_TABLE_ELEMENTS = 2_000_000

#: Cap on the quantized quantile table's size in bytes (uint8 entries,
#: ``repro.sc.binomial.QUANT_BINS`` uniform bins). Within the cap,
#: count sampling is a single table gather per element plus an exact
#: fix-up for the rare bins a CDF level falls inside.
_MAX_QUANT_TABLE_BYTES = 4_000_000


def check_activation_alphabet(
    a: np.ndarray, config: HardwareConfig, validate=None
) -> None:
    """Enforce the {-1, 0, +1} activation alphabet (the one shared rule).

    ``validate=None`` falls back to ``config.validate_inputs``; both the
    per-crossbar check and the tiled layer's fused path route through
    this helper so the rule cannot drift between them. For floats,
    ``a == 0 or a * a == 1`` holds exactly iff a is -1, 0, or +1
    (squaring cannot round a non-unit double onto 1.0, and inf / nan /
    subnormals all fail both arms) — cheaper than ``np.isin``. int8
    gets a plain range check.
    """
    if validate is None:
        validate = config.validate_inputs
    if not validate:
        return
    if a.dtype == np.int8:
        ok = bool(np.all((a >= -1) & (a <= 1)))
    else:
        ok = bool(np.all((a == 0.0) | (a * a == 1.0)))
    if not ok:
        raise ValueError("crossbar activations must be in {-1, 0, +1}")


class CrossbarArray(RngMixin):
    """One ``Cs x Cs`` crossbar programmed with +-1 weights.

    Parameters
    ----------
    config:
        Hardware configuration (size, gray zone, attenuation...).
    weights:
        +-1 matrix of shape ``(rows, cols)`` with ``rows, cols <= Cs``.
        Unused rows contribute no current; attenuation is set by the
        *physical* array size ``Cs``, not the occupied rows.
    threshold_ua:
        Per-column threshold currents ``Ith`` (BN matching programs
        these); scalar or shape ``(cols,)``.
    """

    def __init__(
        self,
        config: HardwareConfig,
        weights: np.ndarray,
        threshold_ua=0.0,
        seed: SeedLike = None,
        *,
        _allow_wide: bool = False,
    ) -> None:
        super().__init__(seed)
        self.config = config
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        # _allow_wide is internal (TiledLinearLayer row strips): every
        # column's physics is independent and set by the *row* count, so
        # sampling a logical strip spanning several column tiles at once
        # is exactly equivalent to sampling the tiles separately.
        if w.shape[0] > config.crossbar_size or (
            not _allow_wide and w.shape[1] > config.crossbar_size
        ):
            raise ValueError(
                f"weights {w.shape} exceed crossbar size {config.crossbar_size}"
            )
        if not np.all(np.isin(w, (-1.0, 1.0))):
            raise ValueError("crossbar weights must be +-1")
        self.weights = w
        thr = np.broadcast_to(
            np.asarray(threshold_ua, dtype=np.float64), (w.shape[1],)
        ).copy()
        self.threshold_ua = thr
        # Hot-loop scalars, hoisted out of the per-call path: the config
        # is immutable, so z = v * _z_scale - _z_offset is fixed at
        # construction (same math as Eq. (1) on the merged current).
        unit_ua = config.unit_current_ua
        self._z_scale = _SQRT_PI * unit_ua / config.gray_zone_ua
        self._z_offset = _SQRT_PI * thr / config.gray_zone_ua
        # Lazily built Binomial CDF / quantile tables for the fused
        # count sampler, keyed by window length: column values are
        # integers in [-rows, rows], so P(ones in window) has at most
        # (2 * rows + 1) * cols distinct laws per window length.
        self._count_tables = {}
        self._quant_tables = {}
        self._col_ids = np.arange(w.shape[1])

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    def _check_activations(self, activations: np.ndarray, validate=None) -> np.ndarray:
        a = np.asarray(activations)
        if a.dtype != np.int8 and a.dtype != np.float64:
            a = a.astype(np.float64)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[-1] != self.rows:
            raise ValueError(
                f"activations last dim {a.shape[-1]} != rows {self.rows}"
            )
        # 0 is allowed: a zero-padding row injects no current (the LiM
        # cell sees no input pulse), which is how conv zero-padding maps
        # onto the crossbar. The alphabet scan is O(size) per forward, so
        # trusted callers (the executor, after validating a pipeline's
        # entry point once) can switch it off.
        check_activation_alphabet(a, self.config, validate)
        return a

    # ------------------------------------------------------------------
    # Analog behaviour
    # ------------------------------------------------------------------
    def column_values(self, activations, validate=None) -> np.ndarray:
        """Mathematical column sums (signed popcounts), shape (N, cols)."""
        a = self._check_activations(activations, validate=validate)
        if a.dtype == np.int8:
            # BLAS wants floats; the per-tile chunk is small, so the
            # upcast here is cheap while the caller's big buffers stay int8.
            a = a.astype(np.float64)
        return a @ self.weights

    def column_currents_ua(self, activations, validate=None) -> np.ndarray:
        """Merged (attenuated) column currents in micro-amperes."""
        return self.column_values(activations, validate=validate) * self.config.unit_current_ua

    def output_probabilities(self, activations, validate=None) -> np.ndarray:
        """P(column buffer emits '1') — Eq. (1) on the merged current."""
        v = self.column_values(activations, validate=validate)
        return self._probabilities_from_values(v)

    def _probabilities_from_values(self, v: np.ndarray) -> np.ndarray:
        # float32 column values (the fused strip matmul) are upcast
        # first, so the probabilities carry the same float64 bits.
        z = v.astype(np.float64, copy=False) * self._z_scale - self._z_offset
        return 0.5 + 0.5 * special.erf(z)

    def expected_output(self, activations) -> np.ndarray:
        """E[+-1 output] per column."""
        return 2.0 * self.output_probabilities(activations) - 1.0

    # ------------------------------------------------------------------
    # Stochastic behaviour
    # ------------------------------------------------------------------
    def sample_output(self, activations) -> np.ndarray:
        """One clock of +-1 neuron outputs, shape (N, cols)."""
        p = self.output_probabilities(activations)
        return np.where(self.rng.random(p.shape) < p, 1.0, -1.0)

    def sample_window(
        self,
        activations,
        window_bits: Optional[int] = None,
        packed: bool = False,
        validate=None,
    ):
        """L-bit observation window: shape (L, N, cols) of +-1.

        The crossbar input is held constant while the neuron is observed
        for L clock cycles (paper Fig. 6a); the bits are i.i.d. because
        the buffer's thermal noise is white at the clock timescale.

        With ``packed=True`` the window is returned as a
        :class:`~repro.sc.packed.PackedStream` of uint64 bit-plane words
        (``ceil(L/64), N, cols``) instead of a float64 bit tensor —
        the representation the bit-level APC path consumes.
        """
        bits = self.config.window_bits if window_bits is None else window_bits
        if bits < 1:
            raise ValueError(f"window_bits must be >= 1, got {bits}")
        p = self.output_probabilities(activations, validate=validate)
        u = self.rng.random((bits,) + p.shape)
        if packed:
            return PackedStream.pack(u < p, axis=0)
        return np.where(u < p, 1.0, -1.0)

    def _count_cdf_table(self, bits: int) -> Optional[np.ndarray]:
        """Cached Binomial CDF levels for every (column value, column).

        Shape ``(2 * rows + 1, cols, bits + 1)``: row ``v + rows`` holds
        the CDF of ``Binomial(bits, p(v))`` for each column's threshold.
        Returns None when the table would be too large to cache.
        """
        table = self._count_tables.get(bits)
        if table is None:
            n_values = 2 * self.rows + 1
            if n_values * self.cols * (bits + 1) > _MAX_COUNT_TABLE_ELEMENTS:
                return None
            v = np.arange(-self.rows, self.rows + 1, dtype=np.float64)
            p = self._probabilities_from_values(v[:, None])
            table = binomial_cdf(p, bits)
            self._count_tables[bits] = table
        return table

    def _count_quant_table(self, bits: int) -> Optional[np.ndarray]:
        """Cached quantized inverse-CDF table, flat (values * cols, M)."""
        table = self._quant_tables.get(bits)
        if table is None:
            if bits > 127:
                return None
            n_values = 2 * self.rows + 1
            if n_values * self.cols * _QUANT_BINS > _MAX_QUANT_TABLE_BYTES:
                return None
            cdf = self._count_cdf_table(bits)
            if cdf is None:
                return None
            table = quantile_table(cdf, _QUANT_BINS)
            self._quant_tables[bits] = table
        return table

    def supports_batched_draws(self, window_bits: Optional[int] = None) -> bool:
        """Whether caller-supplied uniforms can drive the count sampler.

        True when the inverse-CDF tables fit the caches; False means
        count sampling falls back to ``Generator.binomial``, which
        consumes the stream in a shape-dependent way no pre-drawn batch
        can reproduce.
        """
        bits = self.config.window_bits if window_bits is None else window_bits
        return self._count_cdf_table(bits) is not None

    def sample_window_counts(
        self,
        activations,
        window_bits: Optional[int] = None,
        validate=None,
    ) -> np.ndarray:
        """Fused sample-and-count: ones per column window, shape (N, cols).

        The L window bits are i.i.d. Bernoulli(p), so their sum is
        exactly ``Binomial(L, p)`` — sampling the count directly is
        distribution-equivalent to counting :meth:`sample_window` output
        while skipping the ``(L, N, cols)`` intermediate entirely. This
        is the fast path for exact (non-approximate) APC accumulation.

        Counts are drawn by inverse-CDF against a cached per-(value,
        column) Binomial table (column values are small integers, so the
        table is tiny and amortizes across calls); very long windows
        fall back to ``Generator.binomial``.
        """
        bits = self.config.window_bits if window_bits is None else window_bits
        if bits < 1:
            raise ValueError(f"window_bits must be >= 1, got {bits}")
        v = self.column_values(activations, validate=validate)
        # The kernel's count dtype is internal (uint8 on the quantile
        # path); the public result stays int64.
        return self._sample_counts_for_values(v, bits).astype(np.int64, copy=False)

    def _sample_counts_for_values(
        self,
        v: np.ndarray,
        bits: int,
        u: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Window counts for precomputed integer column values ``v``.

        ``v`` may carry extra leading axes (the tiled layer batches all
        its row strips through one call); its last axis must be columns.
        ``u`` optionally supplies the uniforms (shape of ``v``, in
        ``[0, 1)``) so a caller can own the randomness — the batched
        backend and the grouped shard executor pass pre-drawn batches
        here; without it the sampler draws from its own generator,
        exactly as before. The inverse-CDF math itself lives in
        :mod:`repro.sc.binomial`. The count dtype depends on the path
        taken (``uint8`` from the quantile table, ``intp`` from the
        binary search, ``int64`` from ``Generator.binomial``).
        The quantile path builds its temporaries in per-thread reused
        buffers (:func:`~repro.sc.binomial.scratch_array`).
        """
        cdf = self._count_cdf_table(bits)
        if cdf is None:
            if u is not None:
                raise ValueError(
                    "pre-drawn uniforms require the cached inverse-CDF "
                    "tables; this geometry/window falls back to "
                    "Generator.binomial (see supports_batched_draws)"
                )
            return self.rng.binomial(bits, self._probabilities_from_values(v))
        # Column values of valid activations are exactly integral floats,
        # so truncation is exact; with validation disabled, garbage is
        # clamped to the saturated laws instead of wrapping into another
        # row's CDF. The quantile kernel builds its gather index in idx's
        # dtype, and its table has fewer than 2**31 entries: int32 there.
        quant = self._count_quant_table(bits)
        if quant is None:
            idx = v.astype(np.intp)
        else:
            idx = scratch_array("idx", v.shape, np.int32)
            np.copyto(idx, v, casting="unsafe")
        idx += self.rows
        np.clip(idx, 0, 2 * self.rows, out=idx)
        if quant is None:
            if u is None:
                u = self.rng.random(idx.shape)
            return counts_by_search(cdf, idx, u, self._col_ids)
        if u is None:
            u = self.rng.random(idx.shape)
        return counts_by_quantile(quant, cdf, idx, u, self._col_ids)

    def ideal_sign_output(self, activations) -> np.ndarray:
        """Noise-free reference: sign of the column value vs threshold."""
        v = self.column_values(activations)
        vth = self.threshold_ua / self.config.unit_current_ua
        return np.where(v >= vth, 1.0, -1.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CrossbarArray(Cs={self.config.crossbar_size}, "
            f"occupied={self.rows}x{self.cols})"
        )
