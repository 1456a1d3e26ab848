"""The SC-based accumulation module (paper Sec. 4.3, Fig. 6b).

When a BNN filter does not fit one crossbar, each of the K tiles emits a
stochastic bit-stream (the AQFP neuron observed over an L-bit window).
The module:

1. counts the ones across the K per-crossbar bits each clock (APC),
2. accumulates the counts over the window,
3. compares the total against a reference to emit the 1-bit activation.

The decision implemented is ``sign( sum_{k,t} bit_{k,t} - reference )``
with the natural bipolar zero point ``reference = K * L / 2``; BN
matching shifts per-crossbar thresholds instead of the reference (paper
Sec. 5.2), so the default reference is unbiased.

The AND/OR first-layer compressor of the APC is *exact* when both
outputs are kept (``a + b = (a | b) + (a & b)``); dropping the AND
outputs is the approximate mode, exposed via ``approximate_layers`` and
studied in the ablation bench.

Two execution paths reach the comparator:

* **Fused-counts fast path** (``approximate_layers == 0``): the exact
  APC's window total is just the number of ones across all K x L bits,
  so per-tile *counts* drawn from ``Binomial(L, p)`` (see
  :meth:`repro.hardware.crossbar.CrossbarArray.sample_window_counts`)
  are summed and compared via :meth:`ScAccumulationModule.accumulate_counts`
  — no bit tensor is ever materialized. Distribution-identical to the
  bit-level simulation.
* **Bit-level APC path** (``approximate_layers > 0``): the OR-only
  compression depends on *which* bits coincide, so the individual bits
  are needed. They travel bit-packed (uint64 words,
  :mod:`repro.sc.packed`) through
  :meth:`ScAccumulationModule.accumulate_packed`, where the OR layers
  run 64 clocks per word op. The unpacked :meth:`ScAccumulationModule.accumulate`
  remains for raw float/int bit tensors.

:class:`repro.hardware.accelerator.TiledLinearLayer` dispatches between
the two based on :attr:`ScAccumulationModule.supports_fused_counts`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.circuits.apc import ApproximateParallelCounter
from repro.circuits.comparator import BinaryComparator
from repro.sc.packed import packed_word_count

#: How many uint8 counts can be summed in uint16 without wrapping.
_UINT16_SAFE_TERMS = np.iinfo(np.uint16).max // np.iinfo(np.uint8).max


class ScAccumulationModule:
    """Accumulate K per-crossbar stochastic outputs into one binary value.

    Parameters
    ----------
    n_crossbars:
        K, the number of tiles whose outputs are merged.
    window_bits:
        L, the SC observation window (paper: accuracy saturates at 16-32).
    approximate_layers:
        OR-only compression layers in the APC (0 = exact counting).
    reference:
        Comparator reference; defaults to the unbiased ``K * L / 2``.
    """

    def __init__(
        self,
        n_crossbars: int,
        window_bits: int,
        approximate_layers: int = 0,
        reference: Optional[float] = None,
    ) -> None:
        if n_crossbars < 1:
            raise ValueError(f"n_crossbars must be >= 1, got {n_crossbars}")
        if window_bits < 1:
            raise ValueError(f"window_bits must be >= 1, got {window_bits}")
        self.n_crossbars = n_crossbars
        self.window_bits = window_bits
        self.apc = ApproximateParallelCounter(approximate_layers)
        self.reference = (
            n_crossbars * window_bits / 2.0 if reference is None else float(reference)
        )
        self.comparator = BinaryComparator(self.reference)

    @property
    def supports_fused_counts(self) -> bool:
        """True when the APC is exact, so window totals fully determine
        the output and the Binomial fused-count fast path applies."""
        return self.apc.approximate_layers == 0

    def accumulate_counts(self, counts: np.ndarray) -> np.ndarray:
        """Fast-path activation from per-tile window totals.

        ``counts`` has shape ``(K, ...)`` — each entry the number of
        ones one tile produced over its L-bit window (e.g. from
        :meth:`~repro.hardware.crossbar.CrossbarArray.sample_window_counts`).
        Any integer dtype works. The fused sampler hands over ``uint8``
        counts; up to 257 of them sum in ``uint16`` (257 * 255 = 65535,
        so the total cannot wrap), which is faster than numpy's default
        promotion to the platform integer. More terms take that default.
        Only valid for the exact APC: the approximate OR compression
        undercounts based on bit coincidences that totals cannot
        reconstruct, so that configuration must go through
        :meth:`accumulate_packed` / :meth:`accumulate` instead.
        """
        if not self.supports_fused_counts:
            raise ValueError(
                "accumulate_counts requires an exact APC "
                f"(approximate_layers={self.apc.approximate_layers}); "
                "use accumulate_packed/accumulate for the bit-level path"
            )
        c = np.asarray(counts)
        if c.ndim < 1 or c.shape[0] != self.n_crossbars:
            raise ValueError(
                f"expected counts of shape ({self.n_crossbars}, ...), got {c.shape}"
            )
        if c.dtype == np.uint8 and c.shape[0] <= _UINT16_SAFE_TERMS:
            return self.comparator.compare(c.sum(axis=0, dtype=np.uint16))
        return self.comparator.compare(c.sum(axis=0))

    def count_window_packed(self, words: np.ndarray) -> np.ndarray:
        """Total APC counts from bit-packed streams.

        ``words`` has shape ``(K, W, ...)`` with ``W = ceil(L/64)``
        uint64 words per line (:mod:`repro.sc.packed` layout, zero tail
        bits); the result matches :meth:`count_window` on the unpacked
        bits exactly, including the approximate undercount.
        """
        w = np.asarray(words)
        expected_words = packed_word_count(self.window_bits)
        if w.ndim < 2 or w.shape[0] != self.n_crossbars or w.shape[1] != expected_words:
            raise ValueError(
                f"expected packed streams of shape ({self.n_crossbars}, "
                f"{expected_words}, ...), got {w.shape}"
            )
        return self.apc.count_packed(w)

    def accumulate_packed(self, words: np.ndarray) -> np.ndarray:
        """Binary (+-1) activation from bit-packed per-crossbar streams."""
        return self.comparator.compare(self.count_window_packed(words))

    def count_window(self, streams: np.ndarray) -> np.ndarray:
        """Total APC counts over the window.

        ``streams`` has shape ``(K, L, ...)`` with +-1 (or 0/1) entries;
        the result has shape ``(...)`` of integer totals.
        """
        s = np.asarray(streams)
        if s.ndim < 2 or s.shape[0] != self.n_crossbars or s.shape[1] != self.window_bits:
            raise ValueError(
                f"expected streams of shape ({self.n_crossbars}, "
                f"{self.window_bits}, ...), got {s.shape}"
            )
        per_clock = self.apc.count(s, axis=0)  # (L, ...)
        return per_clock.sum(axis=0)

    def accumulate(self, streams: np.ndarray) -> np.ndarray:
        """Binary (+-1) activation from the per-crossbar streams."""
        return self.comparator.compare(self.count_window(streams))

    def expected_value(self, probabilities: np.ndarray) -> np.ndarray:
        """E[total count] given per-crossbar P(bit=1) (exact counting)."""
        p = np.asarray(probabilities, dtype=np.float64)
        if p.shape[0] != self.n_crossbars:
            raise ValueError(
                f"expected leading axis {self.n_crossbars}, got {p.shape}"
            )
        return self.window_bits * p.sum(axis=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScAccumulationModule(K={self.n_crossbars}, L={self.window_bits}, "
            f"reference={self.reference})"
        )
