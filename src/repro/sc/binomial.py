"""Vendored vectorized Binomial sampling kernels (inverse-CDF, batched draws).

The fused count path of the crossbar simulator reduces every stochastic
layer pass to "draw exact ``Binomial(L, p)`` counts for a tensor of
precomputed laws". This module owns that math as pure functions over
cached tables, decoupled from the hardware objects, so the same kernel
serves three callers without drift:

* :class:`~repro.hardware.crossbar.CrossbarArray` — the serial per-pass
  path (draws its uniforms from the sampler's own generator);
* :meth:`~repro.hardware.accelerator.TiledLinearLayer.forward_batched`
  (the ``"stochastic-batched"`` backend) — uniforms come from the
  *caller's* generator, optionally pre-drawn for a whole shard pass via
  :class:`DrawBatch` (one ``Generator.random`` call per shard instead
  of one per layer pass);
* the grouped shard executor
  (:func:`~repro.runtime.plan.run_stages_group`) — per-shard uniforms
  concatenated along the batch axis and pushed through one vectorized
  lookup per stage.

Both count kernels take the uniforms as an argument: who owns the
randomness is the caller's contract, the inverse-CDF math is shared.

Dtypes are internal to the kernel. :func:`counts_by_quantile` builds its
gather index in the dtype of the value-row index it is given (the
sampler passes ``int32``: the table has fewer than 2**31 entries),
returns ``uint8`` counts, and resolves stepped bins through flat
indices. :func:`counts_by_search` works in ``intp``. The samples are the
same whatever the dtypes: same uniforms, same tables, same counts.
Public entry points (``CrossbarArray.sample_window_counts``) return
``int64``.

Draw-batching contract
----------------------
``numpy``'s ``Generator.random`` fills its output from a sequential
uniform stream in C order, so one ``random(total)`` call sliced into
consecutive pieces yields *bit-identical* doubles to a sequence of
smaller ``random(shape)`` calls on the same generator. That identity is
what lets :class:`DrawBatch` hoist every layer's uniforms into a single
generator invocation per shard without changing a single sampled count
(covered by ``tests/test_sc_binomial.py``).
"""

from __future__ import annotations

import threading

import numpy as np

#: Number of uniform bins in the quantized quantile table (uint8
#: entries: low 7 bits of payload + 1 "stepped bin" flag bit).
QUANT_BINS = 256


#: Laws per block of :func:`quantile_table`'s build. Each block's int64
#: histogram and float64 stepped-bin weights hold ``laws * (M + 1)``
#: entries, so this bounds the build's temporaries to a few MB however
#: many laws the table has.
QUANT_BUILD_BLOCK = 1024


def quantile_table(cdf: np.ndarray, m_bins: int) -> np.ndarray:
    """Quantize inverse-CDF lookup into ``m_bins`` uniform bins.

    For each CDF row, entry ``m`` holds ``count(m / M)`` — the inverse
    CDF at the bin's left edge — in the low 7 bits, with bit 7 set when
    some CDF level falls strictly inside the bin (so the count steps
    within it and the caller must resolve that element exactly).
    Requires ``n <= 127`` counts to fit the payload bits.

    Rows are independent, so the table is built in blocks of
    :data:`QUANT_BUILD_BLOCK` laws with the same arithmetic per row: the
    bytes are those of a one-shot build, and the temporaries stay a few
    MB instead of growing with the law count (a one-shot build of
    10,512 laws peaked at 50.6 MB).
    """
    n = cdf.shape[-1] - 1
    flat = cdf.reshape(-1, n + 1)
    vc = flat.shape[0]
    table = np.empty((vc, m_bins), dtype=np.uint8)
    for lo in range(0, vc, QUANT_BUILD_BLOCK):
        hi = min(lo + QUANT_BUILD_BLOCK, vc)
        table[lo:hi] = _quantile_rows(flat[lo:hi, :n], m_bins)
    return table


def _quantile_rows(rows: np.ndarray, m_bins: int) -> np.ndarray:
    """:func:`quantile_table` for one block of ``(laws, n)`` CDF levels."""
    vc = rows.shape[0]
    s = rows * m_bins
    # First bin edge at/above each CDF level: count(m/M) counts the
    # levels with ceil(s_k) <= m.
    m0 = np.clip(np.ceil(s).astype(np.int64), 0, m_bins)
    hist = np.bincount(
        (np.arange(vc)[:, None] * (m_bins + 1) + m0).ravel(),
        minlength=vc * (m_bins + 1),
    ).reshape(vc, m_bins + 1)
    start = np.cumsum(hist, axis=1)[:, :m_bins].astype(np.uint8)
    # A level strictly inside bin floor(s_k) makes that bin stepped.
    f = np.floor(s)
    interior = (s > f) & (f < m_bins)
    stepped = np.bincount(
        (np.arange(vc)[:, None] * m_bins + np.where(interior, f, 0).astype(np.int64)).ravel(),
        weights=interior.ravel(),
        minlength=vc * m_bins,
    ).reshape(vc, m_bins) > 0
    return start | (stepped.astype(np.uint8) << 7)


#: Bytes of buffers one thread keeps for :func:`scratch_array`. A
#: buffer larger than this is allocated for its call and dropped; a
#: buffer that would push the thread past it empties the thread's
#: cache first.
SCRATCH_BYTES = 16 * 2**20

_SCRATCH = threading.local()


def scratch_array(tag: str, shape, dtype) -> np.ndarray:
    """An uninitialized buffer this thread reuses for ``tag``, ``shape``
    and ``dtype``.

    The grouped kernel's ``(K, N, out)`` temporaries are multi-MB and
    have the same shape every wave. Fresh arrays that large come from
    ``mmap`` or from heap the allocator trims between waves, so each
    wave page-faults them in anew, and how often depends on the
    allocator's history (glibc raises its thresholds after large frees).
    A reused buffer is faulted in once. The caller must be done with a
    buffer before it asks for the same key again.
    """
    shape = tuple(int(d) for d in shape)
    key = (tag, shape, np.dtype(dtype))
    cache = getattr(_SCRATCH, "buffers", None)
    if cache is None:
        cache = _SCRATCH.buffers = {}
    buf = cache.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        if buf.nbytes <= SCRATCH_BYTES:
            if sum(b.nbytes for b in cache.values()) + buf.nbytes > SCRATCH_BYTES:
                cache.clear()
            cache[key] = buf
    return buf


def counts_by_quantile(
    quant: np.ndarray,
    cdf: np.ndarray,
    idx: np.ndarray,
    u: np.ndarray,
    col_ids: np.ndarray,
) -> np.ndarray:
    """Exact Binomial counts: one gather against the quantized table.

    ``quant`` is the :func:`quantile_table` for ``cdf`` (any leading
    shape; both are reshaped to ``(laws, ...)`` with ``laws = values *
    cols``); ``idx`` holds the value-row index per element with columns
    on the last axis; ``u`` the uniforms in ``[0, 1)`` of ``idx``'s
    shape; ``col_ids`` the ``(cols,)`` column indices.

    The gather index ``(idx * cols + col) * M + bin`` is built in
    ``idx``'s dtype in one multiply and two in-place adds. The sampler
    passes ``int32`` (the table has fewer than 2**31 entries, so a
    narrower index halves the passes' memory traffic); ``intp`` works
    too. The counts come back as ``uint8``: the table's low 7 bits hold
    every count, since ``L <= 127``.

    Unstepped bins return the exact count directly; the rare elements
    whose uniform lands in a stepped bin (a CDF level inside the bin)
    are resolved against the full CDF row with the *same* uniform, so
    the sample stays exactly Binomial. They are found by flat index
    (``np.flatnonzero``), and their law is ``gather index // M``, so no
    boolean mask or broadcast column grid is built. ``u < 1``
    guarantees the bin index stays in range (``u * M`` is an exact
    power-of-two scaling, so it cannot round up to ``M``) — no clamp
    pass is spent on it.

    The gather index, the bin index and the table entries live in this
    thread's :func:`scratch_array` buffers; the returned counts are a
    fresh array.
    """
    n = cdf.shape[-1] - 1
    cols = col_ids.shape[-1]
    m_bins = quant.shape[-1]
    law = np.multiply(
        idx, cols * m_bins, out=scratch_array("law", idx.shape, idx.dtype)
    )
    law += (col_ids * m_bins).astype(law.dtype, copy=False)
    # The float64 product is truncated on output, as ``astype`` would,
    # without a float64 temporary.
    law += np.multiply(
        u, m_bins, out=scratch_array("bin", idx.shape, law.dtype), casting="unsafe"
    )
    # np.take, not fancy indexing: the latter converts an int32 index
    # to intp first, which costs more than the narrow passes save. With
    # ``out`` the default "raise" mode gathers into a buffer and copies;
    # the index is in range by construction, so "clip" gathers straight
    # into ``out``.
    entry = np.take(
        quant.reshape(-1),
        law,
        out=scratch_array("entry", idx.shape, quant.dtype),
        mode="clip",
    )
    counts = entry & 0x7F
    stepped = np.flatnonzero(entry >= 0x80)
    if stepped.size:
        cell = law.reshape(-1)[stepped] // m_bins
        rows = cdf.reshape(-1, n + 1)[cell, :n]
        levels = u.reshape(-1)[stepped][:, None]
        np.put(counts, stepped, (rows <= levels).sum(axis=-1))
    return counts


def counts_by_search(
    cdf: np.ndarray,
    idx: np.ndarray,
    u: np.ndarray,
    col_ids: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF sample via branchless binary search on the table.

    ``count = #{k < L : cdf_k <= u}`` — since each CDF row is sorted,
    the count is found in ``ceil(log2(L))`` gather/compare rounds
    instead of materializing the per-element CDF row. Used when the
    window is too long for the quantile table.
    """
    n = cdf.shape[-1] - 1
    flat = cdf.reshape(-1)
    row_len = n + 1
    cols = col_ids.shape[-1]
    base = idx * (cols * row_len)
    base += col_ids * row_len
    pos = np.zeros(idx.shape, dtype=np.intp)
    b = 1
    while (b << 1) <= n:
        b <<= 1
    while b:
        cand = pos + b
        levels = flat[base + np.minimum(cand, n) - 1]
        pos += np.where((cand <= n) & (levels <= u), b, 0)
        b >>= 1
    return pos


class DrawBatch:
    """Uniforms for a whole shard pass, pre-drawn in one generator call.

    Construction draws ``rng.random(total)`` once; each :meth:`take`
    serves the next consecutive slice reshaped to the requested shape.
    Because ``Generator.random`` fills from a sequential stream in C
    order, the served slices are bit-identical to the per-layer
    ``rng.random(shape)`` calls they replace (same generator, same
    order) — batching changes *when* the uniforms are drawn, never
    *what* they are.
    """

    __slots__ = ("_u", "_pos")

    def __init__(self, rng: np.random.Generator, total: int) -> None:
        total = int(total)
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self._u = rng.random(total)
        self._pos = 0

    @property
    def total(self) -> int:
        return self._u.size

    @property
    def consumed(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return self._u.size - self._pos

    def take(self, shape) -> np.ndarray:
        """The next ``prod(shape)`` uniforms, reshaped to ``shape``."""
        size = 1
        for dim in shape:
            size *= int(dim)
        end = self._pos + size
        if end > self._u.size:
            raise ValueError(
                f"draw batch exhausted: need {size} uniforms for {tuple(shape)}, "
                f"have {self._u.size - self._pos} of {self._u.size} left"
            )
        out = self._u[self._pos : end].reshape(shape)
        self._pos = end
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DrawBatch {self._pos}/{self._u.size} consumed>"
