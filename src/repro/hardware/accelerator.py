"""Tiled multi-crossbar execution with SC accumulation (paper Fig. 6b).

A BNN layer whose fan-in exceeds one crossbar is split across K row
tiles; each tile's stochastic neuron outputs are observed for L clocks
and merged by the SC accumulation module. Column tiling handles layers
with more filters than crossbar columns.

BN matching (paper Sec. 5.2) programs per-column threshold currents; when
a filter spans K crossbars the threshold is divided evenly among them.

:meth:`TiledLinearLayer.forward` picks one of two hardware-faithful
execution paths per column tile:

* **Fused counts** (default, exact APC): each tile draws its window
  total directly from ``Binomial(L, p)`` and the accumulation module
  compares the summed ``(K, N, cols)`` integer counts against the
  reference — the ``(K, L, N, cols)`` bit tensor of the naive
  simulation is never built. Exactly distribution-equivalent.
* **Bit-level** (``approximate_layers > 0``): the OR-compressed APC
  needs individual bit coincidences, so tiles emit bit-packed windows
  (uint64 words, 64 clocks per word) that the module counts with
  packed-word popcounts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.hardware.config import HardwareConfig
from repro.hardware.crossbar import CrossbarArray, check_activation_alphabet
from repro.sc.accumulate import ScAccumulationModule
from repro.sc.binomial import DrawBatch
from repro.utils.rng import RngMixin, SeedLike


class TiledLinearLayer(RngMixin):
    """One BNN layer (as a +-1 matrix) mapped onto a grid of crossbars.

    Parameters
    ----------
    config:
        Hardware configuration shared by all tiles.
    weights:
        +-1 matrix of shape ``(in_features, out_features)``.
    threshold_ua:
        Per-output threshold currents (from BN matching); scalar or
        shape ``(out_features,)``. Divided evenly across the K row tiles.
    approximate_layers:
        OR-only compression layers in the SC accumulation module's APC
        (0 = exact counting, which enables the fused-count fast path).
    """

    def __init__(
        self,
        config: HardwareConfig,
        weights: np.ndarray,
        threshold_ua=0.0,
        seed: SeedLike = None,
        approximate_layers: int = 0,
    ) -> None:
        super().__init__(seed)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got {w.shape}")
        if not np.all(np.isin(w, (-1.0, 1.0))):
            raise ValueError("layer weights must be +-1")
        self.config = config
        self.in_features, self.out_features = w.shape
        cs = config.crossbar_size
        self.n_row_tiles = math.ceil(self.in_features / cs)
        self.n_col_tiles = math.ceil(self.out_features / cs)
        thresholds = np.broadcast_to(
            np.asarray(threshold_ua, dtype=np.float64), (self.out_features,)
        )

        # Child seeds in one vectorized draw; the tiles build their
        # generators lazily on first use (RngMixin), so layer setup and
        # reseeding never pay K*J eager PCG64 constructions. The draw
        # order and per-seed streams match the old spawn_rng exactly.
        child_seeds = self.rng.integers(0, 2**63 - 1, size=self.n_row_tiles * self.n_col_tiles)
        self._tiles: List[List[CrossbarArray]] = []
        # Child seeds drawn by reseed_sampling, applied on the next read
        # of ``tiles`` (the fused path never reads them).
        self._pending_tile_seeds: Optional[np.ndarray] = None
        for i in range(self.n_row_tiles):
            row: List[CrossbarArray] = []
            rows_slice = slice(i * cs, min((i + 1) * cs, self.in_features))
            for j in range(self.n_col_tiles):
                cols_slice = slice(j * cs, min((j + 1) * cs, self.out_features))
                tile = CrossbarArray(
                    config,
                    w[rows_slice, cols_slice],
                    # Eq. 16 threshold split evenly over the K row tiles.
                    threshold_ua=thresholds[cols_slice] / self.n_row_tiles,
                    seed=int(child_seeds[i * self.n_col_tiles + j]),
                )
                row.append(tile)
            self._tiles.append(row)

        self.module = ScAccumulationModule(
            n_crossbars=self.n_row_tiles,
            window_bits=config.window_bits,
            approximate_layers=approximate_layers,
        )
        # Fused-count fast path: the layer's weights padded to a
        # (K, Cs, out) block so forward computes all K * out column
        # values in one batched matmul, plus a single wide sampler
        # crossbar whose CDF tables serve every row strip — column
        # physics are independent and identical across strips (the
        # thresholds are split evenly), so one sampler covers them all.
        self._fused_sampler: Optional[CrossbarArray] = None
        self._fused_weights: Optional[np.ndarray] = None
        if self.module.supports_fused_counts:
            self._fused_sampler = CrossbarArray(
                config,
                w[: min(cs, self.in_features), :],
                threshold_ua=thresholds / self.n_row_tiles,
                seed=int(self.rng.integers(0, 2**63 - 1, size=1)[0]),
                _allow_wide=True,
            )
            padded = np.zeros(
                (self.n_row_tiles * cs, self.out_features), dtype=np.float32
            )
            padded[: self.in_features] = w
            self._fused_weights = np.ascontiguousarray(
                padded.reshape(self.n_row_tiles, cs, self.out_features)
            )
        # Execution statistics for the cost model.
        self.n_passes = 0
        self.n_inferences = 0

    # ------------------------------------------------------------------
    @property
    def tiles(self) -> List[List[CrossbarArray]]:
        """The crossbar grid, ``tiles[i][j]`` for row tile ``i`` and
        column tile ``j``. Reading it first applies the tile seeds the
        last :meth:`reseed_sampling` drew. The apply is not thread-safe:
        read ``tiles`` once before handing tiles to other threads."""
        seeds = self._pending_tile_seeds
        if seeds is not None:
            self._pending_tile_seeds = None
            for tile, seed in zip(
                (t for row in self._tiles for t in row), seeds.tolist()
            ):
                tile.reseed(seed)
        return self._tiles

    def _normalize_activations(self, activations: np.ndarray) -> np.ndarray:
        a = np.asarray(activations)
        # int8 +-1 buffers (the executor's working dtype) pass through
        # untouched; everything else normalizes to float64 as before.
        if a.dtype != np.int8 and a.dtype != np.float64:
            a = a.astype(np.float64)
        if a.ndim == 1:
            a = a[None, :]
        if a.shape[-1] != self.in_features:
            raise ValueError(
                f"activations last dim {a.shape[-1]} != in_features {self.in_features}"
            )
        return a

    def _split_activations(self, activations: np.ndarray) -> List[np.ndarray]:
        a = self._normalize_activations(activations)
        cs = self.config.crossbar_size
        return [
            a[:, i * cs : min((i + 1) * cs, self.in_features)]
            for i in range(self.n_row_tiles)
        ]

    def forward(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Hardware-faithful stochastic output, +-1 of shape (N, out).

        Dispatches per column tile: fused Binomial counts when the
        accumulation module's APC is exact, bit-packed windows for the
        approximate bit-level path. ``validate`` (None = the config's
        ``validate_inputs``) gates the per-tile activation-alphabet scan.
        """
        if self._fused_sampler is not None:
            return self._forward_fused(activations, validate)
        return self.forward_packed(activations, validate=validate)

    def forward_dense(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Bit-level execution on dense float windows (legacy path).

        Every tile materializes its full ``(L, N, cols)`` +-1 window and
        the accumulation module counts the raw bits — the slowest but
        most literal simulation, kept as the reference the packed and
        fused paths are checked against (the ``"stochastic-dense"``
        backend).
        """
        chunks = self._split_activations(activations)
        n = chunks[0].shape[0]
        outputs = []
        for j in range(self.n_col_tiles):
            streams = np.stack(
                [
                    self.tiles[i][j].sample_window(chunks[i], validate=validate)
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )  # (K, L, N, cols) +-1 windows
            outputs.append(self.module.accumulate(streams))
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return np.concatenate(outputs, axis=-1)

    def forward_packed(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Bit-level execution on uint64 bit-plane words.

        The per-column-tile loop of the packed sampling engine (the
        ``"stochastic-packed"`` backend); also the only execution path
        that supports an approximate (OR-compressed) APC, which needs
        individual bit coincidences.
        """
        chunks = self._split_activations(activations)
        n = chunks[0].shape[0]
        outputs = []
        for j in range(self.n_col_tiles):
            words = np.stack(
                [
                    self.tiles[i][j]
                    .sample_window(chunks[i], packed=True, validate=validate)
                    .words
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )  # (K, W, N, cols) packed windows
            outputs.append(self.module.accumulate_packed(words))
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return np.concatenate(outputs, axis=-1)

    def forward_fused_batched(
        self,
        activations: np.ndarray,
        validate=None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Fused-count execution with one concatenated Binomial draw.

        Like :meth:`_forward_fused` the column values of every row strip
        are computed in one batched matmul, but the ``(K, N, out)``
        window counts come from a *single* ``Generator.binomial`` call
        over the concatenated tiles instead of per-table inverse-CDF
        gathers — the whole layer costs one RNG invocation, attacking
        the RNG-bound regime of the fused path. ``rng`` lets a
        :class:`repro.api.Session` supply its own generator so it owns
        the stochastic state end to end.
        """
        if self._fused_sampler is None:
            raise ValueError(
                "forward_fused_batched requires an exact APC "
                f"(approximate_layers={self.module.apc.approximate_layers}); "
                "use forward_packed for the bit-level path"
            )
        values, n = self._fused_values(activations, validate)
        probabilities = self._fused_sampler._probabilities_from_values(values)
        gen = self.rng if rng is None else rng
        counts = gen.binomial(self.config.window_bits, probabilities)
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return self.module.accumulate_counts(counts)

    def supports_batched_draws(self) -> bool:
        """Whether :meth:`forward_batched` can take pre-drawn uniforms.

        True when the fused path is active *and* the window is short
        enough for the cached inverse-CDF tables — the
        ``Generator.binomial`` fallback for very long windows cannot
        consume caller-supplied uniforms.
        """
        return (
            self._fused_sampler is not None
            and self._fused_sampler.supports_batched_draws(self.config.window_bits)
        )

    def forward_batched(
        self,
        activations: np.ndarray,
        validate=None,
        rng: Optional[np.random.Generator] = None,
        uniforms: Optional[DrawBatch] = None,
    ) -> np.ndarray:
        """Fused-count execution on caller-owned uniforms.

        The ``"stochastic-batched"`` backend's layer pass: identical
        math to :meth:`_forward_fused` (batched matmul + vectorized
        inverse-CDF against the cached quantile tables), but the
        uniforms driving the count sampler come from the *caller* —
        either ``uniforms`` (a :class:`~repro.sc.binomial.DrawBatch`
        pre-drawn for the whole shard pass, one ``Generator.random``
        call total) or ``rng`` (one draw per layer pass). The sampled
        counts are bit-identical for the same generator either way (the
        DrawBatch slices are the same doubles the per-pass draws would
        produce); only the number of generator invocations changes.
        """
        if self._fused_sampler is None:
            raise ValueError(
                "forward_batched requires an exact APC "
                f"(approximate_layers={self.module.apc.approximate_layers}); "
                "use forward_packed for the bit-level path"
            )
        values, n = self._fused_values(activations, validate)
        sampler = self._fused_sampler
        bits = self.config.window_bits
        gen = self.rng if rng is None else rng
        if sampler._count_cdf_table(bits) is None:
            # Long-window fallback: Generator.binomial owns its own
            # draws, so batched uniforms cannot apply here.
            if uniforms is not None:
                raise ValueError(
                    "pre-drawn uniforms require cached CDF tables; check "
                    "supports_batched_draws() before building a DrawBatch"
                )
            counts = gen.binomial(bits, sampler._probabilities_from_values(values))
        else:
            u = uniforms.take(values.shape) if uniforms is not None else gen.random(
                values.shape
            )
            counts = sampler._sample_counts_for_values(values, bits, u=u)
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return self.module.accumulate_counts(counts)

    def _fused_values(self, activations: np.ndarray, validate=None):
        """Shared fused-path prologue: ``(K, N, out)`` column values.

        Normalizes and alphabet-checks the batch, zero-pads it to the
        ``K * Cs`` tile grid, and runs all K row strips against the
        padded weight block in one batched matmul. Both fused execution
        paths (:meth:`_forward_fused`, :meth:`forward_fused_batched`)
        route through here so padding/validation cannot drift between
        them. Returns ``(values, batch_size)``.

        The matmul runs in float32. That is exact: activations are in
        {-1, 0, +1} and weights are +-1, so every partial sum is an
        integer with ``|v| <= Cs``, far below float32's 2**24 limit for
        consecutive integers. Consumers that need float64 (the
        probability law) upcast, so no sampled bit changes.
        """
        a = self._normalize_activations(activations)
        check_activation_alphabet(a, self.config, validate)
        n = a.shape[0]
        cs = self.config.crossbar_size
        padded_in = self.n_row_tiles * cs
        if padded_in != self.in_features:
            a_pad = np.zeros((n, padded_in), dtype=np.float32)
            a_pad[:, : self.in_features] = a
        else:
            a_pad = a.astype(np.float32)
        strips = a_pad.reshape(n, self.n_row_tiles, cs).transpose(1, 0, 2)
        return np.ascontiguousarray(strips) @ self._fused_weights, n

    def reseed_sampling(self, seed: SeedLike) -> None:
        """Deterministically reseed every sampler in the layer.

        Replaces the layer RNG and re-derives each tile's generator plus
        the fused sampler's from it, so two layers reseeded with the
        same value replay identical stochastic draws regardless of prior
        use. :class:`repro.api.Session` uses this to own RNG state.

        The fused sampler is reseeded at once; the tile seeds are drawn
        now (the stream is the same) but applied on the next read of
        :attr:`tiles`, so the fused path, which never reads them, pays
        one reseed per layer.
        """
        self.reseed(seed)
        children = self.rng.integers(
            0, 2**63 - 1, size=self.n_row_tiles * self.n_col_tiles + 1
        )
        self._pending_tile_seeds = children[:-1]
        if self._fused_sampler is not None:
            self._fused_sampler.reseed(int(children[-1]))

    def _forward_fused(self, activations: np.ndarray, validate=None) -> np.ndarray:
        """Fused-count execution: batched matmul + one Binomial draw.

        Column values for all K row strips are computed against the
        padded ``(K, Cs, out)`` weight block in one batched matmul, the
        ``(K, N, out)`` window counts are drawn through the shared
        sampler in one call, and the accumulation module compares the
        summed counts — nothing per-bit is ever materialized.
        """
        values, n = self._fused_values(activations, validate)
        counts = self._fused_sampler._sample_counts_for_values(
            values, self.config.window_bits
        )
        self.n_passes += self.n_row_tiles * self.n_col_tiles
        self.n_inferences += n
        return self.module.accumulate_counts(counts)

    def expected_preactivation(self, activations: np.ndarray) -> np.ndarray:
        """Deterministic E[total count] - reference (diagnostic path)."""
        chunks = self._split_activations(activations)
        outputs = []
        for j in range(self.n_col_tiles):
            probs = np.stack(
                [
                    self.tiles[i][j].output_probabilities(chunks[i])
                    for i in range(self.n_row_tiles)
                ],
                axis=0,
            )
            expected = self.module.expected_value(probs)
            outputs.append(expected - self.module.reference)
        return np.concatenate(outputs, axis=-1)

    def ideal_output(self, activations: np.ndarray) -> np.ndarray:
        """Noise-free reference: sign of the exact integer pre-activation."""
        a = self._normalize_activations(activations)
        full = np.concatenate(
            [np.concatenate([t.weights for t in row], axis=1) for row in self.tiles],
            axis=0,
        )
        thresholds = np.concatenate(
            [t.threshold_ua for t in self.tiles[0]]
        ) * self.n_row_tiles
        vth = thresholds / self.config.unit_current_ua
        return np.where(a @ full >= vth, 1.0, -1.0)

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.forward(activations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TiledLinearLayer({self.in_features}->{self.out_features}, "
            f"tiles={self.n_row_tiles}x{self.n_col_tiles}, "
            f"Cs={self.config.crossbar_size}, L={self.config.window_bits})"
        )


class AqfpAccelerator:
    """A pipeline of tiled layers — the full in-memory BNN engine.

    The accelerator executes +-1 activations through each
    :class:`TiledLinearLayer` in order. Convolution lowering (im2col) and
    BN matching are handled by the compiler in :mod:`repro.mapping`; the
    accelerator itself is dataflow only.
    """

    def __init__(self, layers: Optional[Sequence[TiledLinearLayer]] = None) -> None:
        self.layers: List[TiledLinearLayer] = list(layers or [])

    def append(self, layer: TiledLinearLayer) -> None:
        self.layers.append(layer)

    def forward(self, activations: np.ndarray) -> np.ndarray:
        x = activations
        for layer in self.layers:
            x = layer(x)
        return x

    def __call__(self, activations: np.ndarray) -> np.ndarray:
        return self.forward(activations)

    def __len__(self) -> int:
        return len(self.layers)
