"""Deterministic synthetic image classification tasks.

Each class is a smooth random prototype (low-pass filtered noise, so the
patterns have MNIST/CIFAR-like spatial correlation); samples are the
prototype under random gain, shift (translation), and additive noise.
Difficulty is controlled by the noise scale: the defaults produce tasks
where a small BNN reaches high but not trivial accuracy, which is what
the accuracy-vs-hardware-configuration experiments need (they measure
*degradation*, so the clean task must have headroom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


@dataclass
class Dataset:
    """Images (N, C, H, W) in [-1, 1] and integer labels (N,)."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels must have equal length")
        if self.n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.n_classes}")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def split(self, train_fraction: float = 0.8, seed: SeedLike = 0):
        """Shuffled train/test split; returns (train, test) Datasets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = new_rng(seed)
        order = rng.permutation(len(self))
        cut = int(len(self) * train_fraction)
        train_idx, test_idx = order[:cut], order[cut:]
        return (
            Dataset(self.images[train_idx], self.labels[train_idx], self.n_classes),
            Dataset(self.images[test_idx], self.labels[test_idx], self.n_classes),
        )

    def subset(self, n: int) -> "Dataset":
        """First ``n`` samples (deterministic)."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return Dataset(self.images[:n], self.labels[:n], self.n_classes)


def _smooth_prototypes(
    n_classes: int, channels: int, height: int, width: int, rng: np.random.Generator
) -> np.ndarray:
    """Low-pass-filtered noise prototypes, normalized to unit max-abs."""
    # Local: scipy.ndimage is only needed to build synthetic datasets,
    # so importing repro (and serving) does not pay for it.
    from scipy import ndimage

    protos = rng.normal(size=(n_classes, channels, height, width))
    sigma = max(min(height, width) / 8.0, 0.8)
    protos = ndimage.gaussian_filter(protos, sigma=(0, 0, sigma, sigma))
    max_abs = np.abs(protos).reshape(n_classes, -1).max(axis=1)
    return protos / max_abs[:, None, None, None]


def make_classification_images(
    n_samples: int,
    n_classes: int = 10,
    image_shape: Tuple[int, int, int] = (1, 12, 12),
    noise_scale: float = 0.45,
    max_shift: int = 1,
    seed: SeedLike = 0,
) -> Dataset:
    """Generate a structured image classification dataset.

    Parameters
    ----------
    n_samples:
        Total number of images (classes are balanced up to rounding).
    noise_scale:
        Additive Gaussian noise standard deviation (task difficulty).
    max_shift:
        Uniform random translation in pixels per axis.
    """
    if n_samples < n_classes:
        raise ValueError("need at least one sample per class")
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be >= 0, got {noise_scale}")
    channels, height, width = image_shape
    rng = new_rng(seed)
    protos = _smooth_prototypes(n_classes, channels, height, width, rng)

    labels = rng.integers(0, n_classes, size=n_samples)
    gains = rng.uniform(0.8, 1.2, size=(n_samples, 1, 1, 1))
    images = protos[labels] * gains
    if max_shift > 0:
        shifts = rng.integers(-max_shift, max_shift + 1, size=(n_samples, 2))
        for i in range(n_samples):
            images[i] = np.roll(images[i], tuple(shifts[i]), axis=(1, 2))
    images = images + rng.normal(0.0, noise_scale, size=images.shape)
    images = np.clip(images, -1.0, 1.0)
    return Dataset(images.astype(np.float64), labels.astype(np.int64), n_classes)


def make_mnist_like(
    n_samples: int = 2000,
    image_size: int = 12,
    n_classes: int = 10,
    noise_scale: float = 0.4,
    seed: SeedLike = 0,
) -> Dataset:
    """MNIST stand-in: single-channel structured digits-like task."""
    return make_classification_images(
        n_samples,
        n_classes=n_classes,
        image_shape=(1, image_size, image_size),
        noise_scale=noise_scale,
        seed=seed,
    )


def make_cifar_like(
    n_samples: int = 2000,
    image_size: int = 16,
    n_classes: int = 10,
    noise_scale: float = 0.5,
    seed: SeedLike = 0,
) -> Dataset:
    """CIFAR-10 stand-in: three-channel structured task."""
    return make_classification_images(
        n_samples,
        n_classes=n_classes,
        image_shape=(3, image_size, image_size),
        noise_scale=noise_scale,
        seed=seed,
    )
