"""Weight rectified clamp — ReCU (paper Eq. 17, following [75]).

Real-valued weights of a binarized layer drift into a zero-mean Laplace
shape with heavy tails; tail weights almost never flip sign under SGD
("dead weights"). ReCU revives them by clamping each layer's weights to
the ``[Q(1 - tau), Q(tau)]`` quantile interval, with ``tau`` annealed
from 0.85 to 0.99 over training (paper Sec. 6.1).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.autograd.module import Module, Parameter


class TauSchedule:
    """Linear annealing of tau from ``tau_start`` to ``tau_end``.

    ``value(epoch)`` is clamped to the end value after ``total_epochs``.
    """

    def __init__(
        self,
        tau_start: float = 0.85,
        tau_end: float = 0.99,
        total_epochs: int = 100,
    ) -> None:
        if not 0.5 < tau_start <= 1.0 or not 0.5 < tau_end <= 1.0:
            raise ValueError("tau values must lie in (0.5, 1]")
        if tau_end < tau_start:
            raise ValueError("tau_end must be >= tau_start")
        if total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
        self.tau_start = tau_start
        self.tau_end = tau_end
        self.total_epochs = total_epochs

    def value(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        if self.total_epochs == 1:
            return self.tau_end
        t = min(epoch / (self.total_epochs - 1), 1.0)
        return self.tau_start + (self.tau_end - self.tau_start) * t


class ReCU:
    """Apply the rectified clamp in place to a set of weight tensors.

    Only multi-element weight tensors are clamped (per-channel alphas,
    BN parameters, and biases are left alone).
    """

    def __init__(self, schedule: TauSchedule = None) -> None:
        self.schedule = schedule or TauSchedule()

    @staticmethod
    def clamp_array(weights: np.ndarray, tau: float) -> np.ndarray:
        """Eq. 17: clamp to the [Q(1-tau), Q(tau)] quantile interval."""
        if not 0.5 < tau <= 1.0:
            raise ValueError(f"tau must be in (0.5, 1], got {tau}")
        # One call partitions the weights once for both bounds.
        q_lo, q_hi = np.quantile(weights, [1.0 - tau, tau])
        return np.clip(weights, q_lo, q_hi)

    def apply_to_parameters(self, parameters: Iterable[Parameter], epoch: int) -> float:
        """Clamp every conv/linear weight in place; returns tau used."""
        tau = self.schedule.value(epoch)
        for p in parameters:
            if p.data.ndim >= 2:  # conv / linear weights only
                p.data = self.clamp_array(p.data, tau)
        return tau

    def apply_to_module(self, module: Module, epoch: int) -> float:
        """Clamp the ``weight`` parameters of all binarized cells."""
        tau = self.schedule.value(epoch)
        for _, sub in module.named_modules():
            weight = getattr(sub, "weight", None)
            if isinstance(weight, Parameter) and weight.data.ndim >= 2:
                weight.data = self.clamp_array(weight.data, tau)
        return tau
