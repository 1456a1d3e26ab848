"""Hardware-configuration co-optimization (paper Sec. 5.4).

Two error sources couple the hardware knobs to model accuracy:

1. the *average mismatch error* (AME, Eq. 18) — the AQFP buffer's
   nonlinear erf response makes the expected value carried by the
   stochastic stream deviate from the true pre-activation:

       AME = (1/Cs) * Int_{-Cs}^{+Cs} f(x|Cs) (x - y(x))^2 dx,
       y(x) = erf( sqrt(pi) (x - Vth) / dVin(Cs) ) * Cs,
       f(x|Cs) ~ N(Cs mu, Cs sigma^2);

2. stochastic-computing error, which shrinks with bit-stream length and
   is characterized empirically (Fig. 10; saturation at L = 16-32).

``optimize_hardware_config`` grid-searches (dIin, Cs) minimizing AME
under an energy-efficiency constraint on Cs, mirroring Sec. 5.4.2;
``sweep_bitstream_lengths`` is the harness behind the Fig. 10 bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.attenuation import AttenuationModel
from repro.hardware.config import HardwareConfig

_SQRT_PI = math.sqrt(math.pi)


def average_mismatch_error(
    crossbar_size: int,
    gray_zone_ua: float,
    attenuation: Optional[AttenuationModel] = None,
    activation_mean: float = 0.0,
    activation_std: float = 1.0,
    threshold_value: float = 0.0,
) -> float:
    """AME of one crossbar configuration (paper Eq. 18).

    ``activation_mean`` / ``activation_std`` are the per-cell statistics
    ``mu`` and ``sigma``; the column value is their ``Cs``-fold
    aggregate ``N(Cs mu, Cs sigma^2)``.
    """
    if crossbar_size < 1:
        raise ValueError(f"crossbar_size must be >= 1, got {crossbar_size}")
    if gray_zone_ua <= 0:
        raise ValueError(f"gray_zone_ua must be > 0, got {gray_zone_ua}")
    if activation_std <= 0:
        raise ValueError(f"activation_std must be > 0, got {activation_std}")
    attenuation = attenuation or AttenuationModel()
    cs = crossbar_size
    dvin = float(attenuation.value_domain_gray_zone(cs, gray_zone_ua))
    mu = cs * activation_mean
    sigma = math.sqrt(cs) * activation_std
    # Local: scipy.stats/integrate add ~1 s and ~45 MB to any import
    # (2-vCPU host), and only this Sec. 5.4 integral needs them.
    from scipy import integrate, stats

    density = stats.norm(loc=mu, scale=sigma)

    def integrand(x: float) -> float:
        y = math.erf(_SQRT_PI * (x - threshold_value) / dvin) * cs
        return density.pdf(x) * (x - y) ** 2

    value, _ = integrate.quad(integrand, -cs, cs, limit=200)
    return value / cs


@dataclass(frozen=True)
class CooptResult:
    """Winner of the (dIin, Cs) grid search plus the full surface."""

    best_config: HardwareConfig
    best_ame: float
    grid: List[Dict[str, float]]


def optimize_hardware_config(
    gray_zones_ua: Sequence[float],
    crossbar_sizes: Sequence[int],
    attenuation: Optional[AttenuationModel] = None,
    activation_mean: float = 0.0,
    activation_std: float = 1.0,
    max_energy_per_cycle_aj: Optional[float] = None,
    window_bits: int = 16,
) -> CooptResult:
    """Grid-search (dIin, Cs) minimizing AME under an energy constraint.

    ``max_energy_per_cycle_aj`` bounds the per-crossbar energy (Table 1
    column); sizes exceeding it are excluded, mirroring "first constrain
    Cs to a range that meets the energy efficiency demand" (Sec. 5.4.2).
    """
    from repro.hardware.cost import CrossbarCost

    if not gray_zones_ua or not len(crossbar_sizes):
        raise ValueError("need at least one gray zone and one crossbar size")
    attenuation = attenuation or AttenuationModel()

    feasible_sizes = []
    for cs in crossbar_sizes:
        if max_energy_per_cycle_aj is not None:
            if CrossbarCost(cs).energy_per_cycle_aj > max_energy_per_cycle_aj:
                continue
        feasible_sizes.append(cs)
    if not feasible_sizes:
        raise ValueError("energy constraint excludes every crossbar size")

    grid: List[Dict[str, float]] = []
    best: Optional[Tuple[float, float, int]] = None
    for dzi in gray_zones_ua:
        for cs in feasible_sizes:
            ame = average_mismatch_error(
                cs,
                dzi,
                attenuation=attenuation,
                activation_mean=activation_mean,
                activation_std=activation_std,
            )
            grid.append({"gray_zone_ua": dzi, "crossbar_size": cs, "ame": ame})
            if best is None or ame < best[0]:
                best = (ame, dzi, cs)

    assert best is not None
    best_ame, best_dzi, best_cs = best
    config = HardwareConfig(
        crossbar_size=best_cs,
        gray_zone_ua=best_dzi,
        window_bits=window_bits,
        attenuation=attenuation,
    )
    return CooptResult(best_config=config, best_ame=best_ame, grid=grid)


def sweep_bitstream_lengths(
    evaluate: Callable[[int], float],
    lengths: Iterable[int] = (1, 2, 4, 8, 16, 32, 64),
) -> List[Dict[str, float]]:
    """Accuracy vs SC bit-stream length (the Fig. 10 harness).

    ``evaluate(L)`` must return accuracy under window length ``L``;
    returns ``[{"window_bits": L, "accuracy": acc}, ...]``.
    """
    results = []
    for length in lengths:
        if length < 1:
            raise ValueError(f"window length must be >= 1, got {length}")
        results.append({"window_bits": int(length), "accuracy": float(evaluate(length))})
    return results


def saturation_length(
    sweep: Sequence[Dict[str, float]], tolerance: float = 0.005
) -> int:
    """Smallest L whose accuracy is within ``tolerance`` of the best.

    The paper observes saturation at L = 16-32; this extracts the same
    statistic from a sweep produced by :func:`sweep_bitstream_lengths`.
    """
    if not sweep:
        raise ValueError("sweep must be non-empty")
    best = max(item["accuracy"] for item in sweep)
    for item in sorted(sweep, key=lambda r: r["window_bits"]):
        if item["accuracy"] >= best - tolerance:
            return int(item["window_bits"])
    return int(sweep[-1]["window_bits"])
