"""Pure arithmetic behind every number the benchmark prints.

Kept free of repro imports so the benchmark's own tests can check it in
isolation: percentiles, the SLO rate interpolation, and span self times.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile (``q`` in [0, 100]).

    Same definition as ``numpy.percentile``'s default: rank
    ``q / 100 * (n - 1)`` between the two neighbouring order statistics.
    Raises on an empty sample; a metric with no samples is a bug.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: Percentiles a sample may support, highest last.
SUPPORTED_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def blocks_by_time(samples: Sequence[Tuple[float, float]], block_s: float) -> List[List[float]]:
    """The values of ``(time_s, value)`` samples, cut into consecutive
    blocks ``block_s`` long starting at the earliest time.

    Empty blocks are dropped, and a last block holding fewer than half
    as many values as the first is folded into the one before it, so
    every block carries a comparable sample.
    """
    if not samples:
        raise ValueError("blocks of an empty sample")
    ordered = sorted(samples)
    start = ordered[0][0]
    blocks: Dict[int, List[float]] = {}
    for t, value in ordered:
        blocks.setdefault(int((t - start) // block_s), []).append(value)
    out = [blocks[k] for k in sorted(blocks)]
    if len(out) > 1 and len(out[-1]) < len(out[0]) / 2:
        out[-2].extend(out.pop())
    return out


def blocked_percentile(blocks: Sequence[Sequence[float]], q: float) -> float:
    """Median over ``blocks`` of each block's ``q`` percentile: a burst
    of interference from outside the program moves one block, not the
    result."""
    return median([percentile(b, q) for b in blocks])


def highest_supported_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest of :data:`SUPPORTED_PERCENTILES` with at least
    ``beyond`` samples above it in an ``n``-sample set (None if even
    the median is unsupported)."""
    best = None
    for q in SUPPORTED_PERCENTILES:
        if round(n * (100.0 - q) / 100.0, 9) >= beyond:
            best = q
    return best


def rps_at_slo(
    rungs: Sequence[Tuple[float, float, bool]], limit_ms: float, fail_ms: float
) -> float:
    """Highest rate that meets the latency limit.

    ``rungs`` are ``(rps, p95_ms, clean)`` in the ladder's ascending
    order of offered load; ``clean`` is False when the rung failed or
    shed a request.
    A rung passes when it is clean and its p95 is within ``limit_ms``;
    an unclean rung counts its p95 as at least ``fail_ms``. The result
    starts from the highest passing rung and interpolates linearly on
    p95 towards the rung above it, so it moves continuously with the
    measured latencies. When the top rung passes its rate is returned;
    when no rung passes, the lowest rate is scaled down in proportion
    to its p95.
    """
    if not rungs:
        raise ValueError("rps_at_slo needs at least one rung")
    if fail_ms <= limit_ms:
        raise ValueError("fail_ms must exceed limit_ms")
    rates = [r for r, _, _ in rungs]
    p95s = [p95 if clean else max(p95, fail_ms) for _, p95, clean in rungs]
    passing = [i for i, p95 in enumerate(p95s) if p95 <= limit_ms]
    if not passing:
        return rates[0] * limit_ms / p95s[0]
    lo = passing[-1]
    if lo == len(rungs) - 1:
        return rates[lo]
    frac = (limit_ms - p95s[lo]) / (p95s[lo + 1] - p95s[lo])
    return rates[lo] + frac * (rates[lo + 1] - rates[lo])


# ----------------------------------------------------------------------
# Span self times.
# ----------------------------------------------------------------------
#: One recorded span: (name, start_s, end_s, parent_index). Indices
#: refer to positions in the same list; -1 marks a root.
Span = Tuple[str, float, float, int]


def self_times(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover. Children of one parent run on the
    parent's thread and never overlap, so the covered part is the sum
    of the children's durations, clipped to the parent's interval.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            covered[parent] += max(0.0, min(end, p_end) - max(start, p_start))
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _parent), child in zip(spans, covered):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += max(0.0, duration - child)
    return out


def root_coverage(table: Dict[str, Dict[str, float]], root: str) -> float:
    """Share of the ``root`` spans' wall time that the layers beneath
    them account for, from a :func:`self_times` table: 1 minus the
    roots' own self time over their total time (1.0 means every
    microsecond is attributed to a layer)."""
    entry = table.get(root)
    if not entry or entry["total_s"] <= 0:
        return 0.0
    return 1.0 - entry["self_s"] / entry["total_s"]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(table: Dict[str, Dict[str, float]], requests: int) -> Dict[str, float]:
    """The kernel, hardware, plan, scheduler and ``Session.run`` metrics
    of a :func:`self_times` table. Shards are counted by
    ``seed_shard`` calls (every shard reseeds once); ``requests`` is the
    number of requests the spans cover."""

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0.0)

    shards = get("runtime.plan.seed_shard", "calls")

    def per_shard(name: str, key: str = "total_s") -> float:
        scale = 1.0 if key == "calls" else 1e3
        return ratio(get(name, key) * scale, shards)

    def per_request(name: str, key: str = "total_s") -> float:
        return ratio(get(name, key) * 1e3, requests)

    return {
        "sc.counts_by_quantile.ms_per_shard": per_shard("sc.counts_by_quantile"),
        "sc.counts_by_quantile.calls_per_shard": per_shard("sc.counts_by_quantile", "calls"),
        "sc.draws.ms_per_shard": per_shard("sc.draws"),
        "hardware.layer_forward.self_ms_per_shard": per_shard("hardware.layer_forward", "self_s"),
        "hardware.reseed_sampling.ms_per_shard": per_shard("hardware.reseed_sampling"),
        "hardware.reseed_sampling.calls_per_shard": per_shard("hardware.reseed_sampling", "calls"),
        "runtime.plan.seed_shard.ms_per_shard": per_shard("runtime.plan.seed_shard"),
        "runtime.plan.run_stages.self_ms_per_shard": per_shard("runtime.plan.run_stages", "self_s"),
        "runtime.plan.plan_shards.ms_per_request": per_request("runtime.plan.plan_shards"),
        "runtime.scheduler.run_shards.ms_per_request": per_request("runtime.scheduler.run_shards"),
        "runtime.scheduler.decide.ms_per_request": per_request("runtime.scheduler.decide"),
        "api.session_run.self_ms_per_request": per_request("api.session_run", "self_s"),
    }


def iqr_share(values: List[float]) -> float:
    """Inter-quartile distance over the median, as
    ``statistics.quantiles(values, n=4)`` defines the quartiles."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
