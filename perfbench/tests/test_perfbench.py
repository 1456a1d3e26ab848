"""Tests of the benchmark's own arithmetic, and its smoke mode.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert metrics.percentile(values, 0) == 1.0
    assert metrics.percentile(values, 50) == 3.0
    assert metrics.percentile(values, 95) == pytest.approx(4.8)
    assert metrics.percentile(values, 100) == 5.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_highest_supported_percentile_needs_ten_beyond():
    assert metrics.highest_supported_percentile(19) is None
    assert metrics.highest_supported_percentile(100) == 90.0
    assert metrics.highest_supported_percentile(200) == 95.0
    assert metrics.highest_supported_percentile(1000) == 99.0


def test_blocks_by_time_cuts_consecutive_blocks_and_folds_a_short_tail():
    samples = [(10.0 + 0.25 * i, float(i)) for i in range(9)]  # 10.0 .. 12.0 s
    blocks = metrics.blocks_by_time(samples, 1.0)
    assert blocks == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0, 8.0]]
    assert metrics.blocks_by_time(samples[:6], 1.0) == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0]]
    with pytest.raises(ValueError):
        metrics.blocks_by_time([], 1.0)


def test_blocked_percentile_ignores_one_slow_block():
    quiet = [10.0] * 19 + [11.0]
    slow = [10.0] * 10 + [90.0] * 10
    assert metrics.blocked_percentile([quiet, slow, quiet], 95) == pytest.approx(10.05)


def test_rps_at_slo_interpolates_from_highest_passing_rung():
    ladder = [(100.0, 20.0, True), (200.0, 40.0, True), (300.0, 80.0, True)]
    assert metrics.rps_at_slo(ladder, 60.0, 1000.0) == pytest.approx(250.0)
    # A transient miss below a passing rung does not cap the result.
    bumpy = [(100.0, 70.0, True), (200.0, 40.0, True), (300.0, 80.0, True)]
    assert metrics.rps_at_slo(bumpy, 60.0, 1000.0) == pytest.approx(250.0)
    # An unclean rung counts as at least fail_ms.
    unclean = [(100.0, 20.0, True), (200.0, 40.0, False)]
    assert metrics.rps_at_slo(unclean, 60.0, 1000.0) == pytest.approx(
        100.0 + 100.0 * 40.0 / 980.0
    )
    assert metrics.rps_at_slo(ladder[:2], 60.0, 1000.0) == 200.0
    assert metrics.rps_at_slo([(100.0, 120.0, True)], 60.0, 1000.0) == 50.0


def test_self_times_subtract_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
    ]
    table = metrics.self_times(spans)
    assert table["root"]["self_s"] == pytest.approx(3.0)
    assert table["a"]["total_s"] == pytest.approx(7.0)
    assert table["a"]["self_s"] == pytest.approx(6.0)
    assert table["a"]["calls"] == 2
    assert table["b"]["self_s"] == pytest.approx(1.0)
    assert sum(e["self_s"] for e in table.values()) == pytest.approx(10.0)
    assert metrics.root_coverage(table, "root") == pytest.approx(0.7)


def test_iqr_share_uses_statistics_quartiles():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(n=4) of 1..10: 2.75, 5.5, 8.25
    assert metrics.iqr_share(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_smoke_mode():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=400,
    )
    assert out.returncode == 0, out.stdout + out.stderr[-3000:]
    assert "smoke: OK" in out.stdout
