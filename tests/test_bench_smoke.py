"""The bench-smoke gate must be able to fail.

``benchmarks/bench_smoke.py`` compares this run's pooled/serial ratio
with the newest committed run in ``BENCH_kernels.json`` that carries
both reference rows. When no such run exists there is nothing to
compare against, and the gate exits 1. A run labeled
``[skip-bench-smoke]`` is the only way to pass without measuring.
Neither case measures anything, so these tests run in well under a
second.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_smoke.py"
POOLED = "test_perf_session_adaptive_warm_pool"
SERIAL = "test_perf_session_serial_stochastic"


def _run(tmp_path, runs):
    """Run the gate on a trajectory holding ``runs`` (a list, raw file
    text, or None for no file)."""
    trajectory = tmp_path / "BENCH_kernels.json"
    if runs is not None:
        text = runs if isinstance(runs, str) else json.dumps({"runs": runs})
        trajectory.write_text(text)
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--bench-json", str(trajectory)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _row(min_s):
    return {"min_s": min_s, "mean_s": min_s, "stddev_s": 0.0, "rounds": 5}


@pytest.mark.parametrize(
    "runs",
    [
        None,  # no trajectory file at all
        [],
        # The serial row alone, as in every run before the warm-pool row.
        [{"label": "old", "benchmarks": {SERIAL: _row(0.01)}}],
        # Both rows, but in different runs.
        [
            {"label": "a", "benchmarks": {POOLED: _row(0.01)}},
            {"label": "b", "benchmarks": {SERIAL: _row(0.01)}},
        ],
    ],
    ids=["no-file", "no-runs", "serial-only", "split-runs"],
)
def test_missing_reference_row_fails(tmp_path, runs):
    proc = _run(tmp_path, runs)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "bench-smoke: FAIL" in proc.stdout


def test_unreadable_trajectory_fails(tmp_path):
    proc = _run(tmp_path, "{not json")
    assert proc.returncode == 1
    assert "unreadable" in proc.stdout


def test_skip_label_is_the_only_opt_out(tmp_path):
    runs = [
        {
            "label": "loaded host [skip-bench-smoke]",
            "benchmarks": {POOLED: _row(0.01), SERIAL: _row(0.01)},
        }
    ]
    proc = _run(tmp_path, runs)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "bench-smoke: SKIP" in proc.stdout


def test_committed_trajectory_has_a_reference_run():
    spec = importlib.util.spec_from_file_location("bench_smoke", SCRIPT)
    bench_smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_smoke)
    ratio, label = bench_smoke.reference_ratio(
        SCRIPT.parent.parent / "BENCH_kernels.json"
    )
    assert ratio is None or ratio > 0, label
