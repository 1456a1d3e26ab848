"""Benchmark-suite fixtures: result reporting to benchmarks/results/,
plus a ``--bench-json`` option that appends the timed kernel results to a
JSON trajectory file so perf is tracked across PRs."""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "Append this run's pytest-benchmark timings to PATH as JSON "
            "(e.g. BENCH_kernels.json). Each invocation adds one run "
            "entry, so the file accumulates the perf trajectory."
        ),
    )
    parser.addoption(
        "--bench-label",
        action="store",
        default=None,
        metavar="TEXT",
        help=(
            "Label recorded on the run entry appended by --bench-json. "
            "Without it the label is derived from the current git HEAD, "
            "so every appended run is attributable — the trajectory file "
            "is only useful when each row says what code produced it."
        ),
    )


def _derived_label() -> str:
    """A git-derived fallback label: short sha + HEAD subject (plus a
    dirty marker), so unlabeled ``make bench`` runs still record which
    code produced them."""
    try:
        here = pathlib.Path(__file__).parent
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=here, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        subject = subprocess.run(
            ["git", "log", "-1", "--format=%s"],
            cwd=here, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=here, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not sha:
            return "unlabeled (no git metadata)"
        mark = "+dirty" if dirty else ""
        return f"auto @ {sha}{mark}: {subject}"
    except (OSError, subprocess.SubprocessError):
        return "unlabeled (no git metadata)"


def _host() -> dict:
    """The fingerprint a timing row needs to be compared at all."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _stats_summary(bench) -> dict:
    data = bench.as_dict(include_data=False, stats=True)
    stats = data.get("stats", {})
    return {
        "mean_s": stats.get("mean"),
        "min_s": stats.get("min"),
        "stddev_s": stats.get("stddev"),
        "rounds": stats.get("rounds"),
    }


def pytest_sessionfinish(session, exitstatus):
    path = session.config.getoption("--bench-json")
    if not path:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    target = pathlib.Path(path)
    runs = []
    if target.exists():
        try:
            runs = json.loads(target.read_text()).get("runs", [])
        except (json.JSONDecodeError, AttributeError):
            runs = []
    label = session.config.getoption("--bench-label") or _derived_label()
    runs.append(
        {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "label": label,
            "host": _host(),
            "benchmarks": {
                bench.name: _stats_summary(bench)
                for bench in bench_session.benchmarks
            },
        }
    )
    target.write_text(json.dumps({"runs": runs}, indent=2) + "\n")


@pytest.fixture
def report():
    """Write a named result table to benchmarks/results/<name>.txt and stdout.

    Each benchmark regenerates a paper table/figure; the text artifact
    survives pytest's output capture so EXPERIMENTS.md can quote it.
    """

    def _report(name: str, lines) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(str(line) for line in lines) + "\n"
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        print(f"\n=== {name} ===\n{text}")

    return _report


def run_once(benchmark, fn, *args, **kwargs):
    """Time a heavy experiment exactly once (training runs are not
    repeatable at benchmark granularity)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
