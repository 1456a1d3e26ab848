"""Smoke mode: short traced runs, then the benchmark checks its own
arithmetic against them.

* percentiles: recomputed from raw values with the textbook formula;
* self times: over the recorded burst-serial spans, every root's
  duration must equal the sum of the self times in its tree;
* SLO interpolation: a ladder with a known crossing.

Exit 0 when every check holds; each failure is printed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import metrics

SMOKE_SECONDS = "1.5"


def _check_percentiles(fail) -> None:
    values = [float(v) for v in range(1, 101)]
    for q, expected in ((0, 1.0), (50, 50.5), (95, 95.05), (100, 100.0)):
        got = metrics.percentile(values, q)
        if abs(got - expected) > 1e-9:
            fail(f"percentile({q}) = {got}, expected {expected}")
    if metrics.highest_supported_percentile(200) != 95.0:
        fail("200 samples must support p95 and not p99")


def _check_slo(fail) -> None:
    ladder = [(100.0, 20.0, True), (200.0, 40.0, True), (300.0, 80.0, True)]
    got = metrics.rps_at_slo(ladder, 60.0, 1000.0)
    if abs(got - 250.0) > 1e-9:
        fail(f"rps_at_slo crossing = {got}, expected 250")
    nudged = metrics.rps_at_slo(
        [(100.0, 20.0, True), (200.0, 40.0, True), (300.0, 80.1, True)], 60.0, 1000.0
    )
    if not 0 < got - nudged < 1.0:
        fail("rps_at_slo must move continuously with the failing rung's p95")


def _check_self_times(spans, fail) -> None:
    spans = [tuple(s) for s in spans]
    table = metrics.self_times(spans)
    roots = sum(end - start for _n, start, end, parent in spans if parent < 0)
    owned = sum(entry["self_s"] for entry in table.values())
    if abs(roots - owned) > 1e-6 * max(1.0, len(spans)):
        fail(f"self times sum to {owned:.6f}s but roots span {roots:.6f}s")


def _run(root: Path, here: Path, workload: str) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(here / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", SMOKE_SECONDS,
            "--trace", "1",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} smoke run failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(root: Path, here: Path) -> int:
    failures = []
    fail = failures.append
    _check_percentiles(fail)
    _check_slo(fail)

    burst = _run(root, here, "burst-serial")
    spans = json.loads((root / ".perfbench" / "spans-burst-serial-1.json").read_text())
    _check_self_times(spans, fail)
    coverage = burst["metrics"]["trace.self_time_coverage"]["value"]
    if coverage < 0.9:
        fail(f"burst-serial layer self times cover {coverage:.3f} of Session.run, < 0.9")

    wire = _run(root, here, "wire-trickle")
    for name in ("runtime.daemon.queue_wait_ms_p50", "net.ping_rtt_ms_p50"):
        if wire["metrics"][name]["value"] <= 0:
            fail(f"wire-trickle {name} was not measured")
    for result, name in ((burst, "burst-serial"), (wire, "wire-trickle")):
        if not result["correct"] or result["failed"]:
            fail(f"{name}: correctness gate failed")

    for message in failures:
        print(f"smoke: FAIL {message}")
    print(f"smoke: {'OK' if not failures else f'{len(failures)} failure(s)'}")
    return 1 if failures else 0
