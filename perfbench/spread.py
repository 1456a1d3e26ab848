"""Run one workload on several seeds and report each end-to-end
metric's spread: the inter-quartile distance over the median, the
figure the benchmark's bounds are judged against.

    python3 perfbench/spread.py --workload NAME [--seeds 1 2 ...] [--seconds S]

Runs are sequential (the host has few cores; overlapping runs would
measure each other). Exits 1 when a spread other than ``setup_s``
exceeds its metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import iqr_share

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
        )
        if out.returncode != 0:
            print(out.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
        ), flush=True)

    worst = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        share = iqr_share(values[name])
        flag = "" if name == "setup_s" or share <= bound else "  OVER BOUND"
        worst |= bool(flag)
        print(
            f"{name:26s} median {statistics.median(values[name]):12.4f} "
            f"spread {share:.3f} (bound {bound}){flag}"
        )
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
