"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The workloads, their metrics and the
bounds live in ``BENCHMARK.json``; ``perfbench/README.md`` says what
each number means. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. A line before it carries the host fingerprint and the
sample counts behind the numbers.

The command runs the workload in a child process and watches it: the
child's ``resource_tracker`` warnings can only be counted from outside,
and a child that hangs is killed so the run still ends in time. A run
whose outputs fail the correctness gate exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD_TIMEOUT_S = 170.0
WORKLOADS = ("burst-serial", "burst-pooled", "wire-trickle", "wire-load")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short traced runs of burst-serial and wire-trickle, then "
        "check the benchmark's own arithmetic on their results",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


# ----------------------------------------------------------------------
# Child: run one workload and print its raw result.
# ----------------------------------------------------------------------
def _child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fail fast, before any output, without the program)

    import host

    fingerprint = host.fingerprint(ROOT)
    if args.workload.startswith("burst-"):
        import burst

        raw = burst.run(
            args.seed, args.seconds, bool(args.trace), args.workload == "burst-pooled"
        )
    else:
        import wire

        shape = wire.TRICKLE if args.workload == "wire-trickle" else wire.LOAD
        raw = wire.run(ROOT, args.seed, args.seconds, bool(args.trace), shape)
    raw["e2e"]["peak_rss_mb"] = host.peak_rss_mb()
    raw["details"]["host"] = fingerprint
    spans = raw.pop("spans")
    if args.trace:
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        (out / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(spans))
    print(json.dumps(raw, default=float))
    return 0


# ----------------------------------------------------------------------
# Parent: run the child, account for teardown, print the result.
# ----------------------------------------------------------------------
def _run_child(args) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A session of its own, so a hung run is killed with every process
    # it started (server, pool workers), not just the child.
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stderr.write(err)
        raise SystemExit(f"{args.workload}: timed out after {CHILD_TIMEOUT_S:.0f}s")
    except BaseException:  # interrupted or terminated: take the run down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: exited with {proc.returncode}")
    import host

    raw = json.loads(out.strip().splitlines()[-1])
    raw["layer"]["runtime.teardown.tracker_warnings"] = host.tracker_warnings(err)
    return raw


def _result(raw: dict, spec: dict, trace: bool) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = raw["layer"] if trace else raw["e2e"]
    out = {}
    for metric in listed:
        name = metric["name"]
        if trace:
            # A layer the workload never reaches did no work in it.
            value = float(values.get(name, 0.0))
        else:
            value = float(values[name])
        out[name] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": out,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if args.smoke:
        import smoke

        return smoke.main(ROOT, HERE)
    spec = _spec()
    # SIGTERM as an exception, so the child's process group is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.perf_counter()
    raw = _run_child(args)
    raw["details"]["wall_s"] = time.perf_counter() - started
    print(json.dumps({"workload": args.workload, "seed": args.seed, **raw["details"]}))
    result = _result(raw, spec, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
