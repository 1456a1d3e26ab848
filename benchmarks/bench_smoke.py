"""Standard-burst smoke gate for the warm-pool adaptive row.

Rebuilds the exact engine/burst the kernel-benchmark session rows time
(288->144 on Cs=36, 256 images x micro-batch 32 = 8 shards, 8192
windows), warms a single-worker adaptive scheduler, and checks three
things:

1. The cost-model chooser — with no ``REPRO_FORCE_SCHEDULER`` anywhere —
   routes the warm burst to a pooled mode.
2. The pooled logits are bit-identical to a serial session with the
   same seed.
3. The pooled mode has not regressed more than ``--threshold`` (default
   20%) against the committed ``BENCH_kernels.json`` trajectory.

Wall-clock times recorded on one machine mean nothing on another, so
the regression check compares the *pooled/serial ratio*: this run's
``adaptive-warm / serial`` minimum against the same ratio from the most
recent committed run that carries both rows. A ratio drift >threshold
fails the gate; the absolute times are printed for the log.

A gate that cannot find its reference fails: when no committed run
carries both rows (or the trajectory file is missing or unreadable)
the script exits 1 without measuring. Record one with ``make bench``.

Skipping: record the reference run with a label containing
``[skip-bench-smoke]`` (e.g. ``make bench
BENCH_LABEL='... [skip-bench-smoke]'``) and the gate passes without
measuring — the one escape hatch, for rows known to be
unrepresentative (e.g. recorded on a loaded machine).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
POOLED_ROW = "test_perf_session_adaptive_warm_pool"
SERIAL_ROW = "test_perf_session_serial_stochastic"
SKIP_TOKEN = "[skip-bench-smoke]"


class MissingReference(Exception):
    """No committed run the gate can compare against."""


def reference_ratio(trajectory: pathlib.Path):
    """(ratio, label) from the newest committed run carrying both rows.

    The ratio is None when that run is labeled ``[skip-bench-smoke]``.
    Raises :class:`MissingReference` when there is no such run.
    """
    if not trajectory.exists():
        raise MissingReference(f"no trajectory file at {trajectory}")
    try:
        runs = json.loads(trajectory.read_text()).get("runs", [])
    except (json.JSONDecodeError, AttributeError):
        raise MissingReference(f"unreadable trajectory file at {trajectory}")
    for run in reversed(runs):
        rows = run.get("benchmarks", {})
        pooled = (rows.get(POOLED_ROW) or {}).get("min_s")
        serial = (rows.get(SERIAL_ROW) or {}).get("min_s")
        if not pooled or not serial:
            continue
        label = run.get("label") or ""
        if SKIP_TOKEN in label:
            return None, label
        return pooled / serial, label
    raise MissingReference(
        f"no committed run in {trajectory} carries both {POOLED_ROW} "
        f"and {SERIAL_ROW}"
    )


def measure(rounds: int):
    """Run the standard burst: returns (pooled_min_s, serial_min_s)
    after asserting the chooser picked a pooled mode bit-identically."""
    import numpy as np

    from repro.api import AdaptiveScheduler, Engine
    from repro.hardware.accelerator import TiledLinearLayer
    from repro.hardware.config import HardwareConfig
    from repro.mapping.compiler import (
        CompiledNetwork,
        HeadStage,
        LinearStage,
        SignStage,
    )

    rng = np.random.default_rng(0)

    def pm(shape):
        return np.where(rng.random(shape) < 0.5, 1.0, -1.0)

    cfg = HardwareConfig(crossbar_size=36, window_bits=8)
    layer = TiledLinearLayer(cfg, pm((288, 144)), seed=0)
    head = HeadStage(
        weight=pm((10, 144)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    engine = Engine(network, micro_batch=32)
    images = pm((256, 288))
    engine.run(images[:32], seed=0)  # warm sampler tables once

    def min_of(session):
        session.run(images)  # settle
        best = None
        for _ in range(rounds):
            start = time.perf_counter()
            session.run(images)
            wall = time.perf_counter() - start
            best = wall if best is None else min(best, wall)
        return best

    with engine.session(seed=0, backend="stochastic") as session:
        serial_logits = session.run(images).logits
        serial_min = min_of(session)

    with AdaptiveScheduler(workers=1) as scheduler:
        scheduler.warm(engine.network, inner="stochastic")
        with engine.session(
            seed=0, backend="stochastic", scheduler=scheduler
        ) as session:
            pooled = session.run(images)
            modes = {d.mode for d in pooled.decisions}
            if modes != {"shard-parallel"}:
                raise SystemExit(
                    f"FAIL: warm chooser picked {sorted(modes)}, expected "
                    "the pooled mode ['shard-parallel']"
                )
            if not np.array_equal(pooled.logits, serial_logits):
                raise SystemExit(
                    "FAIL: pooled logits are not bit-identical to serial"
                )
            pooled_min = min_of(session)
    return pooled_min, serial_min


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--bench-json",
        default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="committed trajectory file holding the reference rows",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.20,
        help="maximum allowed pooled/serial ratio drift (1.20 = +20%%)",
    )
    parser.add_argument(
        "--rounds", type=int, default=5, help="timed repetitions (min taken)"
    )
    args = parser.parse_args(argv)

    try:
        ref, label = reference_ratio(pathlib.Path(args.bench_json))
    except MissingReference as exc:
        print(f"bench-smoke: FAIL ({exc}); record one with `make bench`")
        return 1
    if ref is None:
        print(f"bench-smoke: SKIP (reference run labeled {SKIP_TOKEN}: {label!r})")
        return 0
    pooled_min, serial_min = measure(args.rounds)
    ratio = pooled_min / serial_min
    print(
        f"bench-smoke: pooled {pooled_min * 1e3:.2f}ms serial "
        f"{serial_min * 1e3:.2f}ms ratio {ratio:.3f} "
        f"(committed {ref:.3f}, from {label!r})"
    )
    if ratio > args.threshold * ref:
        print(
            f"bench-smoke: FAIL — pooled/serial ratio {ratio:.3f} exceeds "
            f"{args.threshold:.2f}x the committed {ref:.3f}"
        )
        return 1
    print("bench-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
