"""Command-line interface: regenerate the paper artifacts.

The pretty-printing subcommands cover the cheap artifacts::

    python -m repro.cli table1            # crossbar cost table
    python -m repro.cli fig4              # buffer probability curve
    python -m repro.cli fig5              # attenuation fit
    python -m repro.cli clocking          # Sec. 4.4 JJ reductions
    python -m repro.cli coopt             # AME grid + optimum
    python -m repro.cli fig12 --tops 9e5  # efficiency vs frequency

The generic ``run`` subcommand reaches *every* registered experiment
(``repro.api.experiments``), including the training-based ones, and
emits JSON::

    python -m repro.cli run --list                 # what exists
    python -m repro.cli run fig5                   # default arguments
    python -m repro.cli run table3 -k epochs=4 -k n_eval=100
    python -m repro.cli run fig10 -o fig10.json
    python -m repro.cli run fig10 --workers 4      # stochastic sessions run
                                                   # on a 4-worker shard pool

``backends`` lists the registered inference execution backends (and
their aliases). ``plan-inspect`` compiles a request into its
:class:`~repro.runtime.plan.ExecutionPlan` task DAG and prints the
per-stage tasks, window-cost estimates, and the adaptive scheduler's
cost-model decision (chosen mode + predicted wall time per candidate)::

    python -m repro.cli plan-inspect --batch 256 --workers 4
    python -m repro.cli plan-inspect --batch 8 --backend stochastic-packed
    python -m repro.cli plan-inspect --coefficients coeffs.json --tasks

``serve-bench`` trains a small reference model and
measures serving throughput of the coalescing ``ServingDaemon``, on the
serial in-process scheduler and on a ``ShardParallelScheduler`` pool
per ``--workers`` count (``--json`` dumps the report rows
machine-readably; every row carries the same fully-populated key
set)::

    python -m repro.cli serve-bench --workers 1 2 4 --requests 8
    python -m repro.cli serve-bench --json serve_bench.json

Every ``daemon-parallel`` response must equal the matching
``daemon-coalesced`` one bit for bit; ``serve-bench`` prints
``bit-identity: N/N`` and exits 1 on any mismatch.

``serve`` runs the asyncio network front-end in the foreground::

    python -m repro.cli serve --port 7433 --rate-limit 200

The wire benchmark is ``perfbench/run.py --workload wire-trickle`` or
``--workload wire-load``: an open-loop generator against ``serve`` that
bit-checks every response.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import List, Optional


def _to_jsonable(obj):
    """Best-effort conversion of experiment results to JSON types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _parse_override(pair: str):
    """``key=value`` with python-literal values (falls back to str)."""
    if "=" not in pair:
        raise argparse.ArgumentTypeError(
            f"override {pair!r} must look like key=value"
        )
    key, raw = pair.split("=", 1)
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key.strip(), value


def _cmd_run(args) -> int:
    from repro.api.experiments import (
        available_experiments,
        get_experiment,
        run_experiment,
    )

    if args.list or args.experiment is None:
        width = max(len(n) for n in available_experiments())
        for name in available_experiments():
            spec = get_experiment(name)
            print(f"{name:<{width}}  {spec.summary}")
        return 0

    overrides = dict(args.overrides or [])
    if args.workers:
        # Every "stochastic" session the experiment opens without a
        # scheduler runs its shards on this pool (bit-identical).
        from repro.api.engine import set_default_scheduler
        from repro.runtime.scheduler import ShardParallelScheduler

        pool = ShardParallelScheduler(workers=args.workers)
        previous = set_default_scheduler(pool)
        try:
            result = run_experiment(args.experiment, **overrides)
        finally:
            set_default_scheduler(previous)
            pool.close()
    else:
        result = run_experiment(args.experiment, **overrides)
    payload = json.dumps(_to_jsonable(result), indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.output}")
    else:
        print(payload)
    return 0


def _cmd_backends(args) -> int:
    from repro.api import available_backends, backend_aliases, get_backend

    aliases = backend_aliases()
    names = available_backends() + sorted(aliases)
    width = max(len(n) for n in names)
    for name in available_backends():
        print(f"{name:<{width}}  {getattr(get_backend(name), 'summary', '')}")
    for alias in sorted(aliases):
        print(f"{alias:<{width}}  alias of {aliases[alias]!r}")
    return 0


def _bench_hardware(args):
    from repro.hardware.config import HardwareConfig

    return HardwareConfig(
        crossbar_size=args.crossbar_size,
        gray_zone_ua=10.0,
        window_bits=args.window_bits,
    )


def _bench_engine(args):
    """Train the shared reference model and wrap it in an Engine.

    Also returns the trained model itself so multi-replica topologies
    can compile *additional* engines from it: ``Engine.from_model``
    compiles with a fixed seed, so every engine built from the same
    model carries identical weights and compile-time state — any
    replica's seeded response is bit-identical to any other's.
    """
    from repro.api import Engine
    from repro.experiments.common import trained_mlp

    print(f"training reference MLP (epochs={args.epochs}) ...")
    model, _, test, software_accuracy = trained_mlp(
        _bench_hardware(args), epochs=args.epochs
    )
    engine = Engine.from_model(model)
    print(f"software accuracy: {software_accuracy:.3f}; engine: {engine}")
    return engine, test, software_accuracy, model


def _request_pool(args, test):
    """Deterministic pool of (images, labels) request batches."""
    import numpy as np

    rng = np.random.default_rng(args.seed)
    requests, labels = [], []
    for _ in range(args.requests):
        idx = rng.integers(0, len(test.images), size=args.batch)
        requests.append(test.images[idx])
        labels.append(test.labels[idx])
    return requests, labels


def _serving_row(mode: str, report, stats: dict) -> dict:
    """One fully-populated ``serve-bench --json`` row.

    Every row carries the same key set regardless of mode — counters a
    run did not produce (retries for a clean run) are zeros, never
    missing keys — so downstream tooling can diff rows without schema
    sniffing.
    """
    return {
        "mode": mode,
        "backend": str(report.backend),
        "workers": int(report.workers),
        "n_requests": int(report.n_requests),
        "total_images": int(report.total_images),
        "waves": int(report.waves or 0),
        "wall_time_s": float(report.wall_time_s),
        "requests_per_s": float(report.requests_per_s),
        "images_per_s": float(report.images_per_s),
        "latency_mean_ms": float(report.mean_latency_s * 1e3),
        "latency_p50_ms": float(report.latency_percentile(50) * 1e3),
        "latency_p95_ms": float(report.latency_percentile(95) * 1e3),
        "latency_p99_ms": float(report.latency_percentile(99) * 1e3),
        "accuracy": float(report.accuracy or 0.0),
        "retries": int(stats.get("retries", 0)),
        "recoveries": int(stats.get("recoveries", 0)),
        "rejected": int(stats.get("rejected", 0)),
        "consumer_restarts": int(stats.get("consumer_restarts", 0)),
    }


def _cmd_serve_bench(args) -> int:
    import numpy as np

    from repro.api import ServingDaemon
    from repro.runtime.scheduler import ShardParallelScheduler

    engine, test, software_accuracy, _ = _bench_engine(args)
    requests, labels = _request_pool(args, test)

    rows = []  # (mode, ServingReport, daemon-stats dict)
    # Requests merge into waves, bit-identical to per-request child-seeded
    # sessions, whichever scheduler runs them.
    daemon_kwargs = dict(
        backend="stochastic",
        seed=args.seed,
        seed_per_request=True,
    )
    with ServingDaemon(engine, **daemon_kwargs) as daemon:
        report = daemon.serve(requests, labels=labels)
        rows.append(("daemon-coalesced", report, daemon.stats.as_dict()))
    for workers in args.workers:
        # A prewarmed pool keeps worker start-up out of the timed run.
        with ShardParallelScheduler(workers=workers) as scheduler:
            with ServingDaemon(
                engine, scheduler=scheduler, prewarm=True, **daemon_kwargs
            ) as daemon:
                report = daemon.serve(requests, labels=labels)
                rows.append(("daemon-parallel", report, daemon.stats.as_dict()))

    # Same seed, seed_per_request: every parallel response must replay
    # the coalesced one bit for bit.
    reference = rows[0][1].results
    checked = matched = 0
    for _, report, _ in rows[1:]:
        for got, want in zip(report.results, reference):
            checked += 1
            matched += np.array_equal(got.logits, want.logits)

    print(
        f"\n{'mode':<17} {'backend':<21} {'workers':>7} {'wall(s)':>8} "
        f"{'req/s':>8} {'img/s':>9} {'latency(ms)':>12} {'waves':>6} "
        f"{'accuracy':>9}"
    )
    for mode, report, _ in rows:
        print(
            f"{mode:<17} {report.backend:<21} {report.workers:>7d} "
            f"{report.wall_time_s:>8.3f} {report.requests_per_s:>8.2f} "
            f"{report.images_per_s:>9.1f} {report.mean_latency_s * 1e3:>12.1f} "
            f"{report.waves:>6d} {report.accuracy:>9.3f}"
        )
    print("\ndaemon fault-tolerance counters:")
    for mode, _, stats in rows:
        print(
            f"  {mode:<17} retries={stats['retries']} "
            f"recoveries={stats['recoveries']} rejected={stats['rejected']} "
            f"consumer_restarts={stats['consumer_restarts']}"
        )
    if args.json:
        payload = {
            "config": {
                "requests": args.requests,
                "batch": args.batch,
                "epochs": args.epochs,
                "crossbar_size": args.crossbar_size,
                "window_bits": args.window_bits,
                "seed": args.seed,
                "software_accuracy": software_accuracy,
            },
            "rows": [
                _serving_row(mode, report, stats) for mode, report, stats in rows
            ],
        }
        with open(args.json, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    print(
        f"bit-identity: {matched}/{checked} daemon-parallel responses match "
        f"daemon-coalesced"
    )
    if matched != checked:
        print("BIT-IDENTITY VIOLATION", file=sys.stderr)
        return 1
    return 0


def _serve_target(args, engines):
    """What ``repro serve`` fronts: a single daemon for one engine, a
    :class:`~repro.net.router.DaemonRouter` over one replica daemon per
    engine otherwise. ``--serve-workers N`` (N > 1) gives every replica
    its own N-worker
    :class:`~repro.runtime.scheduler.ShardParallelScheduler`: a pool
    holds one network, so replicas sharing one would rebuild it each
    time consecutive waves came from different replicas. Returns
    ``(target, schedulers)``; the caller closes the target, then the
    schedulers."""
    from repro.api import ServingDaemon
    from repro.net import DaemonRouter
    from repro.runtime.scheduler import ShardParallelScheduler

    schedulers = []

    def replica(index, engine, **kwargs):
        if args.serve_workers > 1:
            schedulers.append(ShardParallelScheduler(workers=args.serve_workers))
            kwargs["scheduler"] = schedulers[-1]
        return ServingDaemon(
            engine,
            name=f"replica-{index}",
            backend="stochastic",
            max_queue=args.max_queue,
            **kwargs,
        )

    if len(engines) == 1:
        return replica(0, engines[0], seed=args.seed), schedulers
    router = DaemonRouter(
        [replica(i, engine) for i, engine in enumerate(engines)], seed=args.seed
    )
    return router, schedulers


def _cmd_serve(args) -> int:
    """Run the asyncio network serving front-end in the foreground.

    ``--replicas N`` (default from ``REPRO_ROUTER_REPLICAS``, 1) serves
    through a :class:`~repro.net.router.DaemonRouter` over N replica
    daemons instead of a single daemon (see :func:`_serve_target`)."""
    import asyncio

    from repro.api import Engine
    from repro.net import NetworkServer
    from repro.runtime.env import env_int

    engine, _, _, model = _bench_engine(args)
    n_replicas = (
        args.replicas
        if args.replicas is not None
        else env_int("REPRO_ROUTER_REPLICAS", 1, minimum=1)
    )
    if n_replicas < 1:
        print(f"--replicas must be >= 1, got {n_replicas}", file=sys.stderr)
        return 2
    engines = [engine] + [Engine.from_model(model) for _ in range(n_replicas - 1)]
    daemon, schedulers = _serve_target(args, engines)
    if n_replicas > 1:
        print(f"routing over {n_replicas} replica daemons")

    async def _amain() -> None:
        server = NetworkServer(
            daemon,
            host=args.host,
            port=args.port,
            max_inflight_per_client=args.quota,
            rate_limit_rps=args.rate_limit,
        )
        await server.start()
        host, port = server.address
        print(f"serving on {host}:{port} (Ctrl-C to stop)")
        try:
            await server.serve_forever()
        finally:
            await server.aclose()
            stats = server.stats.as_dict()
            print(
                "server stats: "
                + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
            )

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        try:
            daemon.close(drain=True)
        except KeyboardInterrupt:
            # Second Ctrl-C while draining: abandon queued requests
            # instead of dying with a traceback mid-join.
            print("forced shutdown, abandoning queued requests")
            daemon.close(drain=False)
        for scheduler in schedulers:
            scheduler.close()
    return 0


def _cmd_plan_inspect(args) -> int:
    from repro.api import Engine
    from repro.api.backends import get_backend
    from repro.experiments.common import trained_mlp
    from repro.hardware.config import HardwareConfig
    from repro.runtime.costmodel import candidate_modes, load_cost_model

    hardware = HardwareConfig(
        crossbar_size=args.crossbar_size,
        gray_zone_ua=10.0,
        window_bits=args.window_bits,
    )
    print(f"training reference MLP (epochs={args.epochs}) ...")
    model, _, test, _ = trained_mlp(hardware, epochs=args.epochs)
    engine = Engine.from_model(model)
    session = engine.session(
        seed=args.seed, backend=args.backend, micro_batch=args.micro_batch
    )
    images = test.images[: args.batch]
    plan = session.preview_plan(images)
    cost_model = load_cost_model(args.coefficients)
    strategy = get_backend(args.backend)
    modes = candidate_modes(
        plan,
        backend_name=getattr(strategy, "name", None),
        deterministic=getattr(strategy, "deterministic", False),
    )
    choice = cost_model.choose(plan, workers=args.workers, modes=modes)

    print(
        f"\nplan: batch={plan.batch_size} shards={len(plan)} "
        f"tasks={len(plan.tasks)} total_cost={plan.total_cost:.0f} windows "
        f"critical_path={plan.critical_path_cost():.0f} windows"
    )
    print(
        f"cost model: {cost_model.coefficients.source} "
        f"(break-even {cost_model.coefficients.break_even_windows:.0f} windows); "
        f"workers={args.workers}"
    )
    print(f"\n{'mode':<16} {'predicted(ms)':>14}  candidate")
    for mode in ("serial", "shard-parallel", "tile-parallel"):
        if mode in choice.predictions:
            marker = "<- chosen" if mode == choice.mode else ""
            print(
                f"{mode:<16} {choice.predictions[mode] * 1e3:>14.3f}  {marker}"
            )
        else:
            print(f"{mode:<16} {'-':>14}  (unavailable)")
    print(f"decision: {choice.mode} — {choice.reason}")

    # Per-stage predicted_s is the stage's aggregate work (summed over
    # shards/workers — what the telemetry will measure), while the mode
    # table above compares wall-clock predictions.
    print(
        f"\n{'stage':>5} {'kind':<7} {'tiles':>5} {'windows':>10} "
        f"{'mode':<15} {'work(ms)':>14}"
    )
    for decision in choice.stages:
        print(
            f"{decision.stage:>5} {decision.kind:<7} {decision.tile_width:>5} "
            f"{decision.cost_windows:>10.0f} {decision.mode:<15} "
            f"{decision.predicted_s * 1e3:>14.3f}"
        )
    if args.tasks:
        print(f"\n{'id':>4} {'shard':>5} {'stage':>5} {'kind':<7} "
              f"{'tile':>4} {'cost':>10} deps")
        for task in plan.tasks:
            tile = "-" if task.tile is None else str(task.tile)
            deps = ",".join(str(d) for d in task.deps) or "-"
            print(
                f"{task.id:>4} {task.shard:>5} {task.stage:>5} "
                f"{task.kind:<7} {tile:>4} {task.cost:>10.0f} {deps}"
            )
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.table1 import crossbar_hardware_table

    print(f"{'area':>9} {'latency(ps)':>12} {'#JJs':>9} {'energy(aJ)':>11}")
    for row in crossbar_hardware_table(args.sizes):
        print(
            f"{row['crossbar_area']:>9} {row['latency_ps']:>12.0f} "
            f"{row['jj_count']:>9d} {row['energy_aj']:>11.2f}"
        )
    return 0


def _cmd_fig4(args) -> int:
    from repro.experiments.fig4 import gray_zone_response

    result = gray_zone_response(gray_zone_ua=args.gray_zone)
    print(f"{'Iin(uA)':>8} {'P(1)':>8} {'sampled':>8}")
    for point in result["points"][:: args.stride]:
        print(
            f"{point['input_ua']:>8.2f} {point['probability']:>8.4f} "
            f"{point['sampled']:>8.4f}"
        )
    print(f"boundary: +-{result['boundary_ua']:.2f} uA")
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments.fig5 import attenuation_curve

    result = attenuation_curve()
    print(f"{'Cs':>5} {'measured(uA)':>13} {'fitted(uA)':>11}")
    for point in result["points"]:
        print(
            f"{point['crossbar_size']:>5d} {point['measured_ua']:>13.3f} "
            f"{point['fitted_ua']:>11.3f}"
        )
    print(
        f"I1(Cs) = {result['amplitude_ua']:.2f} * Cs^-{result['exponent']:.3f} "
        f"(max err {result['max_relative_fit_error'] * 100:.1f}%)"
    )
    return 0


def _cmd_clocking(args) -> int:
    from repro.experiments.clocking import clocking_optimization_report

    report = clocking_optimization_report()
    print(f"{'circuit':<15} {'4-ph JJ':>8} {'8-ph':>7} {'16-ph':>7}")
    for name, circuit in report["circuits"].items():
        print(
            f"{name:<15} {circuit[4]['total_jj']:>8.0f} "
            f"{circuit[8]['reduction_vs_4phase'] * 100:>6.1f}% "
            f"{circuit[16]['reduction_vs_4phase'] * 100:>6.1f}%"
        )
    print(f"BCM 3-phase saving: {report['memory_reduction'] * 100:.1f}%")
    return 0


def _cmd_coopt(args) -> int:
    from repro.core.coopt import optimize_hardware_config

    result = optimize_hardware_config(
        gray_zones_ua=args.gray_zones,
        crossbar_sizes=args.sizes,
        max_energy_per_cycle_aj=args.energy_budget,
    )
    print(f"{'dIin(uA)':>9} {'Cs':>5} {'AME':>10}")
    for cell in result.grid:
        print(
            f"{cell['gray_zone_ua']:>9.1f} {cell['crossbar_size']:>5d} "
            f"{cell['ame']:>10.4f}"
        )
    best = result.best_config
    print(
        f"optimum: Cs={best.crossbar_size}, dIin={best.gray_zone_ua} uA "
        f"(AME={result.best_ame:.4f})"
    )
    return 0


def _cmd_fig12(args) -> int:
    from repro.baselines.cryo import frequency_sweep

    rows = frequency_sweep(args.tops)
    print(f"{'GHz':>6} {'AQFP':>12} {'AQFP+cool':>12}")
    for row in rows:
        print(
            f"{row['frequency_ghz']:>6.1f} {row['aqfp']:>12.3g} "
            f"{row['aqfp_cooled']:>12.3g}"
        )
    return 0


def _cmd_lint_static(args) -> int:
    import json as json_mod
    from pathlib import Path

    from repro.analysis import (
        DEFAULT_BASELINE,
        DEFAULT_PATHS,
        Baseline,
        available_rules,
        get_rule,
        run_analysis,
    )

    root = Path(args.root).resolve()
    if args.list_rules:
        for name in available_rules():
            print(f"{name:20s} {get_rule(name).summary}")
        return 0

    if args.check_env_docs:
        from repro.runtime.env import catalog_markdown

        target = root / "docs" / "ENVIRONMENT.md"
        want = catalog_markdown()
        have = target.read_text(encoding="utf-8") if target.exists() else ""
        if have != want:
            print(
                f"lint-static: {target} has drifted from "
                f"repro.runtime.env.ENV_CATALOG — regenerate it with "
                f"`python -m repro.cli lint-static --write-env-docs`",
                file=sys.stderr,
            )
            return 1
        print(f"lint-static: {target} matches ENV_CATALOG")
        return 0

    if args.write_env_docs:
        from repro.runtime.env import catalog_markdown

        target = root / "docs" / "ENVIRONMENT.md"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(catalog_markdown(), encoding="utf-8")
        print(f"wrote {target}")

    baseline_path = Path(args.baseline)
    if not baseline_path.is_absolute():
        baseline_path = root / baseline_path
    report = run_analysis(
        root,
        paths=tuple(args.paths) if args.paths else DEFAULT_PATHS,
        rules=args.rules or None,
        baseline_path=baseline_path,
    )

    if args.update_baseline:
        updated = Baseline.from_findings(report.new + report.baselined)
        updated.save(baseline_path)
        print(
            f"lint-static: baseline rewritten with {len(updated)} entr(ies) "
            f"at {baseline_path}"
        )
        return 0

    if args.json:
        Path(args.json).write_text(
            json_mod.dumps(report.as_dict(), indent=2) + "\n", encoding="utf-8"
        )
    print(report.render())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SupeRBNN reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="crossbar cost table (Table 1)")
    p.add_argument(
        "--sizes", type=int, nargs="+", default=[4, 8, 16, 18, 36, 72, 144]
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig4", help="buffer probability curve (Fig. 4)")
    p.add_argument("--gray-zone", type=float, default=2.4, dest="gray_zone")
    p.add_argument("--stride", type=int, default=4)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("fig5", help="attenuation fit (Fig. 5)")
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("clocking", help="n-phase clocking reductions (Sec. 4.4)")
    p.set_defaults(func=_cmd_clocking)

    p = sub.add_parser("coopt", help="AME grid search (Sec. 5.4)")
    p.add_argument(
        "--gray-zones",
        type=float,
        nargs="+",
        default=[1.0, 5.0, 20.0, 100.0],
        dest="gray_zones",
    )
    p.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 36, 72])
    p.add_argument(
        "--energy-budget", type=float, default=None, dest="energy_budget"
    )
    p.set_defaults(func=_cmd_coopt)

    p = sub.add_parser("fig12", help="efficiency vs frequency (Fig. 12)")
    p.add_argument("--tops", type=float, default=9e5, help="TOPS/W at 5 GHz")
    p.set_defaults(func=_cmd_fig12)

    p = sub.add_parser(
        "run", help="run any registered experiment by name (JSON output)"
    )
    p.add_argument(
        "experiment", nargs="?", help="experiment name (omit with --list)"
    )
    p.add_argument(
        "--list", action="store_true", help="list registered experiments"
    )
    p.add_argument(
        "-k",
        "--set",
        dest="overrides",
        action="append",
        type=_parse_override,
        metavar="KEY=VALUE",
        help="keyword override for the experiment (repeatable)",
    )
    p.add_argument(
        "-o", "--output", default=None, help="write JSON to this file"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run the experiment's stochastic sessions on an N-worker "
            "ShardParallelScheduler pool (bit-identical to serial)"
        ),
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "backends", help="list inference execution backends (and aliases)"
    )
    p.set_defaults(func=_cmd_backends)

    p = sub.add_parser(
        "plan-inspect",
        help="print a request's ExecutionPlan tasks, costs, and the "
        "adaptive scheduler's per-stage decision",
    )
    p.add_argument("--batch", type=int, default=256, help="images in the request")
    p.add_argument(
        "--micro-batch", type=int, default=32, dest="micro_batch",
        help="shard size the session plans with",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="fan-out width the cost model assumes",
    )
    p.add_argument(
        "--backend", default="stochastic",
        help="execution backend the plan is chosen for",
    )
    p.add_argument(
        "--coefficients", default=None, metavar="PATH",
        help="cost-coefficients JSON (default: REPRO_COST_COEFFICIENTS "
        "or built-in defaults)",
    )
    p.add_argument(
        "--tasks", action="store_true",
        help="also print the full per-task DAG listing",
    )
    p.add_argument("--epochs", type=int, default=2, help="reference-model training epochs")
    p.add_argument("--crossbar-size", type=int, default=16, dest="crossbar_size")
    p.add_argument("--window-bits", type=int, default=8, dest="window_bits")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_plan_inspect)

    p = sub.add_parser(
        "serve-bench",
        help="concurrent serving throughput: serial vs process-parallel",
    )
    p.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[2, 4],
        metavar="N",
        help="parallel worker counts to benchmark (serial baseline always runs)",
    )
    p.add_argument("--requests", type=int, default=8, help="requests per batch")
    p.add_argument("--batch", type=int, default=64, help="images per request")
    p.add_argument("--epochs", type=int, default=8, help="reference-model training epochs")
    p.add_argument("--crossbar-size", type=int, default=16, dest="crossbar_size")
    p.add_argument("--window-bits", type=int, default=8, dest="window_bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="dump the report rows to PATH as JSON",
    )
    p.set_defaults(func=_cmd_serve_bench)

    p = sub.add_parser(
        "serve",
        help="run the asyncio network serving front-end in the foreground",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7433, help="0 = ephemeral")
    p.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        dest="serve_workers",
        metavar="N",
        help="execute waves on an N-process pool (1 = in-process)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="N",
        help="serve through a router over N replica daemons "
        "(default: REPRO_ROUTER_REPLICAS or 1)",
    )
    p.add_argument("--epochs", type=int, default=8, help="reference-model training epochs")
    p.add_argument("--crossbar-size", type=int, default=16, dest="crossbar_size")
    p.add_argument("--window-bits", type=int, default=8, dest="window_bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--window-ms",
        type=float,
        default=None,
        dest="window_ms",
        help="ignored: the daemon coalesces whatever is queued when its "
        "consumer frees up, with no window; kept so old command lines parse",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=256,
        dest="max_queue",
        help="daemon admission-queue depth",
    )
    p.add_argument(
        "--quota",
        type=int,
        default=32,
        help="per-connection in-flight request ceiling",
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        dest="rate_limit",
        metavar="RPS",
        help="per-connection token-bucket rate limit (requests/second)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint-static",
        help="run the static contract checker (repro.analysis)",
    )
    p.add_argument(
        "--root",
        default=".",
        help="repository root to scan (default: current directory)",
    )
    p.add_argument(
        "--paths",
        nargs="+",
        default=None,
        metavar="DIR",
        help="root-relative paths to scan (default: src tests benchmarks examples)",
    )
    p.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help="run only these rules (default: all registered)",
    )
    p.add_argument(
        "--baseline",
        default="lint-static.baseline.json",
        help="baseline file (root-relative unless absolute)",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the full report as JSON to PATH",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        dest="update_baseline",
        help="rewrite the baseline to exactly the current finding set",
    )
    p.add_argument(
        "--write-env-docs",
        action="store_true",
        dest="write_env_docs",
        help="regenerate docs/ENVIRONMENT.md from the REPRO_* catalog",
    )
    p.add_argument(
        "--check-env-docs",
        action="store_true",
        dest="check_env_docs",
        help="exit 1 if docs/ENVIRONMENT.md has drifted from the "
        "REPRO_* catalog (the docs-sync CI mode; runs no other rules)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="list registered rules and exit",
    )
    p.set_defaults(func=_cmd_lint_static)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
