"""wire-trickle and wire-load: open-loop traffic to ``repro serve``.

The server is what ``repro serve`` deploys: the reference MLP (8
epochs, Cs = 16, L = 8) behind ``ServingDaemon`` with a 10 ms coalesce
window, run as its own process through ``perfbench/serve.py``. Every
request carries 32 rows from the synthetic-MNIST test split and an
explicit seed, so after the load the benchmark rebuilds the same engine
in-process and checks each response bit for bit against
``Session(engine, seed=k).run(rows)``.

The load comes from this module's own open-loop generator: one asyncio
thread, at most two ``AsyncNetworkClient`` connections, every request
dispatched at its due time whatever is still in flight, and its latency
taken from the due time to the full response, so a stall delays every
later request's clock too. How late the generator itself ran is
reported as ``loadgen.lag_ms_p95``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import host
import metrics
from spans import Tracer, install_codec

ROWS = 32
#: The request batches are this many seeded permutations of the test
#: split cut into ROWS-row batches, and requests cycle through them, so
#: every test image is sent equally often: top-1 agreement then does not
#: hang on which images a seed happened to draw.
POOL_PERMUTATIONS = 8
EPOCHS = 8
CROSSBAR = 16
WINDOW_BITS = 8
WINDOW_MS = 10.0
#: Server start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: p95 limit behind ``rps_at_slo``; an unclean rung counts as FAIL_MS.
SLO_MS = 60.0
FAIL_MS = 1000.0
#: A run whose generator sent its requests later than this (p95) did
#: not offer the load it claims; it is marked invalid.
LAG_LIMIT_MS = SLO_MS / 3
#: Per-request ceiling; a request still unanswered then has failed.
REQUEST_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 60.0

#: wire-trickle: one connection at a fixed rate far below saturation.
TRICKLE_RPS = 25.0
#: wire-load: the offered-rate ladder (requests/s) over two connections
#: to a two-replica router, every STREAM_EVERY-th request streamed.
#: Saturation on two shared vCPUs is about 430/s and falls to about
#: 300/s in the host's slow phases; rungs past it measured the host, not
#: the program (rps_at_slo spread 0.35 over ten seeds), so the ladder
#: stops well below the knee. Latency is reported at REFERENCE_RPS,
#: which gets REFERENCE_SHARE of the run: at 210/s its p95 still spread
#: up to 0.5 between runs when the host slowed down.
LOAD_LADDER = (70.0, 140.0, 210.0)
REFERENCE_RPS = 140.0
REFERENCE_SHARE = 0.5
STREAM_EVERY = 4


@dataclass
class Shape:
    name: str
    connections: int
    rungs: Tuple[float, ...]
    reference: float
    stream_every: int
    serve_args: Tuple[str, ...]
    #: The reference rung's latencies are cut into blocks of this much
    #: due time, and p50 and p95 are medians over the blocks' own
    #: percentiles: a host stall moves one block's tail, not the run's.
    #: Two seconds at 25/s hold 50 requests, one second at 140/s 140.
    block_s: float = 1.0


TRICKLE = Shape("wire-trickle", 1, (TRICKLE_RPS,), TRICKLE_RPS, 0, (), block_s=2.0)
# Past saturation the router must queue, not shed: the admission and
# per-connection quotas are raised so no request of the ladder fails.
LOAD = Shape(
    "wire-load",
    2,
    LOAD_LADDER,
    REFERENCE_RPS,
    STREAM_EVERY,
    ("--replicas", "2", "--max-queue", "4096", "--quota", "4096"),
)


@dataclass
class Request:
    index: int
    seed: int
    pool_index: int
    rung: float
    due: float
    stream: bool
    sent: float = 0.0
    done: float = 0.0
    code: str = ""
    logits: Optional[np.ndarray] = None
    summary: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.logits is not None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


# ----------------------------------------------------------------------
# The server process.
# ----------------------------------------------------------------------
class Server:
    """One ``perfbench/serve.py`` process; stdout is drained by a thread
    so the pipe never fills."""

    def __init__(self, root: Path, shape: Shape, seed: int, trace_out: Optional[Path]):
        cmd = [sys.executable, "-u", str(root / "perfbench" / "serve.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += [
            "--",
            "--port", "0",
            "--epochs", str(EPOCHS),
            "--crossbar-size", str(CROSSBAR),
            "--window-bits", str(WINDOW_BITS),
            "--window-ms", str(WINDOW_MS),
            "--seed", str(seed),
            *shape.serve_args,
        ]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=root,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: List[str] = []
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            if line.startswith("serving on ") and self.address is None:
                hostport = line.split()[2]
                host_, port = hostport.rsplit(":", 1)
                self.address = (host_, int(port))
                self._ready.set()
        self._ready.set()

    def wait_ready(self) -> Tuple[str, int]:
        self._ready.wait(SERVER_START_TIMEOUT_S)
        if self.address is None:
            self.stop()
            raise RuntimeError(
                "server did not start:\n" + "\n".join(self.lines[-20:])
            )
        return self.address

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)


def _first_response(server: Server, images, seed: int, pings: int = 0) -> List[float]:
    """Block until the server answers one request; then time ``pings``
    PING round trips on the same connection (ms)."""
    from repro.net.client import NetworkClient

    host_, port = server.wait_ready()
    with NetworkClient(host_, port, timeout=REQUEST_TIMEOUT_S) as client:
        client.infer(images, seed=seed)
        return [client.ping() * 1e3 for _ in range(pings)]


# ----------------------------------------------------------------------
# The open-loop generator.
# ----------------------------------------------------------------------
def schedule(
    shape: Shape, seconds: float, seed_base: int, pool_seed: int, pool_size: int
) -> List[Request]:
    """Due times (relative to the start) for every request, rung after
    rung at each rung's fixed rate. The reference rung gets
    REFERENCE_SHARE of ``seconds`` (all of it when it is the only rung);
    the other rungs split the rest evenly. Requests cycle through the
    ``pool_size`` batches in a seeded order."""
    order = np.random.default_rng(pool_seed).permutation(pool_size)
    others = len(shape.rungs) - 1
    share = REFERENCE_SHARE if others else 1.0
    requests: List[Request] = []
    offset = 0.0
    for rate in shape.rungs:
        per_rung = seconds * (share if rate == shape.reference else (1 - share) / others)
        n = int(round(per_rung * rate))
        for k in range(n):
            i = len(requests)
            requests.append(
                Request(
                    index=i,
                    seed=seed_base + i,
                    pool_index=int(order[i % pool_size]),
                    rung=rate,
                    due=offset + k / rate,
                    stream=shape.stream_every > 0 and i % shape.stream_every == 0,
                )
            )
        offset += per_rung
    return requests


async def _open_loop(address, connections: int, requests: Sequence[Request], pool) -> None:
    from repro.net.client import AsyncNetworkClient, RemoteError

    clients = [await AsyncNetworkClient.connect(*address) for _ in range(connections)]

    async def one(client, request: Request) -> None:
        request.sent = time.perf_counter()
        images = pool[request.pool_index]
        try:
            if request.stream:
                call = client.infer_streamed(images, seed=request.seed)
            else:
                call = client.infer(images, seed=request.seed)
            result = await asyncio.wait_for(call, REQUEST_TIMEOUT_S)
        except RemoteError as exc:
            request.code = exc.code
        except asyncio.TimeoutError:
            request.code = "timeout"
        except (ConnectionError, OSError) as exc:
            request.code = f"connection: {exc}"
        else:
            request.logits = result.logits
            request.summary = result.summary
        request.done = time.perf_counter()

    try:
        start = time.perf_counter() + 0.05
        tasks = []
        for request in requests:
            request.due += start
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client = clients[request.index % connections]
            tasks.append(asyncio.ensure_future(one(client, request)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.aclose()


def drive(address, shape: Shape, requests: Sequence[Request], pool) -> None:
    # The generator's own collector pauses would read as server latency;
    # nothing it allocates during one run needs collecting before its end.
    gc.disable()
    try:
        asyncio.run(_open_loop(address, shape.connections, requests, pool))
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# The workload.
# ----------------------------------------------------------------------
def _reference_engine():
    from repro.api import Engine
    from repro.experiments.common import trained_mlp
    from repro.hardware.config import HardwareConfig

    hardware = HardwareConfig(
        crossbar_size=CROSSBAR, gray_zone_ua=10.0, window_bits=WINDOW_BITS
    )
    model, _, _, _ = trained_mlp(hardware, epochs=EPOCHS)
    return Engine.from_model(model)


def _test_split():
    from repro.experiments.common import mnist_datasets

    return mnist_datasets()[1]


def run(root: Path, seed: int, seconds: float, trace: bool, shape: Shape) -> dict:
    rng = np.random.default_rng([seed, 0x3173])
    test = _test_split()
    order = np.concatenate(
        [rng.permutation(len(test.images)) for _ in range(POOL_PERMUTATIONS)]
    )
    pool = [
        np.ascontiguousarray(test.images[order[start:start + ROWS]])
        for start in range(0, len(order) - ROWS + 1, ROWS)
    ]
    seed_base = int(rng.integers(0, 2**40))
    pool_seed = int(rng.integers(0, 2**40))
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"server-{shape.name}-{seed}.json" if trace else None
    if trace_out is not None:
        trace_out.unlink(missing_ok=True)  # never read an earlier run's trace
    shm_before = host.shm_segments()

    # Set-up, repeated: server start to the first successful response.
    # In a traced run the last start is the traced server, and the one
    # before it first serves an untraced baseline at the reference rate.
    setups: List[float] = []
    baseline: List[Request] = []
    server = None
    pings: List[float] = []
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        server = Server(root, shape, seed, trace_out if last else None)
        try:
            pings = _first_response(server, pool[0], seed_base - 1 - repeat, pings=50 if last else 0)
            setups.append(time.perf_counter() - server.started)
            if trace and repeat == SETUP_REPEATS - 2:
                baseline = schedule(
                    replace(shape, rungs=(shape.reference,)),
                    seconds / 4,
                    seed_base + 10**7,
                    pool_seed + 1,
                    len(pool),
                )
                drive(server.address, shape, baseline, pool)
        except BaseException:
            server.stop()
            raise
        if not last:
            server.stop()

    tracer = Tracer() if trace else None
    if tracer is not None:
        install_codec(tracer, "client")
    requests = schedule(shape, seconds, seed_base, pool_seed, len(pool))
    try:
        drive(server.address, shape, requests, pool)
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.stop()

    # Correctness gate: every response bit for bit against a serial
    # session with the request's seed on an identically built engine.
    engine = _reference_engine()
    ideal = [engine.session(seed=0).run(x, backend="ideal").predictions for x in pool]
    mismatched = failed = 0
    agree = rows = 0
    for request in requests + baseline:
        if not request.ok:
            failed += 1
            continue
        expected = engine.session(seed=request.seed).run(pool[request.pool_index])
        if not np.array_equal(request.logits, expected.logits):
            mismatched += 1
        agree += int(np.sum(request.logits.argmax(axis=1) == ideal[request.pool_index]))
        rows += ROWS

    by_rung: Dict[float, List[Request]] = {}
    for request in requests:
        by_rung.setdefault(request.rung, []).append(request)
    reference = by_rung[shape.reference]
    ref_lat = [r.latency_ms for r in reference if r.ok]
    blocks = metrics.blocks_by_time(
        [(r.due, r.latency_ms) for r in reference if r.ok], shape.block_s
    )
    ladder = [_rung_point(by_rung[rate]) for rate in shape.rungs]
    top = by_rung[shape.rungs[-1]]
    top_images = ROWS * sum(r.ok for r in top)
    top_span = max(r.done for r in top) - min(r.due for r in top)
    attempted = len(requests) + len(baseline)
    e2e = {
        "setup_s": metrics.median(setups),
        "throughput_images_per_s": top_images / top_span,
        "latency_p50_ms": metrics.blocked_percentile(blocks, 50),
        "latency_p95_ms": metrics.blocked_percentile(blocks, 95),
        "rps_at_slo": metrics.rps_at_slo(ladder, SLO_MS, FAIL_MS),
        "top1_match_ideal": agree / rows,
    }
    done = [r for r in requests if r.ok]
    lag_p95 = metrics.percentile([(r.sent - r.due) * 1e3 for r in requests], 95)
    if lag_p95 > LAG_LIMIT_MS:
        print(
            f"{shape.name}: generator lag p95 {lag_p95:.1f} ms exceeds "
            f"{LAG_LIMIT_MS:.0f} ms; this run's latencies are not valid",
            file=sys.stderr,
        )
    layer = {
        "hardware.windows_per_image": float(
            np.mean([r.summary["total_windows"] / ROWS for r in done])
        ),
        "loadgen.lag_ms_p95": lag_p95,
        "net.ping_rtt_ms_p50": metrics.median(pings) if pings else 0.0,
        "runtime.teardown.shm_leaked": len(host.shm_segments() - shm_before),
        "runtime.teardown.children_left": host.children_left()
        + (server.proc.poll() is None),
    }
    details = {
        "valid": lag_p95 <= LAG_LIMIT_MS,
        "setup_s_each": setups,
        "reference_rps": shape.reference,
        "reference_samples": len(ref_lat),
        "blocks": [
            [len(b), metrics.percentile(b, 50), metrics.percentile(b, 95)] for b in blocks
        ],
        "latency_max_q": metrics.highest_supported_percentile(min(len(b) for b in blocks)),
        "ladder": [
            {"offered_rps": offered, "sustained_rps": rate, "p95_ms": p95, "clean": clean}
            for offered, (rate, p95, clean) in zip(shape.rungs, ladder)
        ],
        "errors": sorted({r.code for r in requests if r.code}),
    }
    if tracer is not None:
        layer.update(
            _layer_metrics(tracer, trace_out, requests, reference, baseline)
        )
    return {
        "attempted": attempted,
        "failed": failed + mismatched,
        "correct": mismatched == 0,
        "e2e": e2e,
        "layer": layer,
        "details": details,
        "spans": tracer.spans() if tracer is not None else [],
    }


def _rung_point(rung: List[Request]) -> Tuple[float, float, bool]:
    """(sustained rate, p95, clean) of one rung. The sustained rate is
    completions over first due time to last response; latency runs from
    the due time, so a growing backlog raises the p95 by itself; a
    failed request counts as FAIL_MS and makes the rung unclean."""
    latencies = [r.latency_ms if r.ok else FAIL_MS for r in rung]
    span = max(r.done for r in rung) - min(r.due for r in rung)
    sustained = sum(r.ok for r in rung) / span
    return sustained, metrics.percentile(latencies, 95), all(r.ok for r in rung)


def _layer_metrics(tracer, trace_out: Path, requests, reference, baseline) -> dict:
    dump = json.loads(trace_out.read_text())
    table = dump["spans"]
    stamps = {s["seed"]: s for s in dump["requests"] if "done" in s}

    def stage_ms(a, b):
        """Per reference-rung request: milliseconds from stage a to b."""
        return [
            (stamps[r.seed][b] - stamps[r.seed][a]) * 1e3
            for r in reference
            if r.seed in stamps and a in stamps[r.seed] and b in stamps[r.seed]
        ]

    daemons = dump["daemons"]
    completed = sum(d["completed"] for d in daemons)
    waves = sum(d["waves"] for d in daemons)
    server = dump["servers"][0]
    routers = dump["routers"]
    client_table = metrics.self_times(tracer.spans())
    overhead = [
        (r.done - r.sent) * 1e3 - (stamps[r.seed]["done"] - stamps[r.seed]["queued"]) * 1e3
        for r in reference
        if r.ok and r.seed in stamps
    ]
    layer = metrics.layer_metrics(table, len(dump["requests"]))
    layer.update({
        "runtime.recovery.attempts": sum(d["retries"] + d["recoveries"] for d in daemons),
        "runtime.daemon.queue_wait_ms_p50": metrics.median(stage_ms("queued", "planned")),
        "runtime.daemon.queue_wait_ms_p95": metrics.percentile(stage_ms("queued", "planned"), 95),
        "runtime.daemon.queue_high_water": max(d["queue_high_water"] for d in daemons),
        "runtime.daemon.handoff_wait_ms_p50": metrics.median(stage_ms("planned", "executing")),
        "runtime.daemon.execute_ms_p50": metrics.median(stage_ms("executing", "done")),
        "runtime.daemon.requests_per_wave": metrics.ratio(completed, waves),
        "net.wire_overhead_ms_p50": metrics.median(overhead),
        "net.protocol.client_codec_us": metrics.ratio(
            client_table.get("net.protocol.client_codec", {}).get("total_s", 0.0) * 1e6,
            len(requests),
        ),
        "net.protocol.server_codec_us": metrics.ratio(
            table.get("net.protocol.server_codec", {}).get("total_s", 0.0) * 1e6,
            server["requests"],
        ),
        "net.server.shed_frac": metrics.ratio(
            server["rejected_queue_full"] + server["rejected_rate_limited"]
            + server["rejected_quota"],
            server["requests"],
        ),
        # Shard execution is the daemon's Session.run: how much of it the
        # kernel, hardware and plan spans account for.
        "trace.self_time_coverage": metrics.root_coverage(table, "runtime.scheduler.run_shards"),
        "net.server.frames_per_streamed_response": metrics.ratio(
            server["partials_sent"] + server["progress_sent"], server["streamed_responses"]
        ),
        "trace.overhead_ms_per_request": metrics.median(
            [r.latency_ms for r in reference if r.ok]
        )
        - metrics.median([r.latency_ms for r in baseline if r.ok]),
    })
    if routers:
        router = routers[0]
        dispatched = [r["dispatched"] for r in router["per_replica"].values()]
        layer.update(
            {
                "net.router.spillover_frac": metrics.ratio(router["spillovers"], router["routed"]),
                "net.router.dispatch_imbalance": metrics.ratio(max(dispatched), min(dispatched)),
                "net.router.failovers": router["failovers"],
            }
        )
    return layer
