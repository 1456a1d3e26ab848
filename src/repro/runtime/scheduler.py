"""Pluggable, string-keyed execution schedulers for compiled plans.

A scheduler decides *where and in what order* the shards (and tiles) of
an :class:`~repro.runtime.plan.ExecutionPlan` run; the layer-level
execution *strategy* (:mod:`repro.api.backends`) still decides *how*
each crossbar stage is sampled. Four first-class schedulers:

``"serial"``
    In-process, shard by shard, under the engine's execution lock —
    exactly the session loop the Engine has always run.
``"shard-parallel"``
    Shard groups fan out over the calling thread and a worker process
    pool. Activations ship through the shared-memory
    :class:`~repro.runtime.transport.ActivationRing` by default;
    per-shard reseeding keeps N-worker output bit-identical to serial
    for the same plan.
``"tile-parallel"``
    Shards stay in-process but every crossbar stage's *column tiles*
    run concurrently on a thread pool — the axis that still has
    headroom after the shard axis saturates at ``batch / micro_batch``.
    Tiles draw from their own per-tile generators, so the results are
    bit-identical to the serial ``"stochastic-packed"`` path.
``"adaptive"``
    Inspects the compiled :class:`~repro.runtime.plan.ExecutionPlan`
    before execution and *chooses* one of the other three per request,
    driven by the calibratable cost model of
    :mod:`repro.runtime.costmodel` (plans below the break-even window
    count always run serial). The recommended default for
    pool-capable backends; ``REPRO_FORCE_SCHEDULER`` overrides the
    choice, per-stage decisions surface in
    :attr:`repro.api.results.InferenceResult.decisions`.

All of them return **per-shard** ``(logits, telemetry)`` pairs in plan
order, which is what lets the serving daemon slice a coalesced wave
back into per-request results.

``REPRO_MAX_POOL_WORKERS`` (environment) caps the fan-out of the
pool-backed schedulers — the ``make check-runtime`` tier sets it to 2
so pool tests cannot oversubscribe CI hosts.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import replace
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.api.backends import get_backend
from repro.api.results import LayerTelemetry
from repro.runtime import faults, transport
from repro.runtime.env import env_int, env_str
from repro.runtime.costmodel import (
    ADAPTIVE_MODES,
    AdaptiveChoice,
    CostModel,
    candidate_modes,
    load_cost_model,
)
from repro.runtime.plan import (
    ExecutionPlan,
    compile_plan,
    group_vectorizable,
    run_stages,
    run_stages_group,
    seed_shard,
)
from repro.runtime.recovery import (
    DeadlineExceeded,
    RecoveryLog,
    RetryPolicy,
    run_with_recovery,
)
from repro.utils.rng import new_rng

#: (logits, per-stage telemetry) for one shard — every scheduler's unit
#: of output.
ShardResult = Tuple[np.ndarray, List[LayerTelemetry]]

_SCHEDULERS: Dict[str, Type] = {}


def register_scheduler(name: str, *, summary: str = ""):
    """Class decorator registering a scheduler under ``name``.

    The class must provide
    ``run_shards(network, x, plan, *, strategy, exec_lock, rng,
    deadline_s)`` returning per-shard :data:`ShardResult` pairs in plan
    order (``deadline_s`` may be ignored by schedulers that cannot
    abandon stragglers — the serial loop is itself the rescue path).
    """

    def decorator(cls):
        if name in _SCHEDULERS:
            raise ValueError(f"scheduler {name!r} is already registered")
        cls.name = name
        if summary:
            cls.summary = summary
        _SCHEDULERS[name] = cls
        return cls

    return decorator


def available_schedulers() -> List[str]:
    """Registered scheduler names, sorted."""
    return sorted(_SCHEDULERS)


def resolve_scheduler(source) -> Tuple[object, bool]:
    """Resolve ``source`` (name or instance) to ``(scheduler, owned)``.

    ``owned`` is True when this call constructed a resource-carrying
    scheduler from a name — the caller must then close it. Instances
    pass through unowned; the stateless serial scheduler is shared.
    """
    if hasattr(source, "run_shards"):
        return source, False
    cls = _SCHEDULERS.get(source)
    if cls is None:
        raise KeyError(
            f"unknown scheduler {source!r}; registered: "
            f"{', '.join(available_schedulers())}"
        )
    if getattr(cls, "stateless", False):
        instance = getattr(cls, "_shared", None)
        if instance is None:
            instance = cls._shared = cls()
        return instance, False
    return cls(), True


def _worker_cap(workers: int) -> int:
    """Apply the ``REPRO_MAX_POOL_WORKERS`` environment cap.

    A malformed or non-positive cap fails loudly here, at scheduler
    construction, instead of surfacing as an opaque crash deep inside
    the process pool (a mis-set CI variable should stop the build with
    a message that names itself).
    """
    value = env_int("REPRO_MAX_POOL_WORKERS", minimum=1)
    if value is None:
        return workers
    return max(1, min(workers, value))


def _pool_context():
    """The multiprocessing context worker pools are built from.

    ``fork`` whenever the creating process is still single-threaded:
    the worker then *shares* the parent's physical pages (network
    weights, cached sampler tables, warmed bytecode) copy-on-write
    instead of carrying its own unpickled copies. On small-cache
    machines that halves the combined working set — measured here as a
    ~2x per-wave speedup of the group executor over a forkserver
    worker running the identical code, which is the difference between
    pooled dispatch beating serial and losing to it.

    ``forkserver`` once any other thread exists: serving front-ends
    create pools lazily from worker *threads*, and a plain ``fork``
    there occasionally snapshots another thread's held lock into the
    child, deadlocking the pool initializer (the flaky check-runtime
    hang). The fork server is a fresh single-threaded process (started
    via fork+exec), so its forks are always clean. Like any spawn-based
    start method it re-imports ``__main__`` in the child, so falls back
    to the platform default both where forkserver is unavailable and
    when the parent's ``__main__`` is not importable from a real file
    (``python - <<...`` / piped-stdin scripts, whose recorded path is
    the literal ``<stdin>``).
    """
    if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        return multiprocessing.get_context()
    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return multiprocessing.get_context()
    # Preload this module (and with it numpy + the repro package) into
    # the fork server once, so every worker forks with warm imports
    # instead of re-importing the scientific stack per process.
    context.set_forkserver_preload(["repro.runtime.scheduler"])
    return context


# ----------------------------------------------------------------------
# Serial: the in-process session loop.
# ----------------------------------------------------------------------
@register_scheduler("serial", summary="in-process, shard by shard")
class SerialScheduler:
    """Execute shards one after another in the calling process.

    Each shard's (reseed, execute) pair runs under ``exec_lock`` (the
    engine's execution lock): the shared layers hold that shard's
    sampler state for exactly the critical section, so concurrent
    sessions interleave at shard granularity without clobbering each
    other. Seedless shards (unseeded sessions) continue the network's
    current streams via ``rng``, exactly like the legacy executor.
    """

    stateless = True

    def run_shards(
        self,
        network,
        x: np.ndarray,
        plan,
        *,
        strategy,
        exec_lock=None,
        rng: Optional[np.random.Generator] = None,
        deadline_s: Optional[float] = None,
    ) -> List[ShardResult]:
        # ``deadline_s`` is accepted for protocol parity and ignored:
        # the serial loop has no stragglers to abandon — it *is* the
        # rescue path every deadline recovery falls back to.
        lock = exec_lock if exec_lock is not None else threading.RLock()
        outputs: List[ShardResult] = []
        for shard in plan.shards:
            # float64 conversion happens per shard so micro-batching
            # bounds peak memory on large requests.
            chunk = np.asarray(x[shard.start : shard.stop], dtype=np.float64)
            with lock:
                shard_rng = (
                    rng if shard.seed is None else seed_shard(network, shard.seed)
                )
                if shard_rng is None:  # pragma: no cover - defensive
                    raise ValueError(
                        "seedless shard requires an explicit rng; refusing "
                        "to draw fresh entropy inside a plan execution path"
                    )
                telemetry: List[LayerTelemetry] = []
                logits = run_stages(network, chunk, strategy, shard_rng, telemetry)
            outputs.append((logits, telemetry))
        return outputs

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<scheduler serial>"


# ----------------------------------------------------------------------
# Shard-parallel: the process pool.
# ----------------------------------------------------------------------
#: Per-worker-process state, populated by the pool initializer: each
#: worker holds its own copy of the compiled network plus the inner
#: layer-level strategy it executes shards with.
_WORKER_STATE: dict = {}


def _worker_init(
    network,
    inner_backend: str,
    fault_plan: Optional[dict] = None,
    lane_conns: Optional[list] = None,
    lane_parent_fds: Optional[list] = None,
) -> None:
    """Pool initializer: receive the network once, resolve the inner
    strategy. Runs in the worker process. ``fault_plan`` (a serialized
    :class:`~repro.runtime.faults.FaultPlan`) arms the chaos harness in
    this worker; only the scheduler's *first* pool generation ships one,
    so rebuilt pools come up healthy.

    ``lane_conns`` are the worker ends of the express-lane pipes (fork
    context only — they ride the fork snapshot, never a pickle); this
    worker parks on one of them when :func:`_worker_lane` runs.
    ``lane_parent_fds`` are the fork-inherited duplicates of the
    *scheduler's* ends, closed here so a worker can never hold a lane's
    parent side open — EOF detection in both directions depends on
    exactly one owner per end."""
    _WORKER_STATE["network"] = network
    _WORKER_STATE["strategy"] = get_backend(inner_backend)
    _WORKER_STATE["lane_conns"] = lane_conns
    for fd in lane_parent_fds or []:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    if fault_plan is not None:
        faults.install_fault_plan(faults.FaultPlan.from_dict(fault_plan))
    else:
        # A fork(server) snapshot can carry the parent's installed plan
        # in module globals; only explicitly shipped plans may arm here
        # (rebuilt pools must come up healthy for recovery to converge).
        faults.clear_inherited_plan()


def _warm_tables(network) -> None:
    """Build the fused samplers' cached inverse-CDF tables for
    ``network`` — the dominant first-shard cost. Draws nothing, so it
    is safe on a live network that seedless sessions share."""
    for layer in network.tiled_layers:
        sampler = getattr(layer, "_fused_sampler", None)
        if sampler is not None:
            bits = layer.config.window_bits
            if sampler.supports_batched_draws(bits):
                sampler._count_quant_table(bits)


def _worker_warmup() -> int:
    """Warm one worker end to end (runs in the worker process).

    Builds the shipped network's sampler tables (:func:`_warm_tables`)
    so a prewarmed pool's first real wave pays compute only. Returns
    the worker's pid (which also proves the process exists:
    ``ProcessPoolExecutor`` spawns lazily on first submit).
    """
    network = _WORKER_STATE["network"]
    _warm_tables(network)
    for layer in network.tiled_layers:
        # One micro-batch-sized pass per layer: initializes the worker's
        # BLAS state, faults the weight pages in (a forked worker pays a
        # copy-on-write storm on first touch otherwise), and sizes the
        # sampler's scratch allocations. Real shards reseed via
        # seed_shard, so advancing this copy's sampler streams (and its
        # pass counters) is invisible to every actual request.
        layer.forward(np.ones((64, layer.in_features)))
    return os.getpid()


def _run_group_local(slab: np.ndarray, specs) -> List[ShardResult]:
    """Execute one contiguous shard *group* in this worker.

    ``specs`` is a tuple of ``(seed, start, stop, index)`` rows relative
    to ``slab``. Every shard visits the ``worker.shard`` fault site.
    When the inner strategy's draw chain can be reproduced externally
    (:func:`~repro.runtime.plan.group_vectorizable`), the whole group
    runs stage-major through :func:`~repro.runtime.plan.run_stages_group`
    — one numpy pass per stage over all the group's rows, per-shard
    uniforms drawn in shard order — which is bit-identical to the
    per-shard loop it replaces. Otherwise (bit-level backends, seedless
    shards) the group falls back to that loop, which reseeds the
    worker's network copy per shard. The scheduler's calling thread
    runs its own group through ``run_stages_group`` directly, and only
    when the group is vectorizable (see
    :meth:`ShardParallelScheduler._run_pool_once`).
    """
    network = _WORKER_STATE["network"]
    strategy = _WORKER_STATE["strategy"]
    for _seed, start, stop, index in specs:
        faults.fault_point("worker.shard", shard=index, rows=int(stop - start))
    slab = np.asarray(slab, dtype=np.float64)
    if all(s[0] is not None for s in specs) and group_vectorizable(network, strategy):
        return run_stages_group(
            network,
            slab,
            [(seed, start, stop) for seed, start, stop, _index in specs],
            strategy,
        )
    outputs: List[ShardResult] = []
    for seed, start, stop, _index in specs:
        rng = seed_shard(network, seed)
        telemetry: List[LayerTelemetry] = []
        logits = run_stages(network, slab[start:stop], strategy, rng, telemetry)
        outputs.append((logits, telemetry))
    return outputs


def _split_groups(shards, k: int) -> List[List[Tuple[int, object]]]:
    """Split the shard sequence into at most ``k`` contiguous, balanced
    groups of ``(positional_index, shard)`` pairs.

    Contiguity matters twice: one shm ticket (or one pickled slab) can
    cover a whole group's rows, and the stage-major group executor
    needs shard rows to be consecutive blocks of its slab.
    """
    indexed = list(enumerate(shards))
    n = len(indexed)
    k = max(1, min(int(k), n))
    base, extra = divmod(n, k)
    groups: List[List[Tuple[int, object]]] = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        groups.append(indexed[pos : pos + size])
        pos += size
    return groups


def _group_rows(group) -> Tuple[int, int, tuple]:
    """``(start, stop, specs)`` of one group: its row range in the
    request and the ``(seed, start, stop, index)`` specs relative to
    that range that :func:`_run_group_local` takes."""
    base = group[0][1].start
    specs = tuple(
        (shard.seed, shard.start - base, shard.stop - base, index)
        for index, shard in group
    )
    return base, group[-1][1].stop, specs


def _worker_run_group(slab: np.ndarray, specs) -> List[ShardResult]:
    """Pickled-transport group task: the group's row slab rode the
    pool's IPC pipe."""
    return _run_group_local(slab, specs)


def _worker_run_group_shm(ticket: transport.ShmTicket, specs) -> List[ShardResult]:
    """Shared-memory group task: one ticket covers the whole group's
    contiguous rows."""
    return _run_group_local(transport.load(ticket), specs)


def _worker_lane(index: int) -> int:
    """Park this worker on express lane ``index`` (runs in the worker).

    The lane occupies the worker for the life of the pool: waves arrive
    as ``(wave_id, (kind, payload), specs)`` straight off the
    scheduler's pipe and every reply echoes the ``wave_id``, so the
    scheduler can discard a straggler's late reply from an abandoned
    wave instead of mistaking it for the current one. Task failures are
    shipped back as ``(wave_id, False, exc)`` — the lane survives them,
    exactly like a pool future carrying an exception. EOF on the pipe
    (the scheduler closed or rebuilt the pool) releases the worker back
    into the executor loop so ``shutdown`` can join it.
    """
    conns = _WORKER_STATE.get("lane_conns") or []
    conn = conns[index]
    # Sibling lane ends rode the same fork snapshot; close them so each
    # lane's worker end lives in exactly one process — a worker death
    # must EOF its own lane, not keep a sibling's half-open.
    for other_index, other in enumerate(conns):
        if other_index != index:
            other.close()
    _WORKER_STATE["lane_conns"] = [
        conn if i == index else None for i in range(len(conns))
    ]
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return index
        if message is None:
            return index
        wave_id, (kind, payload), specs = message
        try:
            if kind == "shm":
                body = _worker_run_group_shm(payload, specs)
            else:
                body = _worker_run_group(payload, specs)
            reply = (wave_id, True, body)
        except BaseException as exc:  # taxonomy: shipped to the scheduler, classified there by run_with_recovery
            reply = (wave_id, False, exc)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return index
        except Exception as exc:  # taxonomy: unpicklable reply body, summarized and re-shipped
            # The body would not pickle (an exotic exception payload);
            # ship a summary rather than severing the lane.
            try:
                conn.send((wave_id, False, RuntimeError(repr(exc))))
            except Exception:  # taxonomy: reply channel unusable, lane retires (parent sees EOF)
                return index


@register_scheduler(
    "shard-parallel",
    summary="process-pool shards over shared-memory transport",
)
class ShardParallelScheduler:
    """Fan a plan's shards over the calling thread and a worker process
    pool.

    The compiled network ships once per worker via the pool
    initializer; each shard task re-derives the full sampler state from
    its child seed and executes through the same
    :func:`~repro.runtime.plan.run_stages` the serial scheduler uses,
    so which process runs which shard is irrelevant — N-worker output
    is bit-identical to serial for the same plan.

    A wave is split into ``workers`` contiguous shard groups. With
    ``workers >= 2`` the pool holds ``workers - 1`` processes: the
    calling thread sends them the first ``workers - 1`` groups, runs the
    *last* group itself on its own network through the vectorized group
    executor, and then gathers the rest, so no core sits idle waiting.
    The last group is the caller's so that the low shard indices fault
    plans target still land on workers. A wave the group executor
    cannot take (a bit-level inner backend, seedless shards) is split
    over the worker processes alone. With ``workers=1`` the single
    group runs on one worker process.

    Parameters
    ----------
    workers:
        Fan-out: the calling thread plus ``workers - 1`` worker
        processes (one process when ``workers`` is 1). Defaults to the
        host's CPU count (capped by the ``REPRO_MAX_POOL_WORKERS``
        environment variable).
    inner:
        Layer-level backend each worker executes shards with.
    transport:
        ``"shm"`` (default) ships activations through the
        shared-memory ring; ``"pickle"`` uses the classic pickled
        slices. Falls back to pickle automatically if shared memory is
        unavailable at runtime.
    ring_slots:
        How many waves the activation ring keeps in flight.
    recovery:
        The :class:`~repro.runtime.recovery.RetryPolicy` governing how
        worker-pool failures are handled (``None`` reads the
        ``REPRO_MAX_RETRIES`` / ``REPRO_REQUEST_DEADLINE_S`` family
        from the environment). A ``BrokenProcessPool`` rebuilds the
        pool and retries with backoff; a shared-memory outage flips to
        pickle transport and retries; a blown deadline abandons the
        stragglers and re-executes serially in-process — bit-identical,
        because every shard re-derives its sampler state from its own
        plan seed. A deadline cannot cut the caller's own group short;
        it is at most ``1/workers`` of the wave, and the remote groups
        are gathered under what is left of the budget. A failed remote
        group fails the attempt, and the retry re-runs the whole wave.
        :attr:`last_recovery` reports what the calling thread's most
        recent wave went through.
    """

    stateless = False
    requires_seeds = True

    def __init__(
        self,
        workers: Optional[int] = None,
        inner: str = "stochastic",
        transport: str = "shm",
        ring_slots: int = 4,
        recovery: Optional[RetryPolicy] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if transport not in ("shm", "pickle"):
            raise ValueError(f"transport must be 'shm' or 'pickle', got {transport!r}")
        self.workers = _worker_cap(int(workers or os.cpu_count() or 1))
        # Worker processes: the calling thread runs one group itself.
        self._processes = max(1, self.workers - 1)
        self.inner = inner
        get_backend(inner)  # fail fast on unknown names
        self.transport = transport
        self.recovery = recovery if recovery is not None else RetryPolicy.from_env()
        self._ring_slots = int(ring_slots)
        self._ring: Optional[transport.ActivationRing] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_network = None
        self._pool_generation = 0
        self._serial = SerialScheduler()
        self._lock = threading.Lock()
        # Express lanes (see :meth:`warm`): one duplex pipe per worker,
        # created with a fork-context pool and activated when ``warm``
        # parks every worker on its lane. ``_lane_pending`` holds the
        # scheduler ends between pool construction and activation;
        # ``_lane_lock`` serializes waves over the parked workers.
        self._lanes: Optional[list] = None
        self._lane_pending: Optional[list] = None
        self._lane_wave = 0
        self._lane_lock = threading.Lock()
        # Per-thread recovery telemetry, mirroring the adaptive
        # scheduler's decision telemetry: serving threads sharing one
        # scheduler each see their own wave's log.
        self._recovery_local = threading.local()

    @property
    def last_recovery(self) -> Optional[RecoveryLog]:
        """The calling thread's most recent wave's
        :class:`~repro.runtime.recovery.RecoveryLog` (None before this
        thread has executed a plan)."""
        return getattr(self._recovery_local, "log", None)

    # ------------------------------------------------------------------
    def run_shards(
        self,
        network,
        x: np.ndarray,
        plan,
        *,
        strategy=None,
        exec_lock=None,
        rng=None,
        deadline_s: Optional[float] = None,
    ) -> List[ShardResult]:
        """Execute every shard on the pool and the calling thread under
        the recovery policy; per-shard results in plan order.
        ``strategy`` is accepted for interface parity but unused —
        workers and the caller's group resolve the scheduler's own
        ``inner`` backend. ``exec_lock``/``rng`` are only touched by the
        serial rescue path. ``deadline_s`` (default: the policy's)
        bounds the wall time of the pool attempts; a blown deadline
        abandons the stragglers and re-executes serially."""
        self._recovery_local.log = None
        if plan.batch_size == 0:
            # N=0 draws nothing, so skip the reseed too: the shared
            # layers are left untouched (no lock needed) and the
            # (0, n_classes) output is identical to serial.
            telemetry: List[LayerTelemetry] = []
            logits = run_stages(
                network,
                np.asarray(x[0:0], dtype=np.float64),
                get_backend(self.inner),
                new_rng(0),  # zero rows draw nothing; any fixed seed works
                telemetry,
            )
            return [(logits, telemetry)]
        faults.fault_point(
            "scheduler.wave",
            shards=len(plan.shards),
            rows=plan.batch_size,
        )
        fallback = None
        if self.recovery.serial_fallback:
            fallback = lambda: self._serial_rescue(  # noqa: E731
                network, x, plan, exec_lock, rng
            )
        outputs, log = run_with_recovery(
            lambda remaining: self._run_pool_once(network, x, plan, remaining),
            policy=self.recovery,
            deadline_s=deadline_s,
            fallback=fallback,
            on_retry=self._repair,
        )
        self._recovery_local.log = log
        return outputs

    def _run_pool_once(
        self,
        network,
        x: np.ndarray,
        plan,
        remaining: Optional[float],
    ) -> List[ShardResult]:
        """One pool attempt: publish, fan out *groups*, run the caller's
        group, gather under the remaining deadline budget.

        Shards are batched into at most ``workers`` contiguous groups —
        one pool submission (and one shm ticket) per group instead of
        one per shard, so the per-task dispatch constant is paid once
        per worker per wave. Every group executes stage-major and
        vectorized when the inner backend allows it (see
        :func:`_run_group_local`), bit-identical to per-shard execution
        either way.

        With ``workers >= 2`` and a vectorizable wave
        (:func:`~repro.runtime.plan.group_vectorizable`), the wave is
        split ``workers`` ways and the last group is the caller's own
        (``run_own``): its rows come straight from ``x`` (only the rows
        before it are published) and it runs through
        :func:`~repro.runtime.plan.run_stages_group` on the live
        ``network``, which draws from per-shard generators and leaves
        the network's own sampler streams alone, so no lock is taken.
        Any other wave (a bit-level inner backend, seedless shards)
        would reseed the live layers per shard, so it is split over the
        worker processes only.
        """
        pool = self._ensure_pool(network)
        strategy = get_backend(self.inner)
        caller = self.workers > 1 and group_vectorizable(
            network, strategy, plan.shards
        )
        groups = _split_groups(
            plan.shards, self.workers if caller else self._processes
        )
        own = groups.pop() if caller else None

        def run_own() -> List[ShardResult]:
            if own is None:
                return []
            start, stop, specs = _group_rows(own)
            return run_stages_group(
                network,
                np.asarray(x[start:stop], dtype=np.float64),
                [(seed, lo, hi) for seed, lo, hi, _index in specs],
                strategy,
            )

        lease = None
        if self.transport == "shm" and groups:
            try:
                lease = self._ensure_ring().publish(
                    np.ascontiguousarray(x[: groups[-1][-1][1].stop])
                )
            except transport.TransportUnavailable:
                # Host cannot do shared memory — flip to pickle for the
                # lifetime of this scheduler and carry on.
                self.transport = "pickle"
        deadline = None if remaining is None else time.monotonic() + remaining
        futures = []
        abandoned = False
        try:
            lanes = self._lanes
            if lanes is not None and len(groups) <= len(lanes):
                try:
                    return self._run_lanes(lanes, lease, x, groups, deadline, run_own)
                except BaseException:  # taxonomy: re-raised for run_with_recovery after marking the lease
                    # A lane may still be reading the slab (a straggler,
                    # a dead worker's half-read) — never recycle the
                    # slot under it.
                    abandoned = True
                    raise
            for group in groups:
                start, stop, specs = _group_rows(group)
                if lease is not None:
                    futures.append(
                        pool.submit(
                            _worker_run_group_shm, lease.ticket(start, stop), specs
                        )
                    )
                else:
                    futures.append(
                        pool.submit(_worker_run_group, x[start:stop], specs)
                    )
            own_outputs = run_own()
            outputs: List[ShardResult] = []
            for future in futures:
                budget = None if deadline is None else deadline - time.monotonic()
                if budget is not None and budget <= 0:
                    raise DeadlineExceeded(
                        "wave deadline exhausted while gathering shards"
                    )
                try:
                    outputs.extend(future.result(timeout=budget))
                except (FuturesTimeout, TimeoutError):
                    raise DeadlineExceeded(
                        "wave deadline exhausted while gathering shards"
                    ) from None
            outputs.extend(own_outputs)
            return outputs
        except DeadlineExceeded:
            # Straggler path: cancel what has not started and walk away
            # — never wait out a wedged worker.
            abandoned = True
            for future in futures:
                future.cancel()
            raise
        finally:
            if lease is not None:
                if abandoned:
                    # A straggler may still be reading the slot; destroy
                    # the segment instead of recycling it so a retry can
                    # never rewrite memory under a live reader.
                    lease.abandon()
                else:
                    # An early future's exception must not release the
                    # slot while later shards are still reading it — the
                    # ring's never-rewrite-while-read invariant. Wait
                    # out every in-flight task first (a no-op on the
                    # happy path).
                    wait(futures)
                    lease.release()

    def _run_lanes(
        self,
        lanes: list,
        lease,
        x: np.ndarray,
        groups,
        deadline: Optional[float],
        run_own,
    ) -> List[ShardResult]:
        """One wave over the express lanes: direct pipe send/recv to the
        parked workers (see :meth:`warm`), no executor machinery on the
        per-wave path. ``run_own`` runs the caller's group between the
        sends and the first receive; its results come last.

        The executor's submit/gather crosses its management thread and
        call-queue feeder on the way in and the result queue plus the
        management thread on the way out — ~6 scheduler hops per wave,
        each paying run-queue latency on a contended host. A lane is one
        write and one read on a dedicated pipe: the worker wakes
        directly, computes, and wakes the caller directly. Replies are
        wave-tagged, so a straggler's reply from a deadline-abandoned
        wave is discarded on the next wave instead of corrupting it. A
        severed lane (dead worker) surfaces as ``BrokenProcessPool``,
        which the recovery policy repairs exactly like an executor
        crash: rebuild the pool and retry (the rebuilt pool runs
        executor-dispatch until the next ``warm``).
        """
        with self._lane_lock:
            self._lane_wave += 1
            wave_id = self._lane_wave
            try:
                for slot, group in enumerate(groups):
                    start, stop, specs = _group_rows(group)
                    if lease is not None:
                        payload = ("shm", lease.ticket(start, stop))
                    else:
                        payload = ("pickle", x[start:stop])
                    lanes[slot].send((wave_id, payload, specs))
            except (BrokenPipeError, OSError) as exc:
                raise BrokenProcessPool(
                    f"express lane severed mid-send: {exc}"
                ) from exc
            own_outputs = run_own()
            outputs: List[ShardResult] = []
            for slot in range(len(groups)):
                while True:
                    budget = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if budget is not None and budget <= 0:
                        raise DeadlineExceeded(
                            "wave deadline exhausted while gathering shards"
                        )
                    try:
                        if not lanes[slot].poll(budget):
                            raise DeadlineExceeded(
                                "wave deadline exhausted while gathering shards"
                            )
                        got_wave, ok, body = lanes[slot].recv()
                    except (EOFError, OSError) as exc:
                        raise BrokenProcessPool(
                            f"express lane severed mid-wave: {exc}"
                        ) from exc
                    if got_wave != wave_id:
                        continue  # stale reply from an abandoned wave
                    if not ok:
                        raise body
                    outputs.extend(body)
                    break
            outputs.extend(own_outputs)
            return outputs

    def _repair(self, exc: BaseException) -> Optional[str]:
        """Fix the broken resource before a retry; returns the action
        label recorded in the :class:`RecoveryLog`."""
        if isinstance(exc, BrokenProcessPool):
            self._rebuild_pool()
            return "rebuild-pool"
        if isinstance(exc, transport.TransportUnavailable):
            self.transport = "pickle"
            return "pickle-transport"
        return None

    def _close_lanes(self) -> None:
        """Tear down the express lanes (idempotent). Closing the
        scheduler ends EOFs every parked worker back into the executor
        loop, which is what lets ``shutdown(wait=True)`` join a pool
        whose workers were parked on lanes."""
        with self._lane_lock:
            for conn in (self._lanes or []) + (self._lane_pending or []):
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            self._lanes = None
            self._lane_pending = None

    def _rebuild_pool(self) -> None:
        """Tear down a broken pool so the next attempt builds a fresh
        one (generation > 0, so no fault plan ships to its workers)."""
        with self._lock:
            self._close_lanes()
            if self._pool is not None:
                # The pool is broken — its workers are gone; waiting on
                # it can only block.
                self._pool.shutdown(wait=False)
                self._pool = None
                self._pool_network = None

    def _serial_rescue(
        self, network, x: np.ndarray, plan, exec_lock, rng
    ) -> List[ShardResult]:
        """In-process re-execution of the whole wave — always completes
        and is bit-identical to a pool run of the same plan, because
        every shard re-derives its sampler state from its own seed."""
        return self._serial.run_shards(
            network,
            x,
            plan,
            strategy=get_backend(self.inner),
            exec_lock=exec_lock,
            rng=rng,
        )

    def _ensure_pool(self, network) -> ProcessPoolExecutor:
        """The live pool for ``network``, (re)created under a lock so a
        serving front-end's threads can share one scheduler instance.

        Only the *first* generation ships the active fault plan to its
        workers: a rebuilt pool models "the crashed worker's replacement
        is healthy", which is what lets retry-based recovery converge
        instead of re-injecting the same crash forever.
        """
        with self._lock:
            if self._pool is not None and self._pool_network is not network:
                self._close_lanes()
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                plan = faults.active_fault_plan()
                shipped = (
                    plan.as_dict()
                    if plan is not None and self._pool_generation == 0
                    else None
                )
                context = _pool_context()
                # Express-lane pipes must exist before the workers fork
                # so the worker ends ride the fork snapshot (Connection
                # objects never cross a pickle). Spawn-based contexts
                # cannot inherit them — those pools simply have no
                # lanes and keep executor dispatch.
                lane_pairs = []
                if context.get_start_method() == "fork":
                    # Start the resource tracker before forking so the
                    # workers' shm attaches register with the parent's
                    # tracker; a worker forked first starts its own and
                    # warns about the parent's unlinked segments at exit.
                    resource_tracker.ensure_running()
                    lane_pairs = [
                        context.Pipe(duplex=True) for _ in range(self._processes)
                    ]
                self._pool = ProcessPoolExecutor(
                    max_workers=self._processes,
                    mp_context=context,
                    initializer=_worker_init,
                    initargs=(
                        network,
                        self.inner,
                        shipped,
                        [child for _parent, child in lane_pairs] or None,
                        [parent.fileno() for parent, _child in lane_pairs]
                        or None,
                    ),
                )
                self._prespawn_workers(self._pool)
                # The workers hold their fork-inherited copies now;
                # drop ours so a worker death EOFs its lane.
                for _parent, child in lane_pairs:
                    child.close()
                with self._lane_lock:
                    self._lane_pending = [
                        parent for parent, _child in lane_pairs
                    ] or None
                self._pool_network = network
                self._pool_generation += 1
            return self._pool

    def _prespawn_workers(self, pool: ProcessPoolExecutor) -> None:
        """Start every worker before any task is submitted.

        The executor spawns workers lazily, one per submit — so a worker
        crash mid-wave can race a sibling's in-flight spawn, and the
        executor's broken-pool teardown then terminates only the workers
        registered at that instant but *joins* the late-registered one
        too, which (never signalled, blocked on the torn-down call
        queue) hangs the join forever. With the full complement spawned
        up front there is never a spawn in flight for a crash to race.
        No tasks exist yet, so poking the executor's spawn machinery
        here is single-threaded; if the stdlib internals ever move, the
        lazy path is only a hang-risk under injected crashes.
        """
        try:  # pragma: no branch
            with pool._shutdown_lock:
                while len(pool._processes) < self._processes:
                    pool._spawn_process()
        except AttributeError:  # pragma: no cover - stdlib internals moved
            pass

    def _ensure_ring(self) -> transport.ActivationRing:
        with self._lock:
            if self._ring is None:
                self._ring = transport.ActivationRing(slots=self._ring_slots)
            return self._ring

    # ------------------------------------------------------------------
    @property
    def pool_generation(self) -> int:
        """How many pools this scheduler has built (0 = none yet).

        A stable generation across waves is the observable proof that
        the warm pool was *reused* rather than rebuilt — the daemon
        warm-pool tests assert on it.
        """
        return self._pool_generation

    def warm(self, network) -> int:
        """Build the worker pool (and shm ring) and every sampler table
        a wave needs before any traffic.

        Pool construction — forkserver spin-up, shipping the network to
        every worker, building their sampler tables — measured 0.5–0.8 s
        for ``workers=2`` under forkserver (2-vCPU Linux host, Python
        3.11), most of it the fork server's preload import of this
        module (see :func:`_pool_context`); a fork-context pool skips
        that import. Paying it at daemon startup instead of inside the
        first request's deadline is what makes the first wave's latency
        look like every other wave's. Idempotent: a live pool for the same
        network is left untouched. Returns the pool generation.

        While the workers warm up, the calling thread builds the sampler
        tables of its own ``network`` for the group it runs in every
        vectorizable wave (``workers >= 2``). It runs no forward pass
        there: that would advance the live streams seedless sessions
        continue.

        On a fork-context pool, warming also activates the *express
        lanes*: every worker parks on a dedicated duplex pipe, and
        subsequent waves are dispatched straight over those pipes (one
        write, one read per group) instead of through the executor's
        management-thread/queue machinery — see :meth:`_run_lanes`.
        """
        with self._lock:
            if (
                self._pool is not None
                and self._pool_network is network
                and self._lanes is not None
            ):
                # Already warm AND parked: the workers are occupied by
                # their lane loops, so a second round of warmup tasks
                # would wait forever. The idempotency contract covers
                # this — there is nothing left to warm.
                return self._pool_generation
        self._ensure_pool(network)
        if self.transport == "shm":
            try:
                self._ensure_ring()
            except transport.TransportUnavailable:
                self.transport = "pickle"
        # ProcessPoolExecutor spawns its processes lazily on first
        # submit; force every worker up *now* and have each build its
        # sampler tables, so no real request pays spawn or table cost.
        futures = [
            self._pool.submit(_worker_warmup) for _ in range(self._processes)
        ]
        if self.workers > 1:
            _warm_tables(network)
        for future in futures:
            future.result()
        with self._lock:
            if self._pool is not None and self._pool_network is network:
                with self._lane_lock:
                    pending, self._lane_pending = self._lane_pending, None
                if pending is not None and self._lanes is None:
                    # Park every worker on its lane. The N lane tasks
                    # are claimed by N distinct workers because a
                    # parked worker never returns to take another.
                    for index in range(len(pending)):
                        self._pool.submit(_worker_lane, index)
                    with self._lane_lock:
                        self._lanes = pending
        return self._pool_generation

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool and activation ring down (idempotent)."""
        with self._lock:
            self._close_lanes()
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_network = None
            if self._ring is not None:
                self._ring.close()
                self._ring = None

    def __enter__(self) -> "ShardParallelScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<scheduler {self.name} workers={self.workers} "
            f"inner={self.inner!r} transport={self.transport!r}>"
        )


# ----------------------------------------------------------------------
# Tile-parallel: concurrent column tiles within each shard.
# ----------------------------------------------------------------------
class _TileSplitStrategy:
    """Layer-level strategy wrapper that executes a crossbar layer's
    column tiles concurrently on a thread pool.

    Every tile samples through its *own* generator
    (``layer.tiles[i][j]`` each carry one), so execution order across
    tiles cannot change the draws — the output is bit-identical to the
    serial packed path for the same layer state. Layers with a single
    column tile (and all non-crossbar work) delegate to the base
    strategy untouched.
    """

    def __init__(self, base, pool: ThreadPoolExecutor, dense: bool) -> None:
        self._base = base
        self._pool = pool
        self._dense = dense
        self.deterministic = getattr(base, "deterministic", False)
        self.name = f"tile-parallel({getattr(base, 'name', base)!r})"

    def run_layer(self, layer, flat, *, rng, validate=None):
        if layer.n_col_tiles < 2 or self.deterministic:
            return self._base.run_layer(layer, flat, rng=rng, validate=validate)
        chunks = layer._split_activations(flat)
        n = chunks[0].shape[0]
        # Read once, here: the read applies pending tile seeds, which
        # must not happen concurrently inside the tile threads.
        tiles = layer.tiles

        def one_tile(j: int) -> np.ndarray:
            if self._dense:
                streams = np.stack(
                    [
                        tiles[i][j].sample_window(chunks[i], validate=validate)
                        for i in range(layer.n_row_tiles)
                    ],
                    axis=0,
                )
                return layer.module.accumulate(streams)
            words = np.stack(
                [
                    tiles[i][j]
                    .sample_window(chunks[i], packed=True, validate=validate)
                    .words
                    for i in range(layer.n_row_tiles)
                ],
                axis=0,
            )
            return layer.module.accumulate_packed(words)

        outputs = list(self._pool.map(one_tile, range(layer.n_col_tiles)))
        # Counters fold in once per layer pass (the per-tile workers
        # must not race on them).
        layer.n_passes += layer.n_row_tiles * layer.n_col_tiles
        layer.n_inferences += n
        return np.concatenate(outputs, axis=-1)


@register_scheduler(
    "tile-parallel",
    summary="in-process shards, concurrent column tiles per stage",
)
class TileParallelScheduler:
    """Serial over shards, parallel over each crossbar stage's column
    tiles — the intra-shard axis the shard schedulers leave untouched.

    Tiles execute the bit-level path on their own per-tile generators,
    so results are **bit-identical to the serial** ``"stochastic-packed"``
    **backend** for the same session seed (per-tile independence makes
    tile execution order irrelevant). Pair it with the
    ``"stochastic-dense"`` strategy to split the dense reference path
    instead.
    """

    stateless = False
    #: Asks the session to compile the ExecutionPlan task DAG (the
    #: fan-out decision reads it); plain shard schedulers skip that
    #: per-request compile entirely.
    needs_task_graph = True

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = _worker_cap(int(workers or os.cpu_count() or 1))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._serial = SerialScheduler()
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-tile",
                )
            return self._pool

    def run_shards(
        self,
        network,
        x: np.ndarray,
        plan,
        *,
        strategy,
        exec_lock=None,
        rng=None,
        deadline_s: Optional[float] = None,
    ) -> List[ShardResult]:
        # ``deadline_s`` is accepted for protocol parity and ignored:
        # tiles run in-process and always complete, like the serial
        # rescue path.
        # The plan's task DAG tells us whether any stage actually fans
        # out; a pure single-tile network skips the wrapper entirely.
        fans_out = True
        if isinstance(plan, ExecutionPlan):
            fans_out = any(
                task.tile is not None and task.tile > 0 for task in plan.tasks
            )
        if not fans_out:
            return self._serial.run_shards(
                network, x, plan, strategy=strategy, exec_lock=exec_lock, rng=rng
            )
        dense = getattr(strategy, "name", "") == "stochastic-dense"
        wrapped = _TileSplitStrategy(strategy, self._ensure_pool(), dense)
        return self._serial.run_shards(
            network, x, plan, strategy=wrapped, exec_lock=exec_lock, rng=rng
        )

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "TileParallelScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<scheduler {self.name} workers={self.workers}>"


# ----------------------------------------------------------------------
# Adaptive: the cost-model chooser over the other three.
# ----------------------------------------------------------------------
@register_scheduler(
    "adaptive",
    summary="cost-model chooser: serial / shard / tile fan-out per plan",
)
class AdaptiveScheduler:
    """Choose the fan-out per request from the compiled plan's costs.

    Before executing, the scheduler ranks the *correct* candidate modes
    (:func:`~repro.runtime.costmodel.candidate_modes`: shard fan-out
    needs seeded shards and a registered backend name; tile fan-out
    needs a per-tile-generator backend) with the
    :class:`~repro.runtime.costmodel.CostModel` and dispatches the plan
    to the matching sub-scheduler. Because every candidate is
    bit-identical to serial for the same plan, the choice can never
    change the logits — only the wall time. Plans whose total estimated
    windows sit below the model's break-even threshold short-circuit to
    serial, so tiny requests never pay pool tax.

    The per-stage decisions of the latest run (chosen mode, predicted
    vs measured cost) are exposed as :attr:`last_decisions` /
    :attr:`last_choice`; the :class:`~repro.api.Session` copies them
    into :attr:`~repro.api.results.InferenceResult.decisions` and the
    :class:`~repro.runtime.daemon.ServingDaemon` into
    :attr:`~repro.runtime.daemon.DaemonStats.decisions`.

    Parameters
    ----------
    workers:
        Fan-out width for both the shard pool (the calling thread plus
        ``workers - 1`` processes, see :class:`ShardParallelScheduler`)
        and the tile threads (defaults to the CPU count, capped by
        ``REPRO_MAX_POOL_WORKERS``).
    cost_model:
        A ready-made :class:`~repro.runtime.costmodel.CostModel`, a
        :class:`~repro.runtime.costmodel.CostCoefficients`, or a path
        to saved coefficients JSON. ``None`` honors the
        ``REPRO_COST_COEFFICIENTS`` environment variable and falls back
        to the defaults.
    recovery:
        :class:`~repro.runtime.recovery.RetryPolicy` handed to the
        shard-parallel sub-schedulers (``None`` = environment
        defaults); :attr:`last_recovery` relays what the chosen path
        went through.

    ``REPRO_FORCE_SCHEDULER`` (environment) pins the choice to one of
    ``serial`` / ``shard-parallel`` / ``tile-parallel`` for A/B runs;
    forcing a mode that is unavailable for correctness reasons raises.
    """

    stateless = False
    #: The chooser reads the task DAG, so the session must compile it.
    needs_task_graph = True
    #: Plans must carry real seeds — the chooser may send them to the
    #: process pool, where seedless shards would replay each worker's
    #: identical compile-time streams.
    requires_seeds = True

    def __init__(
        self,
        workers: Optional[int] = None,
        cost_model=None,
        recovery: Optional[RetryPolicy] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = _worker_cap(int(workers or os.cpu_count() or 1))
        self.cost_model: CostModel = load_cost_model(cost_model)
        self.recovery = recovery if recovery is not None else RetryPolicy.from_env()
        self._serial = SerialScheduler()
        self._tile: Optional[TileParallelScheduler] = None
        # One pool per inner backend name: a scheduler shared by
        # sessions with different backends must never tear a pool down
        # under another thread's in-flight run.
        self._shards: Dict[str, ShardParallelScheduler] = {}
        self._lock = threading.Lock()
        # Decision telemetry is thread-local: a scheduler instance
        # shared across serving threads reports each request's own
        # choice to the thread that ran it.
        self._decisions = threading.local()
        # Repeated identical requests (a session re-running the same
        # burst, a daemon's steady-state wave shape) re-derive the exact
        # same chooser outcome: predictions depend only on the memoized
        # task graph and the chooser inputs, never on the shard seeds.
        # Memoize on those and rebuild only the (mutable) per-run
        # telemetry records, so steady-state dispatch skips the
        # prediction walk entirely.
        self._choice_memo: Dict[tuple, AdaptiveChoice] = {}

    @property
    def last_choice(self) -> Optional[AdaptiveChoice]:
        """The calling thread's most recent chooser outcome (None
        before this thread has executed a plan)."""
        return getattr(self._decisions, "choice", None)

    @property
    def last_decisions(self):
        """Per-stage decision records of the calling thread's most
        recent run (what :attr:`InferenceResult.decisions` surfaces)."""
        choice = self.last_choice
        return None if choice is None else choice.stages

    @property
    def last_recovery(self) -> Optional[RecoveryLog]:
        """The calling thread's most recent run's recovery log (None
        unless the chooser dispatched to a recovering path)."""
        return getattr(self._decisions, "recovery", None)

    # ------------------------------------------------------------------
    def run_shards(
        self,
        network,
        x: np.ndarray,
        plan,
        *,
        strategy,
        exec_lock=None,
        rng=None,
        deadline_s: Optional[float] = None,
    ) -> List[ShardResult]:
        if not isinstance(plan, ExecutionPlan):
            # Callers that hand over a bare ShardPlan still get the
            # chooser: compile the DAG here.
            plan = compile_plan(
                network, plan, input_shape=np.asarray(x).shape[1:]
            )
        choice = self._choose(plan, strategy)
        self._decisions.recovery = None
        if choice.mode == "shard-parallel":
            scheduler = self._ensure_shard(getattr(strategy, "name"))
            outputs = scheduler.run_shards(
                network,
                x,
                plan,
                exec_lock=exec_lock,
                rng=rng,
                deadline_s=deadline_s,
            )
            self._decisions.recovery = scheduler.last_recovery
        elif choice.mode == "tile-parallel":
            scheduler = self._ensure_tile()
            outputs = scheduler.run_shards(
                network, x, plan, strategy=strategy, exec_lock=exec_lock, rng=rng
            )
        else:
            outputs = self._serial.run_shards(
                network, x, plan, strategy=strategy, exec_lock=exec_lock, rng=rng
            )
        self._record_measured(choice, outputs)
        self._decisions.choice = choice
        return outputs

    def _choose(self, plan: ExecutionPlan, strategy) -> AdaptiveChoice:
        name = getattr(strategy, "name", None)
        modes = candidate_modes(
            plan,
            backend_name=name,
            deterministic=getattr(strategy, "deterministic", False),
        )
        force = env_str("REPRO_FORCE_SCHEDULER")
        if force is not None and force not in ADAPTIVE_MODES:
            raise ValueError(
                f"REPRO_FORCE_SCHEDULER must be one of "
                f"{', '.join(ADAPTIVE_MODES)}; got {force!r}"
            )
        # A live pool for this backend means shard-parallel predictions
        # skip the one-time warmup charge — prewarmed daemons (and any
        # session after its first pooled run) compete on marginal cost.
        warm = (self.pool_generation(name) or 0) > 0 if name else False
        # plan.tasks is the task-graph tuple compile_plan memoizes on
        # the network (seed-independent, alive as long as the network),
        # so its identity keys equivalent plans across runs.
        key = (
            id(plan.tasks),
            id(self.cost_model.coefficients),
            name,
            tuple(modes),
            force,
            warm,
        )
        cached = self._choice_memo.get(key)
        if cached is None:
            if len(self._choice_memo) >= 128:
                self._choice_memo.clear()
            cached = self._choice_memo[key] = self.cost_model.choose(
                plan, workers=self.workers, modes=modes, force=force, warm=warm
            )
        # Fresh telemetry records per run: _record_measured fills
        # measured_s in place, and each InferenceResult must keep its
        # own copies.
        return AdaptiveChoice(
            mode=cached.mode,
            predictions=dict(cached.predictions),
            stages=[replace(s, measured_s=None) for s in cached.stages],
            forced=cached.forced,
            reason=cached.reason,
        )

    @staticmethod
    def _record_measured(choice: AdaptiveChoice, outputs: List[ShardResult]) -> None:
        """Fill each stage decision's ``measured_s`` from the executed
        telemetry (summed across shards, without mutating the records
        the session will merge afterwards)."""
        measured: Dict[int, float] = {}
        for _, records in outputs:
            for record in records:
                measured[record.index] = (
                    measured.get(record.index, 0.0) + record.wall_time_s
                )
        for decision in choice.stages:
            decision.measured_s = measured.get(decision.stage)

    # ------------------------------------------------------------------
    def _ensure_shard(self, inner: str) -> ShardParallelScheduler:
        with self._lock:
            scheduler = self._shards.get(inner)
            if scheduler is None:
                scheduler = self._shards[inner] = ShardParallelScheduler(
                    workers=self.workers, inner=inner, recovery=self.recovery
                )
            return scheduler

    def _ensure_tile(self) -> TileParallelScheduler:
        with self._lock:
            if self._tile is None:
                self._tile = TileParallelScheduler(workers=self.workers)
            return self._tile

    # ------------------------------------------------------------------
    def warm(self, network, inner: str = "stochastic") -> int:
        """Pre-build the shard-parallel pool for ``inner`` so the first
        request the chooser sends to the pool pays no construction cost
        (the daemon calls this at startup). Returns the pool generation."""
        return self._ensure_shard(inner).warm(network)

    def pool_generation(self, inner: str = "stochastic") -> Optional[int]:
        """The shard pool's generation for ``inner`` (None before any
        pool exists for that backend)."""
        with self._lock:
            scheduler = self._shards.get(inner)
        return None if scheduler is None else scheduler.pool_generation

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            for scheduler in self._shards.values():
                scheduler.close()
            self._shards.clear()
            if self._tile is not None:
                self._tile.close()
                self._tile = None

    def __enter__(self) -> "AdaptiveScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<scheduler {self.name} workers={self.workers} "
            f"coefficients={self.cost_model.coefficients.source!r}>"
        )
