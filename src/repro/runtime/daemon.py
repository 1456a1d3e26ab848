"""Long-lived queued serving with work-conserving batch coalescing.

:class:`ServingDaemon` is the runtime's serving loop: a bounded request
queue and one consumer thread. Queued requests are merged into one
**wave** — their activation buffers concatenated, their shard plans
appended — and executed in a single sweep through the scheduler, which
amortizes lock round-trips, pool submissions, and pipeline warmup
across requests (the single biggest lever for the RNG-bound stochastic
path, per the kernel benchmarks).

The consumer takes the first queued request, drains whatever is queued
behind it (up to ``max_wave_images``), plans the wave in arrival order,
executes it, resolves its futures, and repeats. Coalescing is therefore
work-conserving without a window: a lone request never waits for
company, and requests that arrive while a wave executes queue up and
leave together as the next wave. The consumer is the only thread that
draws from the daemon generator, so the draw sequence is exactly the
serial one. Futures resolve on the consumer thread, so their
done-callbacks (the network tier's response encoder) run there, while
the thread that produced the result is still warm.

Coalescing is a *scheduling* decision, never a semantics change. Each
request keeps its own shard boundaries and its own seeds: the wave plan
is :func:`~repro.runtime.plan.concat_plans` of the per-request plans,
and seeds are drawn request by request in arrival order — exactly the
draws a serial :class:`~repro.api.Session` would make running the same
requests one at a time. Coalesced logits are therefore **bit-identical
to uncoalesced** execution for a seeded daemon:

* default mode: one session seed; waves replay
  ``Session(engine, seed=...).run_many(requests)`` bit for bit;
* ``seed_per_request=True``: each request gets a child seed drawn in
  arrival order, replaying per-request child-seeded sessions
  (``Session(engine, seed=child)``) bit for bit;
* an explicit ``seed=`` on :meth:`submit` pins one request's plan
  regardless of mode.

A request whose execution raises fails *its own future only* — the
wave re-runs request by request from the already-drawn plans, so one
poisoned request can neither wedge the queue nor perturb its
neighbours' randomness.

Failures are *classified* (:mod:`repro.runtime.recovery`): the runtime
scheduler retries and serially rescues infrastructure failures before
the daemon ever sees them (counted in :attr:`DaemonStats.retries` /
:attr:`DaemonStats.recoveries`); fatal payload errors land on the
request's future with their original traceback chained. Admission is
configurable (block vs reject-with-``QueueFull``), and a supervisor
restarts the consumer thread if a wave's error handling is ever
breached (:attr:`DaemonStats.consumer_restarts`) — queued requests
survive the restart.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.api.backends import get_backend
from repro.api.results import InferenceResult, ServingReport, merge_telemetry
from repro.runtime import faults
from repro.runtime.plan import ShardPlan, compile_plan, concat_plans, plan_shards
from repro.runtime.recovery import QueueFull, classified
from repro.runtime.scheduler import resolve_scheduler
from repro.utils.rng import SeedLike, new_rng

#: Sentinel mirroring :data:`repro.api.engine._INHERIT` without the
#: circular import (the daemon is below the api facade).
_INHERIT = object()

#: Stop sentinel. :meth:`ServingDaemon.close` queues it behind every
#: accepted request to wake the consumer: no more waves are coming.
_SENTINEL = object()


@dataclass
class DaemonStats:
    """Counters of one daemon's lifetime (snapshot via
    :attr:`ServingDaemon.stats`).

    ``decisions`` and ``mode_waves`` are populated only when the daemon
    runs with an adaptive runtime scheduler: ``decisions`` holds the
    most recent wave's per-stage decision records (stage -> chosen mode
    + predicted vs measured cost, as dicts), and ``mode_waves`` counts
    executed waves by the plan-level mode the chooser picked — the
    telemetry that shows coalescing flipping small serial requests into
    fanned-out waves.

    ``queue_depth`` and ``in_flight`` are *live gauges*, not lifetime
    counters: requests sitting in the admission queue right now, and
    requests accepted but not yet resolved (queued + executing). The
    network tier reads them to shed load before the bounded queue would
    block its event loop.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    waves: int = 0
    coalesced_requests: int = 0  # requests that shared a wave with others
    max_wave_requests: int = 0
    total_images: int = 0
    queue_high_water: int = 0
    rejected: int = 0  # submissions refused at admission (QueueFull)
    retries: int = 0  # pool attempts re-submitted by the recovery loop
    recoveries: int = 0  # requests that completed via retry or fallback
    consumer_restarts: int = 0  # supervisor restarts of a crashed consumer
    queue_depth: int = 0  # gauge: requests in the admission queue now
    in_flight: int = 0  # gauge: accepted but unresolved requests now
    recovery: Optional[dict] = None  # latest wave's RecoveryLog
    decisions: Optional[List[dict]] = None  # latest wave's stage decisions
    mode_waves: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        payload = dict(self.__dict__)
        payload["mode_waves"] = dict(self.mode_waves)
        if self.recovery is not None:
            payload["recovery"] = dict(self.recovery)
        if self.decisions is not None:
            payload["decisions"] = [dict(d) for d in self.decisions]
        return payload


@dataclass
class _Request:
    """One queued request: payload + the future its caller holds."""

    images: np.ndarray
    labels: Optional[np.ndarray]
    future: Future
    seed: Optional[int] = None  # explicit per-request seed (optional)
    plan: Optional[ShardPlan] = None  # assigned when its wave is planned
    rows: int = 0
    #: Optional lifecycle hook: called with (stage, detail) at "queued"
    #: (submission, before enqueue), "planned" (shard plan drawn), and
    #: "executing" (wave dispatched). The network tier turns these into
    #: PROGRESS frames.
    progress: Optional[Callable[[str, dict], None]] = None


class ServingDaemon:
    """Queued inference serving over one engine, with batch coalescing.

    Parameters
    ----------
    engine:
        The :class:`~repro.api.Engine` to serve.
    backend:
        Execution strategy shared by every wave — a registered name or
        a ready-made ``run_layer`` instance. Defaults to the engine's
        backend. Where the waves run is the ``scheduler``'s call.
    seed:
        Seeds the daemon generator. A seeded daemon is deterministic:
        request plans draw from the generator in arrival order, so the
        results replay a serial session (or per-request child-seeded
        sessions, with ``seed_per_request=True``) bit for bit.
    seed_per_request:
        False (default): plans draw straight from the daemon generator
        — coalesced output is bit-identical to
        ``Session(seed=...).run_many`` of the same requests in order.
        True: each request first draws a child seed, replaying
        per-request ``Session(engine, seed=child)`` runs bit for bit.
    micro_batch:
        Per-request shard size (inherits the engine default).
    max_queue:
        Bound on queued requests; what happens when it is full is the
        ``admission`` policy's call.
    admission:
        ``"block"`` (default): a full queue makes :meth:`submit` wait
        (raising :class:`~repro.runtime.recovery.QueueFull` after its
        ``timeout``, if one was given). ``"reject"``: a full queue
        fails the submission immediately with ``QueueFull`` — shed
        load at the door instead of stacking callers. Rejections count
        in :attr:`DaemonStats.rejected`.
    deadline_s:
        Per-request execution deadline handed to the runtime scheduler
        (``None`` = none). A wave that blows it abandons its stragglers
        and re-executes serially — bit-identical, with the recovery
        recorded in :attr:`DaemonStats.recovery`.
    max_wave_images:
        Image-count ceiling per wave: the consumer stops draining the
        queue into a wave once it holds this many images (a first
        request that already reaches it leaves alone).
    scheduler:
        The runtime scheduler name or instance every wave executes
        through (``None``: the serial in-process loop). Pass a
        configured :class:`~repro.runtime.scheduler.ShardParallelScheduler`
        to fan waves out over its worker pool, or ``"adaptive"`` so each
        *coalesced wave's* combined plan goes through the cost-model
        chooser: a singleton request below the break-even threshold
        runs serial, while a coalesced wave whose merged plan crosses
        it fans out over the pool. The chooser's per-stage decisions
        surface in :attr:`DaemonStats.decisions` /
        :attr:`DaemonStats.mode_waves`.
    prewarm:
        True builds the scheduler's worker pool (and shm ring) at
        construction, before any traffic. Pool spin-up for
        ``workers=2`` measured about 50 ms with a fork-context pool and
        0.5–0.85 s under forkserver, which the pool uses once the
        process has other threads (2-vCPU Linux host, Python 3.11; see
        :meth:`~repro.runtime.scheduler.ShardParallelScheduler.warm`).
        Paying it at startup keeps it out of the first wave's latency
        *and* out of the adaptive chooser's predictions (a warm pool
        competes on marginal cost, so the chooser can route the very
        first wave to the pool). Requires a
        pool-backed scheduler (e.g. ``"adaptive"``). The pool persists
        across waves: its generation (see
        :meth:`~repro.runtime.scheduler.ShardParallelScheduler.pool_generation`)
        stays constant for the daemon's lifetime unless a worker crash
        forces a rebuild.
    name:
        A label for this daemon instance. Routers serving several
        replicas name each one (``replica-0`` ...); the name is part of
        the ``daemon.request`` fault-point context, so a fault plan can
        target one replica (``match={"daemon": "replica-1"}``).
    """

    def __init__(
        self,
        engine,
        *,
        backend=None,
        seed: SeedLike = None,
        seed_per_request: bool = False,
        micro_batch=_INHERIT,
        max_queue: int = 64,
        admission: str = "block",
        deadline_s: Optional[float] = None,
        max_wave_images: int = 4096,
        scheduler=None,
        prewarm: bool = False,
        name: str = "daemon",
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if admission not in ("block", "reject"):
            raise ValueError(
                f"admission must be 'block' or 'reject', got {admission!r}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.engine = engine
        self.name = str(name)
        source = backend if backend is not None else engine.backend
        self._strategy = get_backend(source)
        self.backend = getattr(self._strategy, "name", str(source))
        self._scheduler, self._owns_scheduler = resolve_scheduler(
            "serial" if scheduler is None else scheduler
        )
        if hasattr(self._scheduler, "inner"):
            self._align_pool_scheduler(backend)
        if prewarm:
            warm = getattr(self._scheduler, "warm", None)
            if warm is None:
                raise ValueError(
                    "prewarm=True needs a pool-backed scheduler (e.g. "
                    "'adaptive' or a ShardParallelScheduler instance), got "
                    f"{getattr(self._scheduler, 'name', scheduler)!r}"
                )
            try:
                warm(engine.network, inner=self.backend)
            except TypeError:  # plain pool schedulers take no inner
                warm(engine.network)
        self.micro_batch = (
            engine.micro_batch if micro_batch is _INHERIT else micro_batch
        )
        self.seed_per_request = bool(seed_per_request)
        self._seeded = seed is not None
        self.rng = new_rng(seed)
        self.admission = admission
        self.deadline_s = deadline_s
        self.max_wave_images = int(max_wave_images)
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._stats = DaemonStats()
        self._stats_lock = threading.Lock()
        self._inflight = 0
        self._closing = False
        self._drain = True
        self._closed = False
        self._abort = False
        self._wave_recovery: Optional[dict] = None
        self._consumer = threading.Thread(
            target=self._supervise, name="repro-daemon-consumer", daemon=True
        )
        self._consumer.start()

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------
    def submit(
        self,
        images: np.ndarray,
        labels=None,
        *,
        seed: Optional[int] = None,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[str, dict], None]] = None,
    ) -> Future:
        """Enqueue one request; returns a Future of its
        :class:`~repro.api.results.InferenceResult`.

        Admission is policy-driven: ``admission="block"`` waits out a
        full queue (:class:`~repro.runtime.recovery.QueueFull` — a
        ``queue.Full`` subclass — after ``timeout`` seconds, if given);
        ``admission="reject"`` raises ``QueueFull`` immediately.
        Malformed requests (non-batched arrays) are rejected here, in
        the caller's thread.

        ``progress`` is an optional lifecycle hook called with
        ``(stage, detail)`` as the request moves through the pipeline —
        ``"queued"`` at submission (just before the request enters the
        queue, so it always precedes later stages; if admission then
        rejects the request no further stages fire), ``"planned"`` when
        its shard plan has been drawn, ``"executing"`` as its wave is
        dispatched. The later stages run on the consumer thread, so the
        hook must be cheap and non-blocking; the network tier bridges
        it into PROGRESS frames.
        """
        return self._enqueue(
            images,
            labels,
            seed=seed,
            block=self.admission == "block",
            timeout=timeout,
            progress=progress,
        )

    def try_submit(
        self,
        images: np.ndarray,
        labels=None,
        *,
        seed: Optional[int] = None,
        progress: Optional[Callable[[str, dict], None]] = None,
    ) -> Future:
        """Non-blocking :meth:`submit`: enqueue if there is room *right
        now*, raise :class:`~repro.runtime.recovery.QueueFull`
        otherwise — regardless of the daemon's ``admission`` policy.

        This is the submission path for callers that must never stall
        (the asyncio network tier bridges every decoded request through
        here, turning a full queue into a retryable wire error instead
        of a blocked event loop). Rejections count in
        :attr:`DaemonStats.rejected`.
        """
        return self._enqueue(
            images, labels, seed=seed, block=False, timeout=None, progress=progress
        )

    def _enqueue(
        self,
        images: np.ndarray,
        labels,
        *,
        seed: Optional[int],
        block: bool,
        timeout: Optional[float],
        progress: Optional[Callable[[str, dict], None]] = None,
    ) -> Future:
        if self._closing or self._closed:
            raise RuntimeError("cannot submit to a closed ServingDaemon")
        x = np.asarray(images)
        if x.ndim < 2:
            raise ValueError(
                f"images must be batched (N, ...), got shape {x.shape}"
            )
        request = _Request(
            images=x,
            labels=None if labels is None else np.asarray(labels),
            future=Future(),
            seed=None if seed is None else int(seed),
            progress=progress,
        )
        # "queued" must fire before the put: once the request is on the
        # queue the consumer thread can emit "planned"/"executing", and
        # notifying afterwards would let those overtake "queued". If
        # admission then rejects the request, QueueFull propagates and
        # no further stages fire.
        self._notify(request, "queued", {"rows": x.shape[0]})
        try:
            if block:
                self._queue.put(request, timeout=timeout)
            else:
                self._queue.put_nowait(request)
        except queue.Full:
            with self._stats_lock:
                self._stats.rejected += 1
            raise QueueFull(
                f"ServingDaemon queue is at capacity "
                f"({self._queue.maxsize} requests; admission="
                f"{self.admission!r})"
            ) from None
        with self._stats_lock:
            self._stats.submitted += 1
            self._inflight += 1
            self._stats.queue_high_water = max(
                self._stats.queue_high_water, self._queue.qsize()
            )
        return request.future

    @staticmethod
    def _notify(item: _Request, stage: str, detail: dict) -> None:
        """Fire a request's progress hook, swallowing its errors — a
        broken observer must never fail the request it watches."""
        if item.progress is None:
            return
        try:
            item.progress(stage, detail)
        # taxonomy: fatal — observer bugs are dropped, never propagated
        except Exception:  # noqa: BLE001 - observer isolation
            pass

    def run_many(
        self,
        requests: Sequence[np.ndarray],
        labels: Optional[Sequence] = None,
    ) -> List[InferenceResult]:
        """Submit a batch of requests and wait for all results (in
        submission order). An empty batch returns an empty list."""
        if labels is None:
            labels = [None] * len(requests)
        elif len(labels) != len(requests):
            raise ValueError(
                f"labels length {len(labels)} != requests length {len(requests)}"
            )
        futures = [
            self.submit(request, labels=request_labels)
            for request, request_labels in zip(requests, labels)
        ]
        return [future.result() for future in futures]

    def serve(
        self,
        requests: Sequence[np.ndarray],
        labels: Optional[Sequence] = None,
    ) -> ServingReport:
        """:meth:`run_many` wrapped in a throughput
        :class:`~repro.api.results.ServingReport`; ``workers`` is the
        scheduler's fan-out width (1 for the serial loop)."""
        start = time.perf_counter()
        before = self.stats.waves
        results = self.run_many(requests, labels=labels)
        return ServingReport(
            results=results,
            wall_time_s=time.perf_counter() - start,
            workers=getattr(self._scheduler, "workers", 1),
            backend=self.backend,
            waves=self.stats.waves - before,
        )

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Consumer thread target: keep the consumer loop alive.

        A crash (anything an individual wave's own error handling did
        not absorb) is counted, and the loop restarts — requests already
        queued stay queued and are served by the reincarnation; a crash
        while closing fails them instead. ``BaseException``
        (``KeyboardInterrupt``, ``SystemExit``) stops the daemon: the
        abort flag is raised and everything still queued is failed, so
        no caller is left holding a future that can never resolve.
        """
        while True:
            try:
                self._consume()
                return
            # taxonomy: retryable — any consumer crash restarts the loop
            except Exception as exc:  # noqa: BLE001 - the supervisor's job
                if self._closing or self._closed:
                    self._abort_queued(exc)
                    return
                with self._stats_lock:
                    self._stats.consumer_restarts += 1
            # taxonomy: fatal — KeyboardInterrupt/SystemExit stop the daemon
            except BaseException as exc:
                self._abort = True
                self._abort_queued(exc)
                raise

    def _abort_queued(self, exc: BaseException) -> None:
        """Fail everything still queued (the consumer is going away for
        good)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(item, _Request):
                self._fail(
                    item, RuntimeError(f"ServingDaemon consumer aborted: {exc!r}")
                )

    def _wake_consumer(self) -> None:
        """Queue the stop sentinel behind every accepted request. It skips
        the admission bound, so waking the consumer never blocks."""
        with self._queue.mutex:
            self._queue.queue.append(_SENTINEL)
            self._queue.not_empty.notify()

    def _consume(self) -> None:
        """Serve waves until the stop sentinel: take the first queued
        request, drain what is queued behind it (up to
        ``max_wave_images``), plan and execute the wave, repeat."""
        closing = False
        while not closing and not self._abort:
            faults.fault_point("daemon.consumer")
            first = self._queue.get()
            if first is _SENTINEL:
                break
            wave = [first]
            rows = first.images.shape[0]
            while rows < self.max_wave_images:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    closing = True
                    break
                wave.append(item)
                rows += item.images.shape[0]
            self._serve_wave(wave)
        # Drain or fail whatever is still queued after the stop signal
        # (submissions that raced close() past its sentinel).
        while not self._abort:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SENTINEL:
                continue
            if self._drain:
                self._serve_wave([item])
            else:
                self._fail(item, RuntimeError("ServingDaemon closed"))

    def _serve_wave(self, wave: List[_Request]) -> None:
        """Plan one wave, then execute it. A failure that escapes the
        per-request handling fails the wave's unresolved futures before
        propagating — a consumer crash must never strand a caller."""
        try:
            ready = self._plan_wave(wave)
            if ready:
                for item in ready:
                    self._notify(item, "executing", {"wave_requests": len(ready)})
                self._execute_wave(ready)
        except BaseException as exc:
            for item in wave:
                self._fail(item, classified(exc))
            raise

    def _align_pool_scheduler(self, requested_backend) -> None:
        """Keep a pool scheduler's worker-side execution consistent
        with the daemon's backend — never silently run something else
        (mirrors :meth:`repro.api.Session._align_pool_scheduler`).

        Pool schedulers (those carrying an ``inner`` backend name)
        ignore the in-process strategy: their workers resolve ``inner``
        by name. A scheduler the daemon built from a name adopts the
        daemon backend as ``inner``; a caller-configured instance wins
        instead — the daemon relabels itself so results report what
        actually executed, and an explicitly conflicting ``backend=``
        is rejected rather than dropped. Schedulers without ``inner``
        (serial/tile/adaptive) execute the daemon's strategy directly.
        """
        inner = self._scheduler.inner
        if self._owns_scheduler:
            try:
                get_backend(self.backend)
            except KeyError as exc:
                raise ValueError(
                    f"backend {self.backend!r} is not a registered name; pool "
                    f"workers resolve their strategy by name — register it or "
                    f"pass a configured scheduler instance (inner=...)"
                ) from exc
            self._scheduler.inner = self.backend
        elif requested_backend is not None and self.backend != inner:
            raise ValueError(
                f"daemon backend {self.backend!r} conflicts with the "
                f"scheduler's inner backend {inner!r}; configure one of them"
            )
        else:
            self.backend = inner

    def _plan_request(self, n: int) -> ShardPlan:
        """One request's shard plan, drawn in arrival order.

        The draw pattern exactly replays the uncoalesced references:
        session mode consumes the daemon generator the way successive
        ``Session.run`` calls would; per-request mode first derives a
        child seed (one generator draw per request). Unseeded daemons
        plan from fresh entropy when the scheduler needs real seeds
        (process pools), seedless shards otherwise (continuing the
        network's compile-time streams, like an unseeded serial
        session).
        """
        if self.seed_per_request:
            child = int(self.rng.integers(0, 2**63 - 1))
            return plan_shards(n, self.micro_batch, rng=new_rng(child))
        if self._seeded:
            return plan_shards(n, self.micro_batch, rng=self.rng)
        if getattr(self._scheduler, "requires_seeds", False):
            # A pool may run this plan, where seedless shards would
            # replay every worker's identical compile-time streams.
            return plan_shards(n, self.micro_batch, rng=new_rng(None))
        return plan_shards(n, self.micro_batch)

    def _plan_wave(self, wave: List[_Request]) -> List[_Request]:
        """Plan every request in arrival order (isolating per-request
        failures so a bad payload cannot consume a neighbour's seeds).
        Runs on the consumer — the only thread that ever draws from the
        daemon generator."""
        ready: List[_Request] = []
        for item in wave:
            try:
                item.rows = item.images.shape[0]
                if item.seed is not None:
                    item.plan = plan_shards(
                        item.rows, self.micro_batch, rng=new_rng(item.seed)
                    )
                else:
                    item.plan = self._plan_request(item.rows)
                # After the plan (and therefore this request's seeds)
                # has been drawn: a poisoned request must never perturb
                # its neighbours' randomness.
                faults.fault_point(
                    "daemon.request", rows=item.rows, daemon=self.name
                )
                self._notify(
                    item, "planned", {"shards": len(item.plan)}
                )
                ready.append(item)
            except Exception as exc:  # noqa: BLE001 - forwarded to caller
                self._fail(item, classified(exc))
        if ready:
            with self._stats_lock:
                self._stats.waves += 1
                self._stats.max_wave_requests = max(
                    self._stats.max_wave_requests, len(ready)
                )
                if len(ready) > 1:
                    self._stats.coalesced_requests += len(ready)
        return ready

    def _execute_wave(self, ready: List[_Request]) -> None:
        # One coalesced execution; on any failure fall back to
        # request-by-request execution of the already-drawn plans so
        # only the offending request fails. (The scheduler has already
        # retried / serially rescued everything retryable by the time
        # an exception reaches this level.)
        try:
            if len(ready) == 1:
                for item in ready:
                    self._run_single(item)
                return
            combined = concat_plans([item.plan for item in ready])
            x = np.concatenate([item.images for item in ready], axis=0)
            start = time.perf_counter()
            outputs = self._execute_shards(x, combined)
            wall = time.perf_counter() - start
            self._slice_results(ready, outputs, wall)
        # taxonomy: retryable — falls back to per-request execution,
        # where _run_single classifies each failure individually
        except Exception:  # taxonomy: see above
            for item in ready:
                if not item.future.done():
                    self._run_single(item)

    def _run_single(self, item: _Request) -> None:
        try:
            start = time.perf_counter()
            outputs = self._execute_shards(item.images, item.plan)
            self._slice_results([item], outputs, time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._fail(item, classified(exc))

    def _execute_shards(self, x: np.ndarray, plan: ShardPlan):
        """Per-shard (logits, telemetry) pairs for one buffer + plan."""
        self._wave_recovery = None
        exec_plan = plan
        if getattr(self._scheduler, "needs_task_graph", False):
            exec_plan = compile_plan(
                self.engine.network, plan, input_shape=np.asarray(x).shape[1:]
            )
        outputs = self._scheduler.run_shards(
            self.engine.network,
            x,
            exec_plan,
            strategy=self._strategy,
            exec_lock=self.engine._exec_lock,
            rng=self.rng,
            deadline_s=self.deadline_s,
        )
        self._record_choice()
        self._record_recovery()
        return outputs

    def _record_recovery(self) -> None:
        """Harvest the executing scheduler's recovery telemetry for the
        wave that just ran: the latest log lands in
        :attr:`DaemonStats.recovery` (and on each of the wave's
        :class:`~repro.api.results.InferenceResult`\\ s), retried
        attempts and recovered waves bump their counters."""
        log = getattr(self._scheduler, "last_recovery", None)
        if log is None:
            return
        self._wave_recovery = log.as_dict()
        with self._stats_lock:
            self._stats.recovery = self._wave_recovery
            self._stats.retries += sum(
                1 for entry in log.retries if entry.get("action") != "serial-fallback"
            )
            if log.recovered:
                self._stats.recoveries += 1

    def _record_choice(self) -> None:
        """Copy the scheduler's latest decision telemetry (adaptive
        schedulers only) into the daemon stats."""
        choice = getattr(self._scheduler, "last_choice", None)
        if choice is None:
            return
        with self._stats_lock:
            self._stats.decisions = [d.as_dict() for d in choice.stages]
            self._stats.mode_waves[choice.mode] = (
                self._stats.mode_waves.get(choice.mode, 0) + 1
            )

    def _slice_results(self, ready: List[_Request], outputs, wall: float) -> None:
        """Regroup per-shard outputs into per-request results."""
        cursor = 0
        for item in ready:
            n_shards = len(item.plan)
            shard_outputs = outputs[cursor : cursor + n_shards]
            cursor += n_shards
            parts = [logits for logits, _ in shard_outputs]
            telemetry = merge_telemetry(records for _, records in shard_outputs)
            logits = (
                np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]
            )
            self._finish(item, logits, telemetry, n_shards, wall)

    def _finish(self, item: _Request, logits, telemetry, n_shards, wall) -> None:
        result = InferenceResult(
            logits=logits,
            backend=self.backend,
            batch_size=item.rows,
            micro_batches=n_shards,
            wall_time_s=wall,
            layers=telemetry,
            labels=item.labels,
            recovery=self._wave_recovery,
        )
        with self._stats_lock:
            self._stats.completed += 1
            self._stats.total_images += item.rows
            self._inflight -= 1
        if not item.future.done():
            item.future.set_result(result)

    def _fail(self, item: _Request, exc: BaseException) -> None:
        if item.future.done():
            return
        with self._stats_lock:
            self._stats.failed += 1
            self._inflight -= 1
        item.future.set_exception(exc)

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Live gauge: requests in the admission queue right now."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Live gauge: requests accepted but not yet resolved (queued
        or executing)."""
        with self._stats_lock:
            return self._inflight

    @property
    def healthy(self) -> bool:
        """True while the daemon can accept and serve requests: open,
        not aborted, consumer thread alive. Routers poll this to evict
        dead replicas and re-admit recovered ones."""
        return (
            not self._closed
            and not self._closing
            and not self._abort
            and self._consumer.is_alive()
        )

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every accepted request has resolved (``in_flight``
        reaches 0) without closing the daemon — the router's
        quiesce-before-handoff hook. Returns False if ``timeout``
        seconds pass first."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.in_flight > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.002)
        return True

    @property
    def stats(self) -> DaemonStats:
        """A snapshot of the daemon's counters (plus the live
        ``queue_depth`` / ``in_flight`` gauges at snapshot time)."""
        with self._stats_lock:
            snapshot = DaemonStats(**self._stats.as_dict())
            snapshot.in_flight = self._inflight
        snapshot.queue_depth = self._queue.qsize()
        return snapshot

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the daemon. ``drain=True`` (default) finishes every
        queued request first; ``drain=False`` fails still-queued
        requests with ``RuntimeError`` (in-flight waves always finish).
        Idempotent."""
        if self._closed:
            return
        self._drain = drain
        self._closing = True
        self._wake_consumer()
        self._consumer.join(timeout=timeout)
        if self._consumer.is_alive():  # pragma: no cover - pathological
            raise RuntimeError("ServingDaemon consumer did not stop in time")
        self._closed = True
        if self._owns_scheduler and hasattr(self._scheduler, "close"):
            self._scheduler.close()

    def __enter__(self) -> "ServingDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingDaemon(backend={self.backend!r}, "
            f"queue<= {self._queue.maxsize}, engine={self.engine!r})"
        )
