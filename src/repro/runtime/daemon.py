"""Long-lived queued serving with work-conserving batch coalescing.

:class:`ServingDaemon` is the runtime's serving loop: a bounded request
queue, a two-stage consumer pipeline, and a coalescing window. Queued
requests are merged into one **wave** — their activation buffers
concatenated, their shard plans appended — and executed in a single
sweep through the scheduler, which amortizes lock round-trips, pool
submissions, and pipeline warmup across requests (the single biggest
lever for the RNG-bound stochastic path, per the kernel benchmarks).

Coalescing is work-conserving: when the executor is idle, a wave leaves
at once with whatever is already queued — a lone request never waits
for company. Only while a wave is outstanding (handed off or executing)
does the next wave stay open to collect arrivals, until the executor
goes idle or ``coalesce_window_s`` passes, whichever comes first.

The pipeline has two consumer threads: the **assembler** pulls queued
requests, coalesces them into waves, and draws every request's shard
plan (and therefore its seeds) in arrival order; the **executor** pulls
planned waves from a small bounded handoff queue and runs them. Wave
*k + 1* therefore collects its requests while wave *k* executes (and,
if the window closes first, is planned and handed off before wave *k*
finishes). The split cannot perturb
results: all generator draws happen on the assembler in arrival order
(exactly the serial draw sequence), and the handoff queue is FIFO, so
execution order matches assembly order.

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
  arrival order (the :class:`~repro.api.serving.Serving` front-end's
  contract), replaying per-request child-seeded sessions bit for bit;
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

from repro.api.backends import get_backend, resolve_strategy
from repro.api.results import InferenceResult, ServingReport, merge_telemetry
from repro.runtime import faults
from repro.runtime.plan import ShardPlan, compile_plan, concat_plans, plan_shards
from repro.runtime.recovery import QueueFull, classified
from repro.runtime.scheduler import SerialScheduler, resolve_scheduler
from repro.utils.rng import SeedLike, new_rng

#: Sentinel mirroring :data:`repro.api.engine._INHERIT` without the
#: circular import (the daemon is below the api facade).
_INHERIT = object()

#: Stop sentinel. :meth:`ServingDaemon.close` queues it behind every
#: accepted request to wake the assembler, which passes it on to the
#: executor after the last wave: no more waves are coming.
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
    requests accepted but not yet resolved (queued + assembling +
    executing). The network tier reads them to shed load before the
    bounded queue would block its event loop.
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
    plan: Optional[ShardPlan] = None  # assigned at wave assembly
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
        a ready-made instance (pass a configured
        :class:`~repro.api.parallel.StochasticParallelBackend` so waves
        fan out over its worker pool). Defaults to the engine's backend.
    seed:
        Seeds the daemon generator. A seeded daemon is deterministic:
        request plans draw from the generator in arrival order, so the
        results replay a serial session (or per-request child-seeded
        sessions, with ``seed_per_request=True``) bit for bit.
    seed_per_request:
        False (default): plans draw straight from the daemon generator
        — coalesced output is bit-identical to
        ``Session(seed=...).run_many`` of the same requests in order.
        True: each request first draws a child seed (the
        :class:`~repro.api.serving.Serving` front-end convention).
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
    coalesce_window_s:
        The longest a request waits to share a wave while a wave is
        running. With the executor idle a wave leaves at once; 0 never
        waits but still coalesces whatever is already queued.
    max_wave_images:
        Image-count ceiling per wave (a first request that already
        reaches it leaves without waiting).
    scheduler:
        An in-process runtime scheduler name or instance the waves
        execute through — pass ``"adaptive"`` so each *coalesced wave's*
        combined plan goes through the cost-model chooser: a singleton
        request below the break-even threshold runs serial, while a
        coalesced wave whose merged plan crosses it fans out over the
        pool. Requires a layer-level backend. The chooser's per-stage
        decisions surface in :attr:`DaemonStats.decisions` /
        :attr:`DaemonStats.mode_waves`. ``None`` keeps the classic
        strategy-driven execution.
    prewarm:
        True builds the scheduler's worker pool (and shm ring) at
        construction, before any traffic — pool spin-up costs tens of
        milliseconds, and paying it at startup keeps it out of the
        first wave's latency *and* out of the adaptive chooser's
        predictions (a warm pool competes on marginal cost, so the
        chooser can route the very first wave to the pool). Requires a
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
        coalesce_window_s: float = 0.002,
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
        if coalesce_window_s < 0:
            raise ValueError(
                f"coalesce_window_s must be >= 0, got {coalesce_window_s}"
            )
        self.engine = engine
        self.name = str(name)
        source = backend if backend is not None else engine.backend
        self._strategy, self._owns_strategy = resolve_strategy(source)
        self.backend = getattr(self._strategy, "name", str(source))
        if scheduler is None:
            self._scheduler, self._owns_scheduler = None, False
        else:
            self._scheduler, self._owns_scheduler = resolve_scheduler(scheduler)
            if not hasattr(self._scheduler, "run_shards"):
                raise ValueError(
                    f"daemon scheduler "
                    f"{getattr(self._scheduler, 'name', scheduler)!r} must "
                    f"implement the per-shard run_shards protocol (the wave "
                    f"results are sliced back per request)"
                )
            if not hasattr(self._strategy, "run_layer"):
                raise ValueError(
                    f"a daemon scheduler executes in-process and needs a "
                    f"layer-level backend, but {self.backend!r} is "
                    f"shard-level (run_plan only)"
                )
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
        self.coalesce_window_s = float(coalesce_window_s)
        self.max_wave_images = int(max_wave_images)
        self._queue: "queue.Queue[_Request]" = queue.Queue(maxsize=max_queue)
        self._serial = SerialScheduler()
        self._stats = DaemonStats()
        self._stats_lock = threading.Lock()
        self._inflight = 0
        self._closing = False
        self._drain = True
        self._closed = False
        self._abort = False
        self._wave_recovery: Optional[dict] = None
        # Two-stage consumer pipeline: the assembler coalesces + plans
        # (all generator draws, in arrival order), the executor runs
        # planned waves — wave k+1 assembles while wave k executes. A
        # small handoff bound keeps planning at most two waves ahead.
        self._handoff: "queue.Queue" = queue.Queue(maxsize=2)
        # Waves handed off and not yet executed; the assembler holds a
        # wave open only while this is above 0 (work-conserving).
        self._outstanding = 0
        self._idle = threading.Condition()
        self._assembler = threading.Thread(
            target=self._supervise,
            args=(self._assemble_loop,),
            name="repro-daemon-assembler",
            daemon=True,
        )
        self._executor = threading.Thread(
            target=self._supervise,
            args=(self._execute_loop,),
            name="repro-daemon-executor",
            daemon=True,
        )
        self._assembler.start()
        self._executor.start()

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
        dispatched. It runs on daemon threads and must be cheap and
        non-blocking; the network tier bridges it into PROGRESS frames.
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
        # queue the assembler thread can emit "planned"/"executing", and
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
        :class:`~repro.api.results.ServingReport` (mirrors
        :meth:`repro.api.serving.Serving.serve`)."""
        start = time.perf_counter()
        before = self.stats.waves
        results = self.run_many(requests, labels=labels)
        return ServingReport(
            results=results,
            wall_time_s=time.perf_counter() - start,
            workers=getattr(self._strategy, "workers", 1),
            backend=self.backend,
            waves=self.stats.waves - before,
        )

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def _supervise(self, loop_fn) -> None:
        """Consumer thread target: keep one pipeline stage alive.

        A stage crash (anything an individual wave's own error handling
        did not absorb) is counted, and the loop restarts — requests
        already queued stay queued and are served by the reincarnation.
        ``BaseException`` (``KeyboardInterrupt``, ``SystemExit``) stops
        the daemon instead: the abort flag is raised and everything
        still queued or handed off is failed, so no caller is left
        holding a future that can never resolve.
        """
        while True:
            try:
                loop_fn()
                return
            # taxonomy: retryable — any consumer crash restarts the loop
            except Exception:  # noqa: BLE001 - the supervisor's job
                if self._closing or self._closed:
                    return
                with self._stats_lock:
                    self._stats.consumer_restarts += 1
            # taxonomy: fatal — KeyboardInterrupt/SystemExit stop the daemon
            except BaseException as exc:
                self._abort = True
                self._abort_queued(exc)
                self._wake_assembler()
                raise

    def _abort_queued(self, exc: BaseException) -> None:
        """Fail everything still queued or handed off (a pipeline stage
        is going away for good)."""
        for source in (self._queue, self._handoff):
            while True:
                try:
                    item = source.get_nowait()
                except queue.Empty:
                    break
                wave = item if isinstance(item, list) else [item]
                for request in wave:
                    if isinstance(request, _Request):
                        self._fail(
                            request,
                            RuntimeError(
                                f"ServingDaemon consumer aborted: {exc!r}"
                            ),
                        )

    def _wake_assembler(self) -> None:
        """Queue the stop sentinel behind every accepted request. It skips
        the admission bound, so waking the assembler never blocks."""
        with self._queue.mutex:
            self._queue.queue.append(_SENTINEL)
            self._queue.not_empty.notify()

    # -- stage 1: assembler --------------------------------------------
    def _assemble_loop(self) -> None:
        """Coalesce queued requests into waves, draw their plans in
        arrival order, and hand the planned waves to the executor.

        Work-conserving: with the executor idle a wave leaves at once
        with whatever is already queued; while a wave is outstanding it
        stays open until the executor goes idle or the coalesce window
        passes."""
        closing = False
        while not closing and not self._abort:
            faults.fault_point("daemon.consumer")
            first = self._queue.get()
            if first is _SENTINEL:
                break
            wave = [first]
            rows = first.images.shape[0]
            if rows < self.max_wave_images:
                with self._idle:
                    self._idle.wait_for(
                        lambda: self._outstanding == 0,
                        timeout=self.coalesce_window_s,
                    )
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
            self._plan_and_hand_off(wave)
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
                self._plan_and_hand_off([item])
            else:
                self._fail(item, RuntimeError("ServingDaemon closed"))
        self._hand_off(_SENTINEL)

    def _plan_and_hand_off(self, wave: List[_Request]) -> None:
        """Plan one wave; a failure that escapes per-request planning
        fails the whole wave's futures before propagating — a consumer
        crash must never strand a caller."""
        try:
            ready = self._plan_wave(wave)
        except BaseException as exc:
            for item in wave:
                self._fail(item, classified(exc))
            raise
        if ready:
            self._hand_off(ready)

    def _hand_off(self, ready) -> None:
        """Blocking put into the bounded handoff queue, with an escape
        hatch: if the executor has aborted for good, fail the wave
        instead of blocking forever. A wave counts as outstanding from
        here until the executor has run it."""
        wave = isinstance(ready, list)
        if wave:
            with self._idle:
                self._outstanding += 1
        while True:
            try:
                self._handoff.put(ready, timeout=0.1)
                return
            except queue.Full:
                if self._abort:
                    if wave:
                        self._wave_done()
                        for item in ready:
                            self._fail(
                                item,
                                RuntimeError(
                                    "ServingDaemon executor aborted"
                                ),
                            )
                    return

    def _wave_done(self) -> None:
        """One outstanding wave is finished; wake the assembler when the
        executor goes idle."""
        with self._idle:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._idle.notify_all()

    # -- stage 2: executor ---------------------------------------------
    def _execute_loop(self) -> None:
        """Run planned waves in handoff (FIFO = assembly) order."""
        while True:
            try:
                ready = self._handoff.get(timeout=0.02)
            except queue.Empty:
                if self._abort:
                    return
                if self._closing and not self._assembler.is_alive():
                    # Backstop: the assembler died without a sentinel
                    # (its supervisor gave up mid-close).
                    return
                continue
            if ready is _SENTINEL:
                return
            try:
                self._guarded_execute(ready)
            finally:
                self._wave_done()

    def _guarded_execute(self, ready: List[_Request]) -> None:
        try:
            for item in ready:
                self._notify(
                    item, "executing", {"wave_requests": len(ready)}
                )
            self._execute_wave(ready)
        except BaseException as exc:
            for item in ready:
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
        inner = getattr(self._scheduler, "inner", None)
        if inner is None:
            return
        if self._owns_scheduler:
            try:
                get_backend(self.backend, allow_override=False)
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
        child seed the way :class:`~repro.api.serving.Serving` does.
        Unseeded daemons plan from fresh entropy when the strategy
        needs real seeds (process pools), seedless shards otherwise
        (continuing the network's compile-time streams, like an
        unseeded serial session).
        """
        if self.seed_per_request:
            child = int(self.rng.integers(0, 2**63 - 1))
            return plan_shards(n, self.micro_batch, rng=new_rng(child))
        if self._seeded:
            return plan_shards(n, self.micro_batch, rng=self.rng)
        if hasattr(self._strategy, "run_plan") or hasattr(
            self._strategy, "run_shards"
        ):
            return plan_shards(n, self.micro_batch, rng=new_rng(None))
        if getattr(self._scheduler, "requires_seeds", False):
            # The adaptive chooser may send this plan to the process
            # pool, where seedless shards would replay every worker's
            # identical compile-time streams.
            return plan_shards(n, self.micro_batch, rng=new_rng(None))
        return plan_shards(n, self.micro_batch)

    def _plan_wave(self, wave: List[_Request]) -> List[_Request]:
        """Plan every request in arrival order (isolating per-request
        failures so a bad payload cannot consume a neighbour's seeds).
        Runs on the assembler — the only thread that ever draws from
        the daemon generator."""
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
        # an exception reaches this level.) A merged-only strategy
        # (bare ``run_plan``, no per-shard protocol) cannot be sliced
        # back into per-request results, so its waves run per request.
        try:
            if len(ready) == 1 or not self._can_slice():
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

    def _can_slice(self) -> bool:
        strategy = self._strategy
        return hasattr(strategy, "run_shards") or not hasattr(strategy, "run_plan")

    def _run_single(self, item: _Request) -> None:
        try:
            start = time.perf_counter()
            if self._can_slice():
                outputs = self._execute_shards(item.images, item.plan)
            else:
                logits, telemetry = self._strategy.run_plan(
                    self.engine.network, item.images, item.plan
                )
                outputs = None
            wall = time.perf_counter() - start
            if outputs is not None:
                self._slice_results([item], outputs, wall)
            else:
                self._finish(item, logits, telemetry, len(item.plan), wall)
        except Exception as exc:  # noqa: BLE001 - forwarded to caller
            self._fail(item, classified(exc))

    def _execute_shards(self, x: np.ndarray, plan: ShardPlan):
        """Per-shard (logits, telemetry) pairs for one buffer + plan."""
        strategy = self._strategy
        self._wave_recovery = None
        if self._scheduler is not None:
            exec_plan = plan
            if getattr(self._scheduler, "needs_task_graph", False):
                exec_plan = compile_plan(
                    self.engine.network, plan, input_shape=np.asarray(x).shape[1:]
                )
            outputs = self._scheduler.run_shards(
                self.engine.network,
                x,
                exec_plan,
                strategy=strategy,
                exec_lock=self.engine._exec_lock,
                rng=self.rng,
                deadline_s=self.deadline_s,
            )
            self._record_choice()
            self._record_recovery(self._scheduler)
            return outputs
        if hasattr(strategy, "run_shards"):
            kwargs = {} if self.deadline_s is None else {"deadline_s": self.deadline_s}
            outputs = strategy.run_shards(self.engine.network, x, plan, **kwargs)
            self._record_recovery(strategy)
            return outputs
        return self._serial.run_shards(
            self.engine.network,
            x,
            plan,
            strategy=strategy,
            exec_lock=self.engine._exec_lock,
            rng=self.rng,
        )

    def _record_recovery(self, source) -> None:
        """Harvest the executing scheduler's recovery telemetry for the
        wave that just ran: the latest log lands in
        :attr:`DaemonStats.recovery` (and on each of the wave's
        :class:`~repro.api.results.InferenceResult`\\ s), retried
        attempts and recovered waves bump their counters."""
        log = getattr(source, "last_recovery", None)
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
        with self._stats_lock:
            self._stats.failed += 1
            self._inflight -= 1
        if not item.future.done():
            item.future.set_exception(exc)

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Live gauge: requests in the admission queue right now."""
        return self._queue.qsize()

    @property
    def in_flight(self) -> int:
        """Live gauge: requests accepted but not yet resolved (queued,
        assembling, or executing)."""
        with self._stats_lock:
            return self._inflight

    @property
    def healthy(self) -> bool:
        """True while the daemon can accept and serve requests: open,
        not aborted, both pipeline stages alive. Routers poll this to
        evict dead replicas and re-admit recovered ones."""
        return (
            not self._closed
            and not self._closing
            and not self._abort
            and self._assembler.is_alive()
            and self._executor.is_alive()
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
        self._wake_assembler()
        self._assembler.join(timeout=timeout)
        self._executor.join(timeout=timeout)
        if (
            self._assembler.is_alive() or self._executor.is_alive()
        ):  # pragma: no cover - pathological
            raise RuntimeError("ServingDaemon consumers did not stop in time")
        self._closed = True
        if self._owns_strategy and hasattr(self._strategy, "close"):
            self._strategy.close()
        if self._owns_scheduler and hasattr(self._scheduler, "close"):
            self._scheduler.close()

    def __enter__(self) -> "ServingDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingDaemon(backend={self.backend!r}, "
            f"window={self.coalesce_window_s * 1e3:.1f}ms, "
            f"queue<= {self._queue.maxsize}, engine={self.engine!r})"
        )
