"""The unified inference engine: model -> Engine -> Session -> result.

One coherent surface over the model/compile/execute/metrics plumbing
that the experiment scripts used to re-wire by hand:

* :class:`Engine` wraps a :class:`~repro.mapping.compiler.CompiledNetwork`
  with a default backend and micro-batch size; build one with
  :meth:`Engine.from_model` or the fluent :class:`EngineBuilder`.
* :class:`Session` owns RNG state and accepts batched inference
  requests, automatically splitting them into micro-batches and merging
  the per-shard telemetry.
* every run returns a structured :class:`~repro.api.results.InferenceResult`
  (logits + per-layer telemetry + wall time).

Execution strategies are pluggable string-keyed backends
(:mod:`repro.api.backends`); the legacy free functions in
:mod:`repro.mapping.executor` are deprecated shims over this engine.

The planning and execution machinery itself lives in the runtime
subsystem (:mod:`repro.runtime`): this module is a thin facade.
A request is *planned* (:func:`repro.runtime.plan.plan_shards` — shard
boundaries plus one deterministic child seed per shard, drawn from the
session generator), optionally *compiled* into an explicit
:class:`~repro.runtime.plan.ExecutionPlan` task DAG, and *scheduled*
by a pluggable scheduler (:mod:`repro.runtime.scheduler`: ``"serial"``,
``"shard-parallel"``, ``"tile-parallel"``). Because every shard pins
the network's sampler state from its own seed before executing, the
logits depend only on the plan, never on which process (or how many
workers) ran each shard — N-worker output is bit-identical to serial.

The symbols that historically lived here (``Shard``, ``ShardPlan``,
``plan_shards``, ``seed_shard``, ``run_stages``) are re-exported from
:mod:`repro.runtime.plan` unchanged.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.api.backends import get_backend
from repro.api.results import InferenceResult, merge_telemetry, network_workloads
from repro.hardware.config import HardwareConfig
from repro.hardware.cost import AcceleratorCostModel, LayerWorkload
from repro.mapping.compiler import CompiledNetwork, compile_model
from repro.runtime.plan import (  # noqa: F401  (re-exported legacy surface)
    ExecutionPlan,
    Shard,
    ShardPlan,
    _run_pool,
    compile_plan,
    plan_shards,
    run_stages,
    seed_shard,
)
from repro.runtime.scheduler import resolve_scheduler
from repro.utils.rng import SeedLike, new_rng

#: Default micro-batch size — matches the legacy ``evaluate_accuracy``
#: batching so migrated experiments replay the same call sequence.
DEFAULT_MICRO_BATCH = 64

#: Sentinel distinguishing "inherit the engine's micro-batch" (the
#: default) from an explicit ``micro_batch=None`` (no sharding).
_INHERIT = object()

#: The scheduler sessions on the ``"stochastic"`` backend run on when
#: they name none (see :func:`set_default_scheduler`).
_DEFAULT_SCHEDULER = None


def set_default_scheduler(scheduler):
    """Install (or clear, with None) the process-wide default scheduler.

    While installed, a :class:`Session` whose backend is the
    default-dispatch ``"stochastic"`` (or its ``"auto"`` alias) and that
    passes ``scheduler=None`` runs on ``scheduler`` instead of the
    serial loop; every other session is untouched. ``repro run
    --workers N`` installs a ``ShardParallelScheduler(workers=N)`` here
    so any experiment's stochastic inference fans out without threading
    a new argument through every harness — bit-identical to serial,
    like every scheduler. Sessions never close the installed instance:
    its installer does. Returns the previous default so callers can
    restore it.
    """
    global _DEFAULT_SCHEDULER
    previous, _DEFAULT_SCHEDULER = _DEFAULT_SCHEDULER, scheduler
    return previous


class Session:
    """One inference session: pinned RNG state + batched requests.

    A session is the unit of reproducibility: giving it a ``seed``
    makes every request deterministic — at the start of each
    :meth:`run` the session derives per-run child seeds from its own
    generator and reseeds every sampler in the compiled network (via
    :meth:`TiledLinearLayer.reseed_sampling`), so two sessions created
    with the same seed replay identical stochastic inference even when
    other sessions on the same engine ran in between (the layers are
    engine-shared; re-establishing the state at run entry is what makes
    the ownership real). Backends that draw from the session directly
    (``"stochastic-fused-batched"``) use the same generator.
    ``seed=None`` continues the compile-time RNG streams untouched.

    Requests of any batch size are accepted; the session splits them
    into ``micro_batch``-sized shards automatically and merges the
    telemetry, so callers never hand-roll batching loops. Each shard is
    executed under its own child seed (:meth:`plan_shards`), which is
    what makes the process-pool ``"shard-parallel"`` scheduler
    bit-identical to serial execution and lets the serving daemon
    (:class:`~repro.runtime.daemon.ServingDaemon`) interleave requests
    safely.

    ``scheduler`` selects a runtime scheduler by name or instance
    (:mod:`repro.runtime.scheduler`); every run executes through its
    ``run_shards``. The default is the serial in-process loop (or the
    process-wide default installed by :func:`set_default_scheduler`,
    for ``"stochastic"`` sessions). For registered backends the
    documented choice is ``scheduler="adaptive"``: the cost-model chooser
    inspects the compiled :class:`ExecutionPlan` and picks serial,
    shard-parallel, or tile-parallel fan-out per request — always
    bit-identical to serial for the same session seed, with the
    per-stage decision surfaced in
    :attr:`~repro.api.results.InferenceResult.decisions`.

    ``deadline_s`` bounds each request's pool execution: a wave that
    blows it abandons its stragglers and re-executes serially —
    bit-identical, since every shard re-derives its sampler state from
    its own plan seed. What recovery a run needed (retries, pool
    rebuilds, serial fallback) surfaces in
    :attr:`~repro.api.results.InferenceResult.recovery`.
    """

    def __init__(
        self,
        engine: "Engine",
        *,
        seed: SeedLike = None,
        backend=None,
        micro_batch=_INHERIT,
        scheduler=None,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.engine = engine
        source = backend if backend is not None else engine.backend
        self._strategy = get_backend(source)
        self.backend = getattr(self._strategy, "name", str(source))
        if scheduler is None:
            scheduler = "serial"
            if _DEFAULT_SCHEDULER is not None and self.backend == "stochastic":
                scheduler = _DEFAULT_SCHEDULER
        self._scheduler, self._owns_scheduler = resolve_scheduler(scheduler)
        if hasattr(self._scheduler, "inner"):
            self._align_pool_scheduler(backend)
        self.micro_batch = (
            engine.micro_batch if micro_batch is _INHERIT else micro_batch
        )
        if self.micro_batch is not None and self.micro_batch < 1:
            raise ValueError(f"micro_batch must be >= 1, got {self.micro_batch}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.deadline_s = deadline_s
        self._seeded = seed is not None
        self.rng = new_rng(seed)
        self._closed = False

    # ------------------------------------------------------------------
    def plan_shards(self, n: int) -> ShardPlan:
        """The session's :class:`ShardPlan` for an ``n``-row request.

        Boundaries come from ``micro_batch``; for a *seeded* session
        per-shard child seeds are drawn from the session generator (its
        state advances by exactly one draw per plan, so successive
        requests stay stochastic while two sessions with the same seed
        produce the same plans). An unseeded session plans seedless
        shards: serial execution then continues the network's
        compile-time sampler streams untouched — the legacy behaviour
        deterministic given the compile seed.
        """
        return plan_shards(
            n, self.micro_batch, rng=self.rng if self._seeded else None
        )

    def preview_plan(self, images: np.ndarray) -> ExecutionPlan:
        """The :class:`~repro.runtime.plan.ExecutionPlan` the next
        :meth:`run` of ``images`` would execute — without advancing the
        session generator (the preview draws from a state copy), so it
        is pure introspection: task DAG, tile fan-out, cost estimates.
        """
        x = np.asarray(images)
        if x.ndim < 2:
            raise ValueError(
                f"images must be batched (N, ...), got shape {x.shape}"
            )
        if self._seeded:
            ghost = new_rng(0)  # state is overwritten on the next line
            ghost.bit_generator.state = self.rng.bit_generator.state
            shard_plan = plan_shards(x.shape[0], self.micro_batch, rng=ghost)
        else:
            shard_plan = plan_shards(x.shape[0], self.micro_batch)
        return compile_plan(
            self.engine.network, shard_plan, input_shape=x.shape[1:]
        )

    def run(
        self,
        images: np.ndarray,
        labels: Optional[np.ndarray] = None,
        *,
        backend=None,
    ) -> InferenceResult:
        """Execute one batched request; returns a structured result."""
        self._check_open()
        pool_scheduled = hasattr(self._scheduler, "inner")
        if pool_scheduled and backend is not None:
            raise ValueError(
                "per-run backend overrides are not supported with a pool "
                "scheduler (workers execute the scheduler's inner strategy); "
                "set the session backend instead"
            )
        strategy = self._strategy if backend is None else get_backend(backend)
        x = np.asarray(images)
        if x.ndim < 2:
            raise ValueError(
                f"images must be batched (N, ...), got shape {x.shape}"
            )
        n = x.shape[0]
        if getattr(self._scheduler, "requires_seeds", False) and not self._seeded:
            # Every worker holds an identical copy of the network's
            # compile-time streams — seedless shards would replay the
            # same draws on each worker. Plan with fresh entropy instead.
            plan = plan_shards(n, self.micro_batch, rng=new_rng(None))
        else:
            plan = self.plan_shards(n)
        start = time.perf_counter()
        logits, telemetry, decisions, recovery = self._run_scheduled(
            x, plan, strategy
        )
        return InferenceResult(
            logits=logits,
            # With a pool scheduler the workers executed the session
            # backend (aligned at construction), not the in-process
            # strategy object.
            backend=(
                self.backend
                if pool_scheduled
                else getattr(strategy, "name", str(strategy))
            ),
            batch_size=n,
            micro_batches=len(plan),
            wall_time_s=time.perf_counter() - start,
            layers=telemetry,
            labels=None if labels is None else np.asarray(labels),
            decisions=decisions,
            recovery=recovery,
        )

    def run_many(
        self,
        requests: Sequence[np.ndarray],
        labels: Optional[Sequence] = None,
        *,
        backend=None,
    ) -> List[InferenceResult]:
        """Run several independent requests through this session.

        ``labels`` is an optional sequence aligned with ``requests``
        (entries may be None for unlabelled requests); each label set is
        threaded into its request's :class:`InferenceResult` so batched
        serving can report per-request accuracy. An empty ``requests``
        returns an empty list.
        """
        self._check_open()
        if labels is None:
            labels = [None] * len(requests)
        elif len(labels) != len(requests):
            raise ValueError(
                f"labels length {len(labels)} != requests length {len(requests)}"
            )
        return [
            self.run(request, labels=request_labels, backend=backend)
            for request, request_labels in zip(requests, labels)
        ]

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "Session is closed; open a new one with engine.session(...)"
            )

    def _align_pool_scheduler(self, requested_backend) -> None:
        """Keep a pool scheduler's worker-side execution consistent with
        the session's backend — never silently run something else.

        A scheduler built *by this session* from a name adopts the
        session backend as its ``inner`` strategy (the name must be
        registered: workers resolve it by name in their own process).
        A caller-configured scheduler instance wins instead — the
        session relabels itself with the scheduler's ``inner`` so
        results report what actually executed, and an explicitly
        conflicting ``backend=`` is rejected rather than dropped.
        """
        inner = self._scheduler.inner
        if self._owns_scheduler:
            try:
                get_backend(self.backend)
            except KeyError as exc:
                raise ValueError(
                    f"backend {self.backend!r} is not a registered name; pool "
                    f"workers resolve their strategy by name — register it or "
                    f"pass a configured ShardParallelScheduler(inner=...)"
                ) from exc
            self._scheduler.inner = self.backend
        elif requested_backend is not None and self.backend != inner:
            raise ValueError(
                f"session backend {self.backend!r} conflicts with the "
                f"scheduler's inner backend {inner!r}; configure one of them"
            )
        else:
            # The caller-configured scheduler executes its own inner
            # strategy; report that, not the engine default.
            self.backend = inner

    def _run_scheduled(self, x, plan: ShardPlan, strategy):
        """Execute a plan through the session's runtime scheduler: run
        per-shard, merge. The ExecutionPlan
        task DAG is compiled only for schedulers that consume it
        (``needs_task_graph`` — the ``"adaptive"`` chooser and the
        tile scheduler) — the plain shard schedulers execute straight
        off the ShardPlan. Returns ``(logits, telemetry, decisions,
        recovery)``; ``decisions`` is the adaptive scheduler's per-stage
        record for this run, ``recovery`` the recovery log of a
        recovering path (each None otherwise).
        """
        scheduler = self._scheduler
        if getattr(scheduler, "needs_task_graph", False):
            exec_plan = compile_plan(
                self.engine.network, plan, input_shape=np.asarray(x).shape[1:]
            )
        else:
            exec_plan = plan
        outputs = scheduler.run_shards(
            self.engine.network,
            x,
            exec_plan,
            strategy=strategy,
            exec_lock=self.engine._exec_lock,
            rng=self.rng,
            deadline_s=self.deadline_s,
        )
        decisions = getattr(scheduler, "last_decisions", None)
        log = getattr(scheduler, "last_recovery", None)
        recovery = None if log is None else log.as_dict()
        parts = [logits for logits, _ in outputs]
        telemetry = merge_telemetry(records for _, records in outputs)
        logits = np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]
        return logits, telemetry, decisions, recovery

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release an owned scheduler (one constructed from a name, e.g.
        a process pool). Idempotent; a closed session rejects further
        requests with :class:`RuntimeError`."""
        if self._closed:
            return
        self._closed = True
        if self._owns_scheduler and hasattr(self._scheduler, "close"):
            self._scheduler.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Session(backend={self.backend!r}, micro_batch={self.micro_batch}, "
            f"engine={self.engine!r})"
        )


class Engine:
    """The inference façade over a compiled network.

    Wraps a :class:`~repro.mapping.compiler.CompiledNetwork` with a
    default execution backend and micro-batch size, hands out
    :class:`Session` objects, and exposes the cost-model plumbing
    (workloads, :class:`~repro.hardware.cost.AcceleratorCostModel`).

    Typical use::

        engine = Engine.from_model(trained_model)
        result = engine.run(test.images, labels=test.labels,
                            backend="stochastic-fused-batched")
        print(result.accuracy, result.wall_time_s)
    """

    def __init__(
        self,
        network: CompiledNetwork,
        *,
        backend: str = "stochastic",
        micro_batch: Optional[int] = DEFAULT_MICRO_BATCH,
    ) -> None:
        get_backend(backend)  # fail fast on unknown names
        self.network = network
        self.backend = backend
        self.micro_batch = micro_batch
        # Serializes in-process shard execution on the shared layers;
        # pool workers run their own network copies and never take it,
        # while in-process schedulers interleave safely at shard
        # granularity.
        self._exec_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model,
        config: Optional[HardwareConfig] = None,
        *,
        seed: SeedLike = 0,
        backend: str = "stochastic",
        micro_batch: Optional[int] = DEFAULT_MICRO_BATCH,
    ) -> "Engine":
        """Compile ``model`` (Mlp / VggSmall) and wrap it in an engine.

        ``config`` defaults to the hardware the model was trained
        against; ``seed`` feeds the compile-time sampler spawning.
        """
        network = compile_model(model, config, seed=seed)
        return cls(network, backend=backend, micro_batch=micro_batch)

    @staticmethod
    def builder() -> "EngineBuilder":
        """Start a fluent :class:`EngineBuilder`."""
        return EngineBuilder()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def session(
        self,
        *,
        seed: SeedLike = None,
        backend=None,
        micro_batch=_INHERIT,
        scheduler=None,
        deadline_s: Optional[float] = None,
    ) -> Session:
        """Open a :class:`Session` (pinned RNG + batched requests).

        ``backend`` accepts a registered name or a ready-made
        ``run_layer`` strategy instance.
        ``micro_batch``: omit to inherit the engine default, pass an int
        to shard requests at that size, or ``None`` to disable sharding.
        ``scheduler``: a runtime scheduler name (``"serial"``,
        ``"shard-parallel"``, ``"tile-parallel"``, ``"adaptive"``) or
        instance; omit for the serial loop (or the default installed by
        :func:`set_default_scheduler`). ``"adaptive"`` is the
        recommended default for pool-capable backends — it picks the
        fan-out per request from the plan's cost model and stays
        bit-identical to serial. ``deadline_s`` bounds each request's
        pool execution (blown deadlines recover via bit-identical
        serial re-execution).
        """
        return Session(
            self,
            seed=seed,
            backend=backend,
            micro_batch=micro_batch,
            scheduler=scheduler,
            deadline_s=deadline_s,
        )

    def run(
        self,
        images: np.ndarray,
        labels: Optional[np.ndarray] = None,
        *,
        backend=None,
        seed: SeedLike = None,
        micro_batch=_INHERIT,
        scheduler=None,
    ) -> InferenceResult:
        """One-shot convenience: ephemeral session, single request."""
        with self.session(
            seed=seed, backend=backend, micro_batch=micro_batch, scheduler=scheduler
        ) as s:
            return s.run(images, labels=labels)

    def evaluate(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        backend: Optional[str] = None,
        batch_size: Optional[int] = None,
        seed: SeedLike = None,
    ) -> float:
        """Top-1 accuracy on a labelled set (micro-batched)."""
        result = self.run(
            images,
            labels=labels,
            backend=backend,
            seed=seed,
            micro_batch=_INHERIT if batch_size is None else batch_size,
        )
        return result.accuracy

    # ------------------------------------------------------------------
    # Introspection / cost
    # ------------------------------------------------------------------
    @property
    def config(self) -> HardwareConfig:
        return self.network.config

    @property
    def stages(self):
        return self.network.stages

    @property
    def tiled_layers(self):
        return self.network.tiled_layers

    def workloads(self, image_shape) -> List[LayerWorkload]:
        """Cost-model workloads for a (C, H, W) input geometry."""
        return network_workloads(self.network, image_shape)

    def cost_model(self, image_shape, **kwargs) -> AcceleratorCostModel:
        """Hardware cost model over this network's real workloads."""
        return AcceleratorCostModel(
            self.config, self.workloads(image_shape), **kwargs
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Engine(stages={len(self.network.stages)}, "
            f"backend={self.backend!r}, Cs={self.config.crossbar_size})"
        )


class EngineBuilder:
    """Fluent construction: ``Engine.builder().model(m).backend(...).build()``.

    Collects the model (or an already-compiled network), an optional
    hardware override (a full :class:`HardwareConfig` or field
    overrides applied to the model's training hardware), the compile
    seed, and the engine defaults, then :meth:`build`\\ s the engine.
    """

    def __init__(self) -> None:
        self._model = None
        self._network: Optional[CompiledNetwork] = None
        self._config: Optional[HardwareConfig] = None
        self._overrides: dict = {}
        self._seed: SeedLike = 0
        self._backend: str = "stochastic"
        self._micro_batch: Optional[int] = DEFAULT_MICRO_BATCH

    def model(self, model) -> "EngineBuilder":
        self._model = model
        return self

    def network(self, network: CompiledNetwork) -> "EngineBuilder":
        self._network = network
        return self

    def hardware(self, config: Optional[HardwareConfig] = None, **overrides) -> "EngineBuilder":
        """Deploy hardware: a full config, field overrides, or both.

        Calls accumulate: a later overrides-only call refines the
        previously set base config rather than discarding it.
        """
        if config is not None:
            self._config = config
        self._overrides.update(overrides)
        return self

    def seed(self, seed: SeedLike) -> "EngineBuilder":
        self._seed = seed
        return self

    def backend(self, name: str) -> "EngineBuilder":
        get_backend(name)  # fail fast
        self._backend = name
        return self

    def micro_batch(self, size: Optional[int]) -> "EngineBuilder":
        self._micro_batch = size
        return self

    def build(self) -> Engine:
        if self._network is not None:
            if self._model is not None or self._config is not None or self._overrides:
                raise ValueError(
                    "network() is exclusive with model()/hardware(): a compiled "
                    "network already fixes both"
                )
            return Engine(
                self._network, backend=self._backend, micro_batch=self._micro_batch
            )
        if self._model is None:
            raise ValueError("EngineBuilder needs model(...) or network(...)")
        config = self._config or getattr(self._model, "hardware", None)
        if self._overrides:
            if config is None:
                raise ValueError(
                    "hardware overrides need a base config (model.hardware "
                    "or hardware(config))"
                )
            config = config.with_(**self._overrides)
        return Engine.from_model(
            self._model,
            config,
            seed=self._seed,
            backend=self._backend,
            micro_batch=self._micro_batch,
        )
