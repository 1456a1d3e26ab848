"""``repro.api`` — the unified inference surface.

Façade over model compilation, execution, and metrics:

* :class:`Engine` / :class:`EngineBuilder` — build an inference engine
  from a trained model (or compiled network) + hardware config.
* :class:`Session` — owns RNG state, accepts batched requests with
  automatic micro-batching.
* :class:`InferenceResult` / :class:`LayerTelemetry` — structured
  outputs: logits, per-layer window counts, workloads, wall time.
* backend registry — string-keyed pluggable sampling strategies
  (``"ideal"``, ``"stochastic"``, ``"stochastic-dense"``,
  ``"stochastic-packed"``, ``"stochastic-fused-batched"``,
  ``"stochastic-batched"``); extend via :func:`register_backend`.
  Where shards run is the runtime scheduler's concern, never the
  backend's.
* :class:`ServingDaemon` (from :mod:`repro.runtime`) — long-lived
  queued serving with work-conserving batch coalescing; coalesced
  waves are bit-identical to uncoalesced serial execution for seeded
  daemons, and :meth:`ServingDaemon.serve` wraps a batch in a
  :class:`ServingReport` of throughput telemetry. One consumer thread
  plans and executes each wave, and the live ``queue_depth`` /
  ``in_flight`` gauges plus non-blocking ``try_submit`` feed the
  network tier's load shedding.
* network serving tier (:mod:`repro.net`) — the framed wire protocol,
  the asyncio :class:`~repro.net.server.NetworkServer` ingestion
  front-end with per-client quotas and rate limiting, the
  :class:`~repro.net.router.DaemonRouter` over replica daemons, and
  sync/async clients.
* runtime subsystem (:mod:`repro.runtime`) — explicit
  :class:`ExecutionPlan` task DAGs (:func:`compile_plan`), pluggable
  schedulers (``"serial"`` / ``"shard-parallel"`` / ``"tile-parallel"``
  / ``"adaptive"``, the cost-model chooser; the process pool is
  bit-identical to serial for the same session seed), the calibratable
  :class:`CostModel` (:func:`calibrate`), and shared-memory activation
  transport.
* fault tolerance (:mod:`repro.runtime.faults` /
  :mod:`repro.runtime.recovery`) — deterministic fault injection
  (:class:`FaultPlan`), retry/backoff with pool rebuild
  (:class:`RetryPolicy`), per-request deadlines, and bit-identical
  serial fallback; outcomes surface in
  :attr:`InferenceResult.recovery` and :class:`DaemonStats`.
* experiment registry — every paper artifact, runnable by name
  (:func:`run_experiment`, CLI ``repro run``).

Quickstart::

    from repro.api import Engine

    engine = Engine.from_model(trained_model)
    result = engine.run(test.images, labels=test.labels,
                        backend="stochastic-fused-batched")
    print(result.accuracy, result.wall_time_s, result.total_windows)
"""

from repro.api.backends import (
    ExecutionBackend,
    available_backends,
    backend_aliases,
    get_backend,
    register_backend,
)
from repro.api.engine import (
    DEFAULT_MICRO_BATCH,
    Engine,
    EngineBuilder,
    ExecutionPlan,
    Session,
    Shard,
    ShardPlan,
    compile_plan,
    plan_shards,
)
from repro.api.experiments import (
    ExperimentSpec,
    available_experiments,
    experiment_registry,
    get_experiment,
    register_experiment,
    run_experiment,
)
from repro.api.results import (
    InferenceResult,
    LayerTelemetry,
    ServingReport,
    network_workloads,
)
from repro.runtime import (
    AdaptiveScheduler,
    CostCoefficients,
    CostModel,
    DaemonStats,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    PoisonedPayload,
    QueueFull,
    RecoveryLog,
    RequestError,
    RetryPolicy,
    ServingDaemon,
    StageDecision,
    available_schedulers,
    calibrate,
    fault_injection,
    register_scheduler,
)

__all__ = [
    "Engine",
    "EngineBuilder",
    "Session",
    "Shard",
    "ShardPlan",
    "ExecutionPlan",
    "plan_shards",
    "compile_plan",
    "ServingDaemon",
    "DaemonStats",
    "ServingReport",
    "available_schedulers",
    "register_scheduler",
    "AdaptiveScheduler",
    "CostModel",
    "CostCoefficients",
    "StageDecision",
    "calibrate",
    "InferenceResult",
    "LayerTelemetry",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "backend_aliases",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "available_experiments",
    "experiment_registry",
    "run_experiment",
    "network_workloads",
    "DEFAULT_MICRO_BATCH",
    "FaultPlan",
    "FaultSpec",
    "fault_injection",
    "RetryPolicy",
    "RecoveryLog",
    "RequestError",
    "DeadlineExceeded",
    "PoisonedPayload",
    "QueueFull",
]
