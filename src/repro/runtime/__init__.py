"""``repro.runtime`` — execution planning, scheduling, transport, serving.

The runtime subsystem sits between the :class:`~repro.api.Engine`
facade and the layer-level execution backends
(:mod:`repro.api.backends`). It owns the full request lifecycle::

    request -> plan -> schedule -> transport -> results

* :mod:`repro.runtime.plan` — :func:`plan_shards` /
  :class:`ShardPlan` (row ranges + per-shard child seeds, the
  reproducibility contract), :func:`compile_plan` /
  :class:`ExecutionPlan` (the explicit (shard x stage x tile) task DAG
  with window-count cost estimates), and the shared stage pipeline
  :func:`run_stages` + :func:`seed_shard` every execution path runs
  through.
* :mod:`repro.runtime.scheduler` — pluggable string-keyed schedulers:
  ``"serial"``, ``"shard-parallel"`` (process pool),
  ``"tile-parallel"`` (concurrent column tiles), and ``"adaptive"``
  (the cost-model chooser). ``run_shards`` is the one execution seam
  for sessions and the serving daemon alike. Extend via
  :func:`register_scheduler`.
* :mod:`repro.runtime.transport` — shared-memory activation ring
  buffers that replace pickled ndarray shipping to pool workers.
* :mod:`repro.runtime.daemon` — :class:`ServingDaemon`, the long-lived
  queued serving loop with work-conserving batch coalescing (coalesced
  waves stay bit-identical to uncoalesced execution for seeded
  daemons).
* :mod:`repro.runtime.faults` — the deterministic fault-injection
  harness (:class:`FaultPlan` / :func:`fault_point`), armed via
  :func:`install_fault_plan`, :class:`fault_injection`, or the
  ``REPRO_FAULT_PLAN`` environment variable.
* :mod:`repro.runtime.recovery` — failure classification (retryable
  infrastructure vs fatal payload), :class:`RetryPolicy` with
  exponential backoff and per-request deadlines, and the
  :func:`run_with_recovery` loop whose outcomes surface as
  :class:`RecoveryLog`.
* :mod:`repro.runtime.env` — the typed accessor boundary for every
  ``REPRO_*`` environment knob, declared in :data:`ENV_CATALOG` (the
  source of the generated ``docs/ENVIRONMENT.md``) and enforced by the
  ``env-discipline`` rule of :mod:`repro.analysis`.

The :mod:`repro.api` surface (Engine / Session) is a facade over this
package: a session picks *how* a stage is sampled (the backend) and
hands *where* its shards run to one of these schedulers.
"""

from repro.runtime.costmodel import (
    ADAPTIVE_MODES,
    AdaptiveChoice,
    CostCoefficients,
    CostModel,
    StageDecision,
    calibrate,
    candidate_modes,
    load_cost_model,
)
from repro.runtime.daemon import DaemonStats, ServingDaemon
from repro.runtime.env import (
    ENV_CATALOG,
    EnvError,
    EnvVar,
    UndeclaredEnvVar,
    declared_variables,
    env_bool,
    env_float,
    env_int,
    env_path,
    env_str,
)
from repro.runtime.faults import (
    KNOWN_SITES,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    fault_injection,
    fault_point,
    install_fault_plan,
)
from repro.runtime.plan import (
    ExecutionPlan,
    Shard,
    ShardPlan,
    StageTask,
    compile_plan,
    concat_plans,
    plan_shards,
    run_stages,
    seed_shard,
)
from repro.runtime.recovery import (
    DeadlineExceeded,
    PoisonedPayload,
    QueueFull,
    RecoveryLog,
    RequestError,
    RetryPolicy,
    run_with_recovery,
)
from repro.runtime.scheduler import (
    AdaptiveScheduler,
    SerialScheduler,
    ShardParallelScheduler,
    TileParallelScheduler,
    available_schedulers,
    register_scheduler,
    resolve_scheduler,
)
from repro.runtime.transport import ActivationRing, ShmTicket, TransportUnavailable

__all__ = [
    "ExecutionPlan",
    "StageTask",
    "Shard",
    "ShardPlan",
    "compile_plan",
    "concat_plans",
    "plan_shards",
    "run_stages",
    "seed_shard",
    "AdaptiveScheduler",
    "SerialScheduler",
    "ShardParallelScheduler",
    "TileParallelScheduler",
    "available_schedulers",
    "register_scheduler",
    "resolve_scheduler",
    "ADAPTIVE_MODES",
    "AdaptiveChoice",
    "CostCoefficients",
    "CostModel",
    "StageDecision",
    "calibrate",
    "candidate_modes",
    "load_cost_model",
    "ActivationRing",
    "ShmTicket",
    "TransportUnavailable",
    "ServingDaemon",
    "DaemonStats",
    "KNOWN_SITES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "fault_injection",
    "fault_point",
    "install_fault_plan",
    "ENV_CATALOG",
    "EnvError",
    "EnvVar",
    "UndeclaredEnvVar",
    "declared_variables",
    "env_bool",
    "env_float",
    "env_int",
    "env_path",
    "env_str",
    "DeadlineExceeded",
    "PoisonedPayload",
    "QueueFull",
    "RecoveryLog",
    "RequestError",
    "RetryPolicy",
    "run_with_recovery",
]
