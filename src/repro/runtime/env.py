"""Typed accessors and the declared catalog for every ``REPRO_*``
environment knob.

This module is the single boundary between the process environment and
the runtime: every knob is **declared** in :data:`ENV_CATALOG` (name,
type, default, description, consumer) and **read** through the typed
accessors below, which parse with clear, self-naming errors — a mis-set
CI variable stops the build with a message that says which variable and
why, instead of surfacing as an opaque crash deep inside a worker pool.

The ``env-discipline`` rule of the static contract checker
(:mod:`repro.analysis.rules.envdiscipline`) enforces both halves
mechanically: raw ``os.environ`` reads outside this module are lint
errors, and an accessor call naming an undeclared variable is too. The
human-readable catalog in ``docs/ENVIRONMENT.md`` is *generated* from
:func:`catalog_markdown` (``repro.cli lint-static --write-env-docs``),
so declaration, enforcement, and documentation cannot drift apart.

Deliberately dependency-free (stdlib only): imported by the test-suite
watchdog in ``tests/conftest.py`` and by every runtime module without
dragging anything else in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


class EnvError(ValueError):
    """A declared variable is set to something unparsable. Subclasses
    :class:`ValueError` so pre-existing callers keep working."""


class UndeclaredEnvVar(KeyError):
    """An accessor was asked for a variable missing from
    :data:`ENV_CATALOG` — declare it first."""


@dataclass(frozen=True)
class EnvVar:
    """One declared knob (the unit of the generated catalog)."""

    name: str
    kind: str  # "int" | "float" | "bool" | "str" | "path"
    default: str  # human-readable default / unset behaviour
    description: str
    consumer: str  # module that reads it


#: The declared catalog. Keys are the variable names (string literals —
#: the env-discipline rule parses this dict statically).
ENV_CATALOG: Dict[str, EnvVar] = {
    "REPRO_MAX_POOL_WORKERS": EnvVar(
        name="REPRO_MAX_POOL_WORKERS",
        kind="int",
        default="unset (no cap)",
        description=(
            "Ceiling on scheduler fan-out; schedulers clamp their "
            "configured `workers` to it. A shard pool of fan-out W runs "
            "one group on the calling thread and forks W - 1 worker "
            "processes (1 when W is 1). Must be >= 1. CI sets 2 so pool "
            "deadlocks surface fast."
        ),
        consumer="repro.runtime.scheduler",
    ),
    "REPRO_FORCE_SCHEDULER": EnvVar(
        name="REPRO_FORCE_SCHEDULER",
        kind="str",
        default="unset (cost-model choice)",
        description=(
            "Force the adaptive scheduler's per-plan mode (one of the "
            "ADAPTIVE_MODES: serial / shard-parallel / tile-parallel), "
            "bypassing the cost model's break-even choice."
        ),
        consumer="repro.runtime.scheduler",
    ),
    "REPRO_COST_COEFFICIENTS": EnvVar(
        name="REPRO_COST_COEFFICIENTS",
        kind="path",
        default="unset (built-in defaults)",
        description=(
            "Path to saved cost-model coefficients JSON "
            "(CostCoefficients.save); load_cost_model(None) reads it."
        ),
        consumer="repro.runtime.costmodel",
    ),
    "REPRO_FAULT_PLAN": EnvVar(
        name="REPRO_FAULT_PLAN",
        kind="str",
        default="unset (no fault plan)",
        description=(
            "Fault-injection plan as inline JSON ('{...}') or a path to "
            "a JSON file; installed at first fault_point call in any "
            "process that inherits it (how the chaos CI tier configures "
            "whole runs)."
        ),
        consumer="repro.runtime.faults",
    ),
    "REPRO_MAX_RETRIES": EnvVar(
        name="REPRO_MAX_RETRIES",
        kind="int",
        default="2",
        description=(
            "Retry budget after the first attempt for retryable "
            "infrastructure failures (RetryPolicy.from_env). Must be >= 0."
        ),
        consumer="repro.runtime.recovery",
    ),
    "REPRO_RETRY_BACKOFF_S": EnvVar(
        name="REPRO_RETRY_BACKOFF_S",
        kind="float",
        default="0.05",
        description=(
            "Base of the capped exponential retry backoff, in seconds. "
            "Must be >= 0."
        ),
        consumer="repro.runtime.recovery",
    ),
    "REPRO_REQUEST_DEADLINE_S": EnvVar(
        name="REPRO_REQUEST_DEADLINE_S",
        kind="float",
        default="unset (no deadline)",
        description=(
            "Default per-request deadline in seconds; blown deadlines "
            "trigger the bit-identical serial rescue. Non-positive "
            "values are ignored (no deadline)."
        ),
        consumer="repro.runtime.recovery",
    ),
    "REPRO_SERIAL_FALLBACK": EnvVar(
        name="REPRO_SERIAL_FALLBACK",
        kind="bool",
        default="true",
        description=(
            "Enable the bit-identical in-process serial re-execution "
            "after retries are exhausted. Falsey spellings: 0 / false / "
            "no / off."
        ),
        consumer="repro.runtime.recovery",
    ),
    "REPRO_ROUTER_REPLICAS": EnvVar(
        name="REPRO_ROUTER_REPLICAS",
        kind="int",
        default="unset (1 — no router)",
        description=(
            "Default replica count for `repro serve`: values >= 2 put "
            "a DaemonRouter over that many ServingDaemon replicas. "
            "An explicit --replicas flag wins. Must be >= 1."
        ),
        consumer="repro.cli",
    ),
    "REPRO_ROUTER_PROBE_INTERVAL_S": EnvVar(
        name="REPRO_ROUTER_PROBE_INTERVAL_S",
        kind="float",
        default="0.25",
        description=(
            "Seconds between the DaemonRouter's health-probe sweeps "
            "over its replicas (eviction of unhealthy replicas happens "
            "inline on failure; the probe handles re-admission). Must "
            "be > 0."
        ),
        consumer="repro.net.router",
    ),
    "REPRO_STREAM_CHUNK_ROWS": EnvVar(
        name="REPRO_STREAM_CHUNK_ROWS",
        kind="int",
        default="32",
        description=(
            "Row count per PARTIAL frame when a client requests a "
            "streamed response (NetworkServer slices the resolved "
            "logits into chunks of this many rows). Must be >= 1."
        ),
        consumer="repro.net.server",
    ),
    "REPRO_TEST_TIMEOUT": EnvVar(
        name="REPRO_TEST_TIMEOUT",
        kind="float",
        default="unset (no watchdog)",
        description=(
            "In-process pytest watchdog ceiling in seconds; the run "
            "aborts with exit code 124 (matching GNU timeout) once it "
            "elapses. The Makefile's runtime/chaos tiers set it where "
            "GNU timeout is unavailable. Must be > 0."
        ),
        consumer="tests.conftest",
    ),
}


def declared_variables() -> Tuple[str, ...]:
    """Every declared variable name, sorted."""
    return tuple(sorted(ENV_CATALOG))


def describe(name: str) -> EnvVar:
    """The declaration for ``name`` (raises :class:`UndeclaredEnvVar`)."""
    try:
        return ENV_CATALOG[name]
    except KeyError:
        raise UndeclaredEnvVar(
            f"{name} is not declared in repro.runtime.env.ENV_CATALOG; "
            f"declared: {', '.join(declared_variables())}"
        ) from None


# ----------------------------------------------------------------------
# Typed accessors. All of them treat unset and blank/whitespace-only as
# "not configured" (returning the caller's default), because that is
# what every pre-existing ad-hoc reader did.
# ----------------------------------------------------------------------
def env_raw(name: str) -> Optional[str]:
    """The stripped raw value of a *declared* variable, or None when
    unset/blank."""
    describe(name)
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    return raw.strip()


def env_str(name: str, default: Optional[str] = None) -> Optional[str]:
    value = env_raw(name)
    return default if value is None else value


def env_int(
    name: str,
    default: Optional[int] = None,
    *,
    minimum: Optional[int] = None,
) -> Optional[int]:
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvError(f"{name} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise EnvError(f"{name} must be >= {minimum}, got {value}")
    return value


def env_float(
    name: str,
    default: Optional[float] = None,
    *,
    minimum: Optional[float] = None,
) -> Optional[float]:
    raw = env_raw(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvError(f"{name} must be a number, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise EnvError(f"{name} must be >= {minimum}, got {value}")
    return value


_FALSEY = ("0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on")


def env_bool(name: str, default: Optional[bool] = None) -> Optional[bool]:
    raw = env_raw(name)
    if raw is None:
        return default
    lowered = raw.lower()
    if lowered in _FALSEY:
        return False
    if lowered in _TRUTHY:
        return True
    raise EnvError(
        f"{name} must be a boolean ({'/'.join(_TRUTHY)} or "
        f"{'/'.join(_FALSEY)}), got {raw!r}"
    )


def env_path(name: str, default: Optional[str] = None) -> Optional[str]:
    """A filesystem path value. Existence is *not* checked here — the
    consumer opens it and owns the error."""
    value = env_raw(name)
    return default if value is None else value


# ----------------------------------------------------------------------
def catalog_markdown() -> str:
    """The generated ``docs/ENVIRONMENT.md`` content."""
    lines = [
        "# Environment variables",
        "",
        "<!-- Generated from repro.runtime.env.ENV_CATALOG by",
        "     `python -m repro.cli lint-static --write-env-docs`.",
        "     Do not edit by hand: the env-discipline lint rule and",
        "     tests/test_analysis.py keep this file in sync. -->",
        "",
        "Every `REPRO_*` knob is declared in",
        "`repro.runtime.env.ENV_CATALOG` and read only through that",
        "module's typed accessors; raw `os.environ` reads elsewhere are",
        "lint errors (`make lint-static`, rule `env-discipline`).",
        "",
        "| Variable | Type | Default | Consumer | Description |",
        "|---|---|---|---|---|",
    ]
    for name in declared_variables():
        var = ENV_CATALOG[name]
        description = " ".join(var.description.split())
        lines.append(
            f"| `{var.name}` | {var.kind} | {var.default} | "
            f"`{var.consumer}` | {description} |"
        )
    lines.append("")
    return "\n".join(lines)
