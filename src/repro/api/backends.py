"""Pluggable execution backends for the inference :class:`~repro.api.Engine`.

A backend decides *how* a compiled crossbar stage is executed — which
sampling engine turns a :class:`~repro.hardware.accelerator.TiledLinearLayer`
plus a flat +-1 activation batch into the layer's +-1 outputs. Backends
are stateless strategy objects registered under string keys so callers
(CLI flags, experiment configs, serving layers) select them by name, and
new sampling strategies plug in without touching the engine:

    from repro.api import register_backend

    @register_backend("my-backend", summary="...")
    class MyBackend:
        deterministic = False

        def run_layer(self, layer, flat, *, rng, validate=None):
            ...

First-class backends:

``"ideal"``
    Noise-free sign of the exact pre-activation (the equivalence
    reference; bit-for-bit equal to the legacy ``mode="ideal"``).
``"stochastic"``
    The hardware-default dispatch: fused inverse-CDF Binomial counts for
    an exact APC, packed bit-level otherwise — exactly the legacy
    ``mode="stochastic"`` path.
``"stochastic-dense"``
    Legacy per-tile sampling on dense float ``(L, N, cols)`` windows.
``"stochastic-packed"``
    Bit-level execution on uint64 bit-plane words (:mod:`repro.sc.packed`).
``"stochastic-fused-batched"``
    All column tiles of a stage concatenated into **one**
    ``Generator.binomial`` draw — one RNG invocation per layer, for the
    RNG-bound regime of the fused path. Draws from the session's
    generator, so the :class:`~repro.api.Session` owns the randomness.
``"stochastic-batched"``
    Fused inverse-CDF sampling on caller-owned uniforms: the whole
    shard's draws are hoisted into **one** ``Generator.random`` call
    (:meth:`StochasticBatchedBackend.begin_shard`) and served to each
    layer pass as consecutive slices — bit-identical to per-pass draws
    from the same session generator, one RNG invocation per *shard*.

Backends answer *how* a crossbar stage is sampled, and nothing else:
every backend implements ``run_layer``. *Where shards and tiles run*
belongs to the runtime schedulers (:mod:`repro.runtime.scheduler` —
``"serial"``, ``"shard-parallel"``, ``"tile-parallel"``,
``"adaptive"``), selected per session via
``engine.session(scheduler=...)``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple, Type

import numpy as np

from repro.hardware.accelerator import TiledLinearLayer
from repro.sc.binomial import DrawBatch

_REGISTRY: Dict[str, Type] = {}
_ALIASES: Dict[str, str] = {}
#: One shared strategy instance per registered name (backends are
#: stateless, so constructing a fresh object per ``Session.run`` would
#: be pure garbage churn).
_INSTANCES: Dict[str, object] = {}


def register_backend(name: str, *, aliases: Tuple[str, ...] = (), summary: str = ""):
    """Class decorator registering an execution backend under ``name``.

    The class must provide ``run_layer(layer, flat, *, rng, validate)``
    returning the +-1 ``(N, out)`` outputs, and may set a
    ``deterministic`` flag (True suppresses sampling telemetry).
    """

    def decorator(cls):
        if name in _REGISTRY or name in _ALIASES:
            raise ValueError(f"backend {name!r} is already registered")
        cls.name = name
        if summary:
            cls.summary = summary
        _REGISTRY[name] = cls
        for alias in aliases:
            if alias in _REGISTRY or alias in _ALIASES:
                raise ValueError(f"backend alias {alias!r} is already registered")
            _ALIASES[alias] = name
        return cls

    return decorator


def available_backends() -> List[str]:
    """Canonical (alias-free) backend names, sorted."""
    return sorted(_REGISTRY)


def backend_aliases() -> Dict[str, str]:
    """Alias -> canonical-name mapping (e.g. ``exact -> ideal``)."""
    return dict(_ALIASES)


def get_backend(name):
    """Resolve the backend registered under ``name`` (or an alias).

    Passing an object that already implements ``run_layer`` returns it
    unchanged, so engines accept both names and ready-made strategy
    instances. Every caller shares one cached instance per name.
    """
    if hasattr(name, "run_layer"):
        return name
    key = _ALIASES.get(name, name)
    cls = _REGISTRY.get(key)
    if cls is None:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
        )
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = _INSTANCES[key] = cls()
    return instance


class ExecutionBackend:
    """Base class for execution strategies (subclassing is optional)."""

    name = "?"
    summary = ""
    #: True when the backend consumes no randomness (telemetry then
    #: reports zero sampled windows).
    deterministic = False

    def run_layer(
        self,
        layer: TiledLinearLayer,
        flat: np.ndarray,
        *,
        rng: np.random.Generator,
        validate=None,
    ) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<backend {self.name}>"


@register_backend("ideal", aliases=("exact",), summary="noise-free sign reference")
class IdealBackend(ExecutionBackend):
    deterministic = True

    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.ideal_output(flat)


@register_backend(
    "stochastic",
    aliases=("auto",),
    summary="hardware-default dispatch (fused tables / packed bit-level)",
)
class StochasticAutoBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward(flat, validate=validate)


@register_backend(
    "stochastic-dense", summary="legacy per-tile sampling on dense float windows"
)
class StochasticDenseBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_dense(flat, validate=validate)


@register_backend(
    "stochastic-packed", summary="bit-level path on uint64 bit-plane words"
)
class StochasticPackedBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_packed(flat, validate=validate)


@register_backend(
    "stochastic-fused-batched",
    summary="one concatenated Generator.binomial draw per layer",
)
class StochasticFusedBatchedBackend(ExecutionBackend):
    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_fused_batched(flat, validate=validate, rng=rng)


@register_backend(
    "stochastic-batched",
    summary="caller-owned uniforms, one draw batch per shard pass",
)
class StochasticBatchedBackend(ExecutionBackend):
    """Fused inverse-CDF sampling on the *session's* generator, with the
    whole shard's uniforms pre-drawn in one ``Generator.random`` call.

    :func:`repro.runtime.plan.run_stages` hands the backend the
    micro-batch via :meth:`begin_shard` before the stage walk; the
    backend sizes a :class:`~repro.sc.binomial.DrawBatch` for every
    uniform the shard will consume and serves consecutive slices to
    each layer pass — bit-identical to drawing per pass from the same
    generator (the draw-batching contract), but one RNG invocation per
    shard instead of one per layer. Geometries the fused tables cannot
    serve (no fused sampler, very long windows) fall back to per-pass
    draws from the shard generator automatically.

    The instance is a cached singleton shared across sessions; the
    in-flight draw batch is thread-local, so concurrent sessions (the
    serving tier's threads) never see each other's uniforms.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def begin_shard(self, network, x, rng) -> None:
        # Function-scoped import: repro.api.backends sits *below*
        # repro.runtime in the layering contract; only module-scope
        # imports count against it.
        from repro.runtime.plan import batched_draw_elements

        total = batched_draw_elements(network, x.shape[1:], x.shape[0])
        self._local.draws = DrawBatch(rng, total) if total is not None else None

    def run_layer(self, layer, flat, *, rng, validate=None):
        return layer.forward_batched(
            flat,
            validate=validate,
            rng=rng,
            uniforms=getattr(self._local, "draws", None),
        )
