"""In-memory span recorder and the wrappers that put it around each
layer's public functions.

Nothing under ``src/`` knows about tracing: :class:`Tracer` replaces a
layer's entry points (module functions, methods, one property) with
timing wrappers and puts the originals back on :meth:`Tracer.uninstall`.
Spans are kept per thread, nest through a per-thread stack, and are
merged into one list only when the run ends.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, List, Tuple

from metrics import Span

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: List[list] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -- recording -----------------------------------------------------
    def _state(self):
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            local.stack = []
            with self._lock:
                self._lists.append(spans)
        return spans, local.stack

    def begin(self, name: str) -> int:
        spans, stack = self._state()
        index = len(spans)
        spans.append([name, _now(), 0.0, stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._local.spans[index][2] = _now()
        self._local.stack.pop()

    def innermost(self) -> str:
        """Name of the open span on this thread ('' when none)."""
        spans, stack = self._state()
        return spans[stack[-1]][0] if stack else ""

    def spans(self) -> List[Span]:
        """Every span, merged across threads (parent indices rebased into
        the merged list). A span still open (its thread outlived the run)
        is closed at its start, so it counts no time."""
        merged: List[Span] = []
        with self._lock:
            lists = list(self._lists)
        for spans in lists:
            base = len(merged)
            for name, start, end, parent in list(spans):
                merged.append(
                    (name, start, end or start, parent + base if parent >= 0 else -1)
                )
        return merged

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span named ``name``. A call made while a span
        of the same name is already open on the thread (a layer entry
        point delegating to another) is not counted twice."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.innermost() == name:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        return traced

    # -- patching ------------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value``, remembering what to restore."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str) -> None:
        """Wrap the function ``owner.attr`` in a span named ``name``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class _TimedGenerator:
    """A ``numpy.random.Generator`` stand-in whose draws are spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        index = self._tracer.begin("sc.draws")
        try:
            return self._gen.random(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def binomial(self, *args, **kwargs):
        index = self._tracer.begin("sc.draws")
        try:
            return self._gen.binomial(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install_kernel_layers(tracer: Tracer) -> None:
    """Spans around the sampling kernel, the tiled crossbars, the plan
    functions, the schedulers and ``Session.run``."""
    from repro.api import backends, engine
    from repro.hardware import crossbar
    from repro.hardware.accelerator import TiledLinearLayer
    from repro.runtime import daemon, plan, scheduler

    # repro.sc: the inverse-CDF gather and the uniform draws behind it
    # (the sampler's lazily built generator, and whole-shard DrawBatches).
    tracer.patch(crossbar, "counts_by_quantile", "sc.counts_by_quantile")
    getter = crossbar.CrossbarArray.rng.fget

    def timed_rng(self):
        index = tracer.begin("sc.draws")
        try:
            gen = getter(self)
        finally:
            tracer.end(index)
        return _TimedGenerator(gen, tracer)

    tracer.replace(crossbar.CrossbarArray, "rng", property(timed_rng))
    for module in (backends, plan):
        tracer.patch(module, "DrawBatch", "sc.draws")

    # repro.hardware
    for method in (
        "forward",
        "forward_batched",
        "forward_packed",
        "forward_dense",
        "forward_fused_batched",
    ):
        tracer.patch(TiledLinearLayer, method, "hardware.layer_forward")
    tracer.patch(TiledLinearLayer, "reseed_sampling", "hardware.reseed_sampling")

    # repro.runtime.plan, at the names its callers look up
    tracer.patch(scheduler, "seed_shard", "runtime.plan.seed_shard")
    tracer.patch(scheduler, "run_stages", "runtime.plan.run_stages")
    tracer.patch(engine, "plan_shards", "runtime.plan.plan_shards")
    tracer.patch(daemon, "plan_shards", "runtime.plan.plan_shards")

    # repro.runtime.scheduler
    for cls in (
        scheduler.SerialScheduler,
        scheduler.ShardParallelScheduler,
        scheduler.TileParallelScheduler,
        scheduler.AdaptiveScheduler,
    ):
        tracer.patch(cls, "run_shards", "runtime.scheduler.run_shards")
    tracer.patch(scheduler.AdaptiveScheduler, "_choose", "runtime.scheduler.decide")

    # repro.api.engine
    tracer.patch(engine.Session, "run", "api.session_run")


def install_codec(tracer: Tracer, side: str) -> None:
    """Spans around the wire codec functions (``side`` names the span:
    ``net.protocol.client_codec`` or ``net.protocol.server_codec``)."""
    from repro.net import protocol

    name = f"net.protocol.{side}_codec"
    for attr in (
        "encode_request",
        "encode_response",
        "encode_error",
        "encode_progress",
        "encode_partial",
        "encode_pong",
        "decode_payload",
    ):
        tracer.patch(protocol, attr, name)
