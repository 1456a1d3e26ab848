#!/usr/bin/env python
"""Queued serving daemon walkthrough: submission, coalescing, shutdown.

The runtime's :class:`~repro.runtime.daemon.ServingDaemon` is the
long-lived serving loop: a bounded request queue, one consumer thread,
and work-conserving coalescing. An idle daemon dispatches a request at
once, with whatever else is already queued; while a wave runs,
arrivals queue up and leave together as the next execution *wave* —
concatenated activations, appended shard plans — while every request
keeps its own shard boundaries and seeds,
so coalesced logits are **bit-identical** to running the same requests
uncoalesced through a serial ``Session``. This example:

1. trains a small randomized MLP (same recipe as ``quickstart.py``),
2. submits a burst of requests to a seeded daemon and shows the wave
   statistics (how many requests each wave coalesced),
3. verifies the coalesced logits equal ``Session.run_many`` bit for bit,
4. shows failure isolation (a malformed request fails only its own
   future) and graceful shutdown with requests still queued.

Run:  python examples/daemon_serving.py
"""

import numpy as np

from repro import HardwareConfig, Mlp, Trainer, TrainingConfig
from repro.api import Engine, ServingDaemon, Session
from repro.data import DataLoader, make_mnist_like


def main() -> None:
    # 1. Train a small reference model --------------------------------
    dataset = make_mnist_like(n_samples=1500, seed=0)
    train, test = dataset.split(train_fraction=0.8, seed=1)
    hardware = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    model = Mlp(in_features=144, hidden=(64, 32), hardware=hardware, seed=0)
    Trainer(model, TrainingConfig(epochs=10, warmup_epochs=2)).fit(
        DataLoader(train, batch_size=64, seed=2)
    )
    engine = Engine.from_model(model, micro_batch=32)
    print(f"engine: {engine}")

    # 2. A burst of queued requests, coalesced into waves -------------
    rng = np.random.default_rng(0)
    requests, labels = [], []
    for _ in range(8):
        idx = rng.integers(0, len(test.images), size=48)
        requests.append(test.images[idx])
        labels.append(test.labels[idx])

    with ServingDaemon(engine, seed=7, max_queue=32) as daemon:
        futures = [
            daemon.submit(request, labels=request_labels)
            for request, request_labels in zip(requests, labels)
        ]
        results = [future.result() for future in futures]
        stats = daemon.stats
    print(
        f"daemon: {stats.completed} requests in {stats.waves} waves "
        f"({stats.coalesced_requests} coalesced), "
        f"accuracy={np.mean([r.accuracy for r in results]):.3f}"
    )

    # 3. Coalescing is bit-identical to a serial session --------------
    reference = Session(engine, seed=7).run_many(requests, labels=labels)
    identical = all(
        np.array_equal(a.logits, b.logits) for a, b in zip(results, reference)
    )
    print(f"coalesced == uncoalesced serial session: {identical}")

    # 4. Failure isolation + graceful shutdown ------------------------
    daemon = ServingDaemon(engine, seed=7)
    good = daemon.submit(requests[0])
    bad = daemon.submit(np.full((4, 9), 0.5))  # wrong fan-in: this one fails
    tail = daemon.submit(requests[1])
    daemon.close(drain=True)  # finishes everything still queued
    print(f"good request:  {good.result()!r}")
    try:
        bad.result()
    except Exception as exc:  # noqa: BLE001 - demonstration
        print(f"bad request:   isolated failure: {type(exc).__name__}: {exc}")
    print(f"tail request:  {tail.result()!r} (drained on close)")


if __name__ == "__main__":
    main()
