#!/usr/bin/env python
"""Parallel execution & pooled serving walkthrough.

The stochastic crossbar inference is embarrassingly parallel — every
micro-batch shard is an independent sample-and-count — so the Engine's
shard plan maps straight onto a process pool. This example:

1. trains a small randomized MLP (same recipe as ``quickstart.py``),
2. runs one batched request serially and on a
   ``ShardParallelScheduler`` pool with several worker counts,
   verifying the logits are **bit-identical** for the same session
   seed (per-shard child seeding makes worker count irrelevant),
3. serves a batch of requests through a ``ServingDaemon`` whose waves
   run on one shared worker pool, and prints its throughput report.

For the daemon's queueing, coalescing and shutdown semantics, see
``examples/daemon_serving.py``.

Run:  python examples/parallel_serving.py
"""

import numpy as np

from repro import HardwareConfig, Mlp, Trainer, TrainingConfig
from repro.api import Engine, ServingDaemon
from repro.data import DataLoader, make_mnist_like
from repro.runtime import ShardParallelScheduler


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

    # 2. Serial vs parallel: bit-identical for the same seed ----------
    images, labels = test.images, test.labels
    serial = engine.session(seed=7).run(images, labels=labels)
    print(
        f"serial     : {serial.micro_batches} shards, "
        f"accuracy={serial.accuracy:.3f}, {serial.wall_time_s * 1e3:.1f} ms"
    )
    for workers in (1, 2, 4):
        with ShardParallelScheduler(workers=workers) as scheduler:
            with engine.session(seed=7, scheduler=scheduler) as session:
                parallel = session.run(images, labels=labels)
        identical = np.array_equal(parallel.logits, serial.logits)
        print(
            f"parallel x{workers}: {parallel.micro_batches} shards, "
            f"accuracy={parallel.accuracy:.3f}, "
            f"{parallel.wall_time_s * 1e3:.1f} ms, "
            f"bit-identical to serial: {identical}"
        )

    # 3. Daemon serving over one shared pool --------------------------
    rng = np.random.default_rng(0)
    requests, request_labels = [], []
    for _ in range(8):
        idx = rng.integers(0, len(images), size=48)
        requests.append(images[idx])
        request_labels.append(labels[idx])
    with ShardParallelScheduler(workers=4) as scheduler:
        with ServingDaemon(
            engine, scheduler=scheduler, seed=0, seed_per_request=True
        ) as daemon:
            report = daemon.serve(requests, labels=request_labels)
    print(f"\nserving: {report}")
    for key, value in report.summary().items():
        print(f"  {key:>14}: {value}")


if __name__ == "__main__":
    main()
