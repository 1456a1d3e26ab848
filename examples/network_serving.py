#!/usr/bin/env python
"""Network serving walkthrough: framed wire protocol, asyncio server,
sync + async clients, back-pressure, and bit-identity over TCP.

The network tier (:mod:`repro.net`) puts a real socket boundary in
front of the :class:`~repro.runtime.daemon.ServingDaemon`::

    clients ──frames──▶ asyncio server ──try_submit──▶ router ──▶ replicas
       ▲                                                │ waves
       └── response / PARTIAL / PROGRESS frames ◀───────┘

A served request crosses two threads: the server's event loop decodes
and submits it, and the daemon's consumer thread plans and executes its
wave and encodes the response as soon as the result lands. Every
request carries an explicit seed, so a response that crossed the
wire, was coalesced into a wave with strangers, was routed to any of N
replica daemons, and came back on a multiplexed connection — whole or
as streamed row-slices — is still **bit-identical** to
``Session(engine, seed).run(images)`` in-process (the contract
``docs/PROTOCOL.md`` and ``docs/ARCHITECTURE.md`` document). This
example:

1. trains a small randomized MLP (same recipe as ``quickstart.py``),
2. starts the asyncio server on an ephemeral port (background thread),
3. runs blocking-client requests and verifies wire == in-process,
4. multiplexes concurrent requests on one async connection,
5. consumes a **streamed** response: PROGRESS lifecycle markers, then
   contiguous PARTIAL slices reassembled bit-identically,
6. routes over **two replica daemons** with a :class:`DaemonRouter`
   and shows the topology is invisible on the wire,
7. shows policed back-pressure: a rate-limited client sees a retryable
   error frame instead of a hung socket.

For latency under load, run the wire benchmark:
``python3 perfbench/run.py --workload wire-load``.

Run:  python examples/network_serving.py
"""

import asyncio

import numpy as np

from repro import HardwareConfig, Mlp, Trainer, TrainingConfig
from repro.api import Engine, ServingDaemon, Session
from repro.data import DataLoader, make_mnist_like
from repro.net import (
    AsyncNetworkClient,
    DaemonRouter,
    NetworkClient,
    RemoteError,
    ServerThread,
    StreamPartial,
    StreamProgress,
)


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

    rng = np.random.default_rng(0)
    batch = test.images[rng.integers(0, len(test.images), size=32)]

    # 2. Daemon + asyncio server on an ephemeral port ------------------
    daemon = ServingDaemon(engine, seed=0)
    # stream_chunk_rows: slice streamed responses into 8-row PARTIALs
    # (default REPRO_STREAM_CHUNK_ROWS=32 would fit this batch in one).
    with ServerThread(daemon, stream_chunk_rows=8) as (host, port):
        print(f"server: {host}:{port}")

        # 3. Blocking client: wire response == in-process session ------
        with NetworkClient(host, port) as client:
            print(f"ping: {client.ping() * 1e6:.0f} us")
            remote = client.infer(batch, seed=42)
        local = Session(engine, seed=42).run(batch)
        print(
            f"wire == in-process: "
            f"{np.array_equal(remote.logits, local.logits)} "
            f"(windows={remote.summary['total_windows']})"
        )

        # 4. One async connection, many in-flight requests -------------
        async def multiplexed():
            client = await AsyncNetworkClient.connect(host, port)
            try:
                return await asyncio.gather(
                    *(client.infer(batch, seed=100 + i) for i in range(6))
                )
            finally:
                await client.aclose()

        results = asyncio.run(multiplexed())
        identical = all(
            np.array_equal(
                r.logits, Session(engine, seed=100 + i).run(batch).logits
            )
            for i, r in enumerate(results)
        )
        print(f"6 multiplexed requests, all bit-identical: {identical}")

        # 5. Streamed consumption: PROGRESS markers + PARTIAL slices ---
        def on_event(event):
            if isinstance(event, StreamProgress):
                print(f"  progress: {event.stage} {event.detail}")
            elif isinstance(event, StreamPartial):
                print(
                    f"  partial:  seq={event.seq} offset={event.offset} "
                    f"rows={event.logits.shape[0]}"
                )

        with NetworkClient(host, port) as client:
            streamed = client.infer_streamed(batch, seed=42, on_event=on_event)
        print(
            f"reassembled stream == in-process: "
            f"{np.array_equal(streamed.logits, local.logits)}"
        )
    daemon.close(drain=True)

    # 6. Router: two replica daemons behind the same server ------------
    # Each replica compiles from the same trained model (fixed compile
    # seed), so any replica answers any seed bit-identically; the
    # router routes sticky by seed, spills past full queues, and fails
    # over evicted replicas transparently.
    router = DaemonRouter.build(
        [engine, Engine.from_model(model, micro_batch=32)], seed=0
    )
    with ServerThread(router) as (host, port):
        with NetworkClient(host, port) as client:
            routed = [client.infer(batch, seed=s) for s in (7, 8, 42)]
        identical = all(
            np.array_equal(
                r.logits, Session(engine, seed=s).run(batch).logits
            )
            for r, s in zip(routed, (7, 8, 42))
        )
        stats = router.stats
        print(
            f"routed over {stats.replicas} replicas "
            f"({ {n: s['dispatched'] for n, s in stats.per_replica.items()} }), "
            f"all bit-identical: {identical}"
        )
    router.close(drain=True)

    # 7. Policed back-pressure: retryable error frames -----------------
    daemon = ServingDaemon(engine, seed=0)
    with ServerThread(daemon, rate_limit_rps=0.01, rate_burst=1) as (host, port):
        with NetworkClient(host, port) as client:
            client.infer(batch, seed=1)  # spends the only token
            try:
                client.infer(batch, seed=2)
            except RemoteError as exc:
                print(
                    f"rate-limited request: [{exc.code}] retryable={exc.retryable}"
                )
    daemon.close(drain=True)


if __name__ == "__main__":
    main()
