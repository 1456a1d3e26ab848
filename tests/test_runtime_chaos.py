"""Chaos tier: injected failures against real process pools.

Every scenario here kills, delays, or poisons something mid-flight and
then asserts the two fault-tolerance invariants: the request still
completes (or fails with a classified, actionable error on *its own*
future), and recovered output is **bit-identical** to an unfaulted run
of the same seed — retry, pool rebuild, transport flip, and serial
fallback are never allowed to perturb randomness.

Run via ``make check-chaos`` (bounded workers + a hard timeout).
"""

import threading
import time

import numpy as np
import pytest

from repro.api import Engine, ServingDaemon, Session
from repro.hardware.accelerator import TiledLinearLayer
from repro.hardware.config import HardwareConfig
from repro.mapping.compiler import CompiledNetwork, HeadStage, LinearStage, SignStage
from repro.runtime.faults import FaultPlan, FaultSpec, fault_injection, install_fault_plan
from repro.runtime.recovery import PoisonedPayload, QueueFull
from repro.runtime.scheduler import ShardParallelScheduler
from repro.utils.rng import new_rng


def pm(rng, shape):
    return np.where(rng.random(shape) < 0.5, 1.0, -1.0)


@pytest.fixture(scope="module")
def small_engine():
    rng = new_rng(0)
    cfg = HardwareConfig(crossbar_size=16, gray_zone_ua=10.0, window_bits=8)
    layer = TiledLinearLayer(cfg, pm(rng, (64, 48)), seed=1)
    head = HeadStage(
        weight=pm(rng, (10, 48)),
        alpha=np.ones(10),
        gamma=np.ones(10),
        beta=np.zeros(10),
        mean=np.zeros(10),
        var=np.ones(10),
        eps=1e-5,
    )
    network = CompiledNetwork([SignStage(), LinearStage(layer=layer), head], cfg)
    return Engine(network, micro_batch=8)


@pytest.fixture(scope="module")
def request_data():
    rng = new_rng(99)
    return rng.standard_normal((48, 64))


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    install_fault_plan(None)


class TestWorkerCrashRecovery:
    def test_worker_kill_mid_wave_recovers_bit_identical(
        self, small_engine, request_data
    ):
        """Acceptance: a pool worker dies mid-wave; the request completes
        through pool rebuild + retry, bit-identical to an unfaulted run."""
        reference = small_engine.run(request_data, seed=7)
        plan = FaultPlan(
            [FaultSpec(site="worker.shard", action="kill", match={"shard": 1})]
        )
        with ShardParallelScheduler(workers=2) as scheduler:
            session = small_engine.session(seed=7, scheduler=scheduler)
            with fault_injection(plan):
                result = session.run(request_data)
            session.close()
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.recovery is not None
        assert result.recovery["recovered"] is True
        assert result.recovery["attempts"] >= 2
        assert any(
            entry["action"] == "rebuild-pool"
            for entry in result.recovery["retries"]
        )
        assert result.recovery["fallback"] is None, (
            "the rebuilt pool must be healthy — recovery converges via "
            "retry, not the serial rescue"
        )
        summary = result.summary()
        assert summary["recovered"] is True
        assert summary["recovery_attempts"] >= 2

    def test_worker_kill_through_daemon_counts_in_stats(
        self, small_engine, request_data
    ):
        """The same crash through the serving daemon: DaemonStats reports
        the retry and the recovery, and results stay bit-identical."""
        requests = [request_data[:16], request_data[16:48]]
        reference = Session(small_engine, seed=7).run_many(requests)
        plan = FaultPlan(
            [FaultSpec(site="worker.shard", action="kill", match={"shard": 1})]
        )
        scheduler = ShardParallelScheduler(workers=2)
        try:
            with fault_injection(plan):
                with ServingDaemon(
                    small_engine,
                    seed=7,
                    scheduler=scheduler,
                    coalesce_window_s=0.2,
                ) as daemon:
                    futures = [daemon.submit(r) for r in requests]
                    results = [f.result(timeout=120) for f in futures]
                    stats = daemon.stats
        finally:
            scheduler.close()
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.logits, want.logits)
        assert stats.retries >= 1
        assert stats.recoveries >= 1
        assert stats.recovery is not None and stats.recovery["recovered"]
        assert any(
            r.recovery is not None and r.recovery["recovered"] for r in results
        )


class TestTransportRecovery:
    def test_worker_attach_failure_flips_to_pickle(
        self, small_engine, request_data
    ):
        """The Nth-attach outage: a worker's shared-memory attach raises
        TransportUnavailable; the scheduler retries over pickle."""
        reference = small_engine.run(request_data, seed=11)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="transport.attach",
                    action="raise",
                    error="TransportUnavailable",
                )
            ]
        )
        with ShardParallelScheduler(workers=2) as scheduler:
            assert scheduler.transport == "shm"
            session = small_engine.session(seed=11, scheduler=scheduler)
            with fault_injection(plan):
                result = session.run(request_data)
            session.close()
            assert scheduler.transport == "pickle"
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.recovery["recovered"] is True
        assert any(
            entry["action"] == "pickle-transport"
            for entry in result.recovery["retries"]
        )

    def test_publish_failure_degrades_within_the_same_attempt(
        self, small_engine, request_data
    ):
        """A parent-side publish outage never costs a retry: the wave
        continues over pickle immediately."""
        reference = small_engine.run(request_data, seed=13)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="transport.publish",
                    action="raise",
                    error="TransportUnavailable",
                )
            ]
        )
        with ShardParallelScheduler(workers=2) as scheduler:
            session = small_engine.session(seed=13, scheduler=scheduler)
            with fault_injection(plan):
                result = session.run(request_data)
            session.close()
            assert scheduler.transport == "pickle"
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.recovery is None or result.recovery["attempts"] == 1


class TestDeadlines:
    def test_blown_deadline_rescued_serially_bit_identical(
        self, small_engine, request_data
    ):
        """Stragglers past the deadline are abandoned; the serial
        re-execution of the same plan is bit-identical."""
        reference = small_engine.run(request_data, seed=7)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="worker.shard",
                    action="delay",
                    delay_s=1.5,
                    times=None,
                )
            ]
        )
        with ShardParallelScheduler(workers=2) as scheduler:
            session = small_engine.session(
                seed=7, scheduler=scheduler, deadline_s=0.4
            )
            with fault_injection(plan):
                start = time.monotonic()
                result = session.run(request_data)
                elapsed = time.monotonic() - start
            session.close()
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert result.recovery["fallback"] == "serial"
        assert result.recovery["recovered"] is True
        assert elapsed < 10.0, "deadline recovery must not wait out stragglers"


class TestDaemonFaultHandling:
    def test_poisoned_request_is_isolated(self, small_engine, request_data):
        """A poisoned payload fails its own future with the fatal error
        untouched; its wave neighbours' logits are bit-identical to the
        same request sequence run unfaulted."""
        requests = [
            request_data[16:24],
            request_data[:16],  # the only 16-row request: poisoned
            request_data[24:32],
            request_data[32:40],
        ]
        reference = Session(small_engine, seed=31).run_many(requests)
        plan = FaultPlan(
            [FaultSpec(site="daemon.request", action="poison", match={"rows": 16})]
        )
        with fault_injection(plan):
            with ServingDaemon(
                small_engine, seed=31, coalesce_window_s=5.0
            ) as daemon:
                # Holding the execution lock blocks the first wave, so
                # the burst forms at most one more: the poisoned request
                # is assembled together with at least one neighbour.
                with small_engine._exec_lock:
                    futures = [daemon.submit(r) for r in requests]
                with pytest.raises(PoisonedPayload):
                    futures[1].result(timeout=60)
                neighbours = [futures[i].result(timeout=60) for i in (0, 2, 3)]
                stats = daemon.stats
        for got, index in zip(neighbours, (0, 2, 3)):
            np.testing.assert_array_equal(got.logits, reference[index].logits)
        assert stats.failed == 1 and stats.completed == 3
        # The poisoned request never joins a planned wave, so at least
        # two of the three healthy requests are counted as coalesced.
        assert stats.waves <= 2
        assert stats.coalesced_requests >= 2

    def test_admission_reject_sheds_load_at_the_door(
        self, small_engine, request_data
    ):
        plan = FaultPlan(
            [FaultSpec(site="daemon.consumer", action="delay", delay_s=0.6)]
        )
        with fault_injection(plan):
            with ServingDaemon(
                small_engine,
                seed=1,
                max_queue=1,
                admission="reject",
                coalesce_window_s=0.0,
            ) as daemon:
                accepted = daemon.submit(request_data[:8])
                with pytest.raises(QueueFull):
                    daemon.submit(request_data[8:16])
                assert accepted.result(timeout=60).logits.shape == (8, 10)
                assert daemon.stats.rejected == 1

    def test_admission_block_times_out_with_queuefull(
        self, small_engine, request_data
    ):
        plan = FaultPlan(
            [FaultSpec(site="daemon.consumer", action="delay", delay_s=0.6)]
        )
        with fault_injection(plan):
            with ServingDaemon(
                small_engine,
                seed=1,
                max_queue=1,
                admission="block",
                coalesce_window_s=0.0,
            ) as daemon:
                accepted = daemon.submit(request_data[:8])
                with pytest.raises(QueueFull):
                    daemon.submit(request_data[8:16], timeout=0.05)
                assert accepted.result(timeout=60) is not None
                assert daemon.stats.rejected == 1

    def test_supervisor_restarts_a_crashed_consumer(
        self, small_engine, request_data
    ):
        """A consumer crash outside any wave restarts the loop; requests
        queued across the crash are still served, bit-identically."""
        reference = Session(small_engine, seed=5).run_many([request_data[:16]])
        plan = FaultPlan(
            [FaultSpec(site="daemon.consumer", action="raise", error="RuntimeError")]
        )
        with fault_injection(plan):
            with ServingDaemon(
                small_engine, seed=5, coalesce_window_s=0.0
            ) as daemon:
                result = daemon.submit(request_data[:16]).result(timeout=60)
                stats = daemon.stats
        np.testing.assert_array_equal(result.logits, reference[0].logits)
        assert stats.consumer_restarts == 1
        assert stats.completed == 1

    def test_keyboard_interrupt_strands_no_caller(
        self, small_engine, request_data, monkeypatch
    ):
        """KeyboardInterrupt mid-wave stops the daemon: the in-flight
        request's future raises it, queued requests are failed — every
        future a caller holds resolves."""
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="daemon.consumer", action="delay", delay_s=0.2
                ),
                FaultSpec(
                    site="daemon.request",
                    action="raise",
                    error="KeyboardInterrupt",
                ),
            ]
        )
        with fault_injection(plan):
            daemon = ServingDaemon(
                small_engine,
                seed=2,
                coalesce_window_s=0.0,
                max_wave_images=8,
            )
            try:
                interrupted = daemon.submit(request_data[:8])
                queued = daemon.submit(request_data[8:16])
                with pytest.raises(KeyboardInterrupt):
                    interrupted.result(timeout=60)
                with pytest.raises(RuntimeError, match="consumer aborted"):
                    queued.result(timeout=60)
            finally:
                daemon.close(timeout=10)

    def test_close_without_drain_never_strands_inflight_futures(
        self, small_engine, request_data
    ):
        """close(drain=False) during an in-flight wave: every submitted
        future resolves — with a result or a classified error, never a
        hang."""
        plan = FaultPlan(
            [FaultSpec(site="daemon.request", action="delay", delay_s=0.3)]
        )
        with fault_injection(plan):
            daemon = ServingDaemon(
                small_engine, seed=2, coalesce_window_s=0.0, max_wave_images=8
            )
            inflight = daemon.submit(request_data[:8])
            time.sleep(0.1)  # consumer is now inside the delayed wave
            queued = daemon.submit(request_data[8:16])
            daemon.close(drain=False, timeout=30)
        outcomes = []
        for future in (inflight, queued):
            try:
                outcomes.append(future.result(timeout=10))
            except RuntimeError as exc:
                assert "closed" in str(exc)
                outcomes.append(None)
        assert len(outcomes) == 2
        assert outcomes[0] is not None, "the in-flight wave always finishes"


class TestNetworkChaos:
    def test_disconnect_and_worker_kill_under_network_load(
        self, small_engine, request_data
    ):
        """The network tier's worst afternoon: one client ships a
        request and vanishes, a pool worker is killed mid-wave, and a
        surviving client keeps going. The daemon recovers via pool
        rebuild, the orphaned response is dropped (not crashed on), and
        the survivor's logits stay bit-identical to a serial Session."""
        from repro.net import NetworkClient, ServerThread

        reference = Session(small_engine, seed=123).run(request_data[:16])
        plan = FaultPlan(
            [FaultSpec(site="worker.shard", action="kill", match={"shard": 1})]
        )
        scheduler = ShardParallelScheduler(workers=2)
        try:
            with fault_injection(plan):
                daemon = ServingDaemon(
                    small_engine,
                    seed=9,
                    scheduler=scheduler,
                    coalesce_window_s=0.05,
                )
                try:
                    thread = ServerThread(daemon)
                    host, port = thread.start()
                    try:
                        victim = NetworkClient(host, port)
                        victim.send(request_data[16:32], seed=124)
                        # leave before the wave resolves (the kill +
                        # pool rebuild guarantee it has not yet)
                        victim.close()
                        with NetworkClient(host, port, timeout=120.0) as client:
                            result = client.infer(request_data[:16], seed=123)
                        deadline = time.monotonic() + 30.0
                        while (
                            thread.server.stats.disconnected_inflight < 1
                            and time.monotonic() < deadline
                        ):
                            time.sleep(0.05)
                        server_stats = thread.server.stats
                    finally:
                        thread.close()
                    stats = daemon.stats
                finally:
                    daemon.close(drain=True)
        finally:
            scheduler.close()
        np.testing.assert_array_equal(result.logits, reference.logits)
        assert stats.retries >= 1, "the worker kill must actually have fired"
        assert stats.recoveries >= 1
        assert server_stats.disconnected_inflight == 1
        assert stats.failed == 0, "recovery, not failure, serves the survivors"


class TestRouterChaos:
    def test_replica_outage_mid_burst_fails_over_then_readmits(
        self, small_engine, request_data
    ):
        """One replica of a 2-replica router starts failing every
        request (matched by daemon name): the router evicts it and
        transparently re-submits — every caller future resolves
        (failed == 0) with logits bit-identical to a serial Session.
        While the fault is live, the seeded health probe keeps failing,
        so the replica stays evicted; once the outage clears, the probe
        proves recovery and re-admits it, and sticky traffic lands on
        it again, still bit-identical."""
        from repro.net.router import DaemonRouter

        images = request_data[:16]
        reference = {
            seed: Session(small_engine, seed=seed).run(images)
            for seed in range(8)
        }
        plan = FaultPlan(
            [
                FaultSpec(
                    site="daemon.request",
                    action="raise",
                    error="OSError",
                    times=None,  # every hit while installed
                    match={"daemon": "replica-1"},
                )
            ]
        )
        router = DaemonRouter.build(
            [small_engine, small_engine],
            seed=0,
            coalesce_window_s=0.0,
            probe_interval_s=0.05,
            probe_images=images[:2],
        )
        try:
            with fault_injection(plan):
                futures = {
                    seed: router.try_submit(images, seed=seed)
                    for seed in range(8)
                }
                for seed, future in futures.items():
                    got = future.result(timeout=120)  # nobody fails
                    np.testing.assert_array_equal(
                        got.logits,
                        reference[seed].logits,
                        err_msg=f"seed {seed} under replica outage",
                    )
                stats = router.stats
                assert stats.failovers >= 1, "the outage must have fired"
                assert stats.evictions >= 1
                assert stats.per_replica["replica-1"]["admitted"] is False, (
                    "while the fault is live the probe cannot prove "
                    "recovery, so the replica stays out of the rotation"
                )
            # Outage over (plan uninstalled): the probe re-admits.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if router.stats.per_replica["replica-1"]["admitted"]:
                    break
                time.sleep(0.05)
            stats = router.stats
            assert stats.per_replica["replica-1"]["admitted"] is True
            assert stats.readmissions >= 1
            assert stats.probes >= 1, "re-admission must be probe-proven"
            # Sticky traffic returns to the recovered replica,
            # bit-identical as ever.
            sticky = 9  # 9 % 2 == 1 -> replica-1
            want = Session(small_engine, seed=sticky).run(images)
            got = router.try_submit(images, seed=sticky).result(timeout=120)
            np.testing.assert_array_equal(got.logits, want.logits)
            assert router.stats.per_replica["replica-1"]["dispatched"] >= 1
        finally:
            router.close()


class TestNoOrphanedWorkers:
    def test_keyboard_interrupt_leaves_no_orphaned_pool_processes(
        self, small_engine, request_data
    ):
        """Regression: interrupting a wave and closing the scheduler must
        terminate every pool worker — no orphans surviving the session."""
        scheduler = ShardParallelScheduler(workers=2)
        try:
            session = small_engine.session(seed=3, scheduler=scheduler)
            session.run(request_data[:16])  # builds the pool
            workers = list(scheduler._pool._processes.values())
            assert workers and all(p.is_alive() for p in workers)
            plan = FaultPlan(
                [
                    FaultSpec(
                        site="scheduler.wave",
                        action="raise",
                        error="KeyboardInterrupt",
                    )
                ]
            )
            with fault_injection(plan):
                with pytest.raises(KeyboardInterrupt):
                    session.run(request_data[:16])
            session.close()
        finally:
            scheduler.close()
        for process in workers:
            process.join(timeout=30)
        assert all(not p.is_alive() for p in workers)
