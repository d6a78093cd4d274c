"""Sharded fleet rounds vs the single-process stacked plane.

The acceptance bar of the shard layer is *bitwise-equal round
transcripts*: provisioning secrets, per-round message bytes,
confirmations, spot-check outcomes — a sharded fleet may differ from the
single-process plane only in wall clock.  Also covered: the pipelined
round scheduler's failure semantics (one shared duplicate set across
shard chunks), mixed attached/detached devices inside one round, worker
crash mid-campaign, and the micro-round coalescer.
"""

import numpy as np
import pytest

from repro.fleet import (
    FleetSimulator,
    RoundCoalescer,
    respond_round as respond_fleet,
    respond_round_staged as respond_fleet_staged,
)
from repro.service import AuthService, EngineConfig, FleetConfig

N_DEVICES = 10
CONFIG = dict(n_spot_crps=8,
              puf=dict(challenge_bits=32, n_stages=6, response_bits=16))
SEED = 77


@pytest.fixture(scope="module")
def plain_fleet():
    service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
    return service.registry, service.device_list, service.verifier


@pytest.fixture()
def sharded_fleet():
    service = AuthService.provision(FleetConfig(
        n_devices=N_DEVICES, seed=SEED, engine=EngineConfig(shard_workers=3), **CONFIG))
    registry, devices, verifier = service.registry, service.device_list, service.verifier
    yield registry, devices, verifier
    devices[0].plane.close_executor()


class TestShardedTranscripts:
    def test_executor_attached(self, sharded_fleet):
        __, devices, __ = sharded_fleet
        executor = devices[0].plane.executor
        assert executor is not None and executor.active
        assert executor.n_workers == 3  # ragged shards: 4/3/3 dies

    def test_enrollment_bitwise_equal(self, plain_fleet, sharded_fleet):
        registry1, devices1, __ = plain_fleet
        registry2, devices2, __ = sharded_fleet
        for device1, device2 in zip(devices1, devices2):
            assert np.array_equal(device1.current_response,
                                  device2.current_response)
            record1 = registry1.record(device1.device_id)
            record2 = registry2.record(device2.device_id)
            assert np.array_equal(record1.crp_challenges,
                                  record2.crp_challenges)
            assert np.array_equal(record1.crp_responses,
                                  record2.crp_responses)

    def test_round_transcripts_bitwise_equal(self, sharded_fleet):
        """Fresh plain fleet vs sharded fleet: identical byte streams."""
        service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
        devices1, verifier1 = service.device_list, service.verifier
        __, devices2, verifier2 = sharded_fleet
        for __ in range(3):
            nonces1 = verifier1.open_round(
                [device.device_id for device in devices1])
            nonces2 = verifier2.open_round(
                [device.device_id for device in devices2])
            assert nonces1 == nonces2
            messages1 = respond_fleet(devices1, nonces1)
            messages2 = respond_fleet(devices2, nonces2)
            for m1, m2 in zip(messages1, messages2):
                assert m1.device_id == m2.device_id
                assert m1.body == m2.body
                assert m1.tag == m2.tag
            report1 = verifier1.verify_round(messages1, nonces1)
            report2 = verifier2.verify_round(messages2, nonces2)
            assert report1.confirmations == report2.confirmations
            assert report1.failures == report2.failures
            for devices, verifier, nonces, report in (
                (devices1, verifier1, nonces1, report1),
                (devices2, verifier2, nonces2, report2),
            ):
                for device in devices:
                    device.confirm(report.confirmations[device.device_id],
                                   nonces[device.device_id])
                    verifier.finalize(device.device_id)

    def test_authenticate_fleet_pipeline_equal(self, sharded_fleet):
        service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
        devices1, verifier1 = service.device_list, service.verifier
        __, devices2, verifier2 = sharded_fleet
        for __ in range(2):
            report1 = verifier1.authenticate_fleet(devices1)
            report2 = verifier2.authenticate_fleet(devices2)
            assert report1.n_accepted == report2.n_accepted == N_DEVICES
            assert report1.confirmations == report2.confirmations

    def test_spot_check_equal(self, sharded_fleet):
        service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
        devices1, verifier1 = service.device_list, service.verifier
        __, devices2, verifier2 = sharded_fleet
        spot1 = verifier1.spot_check(devices1, k=4)
        spot2 = verifier2.spot_check(devices2, k=4)
        assert np.array_equal(spot1.fractional_hd, spot2.fractional_hd)
        assert np.array_equal(spot1.accepted, spot2.accepted)

    def test_mixed_attached_detached_round(self, sharded_fleet):
        """Half the fleet detached mid-round: transcripts still match."""
        service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
        devices1, verifier1 = service.device_list, service.verifier
        __, devices2, verifier2 = sharded_fleet
        detached = [1, 4, 8]
        for index in detached:
            devices1[index].detach_plane()
            devices2[index].detach_plane()
        report1 = verifier1.authenticate_fleet(devices1)
        report2 = verifier2.authenticate_fleet(devices2)
        assert report1.n_accepted == report2.n_accepted == N_DEVICES
        assert report1.confirmations == report2.confirmations

    def test_staged_chunks_reassemble_to_flat(self, sharded_fleet):
        __, devices, verifier = sharded_fleet
        nonces = verifier.open_round(
            [device.device_id for device in devices])
        chunks = list(respond_fleet_staged(devices, nonces))
        assert len(chunks) > 1  # sharded: one chunk per worker
        flat = [None] * N_DEVICES
        for positions, messages in chunks:
            for position, message in zip(positions, messages):
                flat[position] = message
        assert all(message is not None for message in flat)
        assert [m.device_id for m in flat] == [d.device_id for d in devices]
        for device in devices:  # leave no sessions pending
            device._pending = None

    def test_duplicate_device_rejected_across_chunks(self, sharded_fleet):
        """The pipelined path shares one duplicate set round-wide."""
        __, devices, verifier = sharded_fleet
        doubled = list(devices) + [devices[0]]
        report = verifier.authenticate_fleet(doubled)
        # The second message was rejected as duplicate-device; the
        # doubled device's own second confirm attempt then downgrades
        # its recorded kind to no-session — exactly the sequential
        # path's semantics.  The invariant: one device, one session.
        assert report.failure_kinds[devices[0].device_id] == "no-session"
        # Everyone else still authenticated.
        assert report.n_accepted == N_DEVICES - 1

    def test_worker_crash_mid_campaign_stays_synchronized(self,
                                                          sharded_fleet):
        service = AuthService.provision(FleetConfig(n_devices=N_DEVICES, seed=SEED, **CONFIG))
        devices1, verifier1 = service.device_list, service.verifier
        __, devices2, verifier2 = sharded_fleet
        executor = devices2[0].plane.executor
        report = verifier2.authenticate_fleet(devices2)
        assert report.n_accepted == N_DEVICES
        verifier1.authenticate_fleet(devices1)
        victim = executor._workers[0]
        victim.kill()
        victim.join()
        # Crash mid-campaign: the round completes inline, bit-identical.
        report1 = verifier1.authenticate_fleet(devices1)
        report2 = verifier2.authenticate_fleet(devices2)
        assert report2.n_accepted == N_DEVICES
        assert report1.confirmations == report2.confirmations
        assert not executor.active


class TestSimulatorShardedPath:
    def test_campaign_over_sharded_plane(self):
        service = AuthService.provision(FleetConfig(n_devices=8, seed=5, **CONFIG))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        simulator = FleetSimulator(registry, devices, verifier, seed=5,
                                   shard_workers=2)
        try:
            assert devices[0].plane.executor is not None
            stats = simulator.run_campaign(3)
            assert stats.authenticated == 3 * 8
            assert stats.desynchronized == 0
        finally:
            simulator.close()
        assert devices[0].plane.executor is None

    def test_campaign_matches_single_process(self):
        outcomes = []
        for shard_workers in (None, 2):
            service = AuthService.provision(FleetConfig(n_devices=6, seed=9, **CONFIG))
            registry, devices, verifier = service.registry, service.device_list, service.verifier
            simulator = FleetSimulator(registry, devices, verifier, seed=9,
                                       shard_workers=shard_workers)
            try:
                stats = simulator.run_campaign(2)
            finally:
                simulator.close()
            outcomes.append((
                stats.authenticated, stats.desynchronized,
                tuple(np.concatenate([device.current_response
                                      for device in devices])),
            ))
        assert outcomes[0] == outcomes[1]


class TestRoundCoalescer:
    @pytest.fixture()
    def clocked(self, sharded_fleet):
        registry, devices, verifier = sharded_fleet
        now = [0.0]
        coalescer = AuthService(
            registry, devices, verifier,
            config=FleetConfig(n_devices=N_DEVICES, latency_budget_s=1.0,
                               max_batch=4),
            clock=lambda: now[0]).coalescer
        return devices, coalescer, now

    def test_holds_until_deadline(self, clocked):
        devices, coalescer, now = clocked
        ticket = coalescer.submit(devices[0])
        assert coalescer.pending_count == 1
        assert coalescer.poll() is None
        assert not ticket.done
        now[0] = 1.5
        report = coalescer.poll()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted
        assert coalescer.flushed_by_deadline == 1

    def test_full_micro_round_flushes_immediately(self, clocked):
        devices, coalescer, __ = clocked
        tickets = [coalescer.submit(device) for device in devices[:4]]
        assert coalescer.pending_count == 0
        assert all(t.done and t.accepted for t in tickets)
        assert coalescer.flushed_by_size == 1
        assert coalescer.micro_rounds == 1

    def test_duplicate_submission_flushes_first(self, clocked):
        devices, coalescer, __ = clocked
        first = coalescer.submit(devices[0])
        second = coalescer.submit(devices[0])
        assert first.done and first.accepted
        assert not second.done
        coalescer.flush()
        assert second.done and second.accepted

    def test_unknown_device_rejected_at_submit(self, clocked):
        from repro.fleet import FleetDevice
        from repro.protocols.mutual_auth import AuthenticationFailure
        devices, coalescer, __ = clocked
        stranger = FleetDevice("dev-stranger", devices[0].puf)
        ticket = coalescer.submit(devices[0])
        # A stray unenrolled request fails at the door, not mid-round.
        with pytest.raises(AuthenticationFailure):
            coalescer.submit(stranger)
        assert coalescer.pending_count == 1
        report = coalescer.flush()
        assert report.n_accepted == 1 and ticket.accepted

    def test_revoked_mid_coalesce_fails_only_that_ticket(self, clocked,
                                                         sharded_fleet):
        """Revocation between submit and flush rejects the victim only.

        Regression: the revoked device used to reach ``open_round``,
        which raised ``not-enrolled`` for the *whole* micro-round and
        settled every ticket as failed.  The flush must screen revoked
        devices out first so the survivors still authenticate.
        """
        registry, devices, verifier = sharded_fleet
        __, coalescer, __ = clocked
        survivor = coalescer.submit(devices[1])
        victim = coalescer.submit(devices[2])
        registry.revoke(devices[2].device_id)
        verifier.evict(devices[2].device_id)
        report = coalescer.flush()
        assert report is not None and report.n_accepted == 1
        assert survivor.done and survivor.accepted
        assert victim.done and not victim.accepted
        assert "revoked" in victim.failure
        assert victim.failure_kind == "not-enrolled"
        assert coalescer.pending_count == 0
        assert coalescer.micro_rounds == 1

    def test_whole_micro_round_revoked_is_noop_round(self, clocked,
                                                     sharded_fleet):
        registry, devices, verifier = sharded_fleet
        __, coalescer, __ = clocked
        ticket = coalescer.submit(devices[3])
        registry.revoke(devices[3].device_id)
        verifier.evict(devices[3].device_id)
        # Every pending device gone: no round runs at all.
        assert coalescer.flush() is None
        assert ticket.done and not ticket.accepted
        assert ticket.failure_kind == "not-enrolled"
        assert coalescer.micro_rounds == 0

    def test_flush_empty_is_noop(self, clocked):
        __, coalescer, __ = clocked
        assert coalescer.flush() is None
        assert coalescer.micro_rounds == 0

    def test_validation(self, sharded_fleet):
        registry, __, __ = sharded_fleet
        with pytest.raises(ValueError):
            RoundCoalescer(registry.record, list, latency_budget_s=-1.0)
        with pytest.raises(ValueError):
            RoundCoalescer(registry.record, list, max_batch=0)
