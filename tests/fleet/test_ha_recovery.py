"""Replica nonce partitioning and commit-log crash recovery.

The two verifier-level guarantees the replicated plane
(:mod:`repro.service.ha`) is built on, proven here without sockets:

* **No nonce reuse, ever**: each replica draws nonces from its own
  residue class of the epoch space
  (``stream_epoch = nonce_epoch * n_replicas + replica_index``), so
  nonces stay globally distinct across any number of replicas and any
  number of crash/restore cycles — swept as a property test below.
* **No lost roll**: a coordinator crash *after* the device confirmed
  but *before* finalize landed leaves the registry one CRP behind the
  device.  The shared :class:`CommitLog` parks the candidate at verify
  time (write-ahead); the promoted replica proves the device rolled
  from its next MAC and completes the roll lazily.
"""

import itertools

import numpy as np
import pytest

from repro.fleet.verifier import BatchVerifier, CommitLog
from repro.protocols.mutual_auth import AuthenticationFailure
from repro.service import AuthService, FleetConfig

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def assert_synchronized(registry, devices):
    for device in devices:
        assert np.array_equal(
            device.current_response,
            registry.record(device.device_id).current_response,
        ), f"{device.device_id} desynchronized"


class TestEpochPartitioning:
    def test_stream_epoch_is_the_replica_residue_class(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=5, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        for n_replicas, index, epoch in itertools.product(
                (1, 2, 3, 5), range(5), range(4)):
            if index >= n_replicas:
                continue
            verifier = BatchVerifier(registry, seed=5, nonce_epoch=epoch,
                                     replica_index=index,
                                     n_replicas=n_replicas)
            assert verifier.stream_epoch % n_replicas == index
            assert verifier.stream_epoch == epoch * n_replicas + index

    def test_defaults_reduce_to_the_legacy_stream(self):
        # A verifier with default replica parameters must issue
        # bit-identical nonces to the pre-replication code path, so
        # single-server deployments see no behavior change.
        service = AuthService.provision(FleetConfig(n_devices=3, seed=11, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        ids = [device.device_id for device in devices]
        solo = BatchVerifier(registry, seed=11)
        explicit = BatchVerifier(registry, seed=11, nonce_epoch=0,
                                 replica_index=0, n_replicas=1)
        assert solo.stream_epoch == explicit.stream_epoch == 0
        assert solo.open_round(ids) == explicit.open_round(ids)

    def test_invalid_replica_geometry_rejected(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=5, puf=FAST_PUF))
        registry = service.registry
        with pytest.raises(ValueError):
            BatchVerifier(registry, n_replicas=0)
        with pytest.raises(ValueError):
            BatchVerifier(registry, replica_index=2, n_replicas=2)
        with pytest.raises(ValueError):
            BatchVerifier(registry, replica_index=-1, n_replicas=3)

    @pytest.mark.parametrize("n_replicas", [2, 3, 5])
    def test_nonces_globally_distinct_across_replicas_and_crashes(
            self, n_replicas):
        # The property the chaos campaign wiretap asserts end-to-end,
        # swept directly: N replicas x M crash/restore cycles x R
        # rounds each, every nonce ever issued is unique.
        service = AuthService.provision(FleetConfig(n_devices=4, seed=23, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        ids = [device.device_id for device in devices]
        issued = []
        epochs = [0] * n_replicas
        for cycle in range(3):                     # crash/restore cycles
            for index in range(n_replicas):
                # Every incarnation gets a fresh epoch floor, exactly
                # as ReplicaGroup bumps it on start/restore/promotion.
                verifier = BatchVerifier(registry, seed=23,
                                         nonce_epoch=epochs[index],
                                         replica_index=index,
                                         n_replicas=n_replicas)
                epochs[index] += 1
                for _ in range(3):                 # rounds per lifetime
                    issued.extend(verifier.open_round(ids).values())
        assert len(issued) == len(set(issued)), "nonce reuse across replicas"

    def test_from_state_bumps_epoch_but_keeps_residue(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=7, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        verifier = BatchVerifier(registry, seed=7, nonce_epoch=4,
                                 replica_index=1, n_replicas=3)
        restored = BatchVerifier.from_state(registry, verifier.to_state())
        assert restored.stream_epoch > verifier.stream_epoch
        assert restored.stream_epoch % 3 == 1
        assert restored.replica_index == 1 and restored.n_replicas == 3


class TestCommitLog:
    def test_park_commit_drop(self):
        log = CommitLog()
        log.park("dev-a", 3, np.array([1, 0, 1, 1], dtype=np.uint8))
        log.park("dev-b", 1, np.array([0, 1], dtype=np.uint8))
        assert len(log) == 2 and set(log.device_ids()) == {"dev-a", "dev-b"}
        log.commit("dev-a")
        log.drop("dev-b")
        log.drop("dev-b")                          # idempotent
        assert len(log) == 0 and log.get("dev-a") is None

    def test_state_roundtrip(self):
        log = CommitLog()
        log.park("dev-a", 9, np.array([1, 0, 1], dtype=np.uint8))
        log.park("dev-b", 2, np.array([0, 1], dtype=np.uint8))
        log.mark_exposed("dev-b")
        clone = CommitLog.from_state(log.to_state())
        entry = clone.get("dev-a")
        assert entry.session == 9
        assert entry.new_response.dtype == np.uint8
        assert np.array_equal(entry.new_response, [1, 0, 1])
        assert not entry.exposed
        assert clone.get("dev-b").exposed

    def test_park_resets_exposure(self):
        # Re-parking (a later round's candidate for the same device)
        # starts a new commit whose confirmation has not left yet.
        log = CommitLog()
        log.park("dev-a", 3, np.array([1, 0], dtype=np.uint8))
        log.mark_exposed("dev-a")
        log.park("dev-a", 4, np.array([0, 1], dtype=np.uint8))
        assert not log.get("dev-a").exposed
        log.mark_exposed("dev-missing")                # no-op, no raise


def run_round(verifier, devices):
    """One full verify pass; returns (report, nonces)."""
    nonces = verifier.open_round([d.device_id for d in devices])
    messages = [d.respond(nonces[d.device_id]) for d in devices]
    return verifier.verify_round(messages, nonces), nonces


class TestCrashRecovery:
    def _crash_after_confirm(self, seed=41, n=3):
        """Drive a round to the crash window: the victim device has
        rolled on its confirmation, but the coordinator died before
        finalize — registry one CRP behind, candidate parked."""
        service = AuthService.provision(FleetConfig(n_devices=n, seed=seed, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        log = CommitLog()
        primary = BatchVerifier(registry, seed=seed, nonce_epoch=0,
                                replica_index=0, n_replicas=2,
                                commit_log=log)
        report, nonces = run_round(primary, devices)
        assert report.n_accepted == n
        victim, *rest = devices
        victim.confirm(report.confirmations[victim.device_id],
                       nonces[victim.device_id])
        for device in rest:                        # the lucky ones finalize
            device.confirm(report.confirmations[device.device_id],
                           nonces[device.device_id])
            primary.finalize(device.device_id)
        # The crash: the victim's finalize never arrives; teardown
        # aborts the session *ambiguously*, which must keep the parked
        # candidate alive for the successor.
        primary.abort(victim.device_id, ambiguous=True)
        assert log.get(victim.device_id) is not None
        return registry, devices, victim, log

    def test_promoted_replica_completes_the_roll(self):
        registry, devices, victim, log = self._crash_after_confirm()
        record = registry.record(victim.device_id)
        assert not np.array_equal(record.current_response,
                                  victim.current_response)
        promoted = BatchVerifier(registry, seed=41, nonce_epoch=1,
                                 replica_index=1, n_replicas=2,
                                 commit_log=log)
        # The victim's next message MACs with the parked candidate:
        # proof it rolled.  Recovery rolls the registry, then the round
        # verifies normally against the caught-up record.
        report, nonces = run_round(promoted, devices)
        assert report.n_accepted == len(devices)
        assert len(log) == len(devices)            # this round's parks
        for device in devices:
            device.confirm(report.confirmations[device.device_id],
                           nonces[device.device_id])
            promoted.finalize(device.device_id)
        assert len(log) == 0
        assert_synchronized(registry, devices)

    def test_sessions_count_recovered_roll(self):
        registry, devices, victim, log = self._crash_after_confirm(seed=43)
        before = int(registry.record(victim.device_id).sessions)
        promoted = BatchVerifier(registry, seed=43, nonce_epoch=1,
                                 replica_index=1, n_replicas=2,
                                 commit_log=log)
        report, nonces = run_round(promoted, devices)
        victim.confirm(report.confirmations[victim.device_id],
                       nonces[victim.device_id])
        promoted.finalize(victim.device_id)
        # Interrupted roll + this round's roll: the device is exactly
        # two sessions ahead of the crash point, none lost, none extra.
        assert int(registry.record(victim.device_id).sessions) == before + 2

    def test_unambiguous_abort_drops_the_candidate(self):
        # Device never saw the confirmation (it was dropped, not the
        # ack): both sides are still on the old CRP, so the abort is
        # unambiguous and the parked candidate must go.
        service = AuthService.provision(FleetConfig(n_devices=2, seed=47, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        log = CommitLog()
        verifier = BatchVerifier(registry, seed=47, commit_log=log)
        report, nonces = run_round(verifier, devices)
        victim = devices[0]
        verifier.abort(victim.device_id)
        assert log.get(victim.device_id) is None
        devices[1].confirm(report.confirmations[devices[1].device_id],
                           nonces[devices[1].device_id])
        verifier.finalize(devices[1].device_id)
        report2, nonces2 = run_round(verifier, devices)
        assert report2.n_accepted == 2
        for device in devices:
            device.confirm(report2.confirmations[device.device_id],
                           nonces2[device.device_id])
            verifier.finalize(device.device_id)
        assert_synchronized(registry, devices)

    def test_stale_parked_entry_is_ignored_and_dropped(self):
        # A parked candidate from an *older* session (the device has
        # authenticated since through another replica) must not roll
        # the registry backwards.
        registry, devices, victim, log = self._crash_after_confirm(seed=53)
        entry = log.get(victim.device_id)
        log.park(victim.device_id, entry.session - 1, entry.new_response)
        promoted = BatchVerifier(registry, seed=53, nonce_epoch=1,
                                 replica_index=1, n_replicas=2,
                                 commit_log=log)
        sessions = int(registry.record(victim.device_id).sessions)
        report, _ = run_round(promoted, devices)
        # The victim's MAC would prove the roll, but the session stamp
        # disagrees with the registry: the entry must be discarded, not
        # applied — a session mismatch means the registry moved through
        # some other path, and applying would roll twice.
        assert int(registry.record(victim.device_id).sessions) == sessions
        assert log.get(victim.device_id) is None \
            or log.get(victim.device_id).session != entry.session - 1
        assert report.n_accepted == len(devices) - 1

    def test_exposed_entry_survives_unambiguous_abort(self):
        # The regression the chaos campaign caught: a device rolled in
        # the crash window (entry parked + exposed), then a *later*
        # attempt timed out pre-verify and the client sent an abort.
        # That abort speaks for its own attempt only — dropping the
        # exposed park would destroy the sole proof of the completed
        # roll and desynchronize the device forever.
        registry, devices, victim, log = self._crash_after_confirm(seed=61)
        log.mark_exposed(victim.device_id)
        promoted = BatchVerifier(registry, seed=61, nonce_epoch=1,
                                 replica_index=1, n_replicas=2,
                                 commit_log=log)
        promoted.abort(victim.device_id)               # stray, unambiguous
        assert log.get(victim.device_id) is not None, (
            "exposed crash-window park must survive a stray abort")
        # ... so the recovery path still completes the roll.
        report, nonces = run_round(promoted, devices)
        assert report.n_accepted == len(devices)
        for device in devices:
            device.confirm(report.confirmations[device.device_id],
                           nonces[device.device_id])
            promoted.finalize(device.device_id)
        assert_synchronized(registry, devices)

    def test_unexposed_entry_dropped_by_unambiguous_abort(self):
        # Counterpart: if the confirmation never left the server the
        # device cannot have rolled, so a clean abort discards the park.
        service = AuthService.provision(FleetConfig(n_devices=2, seed=67, puf=FAST_PUF))
        registry, devices = service.registry, service.device_list
        log = CommitLog()
        verifier = BatchVerifier(registry, seed=67, commit_log=log)
        run_round(verifier, devices)
        victim = devices[0]
        assert not log.get(victim.device_id).exposed
        verifier.abort(victim.device_id)
        assert log.get(victim.device_id) is None

    def test_revoked_device_entry_is_dropped(self):
        registry, devices, victim, log = self._crash_after_confirm(seed=59)
        registry.revoke(victim.device_id)
        promoted = BatchVerifier(registry, seed=59, nonce_epoch=1,
                                 replica_index=1, n_replicas=2,
                                 commit_log=log)
        survivors = [d for d in devices if d is not victim]
        nonces = promoted.open_round([d.device_id for d in survivors])
        messages = [d.respond(nonces[d.device_id]) for d in survivors]
        # The revoked victim still talks; recovery must drop its parked
        # entry instead of resurrecting it (the message itself then
        # fails the normal path, as revoked messages should).
        messages.append(victim.respond(b"\x00" * 16))
        try:
            promoted.verify_round(messages, nonces)
        except AuthenticationFailure:
            pass
        assert log.get(victim.device_id) is None
