"""Fleet enrollment registry + batch verifier behavior."""

import numpy as np
import pytest

from repro.fleet import (
    BatchVerifier,
    FleetDevice,
    FleetRegistry,
)
from repro.protocols.mutual_auth import AuthenticationFailure
from repro.puf.photonic_strong import PhotonicStrongPUF
from repro.service import AuthService, FleetConfig


FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


@pytest.fixture(scope="module")
def fleet():
    service = AuthService.provision(FleetConfig(n_devices=3, seed=42, n_spot_crps=24, puf=FAST_PUF))
    return service.registry, service.device_list, service.verifier


class TestRegistry:
    def test_enrollment_state(self, fleet):
        registry, devices, _ = fleet
        assert len(registry) == 3
        for device in devices:
            assert device.device_id in registry
            record = registry.record(device.device_id)
            assert record.challenge_bits == 32
            assert record.current_response.size == 16
            assert record.crp_challenges.shape == (24, 32)
            assert record.crp_responses.shape == (24, 16)
            assert record.spot_crps_left == record.crp_used.size
        assert registry.storage_bytes > 0

    def test_duplicate_enrollment_rejected(self):
        registry = FleetRegistry()
        device = FleetDevice("dup", PhotonicStrongPUF(seed=7, **FAST_PUF))
        device.provision(seed=7)
        registry.enroll(device)
        with pytest.raises(ValueError):
            registry.enroll(device)

    def test_unknown_device_rejected(self, fleet):
        registry, _, _ = fleet
        with pytest.raises(AuthenticationFailure):
            registry.record("nobody")

    def test_response_matrix_stacks_current_responses(self, fleet):
        registry, devices, _ = fleet
        ids = [d.device_id for d in devices]
        matrix = registry.response_matrix(ids)
        assert matrix.shape == (3, 16)
        assert np.array_equal(matrix[0], registry.record(ids[0]).current_response)


class TestBatchAuthentication:
    def test_rounds_roll_the_fleet(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=11, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        before = registry.response_matrix([d.device_id for d in devices]).copy()
        for _ in range(3):
            report = verifier.authenticate_fleet(devices)
            assert report.n_accepted == 3
            assert not report.failures
        after = registry.response_matrix([d.device_id for d in devices])
        assert not np.array_equal(before, after)  # CRPs rolled forward
        for device in devices:
            assert registry.record(device.device_id).sessions == 3
            # Device and verifier stay in sync on the rolling secret.
            assert np.array_equal(device.current_response,
                                  registry.record(device.device_id).current_response)

    def test_tampered_device_rejected_others_pass(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=12, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        devices[1].current_response = 1 - devices[1].current_response
        report = verifier.authenticate_fleet(devices)
        assert report.n_accepted == 2
        assert "MAC" in report.failures[devices[1].device_id]

    def test_wrong_firmware_hash_rejected(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=13, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        devices[0].firmware_hash = b"\x00" * 32
        report = verifier.authenticate_fleet(devices)
        assert devices[0].device_id in report.failures
        assert "firmware" in report.failures[devices[0].device_id]

    def test_replayed_message_rejected(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=14, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        response = device.respond(nonces[device.device_id])
        first = verifier.verify_round([response], nonces)
        assert first.n_accepted == 1
        device.confirm(first.confirmations[device.device_id],
                       nonces[device.device_id])
        replay = verifier.verify_round([response], nonces)
        assert "replay" in replay.failures[device.device_id]

    def test_tampered_clock_count_rejected(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=18, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        slow = device.respond(nonces[device.device_id], tamper_factor=1.2)
        report = verifier.verify_round([slow], nonces)
        assert "clock count" in report.failures[device.device_id]

    def test_lost_confirmation_does_not_desynchronize(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=19, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        response = device.respond(nonces[device.device_id])
        report = verifier.verify_round([response], nonces)
        assert report.n_accepted == 1
        # The confirmation is never delivered: the registry must still hold
        # the old CRP (two-phase commit), so a plain retry succeeds.
        assert registry.record(device.device_id).sessions == 0
        retry = verifier.authenticate_fleet(devices)
        assert retry.n_accepted == 1
        assert registry.record(device.device_id).sessions == 1

    def test_abort_discards_pending_session(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=20, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        report = verifier.verify_round(
            [device.respond(nonces[device.device_id])], nonces)
        assert report.n_accepted == 1
        verifier.abort(device.device_id)
        assert registry.record(device.device_id).sessions == 0
        assert verifier.authenticate_fleet(devices).n_accepted == 1

    def test_unknown_device_fails_round_open(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=15, puf=FAST_PUF))
        verifier = service.verifier
        with pytest.raises(AuthenticationFailure):
            verifier.open_round(["ghost"])

    def test_unprovisioned_device_cannot_respond(self):
        device = FleetDevice("bare", PhotonicStrongPUF(seed=8, **FAST_PUF))
        with pytest.raises(AuthenticationFailure):
            device.respond(b"\x00" * 16)


class TestSpotCheck:
    def test_honest_fleet_accepted(self, fleet):
        _, devices, verifier = fleet
        report = verifier.spot_check(devices, k=6)
        assert report.n_accepted == 3
        assert np.all(report.fractional_hd <= report.threshold)

    def test_spot_indices_burned(self, fleet):
        registry, devices, verifier = fleet
        left_before = registry.record(devices[0].device_id).spot_crps_left
        verifier.spot_check(devices, k=4)
        left_after = registry.record(devices[0].device_id).spot_crps_left
        assert left_after == left_before - 4

    def test_pool_exhaustion_raises(self):
        service = AuthService.provision(FleetConfig(
            n_devices=1, seed=16, n_spot_crps=4, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        verifier.spot_check(devices, k=4)
        with pytest.raises(AuthenticationFailure):
            verifier.spot_check(devices, k=1)

    def test_cloned_device_rejected(self):
        service = AuthService.provision(FleetConfig(
            n_devices=1, seed=17, n_spot_crps=16, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        # A clone built from the same design but a different die.
        clone_puf = PhotonicStrongPUF(seed=17, die_index=99, **FAST_PUF)
        clone = FleetDevice(devices[0].device_id, clone_puf)
        report = verifier.spot_check([clone], k=8, threshold=0.15)
        assert report.n_accepted == 0
        assert report.fractional_hd[0] > 0.15


class TestVerifierConstruction:
    def test_verifier_on_existing_registry(self, fleet):
        registry, devices, _ = fleet
        fresh = BatchVerifier(registry, seed=99)
        report = fresh.authenticate_fleet(devices)
        assert report.n_accepted == 3
