"""Registry/device/verifier state capture and npz round-trips."""

import numpy as np
import pytest

from repro.fleet import (
    BatchVerifier,
    FleetDevice,
    FleetRegistry,
)
from repro.protocols.mutual_auth import AuthenticationFailure
from repro.service import AuthService, FleetConfig
from repro.utils.serialization import load_state, save_state


FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


class TestStateArchive:
    def test_save_load_round_trip(self, tmp_path):
        manifest = {"kind": "test", "n": 3}
        arrays = {"a": np.arange(6, dtype=np.uint8).reshape(2, 3),
                  "mask": np.array([True, False])}
        written = save_state(str(tmp_path / "state"), manifest, arrays)
        assert written.endswith(".npz")
        loaded_manifest, loaded_arrays = load_state(written)
        assert loaded_manifest == manifest
        assert set(loaded_arrays) == {"a", "mask"}
        assert np.array_equal(loaded_arrays["a"], arrays["a"])
        assert loaded_arrays["mask"].dtype == bool

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state(str(tmp_path / "bad"), {},
                       {"manifest_json": np.zeros(1)})

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.zeros(2))
        with pytest.raises(ValueError):
            load_state(str(path))


class TestRegistryPersistence:
    def test_state_round_trip_preserves_records(self):
        service = AuthService.provision(FleetConfig(
            n_devices=3, seed=51, n_spot_crps=8, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        verifier.authenticate_fleet(devices)  # roll once so sessions > 0
        verifier.spot_check(devices, k=3)     # burn some spot CRPs
        clone = FleetRegistry.from_state(registry.to_state())
        assert clone.device_ids() == registry.device_ids()
        for device_id in registry.device_ids():
            original, restored = registry.record(device_id), \
                clone.record(device_id)
            assert restored.sessions == original.sessions == 1
            assert restored.challenge_bits == original.challenge_bits
            assert restored.firmware_hash == original.firmware_hash
            assert restored.expected_clock_count == \
                original.expected_clock_count
            assert np.array_equal(restored.current_response,
                                  original.current_response)
            assert np.array_equal(restored.crp_challenges,
                                  original.crp_challenges)
            assert np.array_equal(restored.crp_responses,
                                  original.crp_responses)
            assert np.array_equal(restored.crp_used, original.crp_used)
            assert restored.spot_crps_left == original.spot_crps_left

    def test_state_is_a_value_capture(self):
        service = AuthService.provision(FleetConfig(
            n_devices=1, seed=52, n_spot_crps=8, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        state = registry.to_state()
        before = registry.record(devices[0].device_id).current_response.copy()
        verifier.authenticate_fleet(devices)   # mutates the live registry
        verifier.spot_check(devices, k=4)
        clone = FleetRegistry.from_state(state)
        record = clone.record(devices[0].device_id)
        assert np.array_equal(record.current_response, before)
        assert record.sessions == 0
        assert record.spot_crps_left == 8

    def test_file_round_trip(self, tmp_path):
        service = AuthService.provision(FleetConfig(
            n_devices=2, seed=53, n_spot_crps=4, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        verifier.authenticate_fleet(devices)
        written = registry.save(str(tmp_path / "registry"))
        loaded = FleetRegistry.load(written)
        assert loaded.storage_bytes == registry.storage_bytes
        for device_id in registry.device_ids():
            assert np.array_equal(
                loaded.record(device_id).current_response,
                registry.record(device_id).current_response,
            )

    def test_restored_registry_authenticates(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=54, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        verifier.authenticate_fleet(devices)
        restored = FleetRegistry.from_state(registry.to_state())
        fresh = BatchVerifier.from_state(restored, verifier.to_state())
        report = fresh.authenticate_fleet(devices)
        assert report.n_accepted == 3
        assert not report.failures

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            FleetRegistry.from_state(
                {"manifest": {"format": "other"}, "arrays": {}})
        with pytest.raises(ValueError):
            FleetRegistry.from_state(
                {"manifest": {"format": "fleet-registry", "version": 99,
                              "devices": []}, "arrays": {}})

    def test_revoke_removes_record(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=55, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim = devices[0].device_id
        registry.revoke(victim)
        assert victim not in registry
        assert len(registry) == 1
        with pytest.raises(AuthenticationFailure):
            registry.record(victim)
        with pytest.raises(AuthenticationFailure):
            registry.revoke(victim)


class TestDeviceState:
    def test_round_trip_preserves_session_state(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=56, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        device = devices[0]
        verifier.authenticate_fleet(devices)
        clone = FleetDevice.from_state(device.to_state(), device.puf)
        assert clone.device_id == device.device_id
        assert clone.firmware_hash == device.firmware_hash
        assert clone.clock_count == device.clock_count
        assert clone._session == device._session == 1
        assert np.array_equal(clone.current_response,
                              device.current_response)
        # The rebuilt device authenticates against the live registry.
        report = verifier.authenticate_fleet([clone])
        assert report.n_accepted == 1

    def test_unprovisioned_round_trip(self):
        from repro.puf.photonic_strong import PhotonicStrongPUF

        puf = PhotonicStrongPUF(seed=57, **FAST_PUF)
        device = FleetDevice("bare", puf)
        clone = FleetDevice.from_state(device.to_state(), puf)
        assert clone.current_response is None


class TestVerifierState:
    def test_nonce_counter_survives_restart(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=58, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        verifier.authenticate_fleet(devices)
        counter = verifier._nonce_counter
        assert counter > 0
        restarted = BatchVerifier.from_state(registry, verifier.to_state())
        assert restarted._nonce_counter == counter
        # Fresh nonces only: nothing issued before the snapshot repeats.
        replayer = BatchVerifier(registry, seed=verifier.seed)
        issued_before = set()
        for _ in range(counter):
            issued_before |= set(
                replayer.open_round([devices[0].device_id]).values())
        after = set(restarted.open_round(
            [d.device_id for d in devices]).values())
        assert len(issued_before) == counter
        assert not issued_before & after

    def test_stale_checkpoint_never_reissues_nonces(self):
        # Snapshot early, keep running, crash, restore the *old* state:
        # the epoch bump must keep every post-restart nonce fresh even
        # though the restored counter lags the crashed verifier's.
        service = AuthService.provision(FleetConfig(n_devices=2, seed=59, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        stale_state = verifier.to_state()
        issued_after_snapshot = set()
        for _ in range(3):
            nonces = verifier.open_round([d.device_id for d in devices])
            issued_after_snapshot |= set(nonces.values())
        restarted = BatchVerifier.from_state(registry, stale_state)
        assert restarted._nonce_counter < verifier._nonce_counter
        reissued = set()
        for _ in range(5):
            reissued |= set(restarted.open_round(
                [d.device_id for d in devices]).values())
        assert not issued_after_snapshot & reissued

    def test_epoch_advances_on_every_restore(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=60, puf=FAST_PUF))
        registry, verifier = service.registry, service.verifier
        once = BatchVerifier.from_state(registry, verifier.to_state())
        twice = BatchVerifier.from_state(registry, once.to_state())
        assert (verifier._nonce_epoch, once._nonce_epoch,
                twice._nonce_epoch) == (0, 1, 2)
