"""Stacked-plane fleet rounds vs the per-device path.

The fleet-stacked execution plane must be *bit-compatible* with per-device
interrogation: identical provisioning secrets, identical round messages
and confirmations, identical spot-check outcomes — the plane only changes
how many tensor passes the work takes.
"""

import numpy as np
import pytest

from repro.fleet import (
    BatchVerifier,
    FleetDevice,
    FleetRegistry,
    FleetSimulator,
    FaultModel,
    ReplayAdversary,
    respond_round as respond_fleet,
)
from repro.protocols.mutual_auth import (
    derive_challenge,
    derive_challenge_batch,
)
from repro.puf.photonic_strong import PhotonicFleet, PhotonicStrongPUF
from repro.puf import photonic_strong_family

from repro.service import AuthService, FleetConfig

CFG = dict(challenge_bits=32, n_stages=3, response_bits=16)
FLEET = 6


def per_die_service(config: FleetConfig) -> AuthService:
    """The per-die reference fleet: every die enrolled on its own.

    Each unattached :class:`FleetDevice` is provisioned and enrolled
    through :meth:`AuthService.enroll`, one batch-1 measurement per die —
    the path :meth:`AuthService.provision` must match bit for bit.
    """
    family = photonic_strong_family(config.n_devices, seed=config.seed,
                                    **config.puf)
    service = AuthService(FleetRegistry(config.make_registry_backend()), [],
                          config=config)
    for die in range(config.n_devices):
        service.enroll(FleetDevice(f"dev-{die:06d}", family.device(die)))
    return service


def stacked_and_per_die(**knobs):
    config = FleetConfig(**knobs)
    return AuthService.provision(config), per_die_service(config)


@pytest.fixture(scope="module")
def fleets():
    stacked, legacy = stacked_and_per_die(
        n_devices=FLEET, seed=42, n_spot_crps=12, puf=CFG)
    return ((stacked.registry, stacked.device_list, stacked.verifier),
            (legacy.registry, legacy.device_list, legacy.verifier))


class TestStackedProvisioning:
    def test_secrets_match_per_die_path(self, fleets):
        (s_reg, s_dev, __), (l_reg, l_dev, __) = fleets
        for stacked, legacy in zip(s_dev, l_dev):
            assert stacked.device_id == legacy.device_id
            assert np.array_equal(stacked.current_response,
                                  legacy.current_response)
            s_record = s_reg.record(stacked.device_id)
            l_record = l_reg.record(legacy.device_id)
            assert np.array_equal(s_record.crp_challenges,
                                  l_record.crp_challenges)
            assert np.array_equal(s_record.crp_responses,
                                  l_record.crp_responses)

    def test_devices_are_plane_attached(self, fleets):
        (__, devices, __), __ = fleets
        plane = devices[0].plane
        assert isinstance(plane, PhotonicFleet)
        for row, device in enumerate(devices):
            assert device.plane is plane
            assert device.plane_row == row

    def test_stacked_false_leaves_devices_unattached(self, fleets):
        __, (__, devices, __) = fleets
        assert all(device.plane is None for device in devices)


class TestStackedRounds:
    def test_rounds_match_per_device_path(self, fleets):
        (s_reg, s_dev, s_ver), (l_reg, l_dev, l_ver) = fleets
        for _ in range(3):
            s_report = s_ver.authenticate_fleet(s_dev)
            l_report = l_ver.authenticate_fleet(l_dev)
            assert s_report.n_accepted == l_report.n_accepted == FLEET
            assert s_report.confirmations == l_report.confirmations
        for stacked, legacy in zip(s_dev, l_dev):
            assert np.array_equal(stacked.current_response,
                                  legacy.current_response)

    def test_respond_fleet_mixed_attachment(self, fleets):
        (__, devices, verifier), __ = fleets
        nonces = verifier.open_round([d.device_id for d in devices])
        # Half the fleet detached: grouped and per-device paths must mix
        # freely and preserve input order.
        detached = devices[1::2]
        rows = [(d, d.plane, d.plane_row) for d in detached]
        for device in detached:
            device.detach_plane()
        try:
            messages = respond_fleet(devices, nonces)
            assert [m.device_id for m in messages] == \
                [d.device_id for d in devices]
            report = verifier.verify_round(messages, nonces)
            assert report.n_accepted == FLEET
            for device in devices:
                verifier.abort(device.device_id)
                device._pending = None
        finally:
            for device, plane, row in rows:
                device.attach_plane(plane, row)

    def test_spot_check_matches_per_device_path(self):
        # Fresh fleets: spot responses depend on each device's measurement
        # counter, so both sides must start from identical histories.
        stacked, legacy = stacked_and_per_die(
            n_devices=FLEET, seed=43, n_spot_crps=12, puf=CFG)
        s_dev, s_ver = stacked.device_list, stacked.verifier
        l_dev, l_ver = legacy.device_list, legacy.verifier
        s_spot = s_ver.spot_check(s_dev, k=4)
        l_spot = l_ver.spot_check(l_dev, k=4)
        assert np.array_equal(s_spot.fractional_hd, l_spot.fractional_hd)
        assert s_spot.n_accepted == l_spot.n_accepted == FLEET

    def test_tamper_factor_travels_through_stacked_path(self, fleets):
        (__, devices, verifier), __ = fleets
        nonces = verifier.open_round([d.device_id for d in devices])
        victim = devices[0].device_id
        messages = respond_fleet(devices, nonces,
                                 tamper_factors={victim: 2.0})
        report = verifier.verify_round(messages, nonces)
        assert victim in report.failures
        assert report.failure_kinds[victim] == "clock-anomaly"
        assert report.n_accepted == FLEET - 1
        for device in devices:
            verifier.abort(device.device_id)
            device._pending = None


class TestPlaneSemantics:
    def test_plane_evaluate_matches_per_puf_batch(self):
        family = photonic_strong_family(4, seed=9, **CFG)
        plane = family.stack()
        rng = np.random.default_rng(0)
        challenges = rng.integers(0, 2, size=(4, 5, CFG["challenge_bits"]),
                                  dtype=np.uint8)
        stacked = plane.evaluate(challenges, measurements=0)
        energies = plane.slot_energies(challenges, measurements=0)
        for die in range(4):
            per_device = plane.pufs[die].evaluate_batch(
                challenges[die], measurement=0
            )
            assert np.array_equal(stacked[die], per_device)
            reference = plane.pufs[die].slot_energies_batch(
                challenges[die], measurement=0
            )
            np.testing.assert_allclose(energies[die], reference,
                                       rtol=1e-9, atol=1e-12)

    def test_measurement_counters_advance_like_per_device(self):
        family = photonic_strong_family(3, seed=9, **CFG)
        plane = family.stack()
        rng = np.random.default_rng(1)
        challenges = rng.integers(0, 2, size=(3, 1, CFG["challenge_bits"]),
                                  dtype=np.uint8)
        before = [puf._measurement_counter for puf in plane.pufs]
        plane.evaluate(challenges)           # fresh measurement per die
        after = [puf._measurement_counter for puf in plane.pufs]
        assert after == [count + 1 for count in before]
        plane.evaluate(challenges, measurements=0)   # pinned: no advance
        assert [puf._measurement_counter for puf in plane.pufs] == after

    def test_try_stack_rejects_heterogeneous(self):
        a = PhotonicStrongPUF(seed=1, die_index=0, **CFG)
        b = PhotonicStrongPUF(seed=1, die_index=1, challenge_bits=64,
                              n_stages=3, response_bits=16)
        assert PhotonicStrongPUF.try_stack([a, b]) is None
        # Mixed scrambler geometry (same readout config) must also refuse
        # to stack — not return a plane that fails at first evaluate.
        c = PhotonicStrongPUF(seed=1, die_index=2, challenge_bits=32,
                              n_stages=5, response_bits=16)
        assert PhotonicStrongPUF.try_stack([a, c]) is None
        assert PhotonicStrongPUF.try_stack([a]) is not None

    def test_family_stack_is_memoized(self):
        family = photonic_strong_family(2, seed=6, **CFG)
        assert family.stack() is family.stack()

    def test_family_response_matrix_stacked_matches_legacy(self):
        family = photonic_strong_family(3, seed=4, **CFG)
        rng = np.random.default_rng(2)
        challenges = rng.integers(0, 2, size=(4, CFG["challenge_bits"]),
                                  dtype=np.uint8)
        stacked = family.response_matrix(challenges, measurement=0,
                                         stacked=True)
        legacy = family.response_matrix(challenges, measurement=0,
                                        stacked=False)
        assert np.array_equal(stacked, legacy)


class TestBatchedDerivations:
    def test_derive_challenge_batch_matches_rows(self):
        rng = np.random.default_rng(3)
        responses = rng.integers(0, 2, size=(7, 19), dtype=np.uint8)
        batch = derive_challenge_batch(responses, 33)
        assert batch.shape == (7, 33)
        for row in range(7):
            assert np.array_equal(batch[row],
                                  derive_challenge(responses[row], 33))


class TestStackedLifecycle:
    def test_hostile_campaign_with_stacked_plane(self):
        service = AuthService.provision(FleetConfig(n_devices=8, seed=77, puf=CFG))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        simulator = FleetSimulator(
            registry, devices, verifier,
            faults=FaultModel(confirmation_drop=0.2, response_drop=0.1,
                              max_retries=4),
            adversaries=[ReplayAdversary(probability=0.5)],
            seed=77,
        )
        stats = simulator.run_campaign(6)
        assert stats.desynchronized == 0
        assert stats.authenticated > 0

    def test_churned_device_falls_back_per_device(self):
        service = AuthService.provision(FleetConfig(n_devices=4, seed=13, puf=CFG))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        newcomer = FleetDevice(
            "dev-churn-000001",
            PhotonicStrongPUF(seed=13, die_index=1_000_001, **CFG),
        )
        newcomer.provision(13)
        registry.enroll(newcomer, seed=13)
        fleet = devices + [newcomer]
        report = verifier.authenticate_fleet(fleet)
        assert report.n_accepted == 5

    def test_enroll_fleet_rejects_duplicates_before_committing(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=31, puf=CFG))
        registry, devices = service.registry, service.device_list
        fresh = FleetRegistry()
        with pytest.raises(ValueError):
            fresh.enroll_fleet([devices[0], devices[1], devices[0]],
                               n_spot_crps=4, seed=31)
        # The doomed call must not leave earlier devices enrolled.
        assert len(fresh) == 0
        fresh.enroll_fleet(devices, n_spot_crps=4, seed=31)
        assert len(fresh) == 3

    def test_restored_registry_round_without_plane(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=21, puf=CFG))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        verifier.authenticate_fleet(devices)
        restored_registry = FleetRegistry.from_state(registry.to_state())
        restored = BatchVerifier.from_state(restored_registry,
                                            verifier.to_state())
        report = restored.authenticate_fleet(devices)
        assert report.n_accepted == 3
