"""FleetSimulator campaigns: faults, adversaries, churn, crash/restore.

The headline test is the acceptance campaign: >= 50 rounds over >= 64
devices with 20% confirmation loss, replay + tamper adversaries and one
mid-campaign verifier crash/restore — ending with zero desynchronized
devices.
"""

import numpy as np
import pytest

from repro.fleet import (
    CorruptionAdversary,
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    TamperAdversary,
    photonic_device_factory,
)
from repro.obs import instrument_service, parse_prometheus, render_prometheus
from repro.protocols.mutual_auth import FailureKind
from repro.service import AuditLogPolicy, AuthService, FleetConfig


FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)
#: Zero-noise PUF: a service round after a campaign has nothing to blame
#: but verifier state.
QUIET_PUF = dict(FAST_PUF, noise_mw=0.0)


def build_simulator(n_devices, seed, **kwargs):
    # Lifecycle simulation is just another client of the facade.
    service = AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF))
    return FleetSimulator(service, **kwargs)


class TestFaultModelValidation:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultModel(confirmation_drop=1.5)
        with pytest.raises(ValueError):
            FaultModel(max_retries=-1)
        with pytest.raises(ValueError):
            FaultModel(min_fleet_size=0)


class TestHappyCampaign:
    def test_faultless_campaign_authenticates_everything(self):
        simulator = build_simulator(4, seed=61)
        stats = simulator.run_campaign(5)
        assert stats.rounds == 5
        assert stats.authenticated == 20
        assert stats.retries == 0
        assert stats.desynchronized == 0
        assert not stats.failures_by_kind

    def test_round_outcome_reports(self):
        simulator = build_simulator(3, seed=62)
        outcome = simulator.run_round()
        assert outcome.round_index == 1
        assert len(outcome.authenticated) == 3
        assert not outcome.unresolved
        assert len(outcome.reports) == 1


class TestLossyCampaign:
    def test_confirmation_loss_retries_without_desync(self):
        simulator = build_simulator(
            6, seed=63,
            faults=FaultModel(confirmation_drop=0.3, max_retries=4),
        )
        stats = simulator.run_campaign(10)
        assert stats.dropped_confirmations > 0
        assert stats.retries > 0
        assert stats.desynchronized == 0
        # Sessions rolled on both sides stay equal per device.
        for device_id, device in simulator.devices.items():
            assert device._session == \
                simulator.registry.record(device_id).sessions

    def test_request_and_response_loss(self):
        simulator = build_simulator(
            5, seed=64,
            faults=FaultModel(request_drop=0.2, response_drop=0.2),
        )
        stats = simulator.run_campaign(8)
        assert stats.dropped_requests > 0
        assert stats.dropped_responses > 0
        assert stats.desynchronized == 0


class TestAdversarialCampaign:
    def test_corruption_adversary_never_desynchronizes(self):
        simulator = build_simulator(
            5, seed=65,
            adversaries=[CorruptionAdversary(probability=0.3)],
        )
        stats = simulator.run_campaign(8)
        assert stats.adversary_messages > 0
        hostile_kinds = {FailureKind.BAD_MAC.value,
                         FailureKind.MALFORMED.value}
        assert hostile_kinds & set(stats.failures_by_kind)
        assert stats.desynchronized == 0

    def test_tamper_adversary_rejected_as_clock_anomaly(self):
        simulator = build_simulator(
            4, seed=66,
            adversaries=[TamperAdversary(probability=0.4, factor=1.5)],
        )
        stats = simulator.run_campaign(6)
        assert stats.failures_by_kind.get(FailureKind.CLOCK_ANOMALY.value)
        assert stats.desynchronized == 0

    def test_replay_adversary_never_authenticates_stale_traffic(self):
        simulator = build_simulator(
            4, seed=67,
            adversaries=[ReplayAdversary(probability=0.8)],
        )
        stats = simulator.run_campaign(8)
        assert stats.adversary_messages > 0
        # Stale injections die as MAC/replay/duplicate failures, and every
        # device still matches the registry at the end.
        assert stats.desynchronized == 0
        expected = stats.rounds * len(simulator.devices)
        assert stats.authenticated >= 0.9 * expected


class TestChurnCampaign:
    def test_enrollment_and_revocation_mid_campaign(self):
        simulator = build_simulator(
            4, seed=68,
            faults=FaultModel(enroll_prob=0.5, revoke_prob=0.3,
                              min_fleet_size=2),
            device_factory=photonic_device_factory(seed=68, **FAST_PUF),
        )
        stats = simulator.run_campaign(12)
        assert stats.enrolled > 0
        assert stats.revoked > 0
        assert stats.desynchronized == 0
        assert len(simulator.devices) == len(simulator.registry)
        assert set(simulator.devices) == set(simulator.registry.device_ids())


class TestCrashRecovery:
    def test_in_memory_crash_restore(self):
        simulator = build_simulator(
            4, seed=69, faults=FaultModel(confirmation_drop=0.25),
        )
        stats = simulator.run_campaign(8, crash_after_round=4)
        assert stats.snapshots == 1
        assert stats.restores == 1
        assert stats.desynchronized == 0

    def test_on_disk_crash_restore(self, tmp_path):
        simulator = build_simulator(
            3, seed=70, faults=FaultModel(confirmation_drop=0.25),
        )
        stats = simulator.run_campaign(
            6, crash_after_round=3,
            snapshot_path=str(tmp_path / "campaign-snapshot"),
        )
        assert (tmp_path / "campaign-snapshot.npz").exists()
        assert stats.restores == 1
        assert stats.desynchronized == 0

    def test_restore_drops_in_flight_sessions_safely(self):
        simulator = build_simulator(2, seed=71)
        ids = sorted(simulator.devices)
        nonces = simulator.verifier.open_round(ids)
        responses = [simulator.devices[device_id].respond(nonces[device_id])
                     for device_id in ids]
        report = simulator.verifier.verify_round(responses, nonces)
        assert report.n_accepted == 2
        # Crash with both sessions pending: nothing was committed, so the
        # restored verifier re-authenticates everyone from the old CRP.
        simulator.restore(simulator.snapshot())
        assert not simulator.verifier._pending
        outcome = simulator.run_round()
        assert len(outcome.authenticated) == 2
        assert not simulator.desynchronized()


class TestAcceptanceCampaign:
    def test_flagship_campaign_zero_desync(self):
        # >= 50 rounds, >= 64 devices, 20% confirmation loss, replay +
        # tamper adversaries, one mid-campaign snapshot/restore.
        simulator = build_simulator(
            64, seed=72,
            faults=FaultModel(confirmation_drop=0.2, max_retries=4),
            adversaries=[ReplayAdversary(probability=0.3),
                         TamperAdversary(probability=0.02, factor=1.4)],
        )
        stats = simulator.run_campaign(50, crash_after_round=25)
        assert stats.rounds == 50
        assert stats.restores == 1
        assert stats.dropped_confirmations > 0
        assert stats.desynchronized == 0
        assert simulator.desynchronized() == []
        # The overwhelming majority of sessions complete despite the
        # hostile network.
        assert stats.authenticated >= 0.95 * 50 * 64
        assert stats.auths_per_sec > 0

    def test_malformed_body_fails_only_that_device_at_fleet_scale(self):
        from repro.crypto.mac import mac as compute_mac
        from repro.fleet.verifier import AuthResponse
        from repro.protocols.mutual_auth import _pad_bits

        service = AuthService.provision(FleetConfig(n_devices=64, seed=73, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim, *honest = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        body = b"firmware-bug: not length-prefixed"
        poison = AuthResponse(
            victim.device_id, body,
            compute_mac(body, _pad_bits(victim.current_response)),
        )
        messages = [poison] + [d.respond(nonces[d.device_id])
                               for d in honest]
        report = verifier.verify_round(messages, nonces)
        assert report.failure_kinds[victim.device_id] == \
            FailureKind.MALFORMED.value
        assert report.n_accepted == 63
        for device in honest:
            device.confirm(report.confirmations[device.device_id],
                           nonces[device.device_id])
            verifier.finalize(device.device_id)
        for device in devices:
            assert np.array_equal(
                device.current_response,
                registry.record(device.device_id).current_response,
            )


def scrape_of(obs):
    return parse_prometheus(render_prometheus(obs.registry.snapshot()))


class TestServiceOwnsVerifierState:
    """A campaign leaves the service it drove serving: one registry,
    verifier and roster, churn and restores seen by hooks and metrics."""

    @pytest.mark.parametrize("backend", ["memory", "sharded"])
    def test_service_serves_after_crash_restore(self, backend, tmp_path):
        extra = ({"storage_root": str(tmp_path / "shards"),
                  "resident_records": 4} if backend == "sharded" else {})
        service = AuthService.provision(FleetConfig(
            n_devices=14, seed=81, puf=QUIET_PUF,
            registry_backend=backend, **extra))
        simulator = service.simulator(faults=FaultModel())
        stats = simulator.run_campaign(4, crash_after_round=2)
        assert stats.restores == 1 and stats.desynchronized == 0
        report = service.authenticate_batch()
        assert report.n_accepted == len(service) == 14
        assert not report.failures
        assert simulator.registry is service.registry
        assert simulator.verifier is service.verifier
        if backend == "sharded":
            assert service.registry.backend.resident_records == 4

    def test_churn_goes_through_the_service(self):
        audit = AuditLogPolicy()
        service = AuthService.provision(
            FleetConfig(n_devices=12, seed=82, puf=QUIET_PUF),
            policies=[audit])
        obs = instrument_service(service)
        simulator = service.simulator(
            faults=FaultModel(enroll_prob=0.5, revoke_prob=0.5,
                              min_fleet_size=4),
            device_factory=photonic_device_factory(seed=82, **QUIET_PUF),
        )
        stats = simulator.run_campaign(8)
        assert stats.enrolled > 0 and stats.revoked > 0
        assert sorted(service.device_ids()) == \
            sorted(service.registry.device_ids())
        report = service.authenticate_batch()
        assert report.n_accepted == len(service)
        assert not report.failures
        events = [entry["event"] for entry in audit.events]
        assert events.count("enroll") == stats.enrolled
        assert events.count("revoke") == stats.revoked
        scrape = scrape_of(obs)
        assert scrape[("repro_service_enrolled_total", ())] == stats.enrolled
        assert scrape[("repro_service_revoked_total", ())] == stats.revoked

    def test_metrics_survive_a_restore(self):
        service = AuthService.provision(
            FleetConfig(n_devices=16, seed=83, puf=QUIET_PUF))
        obs = instrument_service(service)
        stats = service.simulator(faults=FaultModel()).run_campaign(
            4, crash_after_round=2)
        assert stats.restores == 1
        assert scrape_of(obs)[("repro_auth_finalized_total", ())] == \
            stats.authenticated == 64
