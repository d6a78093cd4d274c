"""AuthService verbs, declarative configs, policies, persistence."""

from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FaultModel, FleetDevice, FleetSimulator
from repro.obs import instrument_service, parse_prometheus, render_prometheus
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.puf.photonic_strong import PhotonicStrongPUF, photonic_strong_family
from repro.service import (
    AuditLogPolicy,
    AuthService,
    FleetConfig,
    RateLimitPolicy,
    RetryPolicy,
    decode_message,
)
from repro.utils.serialization import load_state

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)
FIXTURES = Path(__file__).parent / "fixtures"


def build(n=3, seed=5, policies=(), clock=None, **overrides):
    config = FleetConfig(n_devices=n, seed=seed, puf=FAST_PUF, **overrides)
    kwargs = {"policies": policies}
    if clock is not None:
        kwargs["clock"] = clock
    return AuthService.provision(config, **kwargs)


class TestConfigs:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(n_devices=0)
        with pytest.raises(ValueError):
            FleetConfig(n_devices=1, n_spot_crps=-1)
        with pytest.raises(ValueError):
            FleetConfig(n_devices=1, max_batch=0)
        with pytest.raises(ValueError):
            FleetConfig(n_devices=1, latency_budget_s=-0.1)
        with pytest.raises(ValueError):
            FleetConfig(n_devices=1, clock_tolerance=1.0)
        with pytest.raises(TypeError):
            FleetConfig(n_devices=1, fault_model={"request_drop": 0.1})

    def test_state_round_trip(self):
        config = FleetConfig(
            n_devices=7, seed=9, n_spot_crps=16, clock_tolerance=0.04,
            latency_budget_s=0.25, max_batch=32,
            fault_model=FaultModel(confirmation_drop=0.2, max_retries=4),
            snapshot_path="/tmp/svc", puf=dict(FAST_PUF),
        )
        restored = FleetConfig.from_state(config.to_state())
        assert restored == config
        # to_state must be JSON-serializable end to end.
        import json
        json.dumps(config.to_state())

    def test_state_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            FleetConfig.from_state({"format": "something-else"})
        state = FleetConfig(n_devices=1).to_state()
        state["version"] = 99
        with pytest.raises(ValueError):
            FleetConfig.from_state(state)

    def test_config_copies_puf_kwargs(self):
        knobs = dict(FAST_PUF)
        config = FleetConfig(n_devices=1, puf=knobs)
        knobs["challenge_bits"] = 9999
        assert config.puf["challenge_bits"] == FAST_PUF["challenge_bits"]

    def test_legacy_shard_workers_key_is_dropped(self):
        # Archives written before 0.10.0 carry the removed knob in their
        # engine config; they must still load.
        for workers in (None, 2):
            state = {"backend": "numpy", "shard_workers": workers,
                     "stacked": True}
            fleet_state = FleetConfig(n_devices=2).to_state()
            fleet_state["engine"] = state
            assert FleetConfig.from_state(fleet_state) == \
                FleetConfig(n_devices=2)

    @pytest.mark.parametrize("engine", [
        {"stacked": True, "backend": "numpy"},
        {"stacked": True, "backend": "numba"},
        {"stacked": False, "backend": "numpy"},
        {},
    ], ids=["numpy", "numba", "per-die", "empty"])
    def test_legacy_engine_states_load(self, engine):
        # Archives written before 0.11.0 carry an "engine" block; every
        # value computed the same bits, so the block is dropped whole.
        config = FleetConfig(n_devices=3, seed=4, n_spot_crps=2)
        state = config.to_state()
        assert "engine" not in state
        state["engine"] = engine
        assert FleetConfig.from_state(state) == config

    def test_misspelt_key_beside_legacy_engine_still_raises(self):
        state = FleetConfig(n_devices=2).to_state()
        state["engine"] = {"stacked": True, "backend": "numpy"}
        state["engnie"] = {"stacked": True}
        with pytest.raises(ValueError, match="engnie"):
            FleetConfig.from_state(state)

    def test_fleet_config_rejects_unknown_fields(self):
        state = FleetConfig(n_devices=2).to_state()
        state["n_devcies"] = 4
        with pytest.raises(ValueError, match="unknown fleet config"):
            FleetConfig.from_state(state)


class TestVerbs:
    def test_membership_and_batch(self):
        service = build(n=4)
        assert len(service) == 4
        assert "dev-000000" in service
        report = service.authenticate_batch()
        assert report.n_accepted == 4
        for device in service.device_list:
            record = service.registry.record(device.device_id)
            assert record.sessions == 1
            assert np.array_equal(device.current_response,
                                  record.current_response)

    def test_single_authenticate_by_id_and_object(self):
        service = build(n=2)
        outcome = service.authenticate("dev-000001")
        assert outcome.accepted and outcome.attempts == 1
        outcome = service.authenticate(service.device("dev-000000"))
        assert outcome.accepted

    def test_enroll_and_revoke(self):
        service = build(n=2, seed=21)
        newcomer = FleetDevice(
            "dev-late", PhotonicStrongPUF(seed=21, die_index=50, **FAST_PUF))
        service.enroll(newcomer)
        assert "dev-late" in service and len(service) == 3
        assert service.authenticate("dev-late").accepted
        service.revoke("dev-late")
        assert "dev-late" not in service
        with pytest.raises(AuthenticationFailure):
            service.registry.record("dev-late")
        # Verifier state evicted too: a fresh round simply excludes it.
        assert service.authenticate_batch().n_accepted == 2

    def test_spot_check(self):
        service = build(n=3, n_spot_crps=12)
        report = service.spot_check(k=4)
        assert report.n_accepted == 3

    def test_spot_check_of_no_devices_is_empty(self):
        # Regression: an empty device list used to raise numpy's bare
        # "need at least one array to stack"; authenticate_batch already
        # answered the same case with an empty report.
        service = build(n=2, n_spot_crps=8)
        counter = service.verifier._nonce_counter
        for device_id in service.device_ids():
            service.revoke(device_id)
        for report in (service.spot_check(), service.spot_check([])):
            assert report.device_ids == []
            assert report.fractional_hd.shape == (0,)
            assert report.accepted.shape == (0,)
            assert report.n_accepted == 0
        assert service.authenticate_batch().n_accepted == 0
        assert service.verifier._nonce_counter == counter

    def test_staged_submit_flush(self):
        now = [0.0]
        service = build(n=3, clock=lambda: now[0], latency_budget_s=1.0)
        tickets = [service.submit(d) for d in service.device_list[:2]]
        assert service.poll() is None
        assert not tickets[0].done
        now[0] = 2.0
        report = service.poll()
        assert report is not None and report.n_accepted == 2
        assert all(t.done and t.accepted for t in tickets)

    def test_revoke_with_pending_ticket_settles_only_that_ticket(self):
        # The facade-level view of the coalescer regression: revocation
        # between submit and flush must not poison the micro-round.
        service = build(n=3, latency_budget_s=10.0)
        survivor = service.submit("dev-000000")
        victim = service.submit("dev-000001")
        service.revoke("dev-000001")
        report = service.flush()
        assert report is not None and report.n_accepted == 1
        assert survivor.accepted
        assert victim.done and not victim.accepted
        assert victim.failure_kind == FailureKind.NOT_ENROLLED.value

    def test_every_micro_round_is_audited_and_timed(self):
        # Regression: micro-rounds flushed inside submit (by size or by
        # a duplicate device) skipped the after_round hooks and the
        # round-latency histogram; only poll()/flush() ran them.
        audit = AuditLogPolicy()
        service = build(n=4, policies=[audit], max_batch=2,
                        latency_budget_s=60.0)
        registry = instrument_service(service).registry
        first, second = service.device_list[:2]
        service.submit(first)
        service.submit(second)                 # size flush
        service.submit(first)
        service.submit(first)                  # duplicate flush
        service.flush()
        scrape = parse_prometheus(render_prometheus(registry.snapshot()))
        assert service.coalescer.micro_rounds == 3
        assert scrape[("repro_coalescer_micro_rounds_total", ())] == 3
        assert [entry["event"] for entry in audit.events] == ["round"] * 3
        assert scrape[("repro_service_round_latency_seconds_count",
                       (("phase", "flush"),))] == 3

    def test_simulator_is_just_another_client(self):
        service = build(n=4, seed=31,
                        fault_model=FaultModel(confirmation_drop=0.2,
                                               max_retries=4))
        simulator = service.simulator()
        assert isinstance(simulator, FleetSimulator)
        assert simulator.registry is service.registry
        assert simulator.verifier is service.verifier
        stats = simulator.run_campaign(4)
        assert stats.desynchronized == 0
        # Campaign outcomes ARE service outcomes (shared registry).
        assert service.registry.record("dev-000000").sessions > 0


class TestPolicies:
    def test_rate_limit_denies_before_the_verifier(self):
        now = [0.0]
        limiter = RateLimitPolicy(max_requests=2, window_s=10.0,
                                  clock=lambda: now[0])
        service = build(n=1, policies=[limiter])
        device = service.device_list[0]
        assert service.authenticate(device).accepted
        assert service.authenticate(device).accepted
        denied = service.authenticate(device)
        assert not denied.accepted
        assert denied.failure_kind == FailureKind.RATE_LIMITED.value
        # No nonce was burned for the denied request.
        sessions = service.registry.record(device.device_id).sessions
        assert sessions == 2
        now[0] = 11.0  # window expired: admitted again
        assert service.authenticate(device).accepted

    def test_rate_limited_submit_settles_ticket_immediately(self):
        limiter = RateLimitPolicy(max_requests=1, window_s=60.0,
                                  clock=lambda: 0.0)
        service = build(n=1, policies=[limiter])
        device = service.device_list[0]
        first = service.submit(device)
        denied = service.submit(device)
        assert denied.done and not denied.accepted
        assert denied.failure_kind == FailureKind.RATE_LIMITED.value
        service.flush()
        assert first.accepted

    def test_audit_log_observes_lifecycle(self):
        audit = AuditLogPolicy()
        service = build(n=2, seed=23, policies=[audit])
        service.authenticate_batch()
        newcomer = FleetDevice(
            "dev-new", PhotonicStrongPUF(seed=23, die_index=60, **FAST_PUF))
        service.enroll(newcomer)
        service.revoke("dev-new")
        events = [entry["event"] for entry in audit.events]
        assert events == ["round", "enroll", "revoke"]
        round_event = audit.events[0]
        assert round_event["accepted"] == 2 and round_event["rejected"] == 0

    def test_retry_policy_retries_transient_kinds_only(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.should_retry(FailureKind.REPLAY.value, 1)
        assert policy.should_retry(FailureKind.DUPLICATE_DEVICE.value, 2)
        assert not policy.should_retry(FailureKind.REPLAY.value, 3)
        assert not policy.should_retry(FailureKind.BAD_MAC.value, 1)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_authenticate_retries_under_policy(self):
        service = build(n=1, seed=24)
        device = service.device_list[0]
        # Pre-poison: a stale pending session makes the first attempt
        # fail as a transient duplicate? Instead simulate determinism:
        # a bad MAC (flipped secret) must NOT be retried.
        device.current_response = 1 - device.current_response
        outcome = service.authenticate(device,
                                       retry_policy=RetryPolicy(max_retries=3))
        assert not outcome.accepted and outcome.attempts == 1
        assert outcome.failure_kind == FailureKind.BAD_MAC.value


class TestPersistence:
    def test_snapshot_restore_in_memory(self):
        service = build(n=3, seed=41)
        service.authenticate_batch()
        state = service.snapshot()
        assert state["manifest"]["config"]["n_devices"] == 3
        service.restore(state)
        # Registry back at the snapshot's session counts, nonce epoch
        # bumped (no nonce reuse even from a stale checkpoint), and the
        # restored service keeps serving the same physical devices.
        for device in service.device_list:
            assert service.registry.record(device.device_id).sessions == 1
        assert service.verifier._nonce_epoch >= 1
        assert service.authenticate_batch().n_accepted == 3

    def test_save_load_disk_round_trip(self, tmp_path):
        service = build(n=2, seed=42, n_spot_crps=8)
        service.authenticate_batch()
        path = service.save(str(tmp_path / "service-state"))
        assert path.endswith(".npz")
        restored = AuthService.load(path, service.device_list)
        assert restored.config == service.config
        assert len(restored.registry) == 2
        for device in restored.device_list:
            assert np.array_equal(
                restored.registry.record(device.device_id).current_response,
                service.registry.record(device.device_id).current_response,
            )
        # The restored service keeps serving: full round, zero desync.
        report = restored.authenticate_batch()
        assert report.n_accepted == 2

    def test_restore_drops_devices_enrolled_after_the_snapshot(self):
        # Regression: a device enrolled after the snapshot used to stay
        # in the service's fleet view after restore; the restored
        # registry doesn't know it, so the next default-scope round
        # raised not-enrolled for everyone instead of serving the fleet.
        service = build(n=2, seed=45)
        state = service.snapshot()
        latecomer = FleetDevice(
            "dev-late", PhotonicStrongPUF(seed=45, die_index=70, **FAST_PUF))
        service.enroll(latecomer)
        service.restore(state)
        assert "dev-late" not in service
        report = service.authenticate_batch()
        assert report.n_accepted == 2 and not report.failures

    def test_coalescer_counts_survive_restore(self):
        # One coalescer per service: a restore used to install a fresh
        # one, so the scraped coalescer counters fell back to zero.
        service = build(n=4, seed=47, latency_budget_s=60.0)
        registry = instrument_service(service).registry
        coalescer = service.coalescer
        for __ in range(2):
            for device in service.device_list:
                service.submit(device)
            service.flush()

        def scraped():
            scrape = parse_prometheus(render_prometheus(registry.snapshot()))
            return (scrape[("repro_coalescer_micro_rounds_total", ())],
                    scrape[("repro_coalescer_submitted_total", ())])

        assert scraped() == (2, 8)
        state = service.snapshot()
        state["manifest"]["config"]["max_batch"] = 3
        state["manifest"]["config"]["latency_budget_s"] = 0.5
        service.restore(state)
        assert service.coalescer is coalescer
        assert (coalescer.max_batch, coalescer.latency_budget_s) == (3, 0.5)
        assert scraped() == (2, 8)

    def test_ticket_queued_across_restore_settles(self):
        service = build(n=3, seed=48, latency_budget_s=60.0)
        ticket = service.submit("dev-000001")
        service.restore(service.snapshot())
        assert not ticket.done
        report = service.flush()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted

    def test_ticket_for_device_unknown_to_snapshot_settles_not_enrolled(
            self):
        service = build(n=2, seed=49, latency_budget_s=60.0)
        state = service.snapshot()
        latecomer = FleetDevice(
            "dev-late", PhotonicStrongPUF(seed=49, die_index=70, **FAST_PUF))
        service.enroll(latecomer)
        survivor = service.submit("dev-000000")
        orphan = service.submit(latecomer)
        service.restore(state)
        service.flush()
        assert survivor.accepted
        assert orphan.done and not orphan.accepted
        assert orphan.failure_kind == FailureKind.NOT_ENROLLED.value

    def test_archive_with_engine_block_loads_and_serves(self):
        # Saved by AuthService.save at 0.10.0: 4 devices, seed 61, six
        # spot CRPs, FAST_PUF, one round, on the numba-requesting engine
        # config of that release.
        path = str(FIXTURES / "archive_v0_10_engine.npz")
        manifest, __ = load_state(path)
        assert manifest["config"]["engine"] == {"stacked": True,
                                                "backend": "numba"}
        family = photonic_strong_family(4, seed=61, **FAST_PUF)
        devices = [
            FleetDevice.from_state(
                state, family.device(int(state["device_id"][4:])))
            for state in manifest["device_states"]
        ]
        service = AuthService.load(path, devices)
        assert service.config == FleetConfig(
            n_devices=4, seed=61, n_spot_crps=6, puf=FAST_PUF)
        for device in devices:
            assert service.registry.record(device.device_id).sessions == 1
        report = service.authenticate_batch()
        assert report.n_accepted == 4 and not report.failures
        assert service.spot_check(k=2).n_accepted == 4

    def test_load_of_a_pointer_archive_keeps_the_resident_cap(self,
                                                              tmp_path):
        service = build(n=6, seed=46, registry_backend="sharded",
                        storage_root=str(tmp_path / "shards"),
                        resident_records=4)
        service.authenticate_batch()
        path = service.save(str(tmp_path / "pointer"))
        assert load_state(path)[0]["version"] == 2
        service.close()
        loaded = AuthService.load(path, service.device_list)
        assert loaded.config.resident_records == 4
        assert loaded.registry.backend.resident_records == 4
        assert loaded.authenticate_batch().n_accepted == 6
        loaded.close()

    def test_save_uses_config_snapshot_path(self, tmp_path):
        service = build(n=1, seed=43,
                        snapshot_path=str(tmp_path / "default-target"))
        path = service.save()
        assert path == str(tmp_path / "default-target") + ".npz"
        service_no_path = build(n=1, seed=44)
        with pytest.raises(ValueError):
            service_no_path.save()


class TestWireRound:
    def test_full_round_over_the_codec(self):
        service = build(n=3, seed=51)
        nonces, challenge_frames = service.open_round_wire()
        assert set(challenge_frames) == set(nonces)
        # The transport decodes challenges and drives real devices.
        response_frames = []
        for device in service.device_list:
            challenge = decode_message(challenge_frames[device.device_id])
            assert challenge.nonce == nonces[device.device_id]
            from repro.service import encode_message
            response_frames.append(
                encode_message(device.respond(challenge.nonce)))
        report_frame, confirmation_frames = service.verify_round_wire(
            response_frames, nonces)
        report = decode_message(report_frame)
        assert report.n_accepted == 3
        for device in service.device_list:
            confirmation = decode_message(
                confirmation_frames[device.device_id])
            device.confirm(confirmation.mac, nonces[device.device_id])
            service.verifier.finalize(device.device_id)
        for device in service.device_list:
            assert service.registry.record(device.device_id).sessions == 1

    def test_non_response_frame_rejected_as_codec_error(self):
        # The documented transport contract: undecodable/wrong-type
        # frames raise CodecError (which IS an AuthenticationFailure).
        from repro.service import AuthChallenge, CodecError, encode_message
        service = build(n=1, seed=52)
        nonces, __ = service.open_round_wire()
        stray = encode_message(AuthChallenge("dev-000000", b"x"))
        with pytest.raises(CodecError, match="RESPONSE"):
            service.verify_round_wire([stray], nonces)
        assert issubclass(CodecError, AuthenticationFailure)
