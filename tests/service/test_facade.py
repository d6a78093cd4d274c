"""AuthService verbs, declarative configs, policies, persistence."""

import numpy as np
import pytest

from repro.fleet import FaultModel, FleetDevice, FleetSimulator
from repro.obs import instrument_service, parse_prometheus, render_prometheus
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.puf.photonic_strong import PhotonicStrongPUF
from repro.service import (
    AuditLogPolicy,
    AuthService,
    EngineConfig,
    FleetConfig,
    RateLimitPolicy,
    RetryPolicy,
    decode_message,
)

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


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
        with pytest.raises(ValueError):
            EngineConfig(shard_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(stacked=False, shard_workers=2)
        with pytest.raises(TypeError):
            FleetConfig(n_devices=1, engine="stacked")
        with pytest.raises(TypeError):
            FleetConfig(n_devices=1, fault_model={"request_drop": 0.1})

    def test_state_round_trip(self):
        config = FleetConfig(
            n_devices=7, seed=9, n_spot_crps=16, clock_tolerance=0.04,
            engine=EngineConfig(stacked=True, shard_workers=2),
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

    def test_with_engine(self):
        config = FleetConfig(n_devices=2)
        sharded = config.with_engine(shard_workers=2)
        assert sharded.engine.shard_workers == 2
        assert config.engine.shard_workers is None


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
