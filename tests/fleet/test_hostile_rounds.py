"""Hostile-round behavior of BatchVerifier.verify_round.

Every test here injects one poisoned message into a round shared with
honest devices and asserts the two crash-fix invariants: the poison
fails *only its own device* (the rest of the round authenticates), and
neither side of any device desynchronizes.
"""

import numpy as np

from repro.crypto.mac import mac as compute_mac
from repro.fleet.verifier import AuthResponse
from repro.protocols.mutual_auth import FailureKind, _pad_bits
from repro.service import AuthService, FleetConfig
from repro.utils.serialization import decode_fields, encode_fields


FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def forge(device, body: bytes) -> AuthResponse:
    """A message MAC'd with the device's real rolling key over any body.

    Models buggy device firmware: framing is broken but the MAC is
    honest, so the poison passes the MAC check and reaches the decoder.
    """
    tag = compute_mac(body, _pad_bits(device.current_response))
    return AuthResponse(device.device_id, body, tag)


def settle(verifier, devices, report, nonces):
    """Deliver confirmations and finalize, as authenticate_fleet would."""
    by_id = {device.device_id: device for device in devices}
    for device_id, confirmation in report.confirmations.items():
        by_id[device_id].confirm(confirmation, nonces[device_id])
        verifier.finalize(device_id)


def assert_synchronized(registry, devices):
    for device in devices:
        assert np.array_equal(
            device.current_response,
            registry.record(device.device_id).current_response,
        ), f"{device.device_id} desynchronized"


class TestMalformedBody:
    def test_undecodable_body_fails_only_that_device(self):
        service = AuthService.provision(FleetConfig(n_devices=3, seed=31, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim, *honest = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        poison = forge(victim, b"\xff\xff\xff\xff-not-length-prefixed")
        messages = [poison] + [d.respond(nonces[d.device_id]) for d in honest]
        report = verifier.verify_round(messages, nonces)
        assert report.failure_kinds[victim.device_id] == \
            FailureKind.MALFORMED.value
        assert report.n_accepted == 2
        settle(verifier, honest, report, nonces)
        assert_synchronized(registry, devices)

    def test_wrong_field_count_fails_only_that_device(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=32, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim, honest = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        poison = forge(victim, encode_fields([b"\x00" * 4, b"three-fields"]))
        report = verifier.verify_round(
            [poison, honest.respond(nonces[honest.device_id])], nonces)
        assert report.failure_kinds[victim.device_id] == \
            FailureKind.MALFORMED.value
        assert honest.device_id in report.confirmations
        settle(verifier, [honest], report, nonces)
        assert_synchronized(registry, devices)

    def test_truncated_masked_field_fails_only_that_device(self):
        # The short row used to crash np.vstack for the whole round.
        service = AuthService.provision(FleetConfig(n_devices=3, seed=33, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim, *honest = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        genuine = victim.respond(nonces[victim.device_id])
        session_raw, masked, integrity, echoed = decode_fields(genuine.body)
        truncated = encode_fields([session_raw, masked[:1], integrity, echoed])
        poison = forge(victim, truncated)
        messages = [poison] + [d.respond(nonces[d.device_id]) for d in honest]
        report = verifier.verify_round(messages, nonces)
        assert report.failure_kinds[victim.device_id] == \
            FailureKind.MALFORMED.value
        assert "masked response field" in report.failures[victim.device_id]
        assert report.n_accepted == 2
        settle(verifier, honest, report, nonces)
        assert_synchronized(registry, devices)


class TestDuplicateDevice:
    def test_second_occurrence_rejected(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=34, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        victim, honest = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        genuine = victim.respond(nonces[victim.device_id])
        # A distinct-but-valid second message for the same device: flip a
        # masked bit and re-MAC with the real key.  Before the fix this
        # silently overwrote the pending state of the genuine message.
        session_raw, masked, integrity, echoed = decode_fields(genuine.body)
        flipped = bytes([masked[0] ^ 1]) + masked[1:]
        rogue = forge(victim, encode_fields(
            [session_raw, flipped, integrity, echoed]))
        messages = [genuine, rogue,
                    honest.respond(nonces[honest.device_id])]
        report = verifier.verify_round(messages, nonces)
        assert report.failure_kinds[victim.device_id] == \
            FailureKind.DUPLICATE_DEVICE.value
        # The genuine (first) message still authenticated.
        assert victim.device_id in report.confirmations
        assert honest.device_id in report.confirmations
        settle(verifier, devices, report, nonces)
        # The rogue row did not poison the commit: both devices rolled to
        # the responses their genuine messages carried.
        assert_synchronized(registry, devices)
        assert registry.record(victim.device_id).sessions == 1

    def test_exact_duplicate_still_counts_as_duplicate_not_crash(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=35, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        message = device.respond(nonces[device.device_id])
        report = verifier.verify_round([message, message], nonces)
        assert device.device_id in report.confirmations
        assert report.failure_kinds[device.device_id] == \
            FailureKind.DUPLICATE_DEVICE.value


class TestReplayAndRetry:
    def test_replayed_tag_within_round_lifetime(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=36, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        message = device.respond(nonces[device.device_id])
        first = verifier.verify_round([message], nonces)
        assert first.n_accepted == 1
        # Same message again before finalize: the tag cache catches it.
        replay = verifier.verify_round([message], nonces)
        assert replay.failure_kinds[device.device_id] == \
            FailureKind.REPLAY.value

    def test_replay_after_finalize_fails_mac_not_crash(self):
        service = AuthService.provision(FleetConfig(n_devices=1, seed=37, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        device = devices[0]
        nonces = verifier.open_round([device.device_id])
        message = device.respond(nonces[device.device_id])
        report = verifier.verify_round([message], nonces)
        device.confirm(report.confirmations[device.device_id],
                       nonces[device.device_id])
        verifier.finalize(device.device_id)
        # Tag cache was pruned at finalize; the rolled CRP rejects the
        # stale message at the MAC check instead.
        late = verifier.verify_round([message], nonces)
        assert late.failure_kinds[device.device_id] == \
            FailureKind.BAD_MAC.value
        assert_synchronized(registry, devices)

    def test_lost_confirmation_then_retry_resynchronizes(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=38, puf=FAST_PUF))
        registry, devices, verifier = service.registry, service.device_list, service.verifier
        unlucky, steady = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        report = verifier.verify_round(
            [d.respond(nonces[d.device_id]) for d in devices], nonces)
        assert report.n_accepted == 2
        # steady's confirmation arrives; unlucky's is lost in transit.
        steady.confirm(report.confirmations[steady.device_id],
                       nonces[steady.device_id])
        verifier.finalize(steady.device_id)
        verifier.abort(unlucky.device_id)
        assert registry.record(unlucky.device_id).sessions == 0
        assert registry.record(steady.device_id).sessions == 1
        # A plain retry round fully recovers both devices.
        retry = verifier.authenticate_fleet(devices)
        assert retry.n_accepted == 2
        assert_synchronized(registry, devices)
        assert registry.record(unlucky.device_id).sessions == 1
        assert registry.record(steady.device_id).sessions == 2


class TestFailureTaxonomy:
    def test_report_kinds_match_shared_taxonomy(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=39, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        tampered, _ = devices
        nonces = verifier.open_round([d.device_id for d in devices])
        messages = [tampered.respond(nonces[tampered.device_id],
                                     tamper_factor=1.3),
                    devices[1].respond(nonces[devices[1].device_id])]
        report = verifier.verify_round(messages, nonces)
        assert report.failure_kinds[tampered.device_id] == \
            FailureKind.CLOCK_ANOMALY.value
        assert set(report.failure_kinds) == set(report.failures)
        assert all(kind in {k.value for k in FailureKind}
                   for kind in report.failure_kinds.values())

    def test_verifier_memory_flat_after_finalize(self):
        service = AuthService.provision(FleetConfig(n_devices=2, seed=40, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        for _ in range(5):
            report = verifier.authenticate_fleet(devices)
            assert report.n_accepted == 2
        assert not verifier._pending
        assert not verifier._seen_tags

    def test_tag_cache_bounded_for_persistently_failing_device(self):
        # A device that never reaches finalize (e.g. tampered forever)
        # must not grow the replay cache: rejected messages fail the same
        # deterministic checks again, so their tags are never stored.
        service = AuthService.provision(FleetConfig(n_devices=1, seed=41, puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        device = devices[0]
        for _ in range(5):
            nonces = verifier.open_round([device.device_id])
            message = device.respond(nonces[device.device_id],
                                     tamper_factor=1.5)
            report = verifier.verify_round([message], nonces)
            assert report.failure_kinds[device.device_id] == \
                FailureKind.CLOCK_ANOMALY.value
        assert sum(len(tags) for tags in verifier._seen_tags.values()) == 0
