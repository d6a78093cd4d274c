"""Batched device turns against the one-device-at-a-time originals.

``assemble_responses`` frames a whole plane chunk in one pass.  The
references below are the original per-device bodies of
``FleetDevice.assemble_response`` and ``FleetDevice.confirm``, copied
here verbatim, and every test compares message bytes and device state
with them: mixed session counters, tamper factors, ragged widths, bad
values, a bad confirmation mid-round and a device listed twice.
"""

import importlib

import numpy as np
import pytest

from repro.crypto.mac import mac as compute_mac
from repro.crypto.mac import verify_mac
from repro.fleet.registry import FleetRegistry
from repro.fleet.rounds import respond_round_staged
from repro.fleet.verifier import (
    AuthResponse,
    BatchAuthReport,
    CommitLog,
    FleetDevice,
    assemble_responses,
)
from repro.protocols.mutual_auth import (
    AuthenticationFailure,
    FailureKind,
    confirmation_mac_batch,
    mask_integrity,
)
from repro.service import AuthService, FleetConfig
from repro.utils.bits import bytes_from_bits, xor_bits
from repro.utils.serialization import encode_fields

verifier_mod = importlib.import_module("repro.fleet.verifier")
mutual_auth_mod = importlib.import_module("repro.protocols.mutual_auth")

FAST_PUF = dict(challenge_bits=32, n_stages=3, response_bits=16)


# -- the per-device originals -------------------------------------------------

def reference_pad_bits(bits) -> bytes:
    padded = np.concatenate([
        np.asarray(bits, dtype=np.uint8),
        np.zeros((-len(bits)) % 8, dtype=np.uint8),
    ])
    return bytes_from_bits(padded)


def reference_assemble_response(self, challenge, new_response, nonce,
                                tamper_factor=1.0):
    new_response = np.asarray(new_response, dtype=np.uint8)
    masked = xor_bits(self.current_response, new_response)
    integrity = mask_integrity(self.firmware_hash,
                               int(self.clock_count * tamper_factor))
    body = encode_fields([
        self._session.to_bytes(4, "big"),
        reference_pad_bits(masked),
        integrity,
        nonce,
    ])
    tag = compute_mac(body, reference_pad_bits(self.current_response))
    self._pending = (challenge, new_response)
    return AuthResponse(self.device_id, body, tag)


def reference_confirm(self, confirmation, nonce):
    if self._pending is None:
        raise AuthenticationFailure("no session in progress",
                                    FailureKind.NO_SESSION)
    challenge, new_response = self._pending
    expected = encode_fields([reference_pad_bits(challenge), nonce])
    if not verify_mac(expected, reference_pad_bits(new_response),
                      confirmation):
        raise AuthenticationFailure("verifier confirmation rejected",
                                    FailureKind.BAD_CONFIRMATION)
    self.current_response = new_response
    self._pending = None
    self._session += 1


def reference_authenticate_fleet(verifier, devices, monkeypatch):
    """The original ``authenticate_fleet``: per-device framing, then a
    sweep that confirms, finalizes or aborts one device at a time."""
    def per_device(members, challenges, fresh, nonces, factors):
        return [reference_assemble_response(d, c, f, n, t) for d, c, f, n, t
                in zip(members, challenges, fresh, nonces, factors)]

    with monkeypatch.context() as patch:
        patch.setattr(verifier_mod, "assemble_responses", per_device)
        nonces = verifier.open_round([device.device_id for device in devices])
        report = BatchAuthReport()
        seen: set = set()
        for __, messages in respond_round_staged(devices, nonces):
            verifier._verify_round_into(report, messages, nonces, seen)
    with verifier.registry.transaction():
        for device in devices:
            confirmation = report.confirmations.get(device.device_id)
            if confirmation is None:
                continue
            try:
                reference_confirm(device, confirmation,
                                  nonces[device.device_id])
            except AuthenticationFailure as failure:
                report.record_failure(
                    device.device_id,
                    AuthenticationFailure(f"confirmation: {failure}",
                                          failure.kind),
                )
                del report.confirmations[device.device_id]
                verifier.abort(device.device_id)
                continue
            verifier.finalize(device.device_id)
    return report


# -- helpers -------------------------------------------------------------------

def make_devices(widths, seed=3):
    rng = np.random.default_rng(seed)
    return [
        FleetDevice(f"dev-{index}", None,
                    initial_response=rng.integers(0, 2, width),
                    clock_count=100_000 + 37 * index)
        for index, width in enumerate(widths)
    ]


def turn_inputs(widths, seed=4):
    rng = np.random.default_rng(seed)
    challenges = rng.integers(0, 2, (len(widths), 40)).astype(np.uint8)
    fresh = [rng.integers(0, 2, width).astype(np.uint8) for width in widths]
    nonces = [bytes([index]) * 16 for index in range(len(widths))]
    return challenges, fresh, nonces


def device_state(device):
    def array(value):
        value = np.asarray(value)
        return (value.dtype.str, value.shape, value.tobytes())

    pending = device._pending
    return (
        device.device_id,
        array(device.current_response),
        device._session,
        None if pending is None else (array(pending[0]), array(pending[1])),
    )


def record_settlements(verifier, monkeypatch):
    calls = []
    finalize, abort = verifier.finalize, verifier.abort

    def spy_finalize(device_id, token=None):
        calls.append(("finalize", device_id))
        finalize(device_id, token)

    def spy_abort(device_id, ambiguous=False, token=None):
        calls.append(("abort", device_id))
        abort(device_id, ambiguous, token)

    monkeypatch.setattr(verifier, "finalize", spy_finalize)
    monkeypatch.setattr(verifier, "abort", spy_abort)
    return calls


def twin_services(n_devices=6, seed=23, puf=FAST_PUF):
    return [AuthService.provision(FleetConfig(n_devices=n_devices, seed=seed,
                                              puf=puf))
            for __ in range(2)]


def assert_same_outcome(service_a, service_b, report_a, report_b):
    assert report_a.confirmations == report_b.confirmations
    assert report_a.failures == report_b.failures
    assert report_a.failure_kinds == report_b.failure_kinds
    assert [device_state(d) for d in service_a.device_list] == \
        [device_state(d) for d in service_b.device_list]
    for device in service_a.device_list:
        record_a = service_a.registry.record(device.device_id)
        record_b = service_b.registry.record(device.device_id)
        assert record_a.sessions == record_b.sessions
        assert np.array_equal(record_a.current_response,
                              record_b.current_response)
    assert service_a.verifier._pending.keys() == \
        service_b.verifier._pending.keys()


# -- framing -------------------------------------------------------------------

class TestAssembleResponses:
    def check(self, widths, sessions=None, factors=None):
        reference, batched = make_devices(widths), make_devices(widths)
        for index, session in enumerate(sessions or ()):
            reference[index]._session = batched[index]._session = session
        challenges, fresh, nonces = turn_inputs(widths)
        factors = factors or [1.0] * len(widths)
        expected = [
            reference_assemble_response(device, challenges[index],
                                        fresh[index], nonces[index],
                                        factors[index])
            for index, device in enumerate(reference)
        ]
        got = assemble_responses(batched, challenges, fresh, nonces, factors)
        assert got == expected
        assert [device_state(d) for d in batched] == \
            [device_state(d) for d in reference]

    def test_mixed_session_counters(self):
        self.check([32] * 6, sessions=[0, 1, 7, 255, 256, 2**32 - 1])

    def test_tamper_factors(self):
        self.check([32] * 5, factors=[1.0, 1.3, 0.7, 2.5, 1.049])

    def test_ragged_widths_take_the_per_row_fallback(self):
        self.check([16, 32, 17, 24, 9, 32], sessions=[3, 0, 1, 0, 9, 2],
                   factors=[1.0, 1.2, 1.0, 0.9, 1.0, 1.0])

    def test_one_row_method_matches(self):
        reference, batched = make_devices([32]), make_devices([32])
        challenges, fresh, nonces = turn_inputs([32])
        expected = reference_assemble_response(reference[0], challenges[0],
                                               fresh[0], nonces[0], 1.1)
        assert batched[0].assemble_response(challenges[0], fresh[0],
                                            nonces[0], 1.1) == expected
        assert device_state(batched[0]) == device_state(reference[0])

    def test_device_listed_twice_keeps_its_last_turn(self):
        widths = [32, 32, 32]
        reference, batched = make_devices(widths), make_devices(widths)
        reference[2] = reference[0]
        batched[2] = batched[0]
        challenges, fresh, nonces = turn_inputs(widths)
        expected = [
            reference_assemble_response(device, challenges[index],
                                        fresh[index], nonces[index])
            for index, device in enumerate(reference)
        ]
        got = assemble_responses(batched, challenges, fresh, nonces,
                                 [1.0] * 3)
        assert got == expected
        assert [device_state(d) for d in batched] == \
            [device_state(d) for d in reference]

    @pytest.mark.parametrize("where", ["fresh", "stored"])
    def test_non_bit_value_raises_before_touching_a_device(self, where):
        widths = [32] * 4
        reference, batched = make_devices(widths), make_devices(widths)
        challenges, fresh, nonces = turn_inputs(widths)
        if where == "fresh":
            fresh[2] = fresh[2].copy()
            fresh[2][5] = 2
        else:
            for devices in (reference, batched):
                devices[2].current_response = \
                    devices[2].current_response.copy()
                devices[2].current_response[5] = 2
        before = [device_state(d) for d in batched]
        with pytest.raises(ValueError):
            for index, device in enumerate(reference):
                reference_assemble_response(device, challenges[index],
                                            fresh[index], nonces[index])
        with pytest.raises(ValueError):
            assemble_responses(batched, challenges, fresh, nonces, [1.0] * 4)
        # The offending device is untouched either way; the batch checks
        # every row first, so the devices before it are untouched too.
        assert device_state(batched[2]) == device_state(reference[2])
        assert [device_state(d) for d in batched] == before

    def test_width_mismatch_raises(self):
        devices = make_devices([32, 32])
        challenges, fresh, nonces = turn_inputs([32, 16])
        with pytest.raises(ValueError):
            reference_assemble_response(make_devices([32, 32])[1],
                                        challenges[1], fresh[1], nonces[1])
        with pytest.raises(ValueError, match="equal length"):
            assemble_responses(devices, challenges, fresh, nonces, [1.0] * 2)
        assert all(device._pending is None for device in devices)


# -- confirmation --------------------------------------------------------------

def confirmed_pair(widths, bad_rows=(), drop_rows=()):
    """Twin device lists with pending turns, plus the verifier's mac'."""
    pair = []
    for __ in range(2):
        devices = make_devices(widths)
        challenges, fresh, nonces = turn_inputs(widths)
        assemble_responses(devices, challenges, fresh, nonces,
                           [1.0] * len(widths))
        pair.append(devices)
    confirmations = confirmation_mac_batch(challenges, nonces, fresh)
    for row in bad_rows:
        confirmations[row] = bytes([confirmations[row][0] ^ 1]) + \
            confirmations[row][1:]
    for row in drop_rows:
        for devices in pair:
            devices[row]._pending = None
    return pair[0], pair[1], confirmations, nonces


class TestConfirm:
    def test_matches_the_reference(self):
        reference, device, confirmations, nonces = confirmed_pair(
            [32, 32, 17, 32, 24], bad_rows=[1, 3], drop_rows=[4])
        outcomes = []
        for row in range(5):
            for confirm, devices in ((reference_confirm, reference),
                                     (FleetDevice.confirm, device)):
                try:
                    confirm(devices[row], confirmations[row], nonces[row])
                except AuthenticationFailure as failure:
                    outcomes.append((failure.kind, str(failure)))
                else:
                    outcomes.append(None)
        assert outcomes[0::2] == outcomes[1::2]
        assert [outcome and outcome[0] for outcome in outcomes[1::2]] == [
            None, FailureKind.BAD_CONFIRMATION, None,
            FailureKind.BAD_CONFIRMATION, FailureKind.NO_SESSION]
        assert [device_state(d) for d in device] == \
            [device_state(d) for d in reference]


# -- whole rounds --------------------------------------------------------------

class TestAuthenticateFleetSweep:
    def test_bad_confirmation_mid_batch(self, monkeypatch):
        service_a, service_b = twin_services()
        victim = service_a.device_list[2].device_id
        real = confirmation_mac_batch

        def corrupt_third(challenges, nonces, new_responses):
            tags = real(challenges, nonces, new_responses)
            tags[2] = bytes(32)
            return tags

        monkeypatch.setattr(verifier_mod, "confirmation_mac_batch",
                            corrupt_third)
        calls_a = record_settlements(service_a.verifier, monkeypatch)
        calls_b = record_settlements(service_b.verifier, monkeypatch)
        report_a = service_a.verifier.authenticate_fleet(service_a.device_list)
        report_b = reference_authenticate_fleet(
            service_b.verifier, service_b.device_list, monkeypatch)
        assert report_a.failure_kinds == {
            victim: FailureKind.BAD_CONFIRMATION.value}
        assert report_a.n_accepted == len(service_a.device_list) - 1
        assert calls_a == calls_b == [
            ("abort" if device.device_id == victim else "finalize",
             device.device_id)
            for device in service_a.device_list
        ]
        assert_same_outcome(service_a, service_b, report_a, report_b)

    # Both copies of the device are measured in one plane pass.  With
    # six stages its two fresh responses agree, so the first copy rolls
    # and the second finds no session; with three they differ, so the
    # first copy's confirmation (framed for the other measurement) fails.
    @pytest.mark.parametrize("n_stages, kind, sessions", [
        (6, FailureKind.NO_SESSION, 1),
        (3, FailureKind.BAD_CONFIRMATION, 0),
    ])
    def test_device_listed_twice(self, monkeypatch, n_stages, kind,
                                 sessions):
        service_a, service_b = twin_services(
            puf=dict(FAST_PUF, n_stages=n_stages))
        doubled_a = service_a.device_list + [service_a.device_list[0]]
        doubled_b = service_b.device_list + [service_b.device_list[0]]
        twice = doubled_a[0].device_id
        calls_a = record_settlements(service_a.verifier, monkeypatch)
        calls_b = record_settlements(service_b.verifier, monkeypatch)
        report_a = service_a.verifier.authenticate_fleet(doubled_a)
        report_b = reference_authenticate_fleet(service_b.verifier,
                                                doubled_b, monkeypatch)
        assert report_a.failure_kinds == {twice: kind.value}
        # One device, one session: it never advances twice.
        assert doubled_a[0]._session == sessions
        assert service_a.registry.record(twice).sessions == sessions
        assert calls_a == calls_b
        assert_same_outcome(service_a, service_b, report_a, report_b)

    def test_rounds_stay_byte_identical(self, monkeypatch):
        service_a, service_b = twin_services()
        for __ in range(3):
            report_a = service_a.verifier.authenticate_fleet(
                service_a.device_list)
            report_b = reference_authenticate_fleet(
                service_b.verifier, service_b.device_list, monkeypatch)
            assert report_a.n_accepted == len(service_a.device_list)
            assert_same_outcome(service_a, service_b, report_a, report_b)


class TestRoundCallCounts:
    def test_one_mac_pass_per_chunk(self, monkeypatch):
        service = AuthService.provision(FleetConfig(n_devices=64, seed=9,
                                                    puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        assert devices[0].plane is not None
        verifier.authenticate_fleet(devices)  # warm
        events = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def forbidden(name):
            def wrapper(*args, **kwargs):
                raise AssertionError(f"{name} called during a stacked round")
            return wrapper

        staged = verifier_mod.respond_round_staged

        def chunked(*args, **kwargs):
            for chunk in staged(*args, **kwargs):
                events.append("chunk")
                yield chunk

        monkeypatch.setattr(verifier_mod, "respond_round_staged", chunked)
        for name in ("mac_batch", "verify_mac_batch", "verify_mac",
                     "_pad_bits"):
            monkeypatch.setattr(verifier_mod, name,
                                counted(name, getattr(verifier_mod, name)))
        for name in ("compute_mac", "verify_mac", "_pad_bits"):
            monkeypatch.setattr(mutual_auth_mod, name, forbidden(name))
        report = verifier.authenticate_fleet(devices)
        assert report.n_accepted == 64
        n_chunks = events.count("chunk")
        assert n_chunks >= 1
        # Each chunk: one framing MAC pass, then its verification pass.
        # The commit sweep then runs FleetDevice.confirm per device: two
        # packs and one MAC check each.
        assert events == ["mac_batch", "chunk", "verify_mac_batch"] * n_chunks \
            + ["_pad_bits", "_pad_bits", "verify_mac"] * 64

    def test_one_registry_read_per_response(self, monkeypatch):
        service = AuthService.provision(FleetConfig(n_devices=12, seed=9,
                                                    puf=FAST_PUF))
        devices, verifier = service.device_list, service.verifier
        verifier.commit_log = CommitLog()
        reads = []
        record = FleetRegistry.record

        def counting(self, device_id):
            reads.append(device_id)
            return record(self, device_id)

        monkeypatch.setattr(FleetRegistry, "record", counting)
        report = verifier.authenticate_fleet(devices)
        assert report.n_accepted == len(devices)
        # The verification stage reads each record once; open_round
        # screens by membership and the roll reads none.
        assert reads == [device.device_id for device in devices]
        assert len(verifier.commit_log) == 0
