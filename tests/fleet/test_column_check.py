"""The column framing check against the per-row original.

``BatchVerifier._verify_round_into`` checks the framing of a round's
MAC-valid bodies as columns and sends every other row through the
per-row check.  ``reference_verify_round_into`` below is the
verification stage as it was before the column check, copied here
verbatim (as ``test_batched_turn.py`` keeps the device-side
originals).  A hypothesis search drives both over the same hand-built
records and crafted rounds — flipped bytes in any field or prefix,
resized and truncated fields, wrong sessions, nonces and firmware
hashes, clock counts in and out of band and past 2**53, duplicated,
unknown, nonce-less and replayed ids — and compares the report
(confirmations, failures with their reason text, failure kinds, in
insertion order), the pendings, the parked commit-log entries and the
replay tags.
"""

import hashlib
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.mac import mac, verify_mac_batch
from repro.fleet.registry import FleetRegistry
from repro.fleet.storage.base import DeviceRecord
from repro.fleet.verifier import AuthResponse, BatchAuthReport, BatchVerifier
from repro.protocols.mutual_auth import (
    AuthenticationFailure,
    FailureKind,
    _pad_bits,
    check_clock_count,
    confirmation_mac_batch,
    derive_challenge,
    derive_challenge_batch,
    mask_integrity,
    pad_bits_batch,
    unmask_clock_count,
)
from repro.utils.bits import bits_from_bytes
from repro.utils.serialization import decode_fields, encode_fields


# -- the per-row original -----------------------------------------------------

def reference_verify_round_into(self, report: BatchAuthReport,
                                 responses: Sequence[AuthResponse],
                                 nonces: Dict[str, bytes],
                                 seen_this_round: set) -> None:
    """One verification stage: framing checks, MACs, confirmations.

    Stage 1 runs the cheap byte-level framing checks and collects
    every candidate's MAC into one batched verification; stage 2
    unmasks all surviving responses as one stacked XOR, derives
    their next challenges in one batched DRBG expansion, and frames
    all confirmations in one batched MAC pass.  Failure kinds and
    their precedence are identical to the sequential path.
    """
    self._recover_interrupted(responses)
    candidates: List[tuple] = []  # (response, record, bound checks ok)
    for response in responses:
        try:
            if response.device_id in seen_this_round:
                # A second message for the same device would silently
                # overwrite the first one's pending state and
                # double-count its row in the unmasking matrix.
                raise AuthenticationFailure(
                    "duplicate device in round",
                    FailureKind.DUPLICATE_DEVICE,
                )
            seen_this_round.add(response.device_id)
            record = self.registry.record(response.device_id)
            nonce = nonces.get(response.device_id)
            if nonce is None:
                raise AuthenticationFailure("no nonce issued this round",
                                            FailureKind.NO_NONCE)
            if bytes(response.tag) in self._seen_tags.get(
                    response.device_id, ()):
                raise AuthenticationFailure("replayed message",
                                            FailureKind.REPLAY)
        except AuthenticationFailure as failure:
            report.record_failure(response.device_id, failure)
            continue
        candidates.append((response, record, nonce))
    # Batched MAC stage: every candidate's tag in one call, keys
    # packed as one round-wide packbits pass.
    mac_ok = verify_mac_batch(
        [candidate[0].body for candidate in candidates],
        pad_bits_batch([candidate[1].current_response
                        for candidate in candidates]),
        [candidate[0].tag for candidate in candidates],
    )
    valid: List[tuple] = []  # (response, record)
    masked_rows: List[np.ndarray] = []
    stored_rows: List[np.ndarray] = []
    for (response, record, nonce), tag_ok in zip(candidates, mac_ok):
        try:
            if not tag_ok:
                raise AuthenticationFailure("device MAC rejected",
                                            FailureKind.BAD_MAC)
            # A MAC-valid body can still be malformed (buggy device
            # firmware MACs whatever it framed); that must fail this
            # device only, never abort the whole round.
            try:
                fields = decode_fields(response.body)
                if len(fields) != 4:
                    raise ValueError(
                        f"expected 4 fields, got {len(fields)}"
                    )
                session_raw, masked, integrity, echoed = fields
            except ValueError as exc:
                raise AuthenticationFailure(
                    f"malformed body: {exc}", FailureKind.MALFORMED,
                ) from exc
            if int.from_bytes(session_raw, "big") != record.sessions:
                raise AuthenticationFailure("session index mismatch",
                                            FailureKind.SESSION_MISMATCH)
            if echoed != nonce:
                raise AuthenticationFailure(
                    "nonce mismatch (replay or delay)",
                    FailureKind.NONCE_MISMATCH,
                )
            clock_count = unmask_clock_count(integrity,
                                             record.firmware_hash)
            check_clock_count(clock_count, record.expected_clock_count,
                              self.clock_tolerance)
            bits = bits_from_bytes(masked)
            if bits.size < record.current_response.size:
                # A short row would make the stacked unmasking matrix
                # ragged and crash np.vstack for everyone.
                raise AuthenticationFailure(
                    f"masked response field holds {bits.size} bits, "
                    f"expected {record.current_response.size}",
                    FailureKind.MALFORMED,
                )
        except AuthenticationFailure as failure:
            report.record_failure(response.device_id, failure)
            continue
        # Cache the replay tag only once every check passed: a
        # rejected message fails the same deterministic checks on
        # replay, so caching it would only grow the per-device set
        # without bound for a device that never reaches finalize.
        self._seen_tags.setdefault(response.device_id, set()).add(
            bytes(response.tag))
        valid.append((response, record))
        masked_rows.append(bits[: record.current_response.size])
        stored_rows.append(record.current_response)
    if not valid:
        return
    # Vectorized unmasking over the whole round: r_{i+1} = m XOR r_i.
    stored = np.vstack(stored_rows).astype(np.uint8)
    new_responses = np.bitwise_xor(
        np.vstack(masked_rows).astype(np.uint8), stored,
    )
    # The confirmation MAC proves knowledge of c_{i+1}; gather every
    # accepted device's derivation into one batched DRBG expansion.
    challenge_bits = [record.challenge_bits for __, record in valid]
    if len(set(challenge_bits)) == 1:
        challenges = derive_challenge_batch(stored, challenge_bits[0])
    else:
        challenges = [derive_challenge(stored[row], challenge_bits[row])
                      for row in range(len(valid))]
    confirmations = confirmation_mac_batch(
        challenges,
        [nonces[response.device_id] for response, __ in valid],
        new_responses,
    )
    for row, (response, record) in enumerate(valid):
        # The pending is stamped with its round nonce so finalize and
        # abort acks can prove which round they speak for: a delayed
        # or duplicated ack frame from a superseded round must never
        # settle (or roll!) a later session (see :meth:`finalize`).
        self._pending[response.device_id] = (
            bytes(nonces[response.device_id]), new_responses[row])
        # Write-ahead: park the candidate before the confirmation can
        # leave the verifier, keyed to the session it closes.
        self.commit_log.park(response.device_id, record.sessions,
                             new_responses[row])
        report.confirmations[response.device_id] = confirmations[row]



# -- a hand-built fleet ---------------------------------------------------------

#: 12 response bits: the masked field's last byte carries 4 pad bits.
RESPONSE_BITS = 12
CHALLENGE_BITS = 20

#: (device id, sessions, firmware hash, expected clock count)
FLEET = [
    ("dev-a", 0, hashlib.sha256(b"a").digest(), 100_000),
    ("dev-b", 7, hashlib.sha256(b"b").digest(), 100_000),
    ("dev-c", 2 ** 32 - 1, hashlib.sha256(b"c").digest(), 250),
    # An 8-byte hash has no zero head; a 6-byte one takes the per-row
    # check (the clock count spans the whole field).
    ("dev-d", 3, b"\x5a" * 8, 100_000),
    ("dev-e", 1, b"\xa5" * 6, 100_000),
    # References past 2**53 take the per-row check.
    ("dev-f", 0, hashlib.sha256(b"f").digest(), 2 ** 60),
    ("dev-g", 2, hashlib.sha256(b"g").digest(), 2 ** 53 + 1),
]
UNKNOWN = "dev-ghost"


def make_registry() -> FleetRegistry:
    registry = FleetRegistry()
    rng = np.random.default_rng(5)
    for device_id, sessions, firmware_hash, clock in FLEET:
        registry.backend.put(DeviceRecord(
            device_id=device_id,
            challenge_bits=CHALLENGE_BITS,
            current_response=rng.integers(0, 2, RESPONSE_BITS,
                                          dtype=np.uint8),
            firmware_hash=firmware_hash,
            expected_clock_count=clock,
            crp_challenges=np.zeros((0, CHALLENGE_BITS), dtype=np.uint8),
            crp_responses=np.zeros((0, RESPONSE_BITS), dtype=np.uint8),
            crp_used=np.zeros(0, dtype=bool),
            sessions=sessions,
        ))
    return registry


REGISTRY = make_registry()


def nonce_of(device_id: str) -> bytes:
    return hashlib.sha256(b"nonce:" + device_id.encode()).digest()[:16]


# -- crafted rounds -------------------------------------------------------------

MUTATIONS = (
    "honest", "honest", "honest", "flip", "truncate", "extend",
    "session", "session8", "masked_long", "masked_short", "resize",
    "nonce", "hash", "fields", "bad_tag",
)

#: Clock counts: a factor of the device's reference, or an absolute one.
CLOCKS = (1.0, 1.0, 0.95, 1.05, 0.9499, 1.0501, 0.0, 2 ** 53 - 1,
          2 ** 53, 2 ** 53 + 1, 2 ** 60, 2 ** 64 - 1)

#: Mostly true: a MAC-valid body with a nonce issued and a fresh tag
#: reaches the framing checks.
MOSTLY = st.sampled_from((True,) * 7 + (False,))

slots = st.fixed_dictionaries({
    "device": st.integers(0, len(FLEET)),        # len(FLEET): unknown id
    "mutation": st.sampled_from(MUTATIONS),
    "position": st.integers(0, 1 << 16),
    "delta": st.integers(1, 255),
    "clock": st.sampled_from(CLOCKS),
    "fresh": st.integers(0, (1 << RESPONSE_BITS) - 1),
    "remac": MOSTLY,
    "nonce": MOSTLY,                             # False: no nonce issued
    "fresh_tag": MOSTLY,                         # False: a replayed tag
})
rounds = st.fixed_dictionaries({
    "slots": st.lists(slots, min_size=1, max_size=8),
    "tolerance": st.sampled_from((0.05, 0.05, 0.0, 0.5)),
})


def clock_count(choice, expected: int) -> int:
    if isinstance(choice, float):
        return int(expected * choice)
    return choice


def craft(slot, registry: FleetRegistry) -> AuthResponse:
    """One slot's message: honest, or mutated as the slot says."""
    if slot["device"] == len(FLEET):
        return AuthResponse(UNKNOWN, b"\x00" * 8, b"\x00" * 32)
    device_id = FLEET[slot["device"]][0]
    record = registry.record(device_id)
    fresh = np.array([(slot["fresh"] >> bit) & 1
                      for bit in range(RESPONSE_BITS)], dtype=np.uint8)
    fields = [
        record.sessions.to_bytes(4, "big"),
        _pad_bits(record.current_response ^ fresh),
        mask_integrity(record.firmware_hash,
                       clock_count(slot["clock"],
                                   record.expected_clock_count)),
        nonce_of(device_id),
    ]
    honest = encode_fields(fields)
    mutation, position, delta = (slot["mutation"], slot["position"],
                                 slot["delta"])
    if mutation == "session":
        fields[0] = ((record.sessions + delta) % 2 ** 32).to_bytes(4, "big")
    elif mutation == "session8":
        fields[0] = record.sessions.to_bytes(8, "big")
    elif mutation == "masked_long":
        fields[1] += bytes([delta])
    elif mutation == "masked_short":
        fields[1] = fields[1][:-1]
    elif mutation == "resize":
        index = position % 4
        change = delta % 7 - 3
        fields[index] = (fields[index] + bytes(max(change, 0)))[
            :max(len(fields[index]) + change, 0)]
    elif mutation == "nonce":
        echo = bytearray(fields[3])
        echo[position % len(echo)] ^= delta
        fields[3] = bytes(echo)
    elif mutation == "hash":
        forged = bytearray(record.firmware_hash)
        forged[position % len(forged)] ^= delta
        fields[2] = mask_integrity(bytes(forged), clock_count(
            slot["clock"], record.expected_clock_count))
    elif mutation == "fields":
        fields = fields[:3] if delta % 2 else fields + [b"extra"]
    body = encode_fields(fields)
    if mutation == "flip":
        flipped = bytearray(body)
        flipped[position % len(flipped)] ^= delta
        body = bytes(flipped)
    elif mutation == "truncate":
        body = body[:position % len(body)]
    elif mutation == "extend":
        body += bytes([delta]) * (delta % 5 + 1)
    key = _pad_bits(record.current_response)
    tag = mac(body if slot["remac"] else honest, key)
    if mutation == "bad_tag":
        tag = bytes([tag[0] ^ delta]) + tag[1:]
    return AuthResponse(device_id, body, tag)


def make_round(round_):
    messages = [craft(slot, REGISTRY) for slot in round_["slots"]]
    nonces = {}
    seen: Dict[str, set] = {}
    for slot, message in zip(round_["slots"], messages):
        if slot["device"] < len(FLEET) and slot["nonce"]:
            nonces[message.device_id] = nonce_of(message.device_id)
        if not slot["fresh_tag"]:
            seen.setdefault(message.device_id, set()).add(message.tag)
    return messages, nonces, seen


def verifier_state(verifier: BatchVerifier, report: BatchAuthReport):
    return (
        list(report.confirmations.items()),
        list(report.failures.items()),
        list(report.failure_kinds.items()),
        [(device_id, nonce, response.tobytes())
         for device_id, (nonce, response) in verifier._pending.items()],
        [(device_id, entry.session, entry.new_response.tobytes(),
          entry.exposed)
         for device_id, entry in verifier.commit_log._parked.items()],
        {device_id: sorted(tags)
         for device_id, tags in verifier._seen_tags.items()},
    )


def run_both(messages, nonces, seen, tolerance=0.05):
    states = []
    for verify in (BatchVerifier._verify_round_into,
                   reference_verify_round_into):
        verifier = BatchVerifier(REGISTRY, clock_tolerance=tolerance)
        verifier._seen_tags = {device_id: set(tags)
                               for device_id, tags in seen.items()}
        report = BatchAuthReport()
        verify(verifier, report, messages, nonces, set())
        states.append(verifier_state(verifier, report))
    return states


# -- tests ----------------------------------------------------------------------

def test_columns_match_the_per_row_reference(monkeypatch):
    routes = Counter()
    columns, row = BatchVerifier._check_columns, BatchVerifier._check_row

    def counted_columns(self, *args):
        passed = columns(self, *args)
        routes["column"] += len(passed)
        return passed

    def counted_row(self, *args):
        routes["row"] += 1
        return row(self, *args)

    monkeypatch.setattr(BatchVerifier, "_check_columns", counted_columns)
    monkeypatch.setattr(BatchVerifier, "_check_row", counted_row)

    @settings(max_examples=400, deadline=None, database=None)
    @given(round_=rounds)
    def check(round_):
        messages, nonces, seen = make_round(round_)
        live, reference = run_both(messages, nonces, seen,
                                   round_["tolerance"])
        assert live == reference

    check()
    assert routes["column"] > 0 and routes["row"] > 0


def honest_slot(device, **changes):
    slot = dict(device=device, mutation="honest", position=0, delta=1,
                clock=1.0, fresh=0b1010_0110_1001, remac=True, nonce=True,
                fresh_tag=True)
    slot.update(changes)
    return slot


@pytest.mark.parametrize("mutation", sorted(set(MUTATIONS)))
def test_each_mutation_matches_the_reference(mutation):
    # Every device in one round, each body mutated the same way.
    for delta in (1, 2, 200):
        messages, nonces, seen = make_round({"slots": [
            honest_slot(device, mutation=mutation, position=7 * device,
                        delta=delta)
            for device in range(len(FLEET) + 1)]})
        live, reference = run_both(messages, nonces, seen)
        assert live == reference


@pytest.mark.parametrize("mutation", ["session8", "masked_long"])
def test_non_canonical_bodies_stay_accepted(mutation):
    # MAC-valid but not canonical: the per-row check accepts both.
    messages, nonces, seen = make_round(
        {"slots": [honest_slot(0, mutation=mutation), honest_slot(1)]})
    live, reference = run_both(messages, nonces, seen)
    assert live == reference
    assert [device_id for device_id, __ in live[0]] == ["dev-a", "dev-b"]


def test_clock_band_is_exact_past_2_53():
    # dev-g's reference is 2**53 + 1, which float64 rounds to 2**53: a
    # float column would let a count of 2**53 + 1 through at tolerance
    # 0, where the exact comparison refuses it.
    for count, accepted in ((2 ** 53, True), (2 ** 53 + 1, False)):
        messages, nonces, seen = make_round(
            {"slots": [honest_slot(6, clock=count)]})
        live, reference = run_both(messages, nonces, seen, tolerance=0.0)
        assert live == reference
        assert bool(live[0]) is accepted
        if not accepted:
            assert live[2] == [("dev-g", FailureKind.CLOCK_ANOMALY.value)]


# -- mixed record widths ---------------------------------------------------------

def mixed_width_registry(widths) -> FleetRegistry:
    """One record per ``(device id, response bits, challenge bits)``."""
    registry = FleetRegistry()
    rng = np.random.default_rng(9)
    for device_id, response_bits, challenge_bits in widths:
        registry.backend.put(DeviceRecord(
            device_id=device_id,
            challenge_bits=challenge_bits,
            current_response=rng.integers(0, 2, response_bits,
                                          dtype=np.uint8),
            firmware_hash=hashlib.sha256(device_id.encode()).digest(),
            expected_clock_count=100_000,
            crp_challenges=np.zeros((0, challenge_bits), dtype=np.uint8),
            crp_responses=np.zeros((0, response_bits), dtype=np.uint8),
            crp_used=np.zeros(0, dtype=bool),
            sessions=3,
        ))
    return registry


def honest_message(registry: FleetRegistry, device_id: str) -> AuthResponse:
    record = registry.record(device_id)
    fresh = np.resize(np.array([1, 0, 0, 1, 1], dtype=np.uint8),
                      record.current_response.size)
    body = encode_fields([
        record.sessions.to_bytes(4, "big"),
        _pad_bits(record.current_response ^ fresh),
        mask_integrity(record.firmware_hash, record.expected_clock_count),
        nonce_of(device_id),
    ])
    return AuthResponse(device_id, body,
                        mac(body, _pad_bits(record.current_response)))


@pytest.mark.parametrize("widths", [
    # 16 and 32 response bits under one challenge width ...
    [("dev-16", 16, 64), ("dev-32", 32, 64)],
    # ... and under two, with a uniform-width pair beside them.
    [("dev-16", 16, 40), ("dev-32", 32, 64), ("dev-32b", 32, 64)],
])
def test_mixed_response_widths_verify_as_each_alone(widths):
    ids = [device_id for device_id, __, __ in widths]
    nonces = {device_id: nonce_of(device_id) for device_id in ids}
    registry = mixed_width_registry(widths)
    together = BatchVerifier(registry)
    report = together.verify_round(
        [honest_message(registry, device_id) for device_id in ids], nonces)
    assert list(report.confirmations) == ids
    assert not report.failures
    live = verifier_state(together, report)
    for index, device_id in enumerate(ids):
        registry = mixed_width_registry(widths)
        alone = BatchVerifier(registry)
        single = alone.verify_round([honest_message(registry, device_id)],
                                    nonces)
        state = verifier_state(alone, single)
        # Each state part holds this device's one entry.
        assert state[0] == [live[0][index]]
        assert state[3] == [live[3][index]]
        assert state[4] == [live[4][index]]
        assert state[5] == {device_id: live[5][device_id]}
