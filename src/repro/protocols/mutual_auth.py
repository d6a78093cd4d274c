"""HSC-IoT mutual authentication (paper Fig. 4, Sec. III-A).

One CRP is shared between Device and Verifier at manufacturing time and
rolled forward after every session:

* Verifier -> Device: authentication request (session index, nonce);
* Device: derives the next challenge ``c_{i+1} = RNG(r_i)``, measures the
  fresh response ``r_{i+1}`` on the strong PUF, and sends

      m = (r_i XOR r_{i+1}) || (H XOR CC) || N,   mac = MAC(m, r_i)

  where H is the firmware hash and CC the clock count (integrity
  evidence), N the nonce;
* Verifier: checks the MAC with the shared ``r_i``, recovers ``r_{i+1}``,
  checks H and CC against its references, and answers with
  ``mac' = MAC(c_{i+1} || N, r_{i+1})``, proving knowledge of the *new*
  secret;
* both sides atomically roll the CRP to ``(c_{i+1}, r_{i+1})``.

The Verifier stores exactly one CRP per device — the scalability argument
against CRP-database schemes (Suh et al. [16]) that the paper makes;
:class:`CRPDatabaseVerifier` implements that baseline for the FIG4 bench.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.crypto.drbg import HmacDrbg
from repro.crypto.mac import mac as compute_mac
from repro.crypto.mac import mac_batch, verify_mac
from repro.system.channel import Channel
from repro.system.soc import DeviceSoC
from repro.utils.bits import BitArray, _as_bits, bits_from_bytes, xor_bits
from repro.utils.rng import derive_rng
from repro.utils.serialization import decode_fields, encode_fields


class FailureKind(str, Enum):
    """Shared failure taxonomy for every authentication path.

    The single-session verifier (:class:`AuthVerifier`), the fleet batch
    verifier (:class:`repro.fleet.verifier.BatchVerifier`) and the device
    side all classify rejections with the same vocabulary, so per-round
    failure reports and campaign statistics aggregate identically no
    matter which path produced them.
    """

    MALFORMED = "malformed-message"
    REPLAY = "replay"
    BAD_MAC = "bad-mac"
    SESSION_MISMATCH = "session-mismatch"
    NONCE_MISMATCH = "nonce-mismatch"
    FIRMWARE_MISMATCH = "firmware-mismatch"
    CLOCK_ANOMALY = "clock-anomaly"
    NOT_ENROLLED = "not-enrolled"
    NOT_PROVISIONED = "not-provisioned"
    DUPLICATE_DEVICE = "duplicate-device"
    NO_NONCE = "no-nonce"
    BAD_CONFIRMATION = "bad-confirmation"
    NO_SESSION = "no-session"
    POOL_EXHAUSTED = "pool-exhausted"
    # Service-layer kinds: policy vetoes and wire-codec rejections from
    # repro.service classify with the same vocabulary as protocol checks.
    RATE_LIMITED = "rate-limited"
    UNSUPPORTED_VERSION = "unsupported-version"
    # HA/failover kinds: replicated deployments classify transport-level
    # trouble with the same vocabulary, so one retry taxonomy covers the
    # in-process, wire, and replicated paths alike.
    REPLICA_UNAVAILABLE = "replica-unavailable"
    LEASE_EXPIRED = "lease-expired"
    CONNECTION_LOST = "connection-lost"
    TIMEOUT = "timeout"
    UNSPECIFIED = "unspecified"


class AuthenticationFailure(Exception):
    """A protocol check failed (bad MAC, bad integrity evidence, replay).

    Carries a :class:`FailureKind` so callers can aggregate failures by
    cause without parsing the human-readable message.
    """

    def __init__(self, message: str = "",
                 kind: "FailureKind" = FailureKind.UNSPECIFIED):
        super().__init__(message)
        self.kind = FailureKind(kind)


def _pad_bits(bits: BitArray) -> bytes:
    """Pack a bit row into bytes, zero-filling the last byte's tail."""
    return np.packbits(_as_bits(bits)).tobytes()


def pad_bits_batch(rows) -> List[bytes]:
    """:func:`_pad_bits` for a whole round of bit rows in one pass.

    Equal-length rows (the common fleet case) pack as one
    ``np.packbits`` call over the stacked matrix — ``packbits`` pads
    each row's tail with zero bits exactly like ``_pad_bits``; ragged
    rows (mixed device generations) fall back per row.  A value above 1
    raises ``ValueError`` either way.
    """
    rows = [np.asarray(row, dtype=np.uint8) for row in rows]
    if not rows:
        return []
    if len({row.size for row in rows}) == 1:
        matrix = np.vstack(rows)
        _as_bits(matrix)  # the bit check; raises on a value above 1
        packed = np.packbits(matrix, axis=1)
        return [row.tobytes() for row in packed]
    return [_pad_bits(row) for row in rows]


# SHA-256(packed response) + n_bytes -> DRBG expansion.  The verifier
# re-derives c_{i+1} from the same stored response the device derived it
# from, so every accepted session computes the identical expansion twice
# per round; memoizing the (deterministic) map halves that cost.  The
# cache key is a *hash* of the rolling secret, never the secret itself —
# a heap dump of a long-lived verifier must not surface thousands of
# current and rolled r_i values.  LRU-bounded so a verifier rolling
# through millions of sessions stays flat — rolled responses never
# recur, dead entries age out.
_CHALLENGE_CACHE_MAX = 8192
_challenge_cache: "OrderedDict[tuple, bytes]" = OrderedDict()


def _derive_challenge_bytes(packed: bytes, n_bytes: int) -> bytes:
    key = (hashlib.sha256(b"chal:" + packed).digest(), n_bytes)
    cached = _challenge_cache.get(key)
    if cached is not None:
        _challenge_cache.move_to_end(key)
        return cached
    raw = HmacDrbg(packed,
                   personalization=b"hsc-iot-challenge").generate(n_bytes)
    _challenge_cache[key] = raw
    if len(_challenge_cache) > _CHALLENGE_CACHE_MAX:
        _challenge_cache.popitem(last=False)
    return raw


def derive_challenge(response: BitArray, n_bits: int) -> BitArray:
    """c_{i+1} = RNG(r_i): expand the current response through the DRBG."""
    raw = _derive_challenge_bytes(_pad_bits(response), math.ceil(n_bits / 8))
    return bits_from_bytes(raw)[:n_bits]


def derive_challenge_batch(responses, n_bits: int) -> np.ndarray:
    """Gathered c_{i+1} derivation for a whole round of sessions.

    ``responses`` is ``(n_devices, response_bits)`` (one current response
    per row); returns the ``(n_devices, n_bits)`` stacked next challenges.
    Each row's DRBG stream is identical to :func:`derive_challenge` — the
    DRBG keying is inherently per-secret — while the packing of the
    response rows and the expansion of the output bytes into challenge
    bits run vectorized over the whole round.  This is the gather step
    that lets the fleet verifier run one stacked tensor pass for every
    device's fresh measurement.
    """
    matrix = np.atleast_2d(np.asarray(responses, dtype=np.uint8))
    n_bytes = math.ceil(n_bits / 8)
    packed = np.packbits(matrix, axis=1)
    raw = b"".join(
        _derive_challenge_bytes(row.tobytes(), n_bytes)
        for row in packed
    )
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(matrix.shape[0], n_bytes),
        axis=1,
    )
    return bits[:, :n_bits]


def confirmation_mac_batch(challenges, nonces, new_responses) -> List[bytes]:
    """``mac' = MAC(c_{i+1} || N, r_{i+1})`` for a whole round at once.

    The framing counterpart of :func:`derive_challenge_batch`: the fleet
    verifier's confirmation stage proves knowledge of every accepted
    device's *new* secret in one batched MAC pass
    (:func:`repro.crypto.mac.mac_batch`).  Row ``i`` is byte-identical
    to ``compute_mac(encode_fields([_pad_bits(challenges[i]),
    nonces[i]]), _pad_bits(new_responses[i]))``.
    """
    if not len(challenges) == len(nonces) == len(new_responses):
        raise ValueError(
            f"got {len(challenges)} challenges, {len(nonces)} nonces, "
            f"{len(new_responses)} responses"
        )
    bodies = [
        encode_fields([packed, nonce])
        for packed, nonce in zip(pad_bits_batch(challenges), nonces)
    ]
    return mac_batch(bodies, pad_bits_batch(new_responses))


def mask_integrity(firmware_hash: bytes, clock_count: int) -> bytes:
    """The H XOR CC integrity field of Fig. 4 (shared with the fleet path)."""
    width = len(firmware_hash)
    cc_bytes = clock_count.to_bytes(8, "big").rjust(width, b"\x00")[:width]
    masked = int.from_bytes(firmware_hash, "big") ^ int.from_bytes(cc_bytes, "big")
    return masked.to_bytes(width, "big")


def unmask_clock_count(integrity: bytes, expected_hash: bytes) -> int:
    """Recover CC from H XOR CC; reject when the hash does not match."""
    if len(integrity) != len(expected_hash):
        raise AuthenticationFailure(
            f"integrity field is {len(integrity)} bytes, "
            f"expected {len(expected_hash)}", FailureKind.MALFORMED,
        )
    unmasked = int.from_bytes(expected_hash, "big") ^ int.from_bytes(integrity, "big")
    cc_field = unmasked.to_bytes(len(expected_hash), "big")
    if any(cc_field[:-8]):
        raise AuthenticationFailure("firmware hash mismatch",
                                    FailureKind.FIRMWARE_MISMATCH)
    return int.from_bytes(cc_field[-8:], "big")


def check_clock_count(clock_count: int, expected: int, tolerance: float) -> None:
    """Fig. 4 tamper evidence: CC must sit within the expected band."""
    low = expected * (1 - tolerance)
    high = expected * (1 + tolerance)
    if not low <= clock_count <= high:
        raise AuthenticationFailure(
            f"clock count {clock_count} outside [{low:.0f}, {high:.0f}]",
            FailureKind.CLOCK_ANOMALY,
        )


@dataclass
class SessionRecord:
    """Bookkeeping of one authentication session (for the FIG4 bench)."""

    session_index: int
    success: bool
    bytes_device_to_verifier: int
    bytes_verifier_to_device: int
    device_time_s: float
    verifier_checks: str = "ok"


class AuthDevice:
    """Device side: owns the SoC (PUF, firmware, clock counter)."""

    def __init__(self, soc: DeviceSoC, initial_response: BitArray,
                 seed: int = 0):
        self.soc = soc
        self.current_response = np.asarray(initial_response, dtype=np.uint8)
        self.seed = seed
        self._session = 0
        self._pending: Optional[Tuple[BitArray, BitArray]] = None
        self.elapsed_s = 0.0

    def handle_request(self, nonce: bytes,
                       tamper_factor: float = 1.0) -> bytes:
        """Produce the ``m || mac`` message of Fig. 4."""
        challenge = derive_challenge(self.current_response,
                                     self.soc.strong_puf.challenge_bits)
        new_response, puf_time = self.soc.strong_puf_evaluate(challenge)
        firmware_hash, hash_time = self.soc.firmware_hash()
        clock_count = self.soc.measure_clock_count(tamper_factor)
        masked_response = xor_bits(self.current_response, new_response)
        integrity = mask_integrity(firmware_hash, clock_count)
        body = encode_fields([
            self._session.to_bytes(4, "big"),
            _pad_bits(masked_response),
            integrity,
            nonce,
        ])
        tag = compute_mac(body, _pad_bits(self.current_response))
        self._pending = (challenge, new_response)
        mac_time = self.soc.mac_time(len(body))
        self.elapsed_s += puf_time + hash_time + mac_time
        return encode_fields([body, tag])

    def verify_confirmation(self, confirmation: bytes, nonce: bytes) -> None:
        """Check mac' and roll the CRP forward (the last step of Fig. 4)."""
        if self._pending is None:
            raise AuthenticationFailure("no session in progress",
                                        FailureKind.NO_SESSION)
        challenge, new_response = self._pending
        expected_body = encode_fields([_pad_bits(challenge), nonce])
        if not verify_mac(expected_body, _pad_bits(new_response), confirmation):
            raise AuthenticationFailure("verifier confirmation rejected",
                                        FailureKind.BAD_CONFIRMATION)
        self.current_response = new_response
        self._pending = None
        self._session += 1


class AuthVerifier:
    """Verifier side: stores one CRP plus the device's integrity references."""

    def __init__(
        self,
        initial_response: BitArray,
        expected_firmware_hash: bytes,
        expected_clock_count: int,
        clock_tolerance: float = 0.05,
        seed: int = 0,
    ):
        self.current_response = np.asarray(initial_response, dtype=np.uint8)
        self.expected_firmware_hash = expected_firmware_hash
        self.expected_clock_count = expected_clock_count
        self.clock_tolerance = clock_tolerance
        self.seed = seed
        self._session = 0
        self._pending_response: Optional[BitArray] = None
        self._seen_tags: set = set()
        self._nonce_counter = 0

    def new_nonce(self) -> bytes:
        # Fresh per *request*, not per session: a failed session must not
        # reuse its nonce on retry.
        nonce = derive_rng(self.seed, "nonce", self._nonce_counter).bytes(16)
        self._nonce_counter += 1
        return nonce

    def process_response(self, message: bytes, nonce: bytes,
                         challenge_bits: int) -> bytes:
        """Verify ``m || mac``; emit the confirmation mac'."""
        try:
            fields = decode_fields(message)
            if len(fields) != 2:
                raise ValueError(f"expected 2 fields, got {len(fields)}")
            body, tag = fields
        except ValueError as exc:
            raise AuthenticationFailure(f"malformed message: {exc}",
                                        FailureKind.MALFORMED) from exc
        if bytes(tag) in self._seen_tags:
            raise AuthenticationFailure("replayed message", FailureKind.REPLAY)
        if not verify_mac(body, _pad_bits(self.current_response), tag):
            raise AuthenticationFailure("device MAC rejected",
                                        FailureKind.BAD_MAC)
        try:
            fields = decode_fields(body)
            if len(fields) != 4:
                raise ValueError(f"expected 4 fields, got {len(fields)}")
            session_raw, masked, integrity, echoed_nonce = fields
        except ValueError as exc:
            raise AuthenticationFailure(f"malformed body: {exc}",
                                        FailureKind.MALFORMED) from exc
        if int.from_bytes(session_raw, "big") != self._session:
            raise AuthenticationFailure("session index mismatch",
                                        FailureKind.SESSION_MISMATCH)
        if echoed_nonce != nonce:
            raise AuthenticationFailure("nonce mismatch (replay or delay)",
                                        FailureKind.NONCE_MISMATCH)
        masked_bits = bits_from_bytes(masked)
        if masked_bits.size < self.current_response.size:
            raise AuthenticationFailure(
                f"masked response field holds {masked_bits.size} bits, "
                f"expected {self.current_response.size}",
                FailureKind.MALFORMED,
            )
        masked_bits = masked_bits[: self.current_response.size]
        new_response = xor_bits(self.current_response, masked_bits)
        self._check_integrity(integrity)
        challenge = derive_challenge(self.current_response, challenge_bits)
        confirmation = compute_mac(
            encode_fields([_pad_bits(challenge), nonce]),
            _pad_bits(new_response),
        )
        # Cache the replay tag only for accepted messages: a rejected one
        # fails the same deterministic checks again, so caching it would
        # grow the set without bound between finalizes.
        self._seen_tags.add(bytes(tag))
        self._pending_response = new_response
        return confirmation

    def _check_integrity(self, integrity: bytes) -> None:
        """Unmask CC with the expected hash; verify both fields."""
        clock_count = unmask_clock_count(integrity, self.expected_firmware_hash)
        check_clock_count(clock_count, self.expected_clock_count,
                          self.clock_tolerance)

    def finalize(self) -> None:
        """Roll the CRP after the confirmation went out.

        Replay tags are pruned here (as :class:`BatchVerifier` already
        does): once the CRP rolled, a replayed message fails the MAC
        check (old key) and the session-index check, so keeping its tag
        would only grow ``_seen_tags`` without bound across sessions.
        """
        if self._pending_response is None:
            raise AuthenticationFailure("no session to finalise",
                                        FailureKind.NO_SESSION)
        self.current_response = self._pending_response
        self._pending_response = None
        self._session += 1
        self._seen_tags.clear()

    @property
    def storage_bytes(self) -> int:
        """Verifier-side storage: one response + references (scalability)."""
        return (math.ceil(self.current_response.size / 8)
                + len(self.expected_firmware_hash) + 8)


def provision(soc: DeviceSoC, seed: int = 0) -> tuple:
    """Manufacturing-time setup: measure the first CRP, build both parties."""
    rng = derive_rng(seed, "provision")
    challenge = rng.integers(0, 2, soc.strong_puf.challenge_bits, dtype=np.uint8)
    response, __ = soc.strong_puf_evaluate(challenge)
    device = AuthDevice(soc, response, seed)
    firmware_hash, __ = soc.firmware_hash()
    clock_count = soc.measure_clock_count()
    verifier = AuthVerifier(response, firmware_hash, clock_count, seed=seed)
    return device, verifier


def run_session(
    device: AuthDevice,
    verifier: AuthVerifier,
    channel: Optional[Channel] = None,
    tamper_factor: float = 1.0,
) -> SessionRecord:
    """Execute one full mutual-authentication session over a channel."""
    channel = channel or Channel()
    index = verifier._session
    nonce = verifier.new_nonce()
    request, __ = channel.send(nonce)
    message = device.handle_request(request, tamper_factor)
    delivered, __ = channel.send(message)
    try:
        confirmation = verifier.process_response(
            delivered, nonce, device.soc.strong_puf.challenge_bits
        )
        delivered_confirmation, __ = channel.send(confirmation)
        device.verify_confirmation(delivered_confirmation, nonce)
        verifier.finalize()
        success = True
        checks = "ok"
    except AuthenticationFailure as failure:
        success = False
        checks = str(failure)
    return SessionRecord(
        session_index=index,
        success=success,
        bytes_device_to_verifier=len(message),
        bytes_verifier_to_device=len(nonce) + 32,
        device_time_s=device.elapsed_s,
        verifier_checks=checks,
    )


class CRPDatabaseVerifier:
    """The classic Suh-style baseline: a big per-device CRP database.

    Stored for the scalability comparison of the FIG4 bench: the verifier
    pre-collects ``n_crps`` challenge/response pairs at enrollment and
    burns one per authentication.
    """

    def __init__(self, soc: DeviceSoC, n_crps: int, seed: int = 0):
        rng = derive_rng(seed, "crpdb")
        self._entries: List[Tuple[bytes, bytes]] = []
        for index in range(n_crps):
            challenge = rng.integers(0, 2, soc.strong_puf.challenge_bits,
                                     dtype=np.uint8)
            response, __ = soc.strong_puf_evaluate(challenge)
            self._entries.append((_pad_bits(challenge), _pad_bits(response)))
        self._cursor = 0

    @property
    def storage_bytes(self) -> int:
        return sum(len(c) + len(r) for c, r in self._entries)

    @property
    def remaining(self) -> int:
        return len(self._entries) - self._cursor

    def authenticate(self, soc: DeviceSoC, max_fractional_hd: float = 0.25) -> bool:
        """Burn one stored CRP against the live device.

        PUF re-measurement is noisy, so the classic scheme accepts
        responses within a Hamming-distance threshold rather than
        requiring equality.
        """
        if self._cursor >= len(self._entries):
            raise AuthenticationFailure("CRP database exhausted",
                                        FailureKind.POOL_EXHAUSTED)
        challenge_bytes, expected = self._entries[self._cursor]
        self._cursor += 1
        challenge = bits_from_bytes(challenge_bytes)[: soc.strong_puf.challenge_bits]
        response, __ = soc.strong_puf_evaluate(challenge)
        expected_bits = bits_from_bytes(expected)[: response.size]
        distance = float(np.mean(response != expected_bits))
        return distance <= max_fractional_hd
