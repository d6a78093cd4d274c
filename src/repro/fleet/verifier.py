"""Fleet-scale batch authentication on top of the compiled engine.

:class:`BatchVerifier` serves many HSC-IoT-style (paper Fig. 4) mutual
authentications per call:

* :meth:`authenticate_fleet` runs one full rolling-CRP session for every
  device in one call — per-device message framing, MACs, integrity
  evidence (H XOR CC) and anti-replay checks mirror
  :mod:`repro.protocols.mutual_auth` (the field encoding/checking helpers
  are shared), including its two-phase commit: the registry rolls a
  device's CRP only after that device accepted the confirmation.  The
  response unmasking and CRP rollover run as vectorized operations over
  the stacked ``(fleet, response_bits)`` matrices;
* :meth:`spot_check` re-measures ``k`` enrollment CRPs per device in a
  single ``evaluate_batch`` call (the compiled engine's batch path) and
  accepts within a fractional-Hamming-distance threshold, vectorized over
  the whole fleet.

Device-side counterpart is :class:`FleetDevice`;
:meth:`repro.service.AuthService.provision` builds a whole enrolled
fleet from one photonic die family.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.mac import mac_batch, verify_mac, verify_mac_batch
from repro.fleet.registry import FleetRegistry
from repro.fleet.rounds import respond_round_staged
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
from repro.utils.rng import derive_bytes, derive_rng
from repro.utils.serialization import (
    decode_fields,
    encode_fields,
    from_hex,
    to_hex,
)


DEFAULT_CLOCK_COUNT = 100_000


def provisioning_challenge(seed: int, device_id: str,
                           n_bits: int) -> np.ndarray:
    """The manufacturing-time challenge of one device's enrollment CRP."""
    rng = derive_rng(seed, "fleet-provision", device_id)
    return rng.integers(0, 2, n_bits, dtype=np.uint8)


class FleetDevice:
    """Device side of the fleet protocol: a strong PUF plus rolling state.

    A device may additionally be *attached* to a fleet-stacked execution
    plane (:meth:`attach_plane`): its PUF then answers round measurements
    as one row of the plane's single tensor pass (see
    :func:`repro.fleet.rounds.respond_round`) instead of a batch-1
    interrogation of its own.
    The plane is runtime wiring, not durable state — a device restored
    from a snapshot responds per-device until re-attached.
    """

    def __init__(self, device_id: str, puf, initial_response=None,
                 firmware_hash: Optional[bytes] = None,
                 clock_count: int = DEFAULT_CLOCK_COUNT):
        self.device_id = device_id
        self.puf = puf
        self.firmware_hash = firmware_hash or hashlib.sha256(
            b"fleet-firmware:" + device_id.encode()
        ).digest()
        # Reference cycle count of the integrity-measurement routine; a
        # tampered device runs it slower (Fig. 4's CC evidence).
        self.clock_count = clock_count
        self.current_response = (
            None if initial_response is None
            else np.asarray(initial_response, dtype=np.uint8)
        )
        self._session = 0
        self._pending = None
        self.plane = None
        self.plane_row: Optional[int] = None

    def attach_plane(self, plane, row: int) -> None:
        """Wire this device into a stacked execution plane at ``row``."""
        if plane.pufs[row] is not self.puf:
            raise ValueError(
                f"plane row {row} does not hold device {self.device_id!r}'s PUF"
            )
        self.plane = plane
        self.plane_row = int(row)

    def detach_plane(self) -> None:
        """Drop the stacked-plane wiring (device falls back to batch-1)."""
        self.plane = None
        self.plane_row = None

    def provision(self, seed: int = 0) -> np.ndarray:
        """Measure the manufacturing-time response (enrollment secret)."""
        challenge = provisioning_challenge(seed, self.device_id,
                                           self.puf.challenge_bits)
        self.current_response = np.asarray(
            self.puf.evaluate(challenge), dtype=np.uint8
        )
        return self.current_response

    def derive_next_challenge(self) -> np.ndarray:
        """c_{i+1} = RNG(r_i) for this device's rolling state."""
        if self.current_response is None:
            raise AuthenticationFailure(
                f"device {self.device_id!r} is not provisioned",
                FailureKind.NOT_PROVISIONED,
            )
        return derive_challenge(self.current_response,
                                self.puf.challenge_bits)

    def assemble_response(self, challenge: np.ndarray,
                          new_response: np.ndarray, nonce: bytes,
                          tamper_factor: float = 1.0) -> "AuthResponse":
        """Frame + MAC one turn from an already-measured fresh response."""
        return assemble_responses([self], [challenge], [new_response],
                                  [nonce], [tamper_factor])[0]

    def respond(self, nonce: bytes, tamper_factor: float = 1.0) -> "AuthResponse":
        """One Fig. 4 device turn: fresh CRP measurement, masked + MAC'd.

        ``tamper_factor`` scales the measured clock count, modelling the
        slowdown a compromised integrity routine exhibits.
        """
        challenge = self.derive_next_challenge()
        new_response = np.asarray(self.puf.evaluate(challenge), dtype=np.uint8)
        return self.assemble_response(challenge, new_response, nonce,
                                      tamper_factor)

    def confirm(self, confirmation: bytes, nonce: bytes) -> None:
        """Check the verifier's mac' and roll the CRP forward."""
        if self._pending is None:
            raise AuthenticationFailure("no session in progress",
                                        FailureKind.NO_SESSION)
        challenge, new_response = self._pending
        expected = encode_fields([_pad_bits(challenge), nonce])
        if not verify_mac(expected, _pad_bits(new_response), confirmation):
            raise AuthenticationFailure("verifier confirmation rejected",
                                        FailureKind.BAD_CONFIRMATION)
        self.current_response = new_response
        self._pending = None
        self._session += 1

    def spot_responses(self, challenges: np.ndarray,
                       measurement: Optional[int] = None) -> np.ndarray:
        """Re-measure a block of challenges in one batched engine pass."""
        return np.asarray(
            self.puf.evaluate_batch(challenges, measurement=measurement),
            dtype=np.uint8,
        )

    def to_state(self) -> dict:
        """Durable device state (the PUF itself is hardware, not state).

        The in-flight ``_pending`` measurement is deliberately transient:
        a device that reboots mid-session simply retries, which the
        two-phase commit makes safe.
        """
        return {
            "device_id": self.device_id,
            "firmware_hash": to_hex(self.firmware_hash),
            "clock_count": int(self.clock_count),
            "session": int(self._session),
            "current_response": (
                None if self.current_response is None
                else to_hex(_pad_bits(self.current_response))
            ),
            "response_bits": (
                None if self.current_response is None
                else int(self.current_response.size)
            ),
        }

    @classmethod
    def from_state(cls, state: dict, puf) -> "FleetDevice":
        """Rebuild a device around its physical PUF from saved state."""
        response = None
        if state["current_response"] is not None:
            bits = bits_from_bytes(from_hex(state["current_response"]))
            response = bits[: state["response_bits"]]
        device = cls(
            state["device_id"], puf,
            initial_response=response,
            firmware_hash=from_hex(state["firmware_hash"]),
            clock_count=int(state["clock_count"]),
        )
        device._session = int(state["session"])
        return device


@dataclass(frozen=True)
class AuthResponse:
    """The ``m || mac`` message of one device's session turn."""

    device_id: str
    body: bytes
    tag: bytes


def assemble_responses(devices: Sequence[FleetDevice], challenges, fresh,
                       nonces: Sequence[bytes],
                       tamper_factors: Sequence[float]) -> List[AuthResponse]:
    """Frame + MAC many devices' turns from already-measured responses.

    Row ``i`` is device ``i``'s Fig. 4 message: its session index,
    ``r_i XOR r_{i+1}`` (``fresh[i]``), ``H XOR CC`` with the clock count
    scaled by ``tamper_factors[i]`` and ``nonces[i]``, MAC'd under
    ``r_i``; ``(challenges[i], fresh[i])`` is left pending until the
    confirmation.  The stored and masked responses pack in two
    :func:`pad_bits_batch` passes and every body is MAC'd in one
    :func:`~repro.crypto.mac.mac_batch` call.  A device listed twice
    keeps its last row's turn pending, as framing the rows one at a
    time would leave it.  The rows are checked before any device is
    touched: a value above 1 or a fresh response whose width differs
    from the stored one raises ``ValueError`` and leaves every device as
    it was.
    """
    stored = [np.asarray(device.current_response, dtype=np.uint8)
              for device in devices]
    fresh = [np.asarray(row, dtype=np.uint8) for row in fresh]
    if any(old.shape != new.shape for old, new in zip(stored, fresh)):
        raise ValueError("bit arrays must have equal length")
    keys = pad_bits_batch(stored)
    # With every stored bit checked, a masked value above 1 can only
    # come from the fresh row, so this pass checks those too.
    masked = pad_bits_batch([np.bitwise_xor(old, new)
                             for old, new in zip(stored, fresh)])
    bodies = [
        encode_fields([
            device._session.to_bytes(4, "big"),
            packed,
            mask_integrity(device.firmware_hash,
                           int(device.clock_count * factor)),
            nonce,
        ])
        for device, packed, nonce, factor in zip(devices, masked, nonces,
                                                 tamper_factors)
    ]
    responses = []
    for device, challenge, new, body, tag in zip(
            devices, challenges, fresh, bodies, mac_batch(bodies, keys)):
        device._pending = (challenge, new)
        responses.append(AuthResponse(device.device_id, body, tag))
    return responses


@dataclass
class BatchAuthReport:
    """Outcome of one :meth:`BatchVerifier.authenticate_fleet` call.

    ``failures`` maps device id to a human-readable reason;
    ``failure_kinds`` maps the same ids to the shared
    :class:`~repro.protocols.mutual_auth.FailureKind` taxonomy value, so
    round reports aggregate identically to single-session failures.
    """

    confirmations: Dict[str, bytes] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    failure_kinds: Dict[str, str] = field(default_factory=dict)

    def record_failure(self, device_id: str,
                       failure: AuthenticationFailure) -> None:
        self.failures[device_id] = str(failure)
        self.failure_kinds[device_id] = failure.kind.value

    @property
    def n_accepted(self) -> int:
        return len(self.confirmations)

    @property
    def n_rejected(self) -> int:
        return len(self.failures)

    @property
    def accepted_ids(self) -> List[str]:
        return list(self.confirmations)


@dataclass
class SpotCheckReport:
    """Outcome of one :meth:`BatchVerifier.spot_check` call."""

    device_ids: List[str]
    fractional_hd: np.ndarray
    accepted: np.ndarray
    threshold: float

    @property
    def n_accepted(self) -> int:
        return int(np.count_nonzero(self.accepted))


class CommitLog:
    """Durable write-ahead record of in-flight two-phase CRP commits.

    :meth:`BatchVerifier._verify_round_into` *parks* every device's
    candidate response here before the confirmation leaves the verifier,
    and :meth:`BatchVerifier.finalize` / a clean abort resolve the entry.
    An *ambiguous* abort — connection death after the confirmation may
    already have reached the device — leaves the entry parked, which is
    the whole point: a replica (or restarted verifier) sharing this log
    can later prove from a device's next message which side of the
    commit the device landed on and complete the registry roll lazily
    (see :meth:`BatchVerifier._recover_interrupted`).  Without it, a
    verifier crash in the confirmation→finalize window desynchronizes
    the device one CRP ahead of the registry forever.
    """

    def __init__(self):
        self._parked: Dict[str, "_ParkedCommit"] = {}

    def park(self, device_id: str, session: int,
             new_response: np.ndarray) -> None:
        self._parked[device_id] = _ParkedCommit(
            int(session), np.asarray(new_response, dtype=np.uint8))

    def mark_exposed(self, device_id: str) -> None:
        """The confirmation left for the device — it *may* roll now.

        From this point on the entry can only be resolved by proof
        (finalize, or :meth:`BatchVerifier._recover_interrupted` reading
        the device's next MAC), never by a blanket unambiguous drop: an
        abort issued later — a retry timing out, a ghost round dying —
        speaks for *its own* attempt, not for this exposed commit.
        """
        entry = self._parked.get(device_id)
        if entry is not None:
            entry.exposed = True

    def commit(self, device_id: str) -> None:
        """The registry rolled — the commit is complete, forget it."""
        self._parked.pop(device_id, None)

    def drop(self, device_id: str) -> None:
        """The confirmation provably never reached the device."""
        self._parked.pop(device_id, None)

    def get(self, device_id: str) -> Optional["_ParkedCommit"]:
        return self._parked.get(device_id)

    def __len__(self) -> int:
        return len(self._parked)

    def device_ids(self) -> List[str]:
        return list(self._parked)

    def to_state(self) -> dict:
        return {
            device_id: {
                "session": entry.session,
                "new_response": to_hex(_pad_bits(entry.new_response)),
                "response_bits": int(entry.new_response.size),
                "exposed": bool(entry.exposed),
            }
            for device_id, entry in self._parked.items()
        }

    @classmethod
    def from_state(cls, state: dict) -> "CommitLog":
        log = cls()
        for device_id, entry in state.items():
            bits = bits_from_bytes(from_hex(entry["new_response"]))
            log.park(device_id, int(entry["session"]),
                     bits[: int(entry["response_bits"])])
            if entry.get("exposed"):
                log.mark_exposed(device_id)
        return log


@dataclass
class _ParkedCommit:
    """One parked confirmation: the session it closes + candidate CRP."""

    session: int
    new_response: np.ndarray
    exposed: bool = False


class BatchVerifier:
    """Verifier serving many mutual-auth sessions per call."""

    def __init__(self, registry: FleetRegistry, seed: int = 0,
                 clock_tolerance: float = 0.05, nonce_counter: int = 0,
                 nonce_epoch: int = 0, replica_index: int = 0,
                 n_replicas: int = 1,
                 commit_log: Optional[CommitLog] = None):
        self.registry = registry
        self.seed = seed
        self.clock_tolerance = clock_tolerance
        if n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        if not 0 <= replica_index < n_replicas:
            raise ValueError(
                f"replica_index {replica_index} outside replica group of "
                f"{n_replicas}"
            )
        self.replica_index = int(replica_index)
        self.n_replicas = int(n_replicas)
        # Nonces are derived from (seed, epoch, counter).  The counter is
        # restorable and the epoch bumps on every from_state restore, so
        # a verifier restarted even from a *stale* checkpoint never
        # re-issues a nonce some earlier boot already put on the wire.
        # In a replica group the epochs are additionally partitioned by
        # residue class (stream epoch = epoch * n_replicas + index), so
        # no replica can ever land on another replica's stream no matter
        # how many times either side crashes and restores.
        self._nonce_counter = nonce_counter
        self._nonce_epoch = nonce_epoch
        self.commit_log = commit_log
        # Replay tags and unmasked responses of in-flight sessions only,
        # per device; both are dropped at finalization (a finalized
        # session's messages already fail the session-index check), which
        # keeps verifier memory flat over millions of sessions.
        self._seen_tags: Dict[str, set] = {}
        # device_id -> (round nonce, candidate response): the nonce lets
        # finalize/abort acks prove which round they belong to.
        self._pending: Dict[str, Tuple[bytes, np.ndarray]] = {}
        # Observability hook (repro.obs.ServiceObs); None costs one
        # attribute load per round, and no hook may touch the RNG.
        self._obs = None

    @property
    def stream_epoch(self) -> int:
        """The epoch actually fed to the nonce/spot DRBG streams.

        ``epoch * n_replicas + replica_index`` — with the single-verifier
        defaults this reduces to the raw epoch, keeping every legacy
        nonce stream bit-identical.
        """
        return self._nonce_epoch * self.n_replicas + self.replica_index

    def open_round(self, device_ids: Sequence[str]) -> Dict[str, bytes]:
        """Fresh per-request nonces for every device in the round."""
        nonces = {}
        for device_id in device_ids:
            self.registry.record(device_id)  # fail fast on unknown devices
            nonce = derive_bytes(16, self.seed, "fleet-nonce",
                                 self.stream_epoch, self._nonce_counter)
            self._nonce_counter += 1
            nonces[device_id] = nonce
        if self._obs is not None:
            self._obs.on_challenge(self, nonces)
        return nonces

    def verify_round(self, responses: Sequence[AuthResponse],
                     nonces: Dict[str, bytes]) -> BatchAuthReport:
        """Verify a whole round of device turns in one call.

        MAC verification and confirmation framing run as *batched
        stages* (:func:`repro.crypto.mac.verify_mac_batch` /
        :func:`repro.protocols.mutual_auth.confirmation_mac_batch`);
        response unmasking operates on the stacked response matrices.
        The registry is NOT rolled here: the new response is parked as
        pending state and committed by :meth:`finalize` once the device
        accepted the confirmation — the same two-phase commit as
        ``AuthVerifier.process_response`` / ``finalize``, so a lost
        confirmation never desynchronizes the two sides.

        :meth:`authenticate_fleet` calls the underlying
        :meth:`_verify_round_into` once per chunk of device turns
        instead, sharing one report and duplicate-device set across the
        round; the two produce identical reports for identical messages.
        """
        report = BatchAuthReport()
        self._verify_round_into(report, responses, nonces, set())
        if self._obs is not None:
            self._obs.on_verify(self, report)
        return report

    def _verify_round_into(self, report: BatchAuthReport,
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
            if self.commit_log is not None:
                # Write-ahead: park the candidate before the confirmation
                # can leave the verifier, keyed to the session it closes.
                self.commit_log.park(response.device_id, record.sessions,
                                     new_responses[row])
            report.confirmations[response.device_id] = confirmations[row]

    def _recover_interrupted(self, responses: Sequence[AuthResponse]) -> None:
        """Complete interrupted two-phase commits proven by fresh traffic.

        A crash (or ambiguous connection death) in the window between
        CONFIRMATION delivery and finalize leaves the device one CRP
        ahead of the registry, with the candidate parked in the shared
        :class:`CommitLog`.  The proof that the device really rolled is
        its *next* message: only a device holding the candidate response
        can MAC with it.  When that proof arrives, roll the registry
        forward and resolve the log entry — then let the message verify
        through the normal path against the now-current record.  A
        device that did *not* roll keeps MACing with the old response,
        which the normal path accepts and whose finalize supersedes the
        stale parked entry.  Hostile messages prove nothing: an
        adversary without the candidate cannot produce the MAC, so the
        sweep never rolls on a forgery.
        """
        if self.commit_log is None or len(self.commit_log) == 0:
            return
        for response in responses:
            entry = self.commit_log.get(response.device_id)
            if entry is None:
                continue
            try:
                record = self.registry.record(response.device_id)
            except AuthenticationFailure:
                self.commit_log.drop(response.device_id)  # revoked
                continue
            if record.sessions != entry.session:
                # The registry moved past the parked session through some
                # other path; the entry is stale, not ambiguous.
                self.commit_log.drop(response.device_id)
                continue
            # A rolled device stamps its next message with the session
            # *after* the parked one.  The stamp matters beyond being a
            # cheap pre-filter: the rolling chain can hit a fixed point
            # (the measured next response equals the current one), and
            # then candidate == record and the MAC alone cannot tell a
            # rolled device from an unrolled one — only the session
            # counter can.  The stamp is not trusted by itself: the roll
            # still requires the MAC proof below, which an adversary
            # without the candidate cannot forge.
            try:
                fields = decode_fields(response.body)
                stamped = int.from_bytes(fields[0], "big") \
                    if len(fields) == 4 else -1
            except ValueError:
                continue
            if stamped != entry.session + 1:
                # Still on the parked session (or garbage): not a roll
                # proof.  The normal path verifies it against the
                # current record and its park supersedes this entry.
                continue
            if verify_mac(response.body, _pad_bits(entry.new_response),
                          response.tag):
                self.registry.roll(response.device_id, entry.new_response)
                self.commit_log.commit(response.device_id)
                # The completed session's replay tags are obsolete (its
                # messages now fail the session-index check).
                self._seen_tags.pop(response.device_id, None)
                if self._obs is not None:
                    self._obs.on_recovered(self)

    def finalize(self, device_id: str,
                 token: Optional[bytes] = None) -> None:
        """Commit one device's pending session: roll the CRP atomically.

        ``token`` (the round nonce, when the caller knows it) fences the
        commit to the round that earned it.  A finalize whose token does
        not match the pending's nonce is a *stale ack* — a chaos-delayed
        or duplicated frame from a round that has since been superseded
        — and is ignored: rolling on it would advance the registry with
        a candidate the device never confirmed.  ``token=None`` (the
        in-process paths, where acks cannot reorder) commits
        unconditionally.
        """
        pending = self._pending.get(device_id)
        if pending is None:
            raise AuthenticationFailure(
                f"device {device_id!r} has no session to finalise",
                FailureKind.NO_SESSION,
            )
        nonce, new_response = pending
        if token is not None and bytes(token) != nonce:
            return
        del self._pending[device_id]
        self.registry.roll(device_id, new_response)
        if self.commit_log is not None:
            self.commit_log.commit(device_id)
        # A finalized session's messages fail the session-index check, so
        # their replay tags can be dropped.
        self._seen_tags.pop(device_id, None)
        if self._obs is not None:
            self._obs.on_finalize(self, device_id)

    def expose(self, device_id: str) -> None:
        """Record that this device's confirmation is leaving the server.

        Called by the transport layer just before the CONFIRMATION frame
        is written: past this point the device may roll, so the parked
        candidate becomes un-droppable by unambiguous aborts (only
        finalize or MAC-proven recovery may resolve it).
        """
        if self.commit_log is not None:
            self.commit_log.mark_exposed(device_id)

    def abort(self, device_id: str, ambiguous: bool = False,
              token: Optional[bytes] = None) -> None:
        """Discard a pending session (confirmation undeliverable/rejected).

        Both sides stay on the current CRP; the device simply retries.
        ``ambiguous=True`` means the confirmation *may* have reached the
        device (connection died after it was sent): the in-memory
        pending is still dropped, but the parked :class:`CommitLog`
        entry survives so :meth:`_recover_interrupted` can settle the
        question from the device's next message.

        Like :meth:`finalize`, ``token`` fences the abort to its round:
        a stale ack whose nonce does not match the current pending is
        ignored outright rather than tearing down a later session.

        Even an "unambiguous" abort only drops an *unexposed* entry.
        An abort is evidence about the attempt that issued it — a client
        retry timing out, a rejected confirmation — not about an earlier
        exposed commit still parked under the same device id (the
        crash-window entry a promoted replica must keep until the
        device's next MAC settles it).  Dropping on device id alone
        would let one lost RESPONSE destroy the only proof of a
        completed roll and desynchronize the device forever.
        """
        pending = self._pending.get(device_id)
        if pending is not None:
            if token is not None and bytes(token) != pending[0]:
                return
            del self._pending[device_id]
            if self._obs is not None:
                self._obs.on_abort(self, device_id)
        if ambiguous or self.commit_log is None:
            return
        entry = self.commit_log.get(device_id)
        if entry is not None and not entry.exposed:
            self.commit_log.drop(device_id)

    def evict(self, device_id: str) -> None:
        """Drop all per-device verifier state (revocation cleanup)."""
        self._pending.pop(device_id, None)
        self._seen_tags.pop(device_id, None)
        if self.commit_log is not None:
            self.commit_log.drop(device_id)

    def to_state(self) -> dict:
        """Durable verifier state beyond the registry.

        Only the nonce stream state matters across a restart.  In-flight
        pendings and replay tags are transient by design — an interrupted
        session is simply retried under the two-phase commit.  The
        shared :class:`CommitLog` is deliberately *not* captured here:
        it is group-owned durable state with its own ``to_state``.
        """
        return {"seed": int(self.seed),
                "clock_tolerance": float(self.clock_tolerance),
                "nonce_counter": int(self._nonce_counter),
                "nonce_epoch": int(self._nonce_epoch),
                "replica_index": int(self.replica_index),
                "n_replicas": int(self.n_replicas)}

    @classmethod
    def from_state(cls, registry: FleetRegistry, state: dict,
                   commit_log: Optional[CommitLog] = None) -> "BatchVerifier":
        """Restart from a snapshot; the nonce epoch advances by one.

        The epoch bump makes every post-restart nonce fresh even when the
        snapshot is stale (counter behind the crashed verifier's), which
        closes the replay window a counter-only restore would leave open.
        The replica partition (index, group size) rides along, so the
        bumped epoch stays in the same residue class — a restored
        replica can still never collide with its peers.
        """
        return cls(registry, seed=int(state["seed"]),
                   clock_tolerance=float(state["clock_tolerance"]),
                   nonce_counter=int(state["nonce_counter"]),
                   nonce_epoch=int(state.get("nonce_epoch", 0)) + 1,
                   replica_index=int(state.get("replica_index", 0)),
                   n_replicas=int(state.get("n_replicas", 1)),
                   commit_log=commit_log)

    def authenticate_fleet(self, devices: Sequence[FleetDevice]) -> BatchAuthReport:
        """Run one full mutual-auth session for every device, in one call.

        Device turns come out of
        :func:`repro.fleet.rounds.respond_round_staged` one chunk at a
        time — the unattached devices, then one chunk per plane — and
        each chunk is verified as it arrives, with one report and one
        duplicate-device set shared across the round, so every device
        gets the verdict :meth:`verify_round` gives it on the flat
        :func:`repro.fleet.rounds.respond_round` output.  Each device
        then checks its confirmation and is finalized or aborted.
        """
        nonces = self.open_round([device.device_id for device in devices])
        report = BatchAuthReport()
        seen_this_round: set = set()
        for __, messages in respond_round_staged(devices, nonces):
            self._verify_round_into(report, messages, nonces,
                                    seen_this_round)
        if self._obs is not None:
            # Before the commit sweep: "accepted" means a confirmation
            # was issued, matching the wire path's verify_round; the
            # sweep's finalize/abort hooks then settle each one.
            self._obs.on_verify(self, report)
        # One backend transaction for the whole commit sweep: on a
        # journaling backend the round's rolls group-commit as a single
        # write instead of one per device.
        with self.registry.transaction():
            for device in devices:
                confirmation = report.confirmations.get(device.device_id)
                if confirmation is None:
                    continue
                try:
                    device.confirm(confirmation, nonces[device.device_id])
                except AuthenticationFailure as failure:
                    if self._obs is not None:
                        self._obs.on_result(failure.kind.value)
                    report.record_failure(
                        device.device_id,
                        AuthenticationFailure(f"confirmation: {failure}",
                                              failure.kind),
                    )
                    del report.confirmations[device.device_id]
                    self.abort(device.device_id)
                    continue
                self.finalize(device.device_id)
        return report

    def spot_check(self, devices: Sequence[FleetDevice], k: int = 8,
                   threshold: float = 0.25) -> SpotCheckReport:
        """Burn ``k`` enrollment CRPs per device; one batched pass each.

        Every device answers its ``k`` challenges through a single
        ``evaluate_batch`` call (compiled engine), and the accept decision
        is one vectorized fractional-Hamming-distance comparison across
        the whole fleet.
        """
        rng = derive_rng(self.seed, "fleet-spot", self.stream_epoch,
                         self._nonce_counter)
        self._nonce_counter += 1
        # Draw every device's burn indices first (one shared RNG stream,
        # in fleet order), then harvest: plane-attached devices answer
        # their k challenges as rows of one stacked pass per plane.
        # The draws run in one backend transaction so the burn journal
        # group-commits per sweep, not per device.
        challenge_rows: List[np.ndarray] = []
        expected_rows: List[np.ndarray] = []
        ids: List[str] = []
        with self.registry.transaction():
            for device in devices:
                record = self.registry.record(device.device_id)
                indices = self.registry.draw_spot_indices(
                    device.device_id, k, rng)
                challenge_rows.append(record.crp_challenges[indices])
                expected_rows.append(record.crp_responses[indices])
                ids.append(device.device_id)
        fresh_rows: List[Optional[np.ndarray]] = [None] * len(devices)
        groups: Dict[int, List[int]] = {}
        planes: Dict[int, object] = {}
        for position, device in enumerate(devices):
            if device.plane is None or device.plane_row is None:
                fresh_rows[position] = device.spot_responses(
                    challenge_rows[position]
                )
            else:
                groups.setdefault(id(device.plane), []).append(position)
                planes[id(device.plane)] = device.plane
        for key, positions in groups.items():
            plane = planes[key]
            rows = [devices[p].plane_row for p in positions]
            stacked = plane.evaluate(
                np.stack([challenge_rows[p] for p in positions]), dies=rows
            )
            for index, position in enumerate(positions):
                fresh_rows[position] = np.asarray(stacked[index],
                                                  dtype=np.uint8)
        fresh = np.stack(fresh_rows)        # (fleet, k, response_bits)
        expected = np.stack(expected_rows)
        distances = np.mean(fresh != expected, axis=(1, 2))
        return SpotCheckReport(
            device_ids=ids,
            fractional_hd=distances,
            accepted=distances <= threshold,
            threshold=threshold,
        )

    def open_spot_check(self, device_id: str,
                        k: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Draw and burn ``k`` spot CRPs for one *remote* device.

        The transport-facing half of :meth:`spot_check`: when the device
        hardware lives on the far side of a socket the verifier can only
        ship challenges and compare what comes back.  Returns
        ``(challenges, expected)``; the RNG draw matches a one-device
        :meth:`spot_check` bit for bit (same stream label, same counter
        advance), so in-process and remote spot checks burn identical
        pool indices.
        """
        rng = derive_rng(self.seed, "fleet-spot", self.stream_epoch,
                         self._nonce_counter)
        self._nonce_counter += 1
        record = self.registry.record(device_id)
        indices = self.registry.draw_spot_indices(device_id, k, rng)
        return record.crp_challenges[indices], record.crp_responses[indices]

    @staticmethod
    def close_spot_check(expected: np.ndarray, fresh: np.ndarray,
                         threshold: float = 0.25) -> Tuple[float, bool]:
        """Score a remote device's spot measurements: ``(hd, accepted)``."""
        fresh = np.asarray(fresh, dtype=np.uint8)
        if fresh.shape != expected.shape:
            raise AuthenticationFailure(
                f"spot measurement shape {fresh.shape} does not match "
                f"the drawn challenges {expected.shape}",
                FailureKind.MALFORMED,
            )
        distance = float(np.mean(fresh != expected))
        return distance, distance <= threshold


@dataclass
class CoalescedAuth:
    """The pending/settled outcome of one coalesced auth request."""

    device_id: str
    done: bool = False
    accepted: bool = False
    failure: Optional[str] = None
    failure_kind: Optional[str] = None

    def settle(self, report: BatchAuthReport) -> None:
        self.done = True
        self.accepted = self.device_id in report.confirmations
        if not self.accepted:
            self.failure = report.failures.get(
                self.device_id, "not part of the round"
            )
            self.failure_kind = report.failure_kinds.get(self.device_id)

    def reject(self, failure: str, kind: Optional[str]) -> None:
        """Settle as failed without a round report."""
        self.done = True
        self.accepted = False
        self.failure = failure
        self.failure_kind = kind


class RoundCoalescer:
    """The micro-round trigger policy: when queued auth requests flush.

    Production traffic is not a neat fleet-wide round: devices check in
    one at a time.  Authenticating each arrival alone would waste the
    stacked plane (a batch-1 tensor pass per device); the coalescer
    holds arrivals in a pending micro-round and flushes them as one
    batch when

    * a device already pending arrives again (one device cannot appear
      twice in one round — the duplicate flushes the pending round
      first, then queues), or
    * ``max_batch`` requests are pending (a full micro-round), or
    * :meth:`poll` finds that the oldest pending request has waited
      ``latency_budget_s`` (the per-request latency cap trades batch
      efficiency against response time).

    It does no I/O; its owner supplies the callables.  ``admit`` raises
    for an unknown device id, so one stray request is refused at the
    door instead of poisoning a micro-round.  ``run_round`` gets each
    flushed batch as ``(device, ticket)`` pairs in arrival order (its
    result is what :meth:`flush` and :meth:`poll` return) and calls
    :meth:`opened` for the round it opens after screening the batch —
    in process for :class:`repro.service.AuthService`, scattered over
    connections for :class:`repro.service.net.AuthServer`.

    ``clock`` is injectable (tests drive a fake clock); callers in an
    event loop call :meth:`poll` on their tick to enforce the budget.
    """

    def __init__(self, admit: Callable[[str], object],
                 run_round: Callable[[List[tuple]], object],
                 latency_budget_s: float = 0.005, max_batch: int = 256,
                 clock=time.monotonic):
        if latency_budget_s < 0.0:
            raise ValueError("latency_budget_s must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._admit = admit
        self._run_round = run_round
        self.latency_budget_s = float(latency_budget_s)
        self.max_batch = int(max_batch)
        self._clock = clock
        # device_id -> (device, ticket), in arrival order.
        self._pending: Dict[str, Tuple[object, CoalescedAuth]] = {}
        self._deadline: Optional[float] = None
        self.micro_rounds = 0
        self.submitted = 0
        self.flushed_by_size = 0
        self.flushed_by_deadline = 0
        self.flushed_by_duplicate = 0
        # Observability hook (repro.obs.ServiceObs), None when unwired.
        self._obs = None

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending(self, device_id: str) -> Optional[tuple]:
        """The queued ``(device, ticket)`` pair of ``device_id``, if any."""
        return self._pending.get(device_id)

    @property
    def deadline(self) -> Optional[float]:
        """The injected clock's flush deadline, or ``None`` when idle."""
        return self._deadline

    def time_to_deadline(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds (on the injected clock) until the budget flush is due.

        ``0.0`` means due *now* — :meth:`poll` flushes at exactly the
        boundary (``clock() >= deadline``), so an event-loop timer that
        sleeps this long and then polls honors the latency budget on the
        same monotonic clock the coalescer itself reads.  ``None`` while
        nothing is pending.
        """
        if self._deadline is None:
            return None
        if now is None:
            now = self._clock()
        return max(0.0, self._deadline - now)

    def submit(self, device) -> CoalescedAuth:
        """Queue one device's auth request; may trigger a flush."""
        device_id = device.device_id
        self._admit(device_id)
        if device_id in self._pending:
            self.flushed_by_duplicate += 1
            self.flush()
        ticket = CoalescedAuth(device_id)
        self._pending[device_id] = (device, ticket)
        self.submitted += 1
        if self._obs is not None:
            self._obs.on_coalescer_submit(len(self._pending))
        if self._deadline is None:
            self._deadline = self._clock() + self.latency_budget_s
        if len(self._pending) >= self.max_batch:
            self.flushed_by_size += 1
            self.flush()
        return ticket

    def poll(self):
        """Flush if the oldest pending request exhausted its budget."""
        if self._pending and self._clock() >= self._deadline:
            self.flushed_by_deadline += 1
            return self.flush()
        return None

    def flush(self):
        """Hand the pending micro-round to ``run_round`` now."""
        if not self._pending:
            return None
        batch = list(self._pending.values())
        self._pending = {}
        self._deadline = None
        return self._run_round(batch)

    def opened(self, size: int) -> None:
        """Count one micro-round of ``size`` screened devices."""
        self.micro_rounds += 1
        if self._obs is not None:
            self._obs.on_coalescer_flush(size)
