"""Encrypted Key Exchange (EKE) over Diffie-Hellman.

Paper Sec. IV: treat a CRP as a low-entropy shared secret and run the
"well-established and secure EKE protocol to achieve both mutual
authentication and key exchange", giving perfect forward secrecy for the
data-encryption session keys — at a higher computational cost than the
plain HSC-IoT exchange (which the CLM-AKA bench quantifies).

Construction (Bellovin-Merritt, DH variant): each side encrypts its
ephemeral DH public value under a password-derived key; only a holder of
the password can complete the exchange, and the ephemeral exponents give
forward secrecy.  Key confirmation uses HMAC over the transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.kdf import hkdf
from repro.crypto.mac import hmac_sha256
from repro.crypto.modes import AuthenticatedCipher
from repro.utils.rng import derive_rng

# RFC 3526 group 5: 1536-bit MODP (generous for a behavioral model).
MODP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2


class EkeError(Exception):
    """Handshake failure (wrong password, tampering, replay)."""


@dataclass
class HandshakeCost:
    """Cost accounting for protocol comparison benches."""

    modexp_count: int = 0
    bytes_sent: int = 0
    messages: int = 0


def _password_cipher(password: bytes, salt: bytes) -> AuthenticatedCipher:
    return AuthenticatedCipher(hkdf(password, 32, salt=salt, info=b"eke-pw"))


def _encode_public(value: int) -> bytes:
    return value.to_bytes((MODP_PRIME.bit_length() + 7) // 8, "big")


class EkeInitiator:
    """The Verifier side of the EKE handshake."""

    def __init__(self, password: bytes, seed: int = 0, session_id: int = 0):
        self.password = password
        self.cost = HandshakeCost()
        rng = derive_rng(seed, "eke-init", session_id)
        self._exponent = int(rng.integers(2, 2**62)) << 64 \
            | int(rng.integers(0, 2**62))
        self._session_key: Optional[bytes] = None
        self._transcript = b""

    def message_1(self) -> bytes:
        """E_pw(g^a)."""
        public = pow(GENERATOR, self._exponent, MODP_PRIME)
        self.cost.modexp_count += 1
        sealed = _password_cipher(self.password, b"msg1").encrypt(
            _encode_public(public), nonce=b"eke-1\x00"
        )
        self._transcript += sealed
        self.cost.bytes_sent += len(sealed)
        self.cost.messages += 1
        return sealed

    def process_message_2(self, sealed: bytes) -> bytes:
        """Open E_pw(g^b) + confirmation; reply with own confirmation."""
        from repro.crypto.modes import AuthenticationError
        from repro.utils.serialization import decode_fields

        try:
            body, confirmation = decode_fields(sealed)
            peer_public = int.from_bytes(
                _password_cipher(self.password, b"msg2").decrypt(body), "big"
            )
        except (AuthenticationError, ValueError) as exc:
            raise EkeError(f"message 2 rejected: {exc}") from exc
        if not 2 <= peer_public <= MODP_PRIME - 2:
            raise EkeError("peer public value out of range")
        shared = pow(peer_public, self._exponent, MODP_PRIME)
        self.cost.modexp_count += 1
        self._transcript += body
        master = hkdf(_encode_public(shared), 32,
                      salt=hmac_sha256(b"transcript", self._transcript),
                      info=b"eke-master")
        expected = hmac_sha256(master, b"responder-confirm")
        if confirmation != expected:
            raise EkeError("responder confirmation failed")
        self._session_key = hkdf(master, 32, info=b"eke-session")
        reply = hmac_sha256(master, b"initiator-confirm")
        self.cost.bytes_sent += len(reply)
        self.cost.messages += 1
        return reply

    @property
    def session_key(self) -> bytes:
        if self._session_key is None:
            raise EkeError("handshake not complete")
        return self._session_key


class EkeResponder:
    """The Device side of the EKE handshake."""

    def __init__(self, password: bytes, seed: int = 0, session_id: int = 0):
        self.password = password
        self.cost = HandshakeCost()
        rng = derive_rng(seed, "eke-resp", session_id)
        self._exponent = int(rng.integers(2, 2**62)) << 64 \
            | int(rng.integers(0, 2**62))
        self._session_key: Optional[bytes] = None
        self._master: Optional[bytes] = None

    def process_message_1(self, sealed: bytes) -> bytes:
        """Open E_pw(g^a); reply E_pw(g^b) + confirmation."""
        from repro.crypto.modes import AuthenticationError
        from repro.utils.serialization import encode_fields

        try:
            peer_public = int.from_bytes(
                _password_cipher(self.password, b"msg1").decrypt(sealed), "big"
            )
        except AuthenticationError as exc:
            raise EkeError(f"message 1 rejected: {exc}") from exc
        if not 2 <= peer_public <= MODP_PRIME - 2:
            raise EkeError("peer public value out of range")
        public = pow(GENERATOR, self._exponent, MODP_PRIME)
        shared = pow(peer_public, self._exponent, MODP_PRIME)
        self.cost.modexp_count += 2
        body = _password_cipher(self.password, b"msg2").encrypt(
            _encode_public(public), nonce=b"eke-2\x00"
        )
        transcript = sealed + body
        master = hkdf(_encode_public(shared), 32,
                      salt=hmac_sha256(b"transcript", transcript),
                      info=b"eke-master")
        self._master = master
        confirmation = hmac_sha256(master, b"responder-confirm")
        reply = encode_fields([body, confirmation])
        self.cost.bytes_sent += len(reply)
        self.cost.messages += 1
        return reply

    def process_message_3(self, confirmation: bytes) -> None:
        """Verify the initiator's confirmation; session established."""
        if self._master is None:
            raise EkeError("message 1 not processed yet")
        expected = hmac_sha256(self._master, b"initiator-confirm")
        if confirmation != expected:
            raise EkeError("initiator confirmation failed")
        self._session_key = hkdf(self._master, 32, info=b"eke-session")

    @property
    def session_key(self) -> bytes:
        if self._session_key is None:
            raise EkeError("handshake not complete")
        return self._session_key


def run_handshake(password_initiator: bytes, password_responder: bytes,
                  seed: int = 0, session_id: int = 0) -> tuple:
    """Convenience: run the full 3-message exchange in process.

    Returns (initiator, responder); raises :class:`EkeError` when the
    passwords disagree or a message is tampered with.
    """
    initiator = EkeInitiator(password_initiator, seed, session_id)
    responder = EkeResponder(password_responder, seed, session_id)
    msg1 = initiator.message_1()
    msg2 = responder.process_message_1(msg1)
    msg3 = initiator.process_message_2(msg2)
    responder.process_message_3(msg3)
    return initiator, responder
