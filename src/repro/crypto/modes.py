"""Block-cipher modes: CTR keystream encryption and encrypt-then-MAC AEAD.

The NN-configuration and data-encryption service (paper Sec. III-C,
Table I) uses :class:`AuthenticatedCipher`: confidentiality from CTR mode
over a lightweight cipher, integrity from HMAC-SHA256 over the ciphertext.
"""

from __future__ import annotations

from repro.crypto.mac import hmac_sha256
from repro.utils.serialization import decode_fields, encode_fields


class AuthenticationError(Exception):
    """Ciphertext failed integrity verification."""


def ctr_keystream(cipher, nonce: bytes, length: int) -> bytes:
    """CTR-mode keystream of the requested length."""
    block_size = cipher.block_size
    if len(nonce) > block_size - 2:
        raise ValueError("nonce too long for the counter block")
    stream = b""
    counter = 0
    while len(stream) < length:
        block = nonce + counter.to_bytes(block_size - len(nonce), "big")
        stream += cipher.encrypt_block(block)
        counter += 1
        if counter >= 1 << (8 * (block_size - len(nonce))):
            raise OverflowError("CTR counter exhausted")
    return stream[:length]


def ctr_encrypt(cipher, nonce: bytes, plaintext: bytes) -> bytes:
    """XOR the plaintext with the CTR keystream (same op decrypts)."""
    stream = ctr_keystream(cipher, nonce, len(plaintext))
    return bytes(p ^ s for p, s in zip(plaintext, stream))


ctr_decrypt = ctr_encrypt


class AuthenticatedCipher:
    """Encrypt-then-MAC over a CTR-mode block cipher.

    ``cipher_factory(key16)`` builds the block cipher; the 32-byte master
    key is split into an encryption half and a MAC half.
    """

    def __init__(self, master_key: bytes, cipher_factory=None):
        if len(master_key) < 32:
            raise ValueError("master key must be at least 32 bytes")
        from repro.crypto.speck import Speck64_128

        factory = cipher_factory or Speck64_128
        self._cipher = factory(master_key[:16])
        self._mac_key = master_key[16:32]

    def encrypt(self, plaintext: bytes, nonce: bytes, associated: bytes = b"") -> bytes:
        """Sealed message: fields(nonce, ciphertext, tag)."""
        ciphertext = ctr_encrypt(self._cipher, nonce, plaintext)
        tag = hmac_sha256(self._mac_key,
                          encode_fields([nonce, ciphertext, associated]))
        return encode_fields([nonce, ciphertext, tag])

    def decrypt(self, sealed: bytes, associated: bytes = b"") -> bytes:
        """Verify and open a sealed message."""
        try:
            nonce, ciphertext, tag = decode_fields(sealed)
        except ValueError as exc:
            raise AuthenticationError(f"malformed sealed message: {exc}") from exc
        expected = hmac_sha256(self._mac_key,
                               encode_fields([nonce, ciphertext, associated]))
        if not _constant_time_equal(expected, tag):
            raise AuthenticationError("MAC verification failed")
        return ctr_decrypt(self._cipher, nonce, ciphertext)


def _constant_time_equal(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0
