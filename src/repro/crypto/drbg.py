"""HMAC-DRBG (NIST SP 800-90A) deterministic random bit generator.

The ``RNG`` function of the protocols: mutual authentication derives the
next challenge as ``c_{i+1} = RNG(r_i)`` (Fig. 4), and attestation derives
the memory walk as ``m_1..m_n = RNG(r_1 + t)`` (Sec. III-B).  Both sides
must reproduce the stream exactly, hence a standardised DRBG.

Each internal key K is used for a few HMACs and then replaced, so the
generator keeps K's padded SHA-256 states itself
(:func:`repro.crypto.mac.hmac_key_states`, computed once per key)
instead of going through the MAC module's per-key LRU: a round's worth
of ``c_{i+1}`` derivations would otherwise push hundreds of dead DRBG
keys through that cache and evict the live session keys.
"""

from __future__ import annotations

from repro.crypto.mac import hmac_key_states, hmac_with_states

# Every instantiation starts from K = 0x00..00 (SP 800-90A, 10.1.2.3).
_INITIAL_STATES = hmac_key_states(b"\x00" * 32)


class HmacDrbg:
    """HMAC-SHA256 DRBG, instantiated from a seed byte string.

    The state update that closes each :meth:`generate` (SP 800-90A,
    10.1.2.5 step 6) runs at the start of the next :meth:`generate` or
    :meth:`reseed`, the only calls that read its result, so a generator
    used once (``c_{i+1} = RNG(r_i)``) never computes it.  The output
    stream is the standard's, byte for byte; a generator kept between
    calls holds its last output block until that next call.
    """

    def __init__(self, seed: bytes, personalization: bytes = b""):
        self._states = _INITIAL_STATES  # the HMAC states of key K
        self._value = b"\x01" * 32
        self._owed = False  # the last generate's closing update
        self._update(seed + personalization)

    def _update(self, provided: bytes = b"") -> None:
        self._states = hmac_key_states(hmac_with_states(
            self._states, self._value + b"\x00" + provided))
        self._value = hmac_with_states(self._states, self._value)
        if provided:
            self._states = hmac_key_states(hmac_with_states(
                self._states, self._value + b"\x01" + provided))
            self._value = hmac_with_states(self._states, self._value)

    def generate(self, n_bytes: int) -> bytes:
        """Next ``n_bytes`` of the stream."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        self._settle()
        output = b""
        while len(output) < n_bytes:
            self._value = hmac_with_states(self._states, self._value)
            output += self._value
        self._owed = True
        return output[:n_bytes]

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the state."""
        self._settle()
        self._update(entropy)

    def _settle(self) -> None:
        """Run the closing update a previous :meth:`generate` owes."""
        if self._owed:
            self._owed = False
            self._update()

    def randint_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        n_bytes = (bound.bit_length() + 7) // 8
        limit = (1 << (8 * n_bytes)) // bound * bound
        while True:
            candidate = int.from_bytes(self.generate(n_bytes), "big")
            if candidate < limit:
                return candidate % bound
