"""HMAC-DRBG (NIST SP 800-90A) deterministic random bit generator.

The ``RNG`` function of the protocols: mutual authentication derives the
next challenge as ``c_{i+1} = RNG(r_i)`` (Fig. 4), and attestation derives
the memory walk as ``m_1..m_n = RNG(r_1 + t)`` (Sec. III-B).  Both sides
must reproduce the stream exactly, hence a standardised DRBG.

The standard's Update (10.1.2.2) is written once, straight-line, as
:func:`_update`; instantiate, reseed and a generate's closing update all
run it.  A challenge derivation draws once from a fresh generator, so
:func:`generate_once` computes it as one instantiate (10.1.2.3), which
starts from the HMAC states of the all-zero initial key with
``V || 0x00`` already absorbed, plus the output blocks of one generate
(10.1.2.5), and never computes the closing update nothing reads.
:class:`HmacDrbg` is the generator kept between calls.

Each internal key K is used for a few HMACs and then replaced, so the
generator keeps K's padded SHA-256 states itself
(:func:`repro.crypto.mac.hmac_key_states`, computed once per key)
instead of going through the MAC module's per-key LRU: a round's worth
of ``c_{i+1}`` derivations would otherwise push hundreds of dead DRBG
keys through that cache and evict the live session keys.
"""

from __future__ import annotations

from repro.crypto.mac import hmac_key_states

# Every instantiation starts from K = 0x00..00 and V = 0x01..01
# (SP 800-90A, 10.1.2.3), and its Update's first HMAC opens with
# V || 0x00: that prefix is absorbed once, here.
_INITIAL_VALUE = b"\x01" * 32
_INITIAL_STATES = hmac_key_states(b"\x00" * 32)
_INITIAL_ABSORBED = _INITIAL_STATES[0].copy()
_INITIAL_ABSORBED.update(_INITIAL_VALUE + b"\x00")


def _update(states: tuple, value: bytes, provided: bytes = b"",
            absorbed=None) -> tuple:
    """SP 800-90A Update (10.1.2.2): the HMAC states of the new K and
    the new V, from K's states, V and the provided data.

    ``absorbed`` is K's inner state with ``V || 0x00`` already absorbed,
    for a caller that holds one (it is consumed).  With no provided data
    the Update runs only its first half, as the standard says.
    """
    if absorbed is None:
        absorbed = states[0].copy()
        absorbed.update(value + b"\x00")
    absorbed.update(provided)
    outer = states[1].copy()
    outer.update(absorbed.digest())
    key_inner, key_outer = hmac_key_states(outer.digest())
    inner = key_inner.copy()
    inner.update(value)
    outer = key_outer.copy()
    outer.update(inner.digest())
    value = outer.digest()
    if provided:
        inner = key_inner.copy()
        inner.update(value + b"\x01" + provided)
        outer = key_outer.copy()
        outer.update(inner.digest())
        key_inner, key_outer = hmac_key_states(outer.digest())
        inner = key_inner.copy()
        inner.update(value)
        outer = key_outer.copy()
        outer.update(inner.digest())
        value = outer.digest()
    return (key_inner, key_outer), value


def _instantiate(provided: bytes) -> tuple:
    """Instantiate from seed material (SP 800-90A 10.1.2.3): the Update
    of the initial K and V; returns the new K's HMAC states and V."""
    return _update(_INITIAL_STATES, _INITIAL_VALUE, provided,
                   _INITIAL_ABSORBED.copy())


def _output_blocks(states: tuple, value: bytes, n_bytes: int) -> tuple:
    """A generate's output (SP 800-90A 10.1.2.5 steps 4-5): ``n_bytes``
    from key states and V; returns the bytes and the last V."""
    key_inner, key_outer = states
    output = b""
    while len(output) < n_bytes:
        inner = key_inner.copy()
        inner.update(value)
        outer = key_outer.copy()
        outer.update(inner.digest())
        value = outer.digest()
        output += value
    return output[:n_bytes], value


def generate_once(seed: bytes, n_bytes: int,
                  personalization: bytes = b"") -> bytes:
    """The first ``n_bytes`` of a fresh generator's stream.

    Byte-identical to ``HmacDrbg(seed, personalization).generate(n_bytes)``:
    one instantiate and the output blocks of one generate, without the
    closing update, which only a second call would read.
    """
    if n_bytes < 0:
        raise ValueError("n_bytes must be non-negative")
    states, value = _instantiate(seed + personalization)
    return _output_blocks(states, value, n_bytes)[0]


class HmacDrbg:
    """HMAC-SHA256 DRBG, instantiated from a seed byte string.

    The state update that closes each :meth:`generate` (SP 800-90A,
    10.1.2.5 step 6) runs at the start of the next :meth:`generate` or
    :meth:`reseed`, the only calls that read its result.  The output
    stream is the standard's, byte for byte; a generator kept between
    calls holds its last output block until that next call.  A single
    draw from a fresh generator is :func:`generate_once`.
    """

    def __init__(self, seed: bytes, personalization: bytes = b""):
        # The HMAC states of key K, and V.
        self._states, self._value = _instantiate(seed + personalization)
        self._owed = False  # the last generate's closing update

    def generate(self, n_bytes: int) -> bytes:
        """Next ``n_bytes`` of the stream."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        self._settle()
        output, self._value = _output_blocks(self._states, self._value,
                                             n_bytes)
        self._owed = True
        return output

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the state."""
        self._settle()
        self._states, self._value = _update(self._states, self._value,
                                            entropy)

    def _settle(self) -> None:
        """Run the closing update a previous :meth:`generate` owes."""
        if self._owed:
            self._owed = False
            self._states, self._value = _update(self._states, self._value)

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
