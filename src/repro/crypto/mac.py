"""HMAC-SHA256 message authentication, built from the raw hash primitive.

The ``MAC(data, key)`` function of the mutual-authentication protocol
(paper Fig. 4).  Implemented from the HMAC construction directly (rather
than ``hmac`` stdlib) because the whole point of this repository is to
expose every moving part.

The construction is the textbook one, but the key-pad handling is tuned
for fleet-scale workloads (hundreds of thousands of MACs per campaign):

* the ``key XOR ipad`` / ``key XOR opad`` block pads are one
  :meth:`bytes.translate` each, through a 256-byte table that maps every
  byte to itself XOR the pad byte, so no Python code runs per byte;
* the SHA-256 digest states of both padded keys are cached per key and
  ``copy()``-ed per MAC, so repeated MACs under one session key (every
  rolling-CRP session computes several) never re-absorb the key block.

Tag checks use the stdlib's constant-time :func:`hmac.compare_digest`:
only the comparison comes from ``hmac``, never the construction.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from hmac import compare_digest

_BLOCK_SIZE = 64  # SHA-256 block size in bytes
# byte -> byte XOR 0x36 (ipad) / XOR 0x5C (opad), for bytes.translate.
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))

# key -> (inner digest state, outer digest state), LRU-bounded so a
# long-running verifier rolling through millions of session keys keeps a
# flat memory profile.  Sized for several live keys per device at
# fleet-round scale (256+ devices per round).
_STATE_CACHE_MAX = 4096
_state_cache: "OrderedDict[bytes, tuple]" = OrderedDict()


def hmac_key_states(key: bytes) -> tuple:
    """SHA-256 states preloaded with ``key XOR ipad`` / ``key XOR opad``.

    Uncached: for keys used a few times and never again, such as the
    HMAC-DRBG's chained internal keys, which would only evict live
    session keys from :func:`_digest_states`' LRU.
    """
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_BLOCK_SIZE, b"\x00")
    return (hashlib.sha256(block.translate(_IPAD)),
            hashlib.sha256(block.translate(_OPAD)))


def hmac_with_states(states: tuple, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` under the key that ``states`` hold."""
    inner, outer = states
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def _digest_states(key: bytes) -> tuple:
    """:func:`hmac_key_states`, LRU-cached per key."""
    cached = _state_cache.get(key)
    if cached is not None:
        _state_cache.move_to_end(key)
        return cached
    states = _state_cache[key] = hmac_key_states(key)
    if len(_state_cache) > _STATE_CACHE_MAX:
        _state_cache.popitem(last=False)
    return states


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104."""
    return hmac_with_states(_digest_states(bytes(key)), message)


def mac(data: bytes, key: bytes) -> bytes:
    """The paper's MAC(data, key) — argument order follows Fig. 4."""
    return hmac_sha256(key, data)


def verify_mac(data: bytes, key: bytes, tag: bytes) -> bool:
    """Constant-time tag comparison (:func:`hmac.compare_digest`)."""
    return compare_digest(mac(data, key), tag)


def mac_batch(messages, keys) -> list:
    """MAC a whole round of ``(data, key)`` pairs in one call.

    The fleet verifier's framing stage computes/checks one MAC per
    device per round; this batch entry point walks the round in one
    tight loop over the cached per-key digest states (see
    :func:`_digest_states`), one call per plane.  Element ``i`` is
    ``mac(messages[i], keys[i])``.
    """
    if len(messages) != len(keys):
        raise ValueError(
            f"got {len(messages)} messages for {len(keys)} keys"
        )
    return [hmac_with_states(_digest_states(bytes(key)), data)
            for data, key in zip(messages, keys)]


def verify_mac_batch(messages, keys, tags) -> list:
    """Constant-time verification of a whole round of MACs.

    Returns one bool per ``(data, key, tag)`` triple; each comparison is
    the same constant-time :func:`hmac.compare_digest` that
    :func:`verify_mac` makes.
    """
    if not len(messages) == len(keys) == len(tags):
        raise ValueError(
            f"got {len(messages)} messages, {len(keys)} keys, "
            f"{len(tags)} tags"
        )
    return list(map(compare_digest, mac_batch(messages, keys), tags))


def sha256(data: bytes) -> bytes:
    """Plain SHA-256 (the HASH function of the attestation protocol)."""
    return hashlib.sha256(data).digest()
