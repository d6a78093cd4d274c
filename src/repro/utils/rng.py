"""Deterministic, independent random-number streams.

Simulating a population of PUF devices requires many *independent* but
*reproducible* randomness sources: one for each die's process variation,
one for each noisy evaluation, one for each protocol nonce.  Deriving all
of them from a single root seed through a hash keeps experiments exactly
repeatable while guaranteeing streams do not collide.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from typing import List

import numpy as np


#: Domain prefix of :func:`derive_bytes` paths (none for seed paths).
_BYTES_DOMAIN = b"bytes:"


def _label(item: object) -> bytes:
    """One context item's encoding on a derivation path, as
    :func:`_context_hasher` hashes it."""
    return b"\x00" + repr(item).encode()


def _context_hasher(root_seed: int, *context: object, domain: bytes = b""):
    """The canonical hash state of a ``(root_seed, context)`` path.

    Single source of truth for the derivation-tree encoding: the scalar
    :func:`derive_seed` and :func:`derive_bytes` (under its ``bytes:``
    domain) and the batched :func:`gather_standard_normals` and
    :func:`derive_bytes_batch` passes (which ``copy()``-branch this
    state per suffix) hash identically by construction.
    """
    hasher = hashlib.sha256(domain)
    hasher.update(str(int(root_seed)).encode())
    for item in context:
        hasher.update(b"\x00")
        hasher.update(repr(item).encode())
    return hasher


def derive_seed(root_seed: int, *context: object) -> int:
    """Derive a 64-bit child seed from a root seed and a context path.

    The context is an arbitrary tuple of hashable-as-string labels, e.g.
    ``derive_seed(42, "device", 3, "noise")``.  Distinct contexts give
    independent seeds; identical contexts always give the same seed.
    """
    return int.from_bytes(
        _context_hasher(root_seed, *context).digest()[:8], "big"
    )


def derive_rng(root_seed: int, *context: object) -> np.random.Generator:
    """A ``numpy`` Generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(root_seed, *context))


# -- batched stream derivation ------------------------------------------
#
# Fleet-stacked compilation draws one normal per (die, component): 276
# streams per die at 64/12/32, 282,624 for a 1,024-die fleet.  A
# ``default_rng`` per draw spends almost all of its time building a
# SeedSequence and a generator.  The helpers below reproduce
# ``default_rng(seed).standard_normal()`` bit for bit as array maths,
# over fixed chunks of ``_NORMALS_CHUNK_LANES`` lanes:
#
# * the SeedSequence entropy-mixing loops run as vectorised uint32 ops;
# * PCG64's setseq_128 seeding, its first step and its XSL-RR output run
#   as uint64-limb arithmetic (the 128-bit multiply in 32-bit halves),
#   giving each lane's first raw word;
# * numpy's ziggurat turns a raw word into a normal with one table
#   lookup and one compare for 98.5% of words (the fast path).
#   numpy does not export its tables, so :func:`_ziggurat_tables`
#   recovers them once per process by probing numpy with PCG64 states
#   built to emit chosen raw words.  Lanes off the fast path (the tail,
#   every index-1 word, the wedges) get numpy's own draw: their PCG64
#   state is injected into one reused generator, one lane at a time.
#
# :func:`_batched_normals_self_check` compares both routes with numpy at
# first use.  If a numpy release changed either algorithm (both are
# frozen by numpy's stream-compatibility policy), every helper falls back
# to a per-seed ``default_rng``: still exact, but fleet provisioning
# gets about four times slower (7.9 s against 1.9 s for 1,024 dies at
# 64/12/32 on a 2-vCPU Xeon).

#: Lanes per vectorised pass: bounds the transient limb arrays (~5 MiB).
_NORMALS_CHUNK_LANES = 16384

_SS_INIT_A = 0x43b0d7e5
_SS_MULT_A = 0x931e8875
_SS_INIT_B = 0x8b51f9dd
_SS_MULT_B = 0x58f38ded
_SS_MIX_L = 0xca01f9dd
_SS_MIX_R = 0x4973f715
_SS_XSHIFT = 16
_U32 = 0xffffffff
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645
_PCG_MULT_HI = _PCG_MULT >> 64
_PCG_MULT_LO = _PCG_MULT & 0xffffffffffffffff
_MASK128 = (1 << 128) - 1
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def _ss_hash(value: "np.ndarray", hash_const: int) -> tuple:
    """One SeedSequence hashmix step over a vector of lanes."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _SS_MULT_A) & _U32
    value = value * np.uint32(hash_const)
    value = value ^ (value >> np.uint32(_SS_XSHIFT))
    return value, hash_const


def _ss_mix(x: "np.ndarray", y: "np.ndarray") -> "np.ndarray":
    result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
    return result ^ (result >> np.uint32(_SS_XSHIFT))


def _seed_sequence_words(entropy_words) -> "np.ndarray":
    """Vectorized ``SeedSequence(seed).generate_state(4, uint64)``.

    ``entropy_words`` is a list of uint32 arrays (the lanes' assembled
    entropy, identical word count per lane — callers partition by word
    count).  Returns ``(lanes, 4)`` uint64.
    """
    lanes = entropy_words[0].shape[0]
    pool = []
    hash_const = _SS_INIT_A
    for i in range(4):
        source = (entropy_words[i] if i < len(entropy_words)
                  else np.zeros(lanes, dtype=np.uint32))
        hashed, hash_const = _ss_hash(source, hash_const)
        pool.append(hashed)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                hashed, hash_const = _ss_hash(pool[i_src], hash_const)
                pool[i_dst] = _ss_mix(pool[i_dst], hashed)
    for i_src in range(4, len(entropy_words)):
        for i_dst in range(4):
            hashed, hash_const = _ss_hash(entropy_words[i_src], hash_const)
            pool[i_dst] = _ss_mix(pool[i_dst], hashed)
    hash_const = _SS_INIT_B
    out = np.empty((lanes, 8), dtype=np.uint32)
    for i_dst in range(8):
        data = pool[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _U32
        data = data * np.uint32(hash_const)
        data = data ^ (data >> np.uint32(_SS_XSHIFT))
        out[:, i_dst] = data
    words = out.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _mulhi64(a: "np.ndarray", b: int) -> "np.ndarray":
    """High 64 bits of each 128-bit product ``a * b``, in 32-bit halves."""
    mask, shift = np.uint64(_U32), np.uint64(32)
    a_lo, a_hi = a & mask, a >> shift
    b_lo, b_hi = np.uint64(b & _U32), np.uint64(b >> 32)
    lo_lo, lo_hi, hi_lo = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (lo_lo >> shift) + (lo_hi & mask) + (hi_lo & mask)
    return a_hi * b_hi + (lo_hi >> shift) + (hi_lo >> shift) + (mid >> shift)


def _pcg64_step(state_hi, state_lo, inc_hi, inc_lo) -> tuple:
    """One PCG64 step, ``state * MULT + inc mod 2**128``, over uint64 limbs."""
    high = (_mulhi64(state_lo, _PCG_MULT_LO)
            + state_hi * np.uint64(_PCG_MULT_LO)
            + state_lo * np.uint64(_PCG_MULT_HI))
    low = state_lo * np.uint64(_PCG_MULT_LO)
    new_lo = low + inc_lo
    return high + inc_hi + (new_lo < low), new_lo


def _seeded_pcg64(seeds: "np.ndarray") -> tuple:
    """The PCG64 state each uint64 seed starts ``default_rng`` from.

    Returns the limbs ``(state_hi, state_lo, inc_hi, inc_lo)``, uint64
    arrays: the seed's ``SeedSequence`` words feed PCG64's setseq_128
    seeding, ``inc = initseq << 1 | 1`` and
    ``state = (inc + initstate) * MULT + inc``.
    """
    lanes_lo = (seeds & np.uint64(_U32)).astype(np.uint32)
    lanes_hi = (seeds >> np.uint64(32)).astype(np.uint32)
    words = np.empty((seeds.size, 4), dtype=np.uint64)
    # SeedSequence assembles one uint32 word for seeds < 2**32 and two
    # words otherwise; partition lanes accordingly.
    wide = lanes_hi != 0
    if np.any(wide):
        words[wide] = _seed_sequence_words([lanes_lo[wide], lanes_hi[wide]])
    narrow = ~wide
    if np.any(narrow):
        words[narrow] = _seed_sequence_words([lanes_lo[narrow]])
    one = np.uint64(1)
    inc_hi = (words[:, 2] << one) | (words[:, 3] >> np.uint64(63))
    inc_lo = (words[:, 3] << one) | one
    state_lo = inc_lo + words[:, 1]
    state_hi = inc_hi + words[:, 0] + (state_lo < inc_lo)
    return (*_pcg64_step(state_hi, state_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _xsl_rr(state_hi, state_lo) -> "np.ndarray":
    """PCG64's output function: ``rotr64(hi ^ lo, hi >> 58)``."""
    word = state_hi ^ state_lo
    rot = state_hi >> np.uint64(58)
    return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))


def _pcg64_state(state: int, inc: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _state_dicts(state_hi, state_lo, inc_hi, inc_lo) -> list:
    return [
        _pcg64_state((s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
        for s_hi, s_lo, i_hi, i_lo in zip(
            state_hi.tolist(), state_lo.tolist(),
            inc_hi.tolist(), inc_lo.tolist())
    ]


def _pcg64_states(seeds) -> list:
    """The PCG64 ``.state`` dict each seed would be initialised with."""
    return _state_dicts(*_seeded_pcg64(
        np.array([int(seed) for seed in seeds], dtype=np.uint64)))


def _injected_normals(state_hi, state_lo, inc_hi, inc_lo) -> "np.ndarray":
    """numpy's own next normal from each PCG64 state, one lane at a time."""
    generator = np.random.Generator(np.random.PCG64(0))
    out = np.empty(len(state_hi))
    for lane, state in enumerate(
            _state_dicts(state_hi, state_lo, inc_hi, inc_lo)):
        generator.bit_generator.state = state
        out[lane] = generator.standard_normal()
    return out


@functools.cache
def _ziggurat_tables() -> tuple:
    """numpy's standard-normal ziggurat tables ``(wi, ki)``, by probing.

    numpy splits a raw word into ``idx = r & 0xff``, a sign bit and a
    52-bit ``rabs``, and returns ``±rabs * wi[idx]`` having consumed
    exactly one word iff ``rabs < ki[idx]``.  So ``wi[idx]`` is the draw
    of the word with ``rabs == 1``, and ``ki[idx]`` is found by bisecting
    on whether the draw consumed one word.  A PCG64 state
    ``(raw - 1) * MULT**-1`` with ``inc == 1`` steps to ``state == raw``,
    whose XSL-RR output is ``raw`` itself (high half zero: no rotation).
    An index whose ``rabs == 1`` is already off the fast path (numpy's
    ``ki[1]`` is 0) keeps ``ki == 0``: all its lanes take numpy's draw.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bits = generator.bit_generator

    def draw(raw: int) -> tuple:
        bits.state = _pcg64_state(((raw - 1) * _PCG_MULT_INV) & _MASK128, 1)
        value = generator.standard_normal()
        return value, bits.state["state"]["state"] == raw

    wi = np.zeros(256)
    ki = np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        value, one_word = draw((1 << 9) | idx)
        if not one_word:
            continue
        wi[idx] = value
        fast, slow = 1, 1 << 52
        while slow - fast > 1:
            mid = (fast + slow) // 2
            if draw((mid << 9) | idx)[1]:
                fast = mid
            else:
                slow = mid
        ki[idx] = slow
    wi.setflags(write=False)
    ki.setflags(write=False)
    return wi, ki


def _first_normals(seeds: "np.ndarray") -> "np.ndarray":
    """``default_rng(seed).standard_normal()`` of each uint64 seed.

    The vectorised core, one call per chunk of lanes.
    """
    return _state_normals(*_seeded_pcg64(seeds))


def _state_normals(*state) -> "np.ndarray":
    """numpy's next standard normal from each PCG64 state (uint64 limbs).

    Every lane's next raw word as limb arithmetic; fast-path lanes are
    finished through the ziggurat tables, the rest through
    :func:`_injected_normals`.
    """
    wi, ki = _ziggurat_tables()
    raw = _xsl_rr(*_pcg64_step(*state))
    idx = (raw & np.uint64(0xff)).astype(np.intp)
    rabs = (raw >> np.uint64(9)) & np.uint64(0x000fffffffffffff)
    normals = rabs.astype(np.float64) * wi[idx]
    negative = ((raw >> np.uint64(8)) & np.uint64(1)).astype(bool)
    np.negative(normals, out=normals, where=negative)
    slow = np.flatnonzero(rabs >= ki[idx])
    if slow.size:
        normals[slow] = _injected_normals(*(limb[slow] for limb in state))
    return normals


_batched_normals_ok = None


def _batched_normals_self_check() -> bool:
    """Whether both batched routes match ``default_rng`` bit for bit.

    Over edge seeds and 1,024 random ones (about 15 of them off the
    ziggurat fast path): the injected PCG64 states
    (:func:`derived_generators`) and the vectorised first normals
    (:func:`gather_standard_normals`).
    """
    seeds = np.concatenate([
        np.array([0, 1, 3, 2**31, 2**32 - 1, 2**32, 2**63 + 12345,
                  2**64 - 1], dtype=np.uint64),
        np.random.PCG64(derive_seed(7, "self-check")).random_raw(1024),
    ])
    expected = np.array([np.random.default_rng(int(seed)).standard_normal()
                         for seed in seeds])
    return all(
        np.array_equal(route.view(np.uint64), expected.view(np.uint64))
        for route in (_injected_normals(*_seeded_pcg64(seeds)),
                      _first_normals(seeds))
    )


def _batched_route_ok() -> bool:
    """The self-check's verdict, computed once per process."""
    global _batched_normals_ok
    if _batched_normals_ok is None:
        _batched_normals_ok = _batched_normals_self_check()
    return _batched_normals_ok


def _lane_digests(rows, labels):
    """Each lane's derived seed as 8 big-endian bytes, row-major."""
    for root_seed, prefix in rows:
        hasher = _context_hasher(root_seed, *prefix)
        for label in labels:
            branch = hasher.copy()
            branch.update(label)
            yield branch.digest()[:8]


def gather_standard_normals(rows, suffixes) -> "np.ndarray":
    """First standard-normal draw of every ``(row, suffix)`` stream.

    ``rows`` is a sequence of ``(root_seed, prefix)`` pairs.  Element
    ``[i, j]`` of the ``(len(rows), len(suffixes))`` result equals
    ``derive_rng(rows[i][0], *rows[i][1], suffixes[j]).standard_normal()``
    exactly — same derived seed, same PCG64 stream, same ziggurat draw.
    This is the variation-sampling pass of the fleet-stacked compiler:
    one call covers a whole fleet.  Each lane's seed is still its own
    SHA-256 (that defines the derivation); the draws run as array maths
    over chunks of ``_NORMALS_CHUNK_LANES`` lanes.
    """
    rows = list(rows)
    suffixes = list(suffixes)
    out = np.empty((len(rows), len(suffixes)))
    if not _batched_route_ok():
        for i, (root_seed, prefix) in enumerate(rows):
            out[i] = [derive_rng(root_seed, *prefix, suffix).standard_normal()
                      for suffix in suffixes]
        return out
    labels = [_label(suffix) for suffix in suffixes]
    digests = _lane_digests(rows, labels)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _NORMALS_CHUNK_LANES):
        chunk = b"".join(itertools.islice(digests, _NORMALS_CHUNK_LANES))
        flat[start:start + _NORMALS_CHUNK_LANES] = _first_normals(
            np.frombuffer(chunk, dtype=">u8").astype(np.uint64))
    return out


def derive_standard_normals(root_seed: int, prefix: tuple,
                            suffixes) -> "np.ndarray":
    """First standard-normal draw of many derived streams at once.

    Element ``i`` equals
    ``derive_rng(root_seed, *prefix, suffixes[i]).standard_normal()``
    exactly: the one-row case of :func:`gather_standard_normals`.
    """
    return gather_standard_normals([(root_seed, prefix)], suffixes)[0]


def derived_generators(seeds):
    """Yield one ``Generator`` per seed, bit-exact with ``default_rng``.

    The per-die round path draws one noise matrix per device per round —
    thousands of short-lived generators whose ``SeedSequence``
    construction dominates the draw itself.  This amortises it: the
    PCG64 states of all seeds are computed vectorized up front and
    injected one at a time into a single reused bit generator, so stream
    ``i`` is bit-for-bit ``np.random.default_rng(seeds[i])``.  The
    yielded generator object is *reused* — callers must finish drawing
    from it before advancing.  Falls back to per-seed ``default_rng`` if
    the self-check ever fails.
    """
    seeds = [int(seed) for seed in seeds]
    if not _batched_route_ok():
        for seed in seeds:
            yield np.random.default_rng(seed)
        return
    if not seeds:
        return
    generator = np.random.Generator(np.random.PCG64(0))
    for state in _pcg64_states(seeds):
        generator.bit_generator.state = state
        yield generator


def _check_digest_width(n_bytes: int) -> None:
    if not 0 <= n_bytes <= 32:
        raise ValueError("derive_bytes serves at most one digest (32 bytes)")


def derive_bytes(n_bytes: int, root_seed: int, *context: object) -> bytes:
    """Derive up to 32 context-bound bytes from the same hash tree.

    The cheap path for protocol nonces and similar short tokens: one
    SHA-256 over the identical ``(root_seed, context)`` encoding
    :func:`derive_seed` uses, without spinning up a full generator.
    Distinct contexts give independent bytes; identical contexts always
    give the same bytes.
    """
    _check_digest_width(n_bytes)
    return _context_hasher(root_seed, *context,
                           domain=_BYTES_DOMAIN).digest()[:n_bytes]


def derive_bytes_batch(n_bytes: int, root_seed: int, prefix: tuple,
                       suffixes) -> List[bytes]:
    """:func:`derive_bytes` of many paths that share a prefix, in one pass.

    Element ``i`` equals ``derive_bytes(n_bytes, root_seed, *prefix,
    suffixes[i])`` byte for byte: the prefix is hashed once and its
    state copied per suffix.  A fleet round's nonces are one call:
    ``(seed, "fleet-nonce", stream epoch)`` plus one counter each.
    """
    _check_digest_width(n_bytes)
    hasher = _context_hasher(root_seed, *prefix, domain=_BYTES_DOMAIN)
    derived = []
    for suffix in suffixes:
        branch = hasher.copy()
        branch.update(_label(suffix))
        derived.append(branch.digest()[:n_bytes])
    return derived
