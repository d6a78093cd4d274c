"""HMAC-DRBG defers each generate's closing update to the next call.

Only a later ``generate`` or ``reseed`` reads that update, and
``c_{i+1} = RNG(r_i)`` draws once from a fresh generator
(:func:`repro.crypto.drbg.generate_once`), so a round's challenge
derivation never computes it.  The stream stays SP 800-90A's:
``tests/crypto/test_mac_kdf_drbg.py`` checks it against a stdlib-built
reference, and so does the batch check below.
"""

import numpy as np

from repro.crypto import drbg as drbg_mod
from repro.protocols.mutual_auth import derive_challenge_batch
from tests.crypto.test_mac_kdf_drbg import ReferenceHmacDrbg


def distinct_responses(n_rows: int, n_bits: int = 32) -> np.ndarray:
    """``n_rows`` different response rows (row i holds i's bits)."""
    rows = np.arange(n_rows, dtype=">u4").view(np.uint8).reshape(n_rows, 4)
    return np.unpackbits(rows, axis=1)[:, :n_bits]


def test_challenge_batch_skips_the_unread_updates(monkeypatch):
    calls = {"_update": 0, "hmac_key_states": 0}
    for name in calls:
        original = getattr(drbg_mod, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(drbg_mod, name, counted)
    responses = distinct_responses(256)
    challenges = derive_challenge_batch(responses, 64)
    # Per row: the instantiate's Update, whose two halves key K twice;
    # the closing update, which would be a second Update keying K a
    # third time, never runs.
    assert calls == {"_update": 256, "hmac_key_states": 256 * 2}
    packed = np.packbits(responses, axis=1)
    expected = np.unpackbits(np.frombuffer(b"".join(
        ReferenceHmacDrbg(row.tobytes(), b"hsc-iot-challenge").generate(8)
        for row in packed), dtype=np.uint8).reshape(256, 8), axis=1)
    assert np.array_equal(challenges, expected)


def test_owed_update_runs_before_the_next_call():
    ours = drbg_mod.HmacDrbg(b"seed", b"pers")
    reference = ReferenceHmacDrbg(b"seed", b"pers")
    assert ours.generate(16) == reference.generate(16)
    ours.reseed(b"entropy")             # settles, then mixes
    reference.reseed(b"entropy")
    assert ours.generate(0) == reference.generate(0) == b""
    assert ours.generate(40) == reference.generate(40)
