"""Tag checks compare with ``hmac.compare_digest``, with the results the
byte-loop comparison gave: equal, one-bit-different, shorter, longer
and empty tags, as ``bytes`` and as ``bytearray``."""

import pytest

from repro.crypto.mac import mac, verify_mac, verify_mac_batch

DATA, KEY = b"message", b"key"
TAG = mac(DATA, KEY)


def loop_compare(expected: bytes, tag) -> bool:
    """The comparison ``verify_mac`` made before it used compare_digest."""
    if len(expected) != len(tag):
        return False
    result = 0
    for x, y in zip(expected, bytes(tag)):
        result |= x ^ y
    return result == 0


def flipped(tag: bytes, index: int) -> bytes:
    out = bytearray(tag)
    out[index] ^= 1
    return bytes(out)


CASES = {
    "equal": (TAG, True),
    "first-bit": (flipped(TAG, 0), False),
    "last-bit": (flipped(TAG, len(TAG) - 1), False),
    "shorter": (TAG[:-1], False),
    "longer": (TAG + b"\x00", False),
    "empty": (b"", False),
}


@pytest.mark.parametrize("as_type", [bytes, bytearray])
@pytest.mark.parametrize("case", sorted(CASES))
def test_single_and_batch_checks_agree_with_the_byte_loop(case, as_type):
    tag, accepted = CASES[case]
    tag = as_type(tag)
    assert loop_compare(TAG, tag) is accepted
    assert verify_mac(DATA, KEY, tag) is accepted
    assert verify_mac_batch([DATA], [KEY], [tag]) == [accepted]


def test_batch_of_every_case_in_one_call():
    tags = [as_type(tag) for tag, __ in CASES.values()
            for as_type in (bytes, bytearray)]
    expected = [accepted for __, accepted in CASES.values()
                for __ in (bytes, bytearray)]
    n = len(tags)
    assert verify_mac_batch([DATA] * n, [KEY] * n, tags) == expected
