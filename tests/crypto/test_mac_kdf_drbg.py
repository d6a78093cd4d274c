"""Tests for HMAC, HKDF, and HMAC-DRBG (with RFC test vectors)."""

import hashlib
import hmac

import pytest

from repro.crypto.drbg import HmacDrbg, generate_once
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.mac import (
    hmac_key_states,
    hmac_sha256,
    hmac_with_states,
    mac,
    sha256,
    verify_mac,
)


class TestHmac:
    def test_rfc4231_case_1(self):
        key = b"\x0b" * 20
        data = b"Hi There"
        expected = bytes.fromhex(
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        )
        assert hmac_sha256(key, data) == expected

    def test_rfc4231_case_2(self):
        key = b"Jefe"
        data = b"what do ya want for nothing?"
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
        assert hmac_sha256(key, data) == expected

    def test_rfc4231_long_key(self):
        # Case 6: key longer than the block size gets hashed first.
        key = b"\xaa" * 131
        data = b"Test Using Larger Than Block-Size Key - Hash Key First"
        expected = bytes.fromhex(
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        )
        assert hmac_sha256(key, data) == expected

    def test_mac_argument_order(self):
        # Paper Fig. 4 notation: MAC(data, key).
        assert mac(b"data", b"key") == hmac_sha256(b"key", b"data")

    def test_verify_accepts_valid(self):
        tag = mac(b"message", b"key")
        assert verify_mac(b"message", b"key", tag)

    def test_verify_rejects_tampered(self):
        tag = bytearray(mac(b"message", b"key"))
        tag[0] ^= 1
        assert not verify_mac(b"message", b"key", bytes(tag))

    def test_verify_rejects_wrong_length(self):
        assert not verify_mac(b"message", b"key", b"short")

    def test_sha256_known(self):
        assert sha256(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    @pytest.mark.parametrize("key_length", (0, 1, 4, 32, 64, 65, 128))
    def test_key_states_match_stdlib_hmac(self, key_length):
        # The translate-table pads, for keys shorter than, equal to and
        # longer than the 64-byte block.
        key = bytes((5 * index + 11) % 256 for index in range(key_length))
        states = hmac_key_states(key)
        for message in (b"", b"abc", bytes(range(256)) * 3):
            assert hmac_with_states(states, message) == hmac.new(
                key, message, hashlib.sha256).digest()
        # Each preloaded state is the SHA-256 of its padded key block.
        block = (hashlib.sha256(key).digest() if key_length > 64
                 else key).ljust(64, b"\x00")
        inner, outer = states
        assert inner.copy().digest() == hashlib.sha256(
            bytes(byte ^ 0x36 for byte in block)).digest()
        assert outer.copy().digest() == hashlib.sha256(
            bytes(byte ^ 0x5C for byte in block)).digest()


class TestHkdf:
    def test_rfc5869_case_1(self):
        ikm = b"\x0b" * 22
        salt = bytes(range(13))
        info = bytes(range(0xF0, 0xFA))
        prk = hkdf_extract(salt, ikm)
        assert prk == bytes.fromhex(
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm == bytes.fromhex(
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_one_shot_matches_two_step(self):
        assert hkdf(b"ikm", 32, salt=b"salt", info=b"info") == \
            hkdf_expand(hkdf_extract(b"salt", b"ikm"), b"info", 32)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"\x00" * 32, b"", 255 * 32 + 1)

    def test_different_info_different_keys(self):
        assert hkdf(b"ikm", info=b"a") != hkdf(b"ikm", info=b"b")


class TestDrbg:
    def test_deterministic(self):
        a = HmacDrbg(b"seed").generate(64)
        b = HmacDrbg(b"seed").generate(64)
        assert a == b

    def test_seed_sensitivity(self):
        assert HmacDrbg(b"seed-a").generate(32) != HmacDrbg(b"seed-b").generate(32)

    def test_personalization(self):
        assert HmacDrbg(b"s", b"p1").generate(32) != HmacDrbg(b"s", b"p2").generate(32)

    def test_stream_advances(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.generate(32) != drbg.generate(32)

    def test_reseed_changes_stream(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        a.reseed(b"entropy")
        assert a.generate(32) != b.generate(32)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").generate(-1)
        with pytest.raises(ValueError):
            generate_once(b"s", -1)

    def test_randint_below_range(self):
        drbg = HmacDrbg(b"seed")
        values = [drbg.randint_below(10) for _ in range(200)]
        assert all(0 <= v < 10 for v in values)
        assert len(set(values)) == 10  # all residues hit

    def test_randint_bound_validation(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").randint_below(0)

    def test_output_statistics(self):
        import numpy as np

        stream = np.frombuffer(HmacDrbg(b"stat").generate(16384), dtype=np.uint8)
        bits = np.unpackbits(stream)
        assert abs(bits.mean() - 0.5) < 0.02


class TestMacBatch:
    """Batched round MACs: byte-identical to per-call mac()/verify_mac()."""

    def test_mac_batch_matches_scalar(self):
        from repro.crypto.mac import mac, mac_batch
        messages = [f"msg-{i}".encode() for i in range(16)]
        keys = [f"key-{i % 4}".encode() for i in range(16)]
        assert mac_batch(messages, keys) == [
            mac(m, k) for m, k in zip(messages, keys)
        ]

    def test_verify_mac_batch_mixed(self):
        from repro.crypto.mac import mac, verify_mac_batch
        messages = [b"a", b"b", b"c"]
        keys = [b"k1", b"k2", b"k3"]
        tags = [mac(b"a", b"k1"), mac(b"WRONG", b"k2"), mac(b"c", b"k3")]
        assert verify_mac_batch(messages, keys, tags) == [True, False, True]

    def test_verify_mac_batch_truncated_tag(self):
        from repro.crypto.mac import mac, verify_mac_batch
        tag = mac(b"a", b"k")[:-1]
        assert verify_mac_batch([b"a"], [b"k"], [tag]) == [False]

    def test_empty_batch(self):
        from repro.crypto.mac import mac_batch, verify_mac_batch
        assert mac_batch([], []) == []
        assert verify_mac_batch([], [], []) == []

    def test_length_mismatch_rejected(self):
        import pytest

        from repro.crypto.mac import mac_batch, verify_mac_batch
        with pytest.raises(ValueError):
            mac_batch([b"a"], [])
        with pytest.raises(ValueError):
            verify_mac_batch([b"a"], [b"k"], [])


class ReferenceHmacDrbg:
    """SP 800-90A HMAC_DRBG with SHA-256, built on the stdlib ``hmac``.

    Written from the standard (10.1.2): Update, Instantiate, Generate
    without additional input, and Reseed.  It shares no code with
    :class:`repro.crypto.drbg.HmacDrbg`.
    """

    def __init__(self, entropy: bytes, personalization: bytes = b""):
        self.key = b"\x00" * 32
        self.value = b"\x01" * 32
        self.update(entropy + personalization)

    @staticmethod
    def _hmac(key: bytes, data: bytes) -> bytes:
        import hashlib
        import hmac

        return hmac.new(key, data, hashlib.sha256).digest()

    def update(self, provided: bytes = b"") -> None:
        self.key = self._hmac(self.key, self.value + b"\x00" + provided)
        self.value = self._hmac(self.key, self.value)
        if provided:
            self.key = self._hmac(self.key, self.value + b"\x01" + provided)
            self.value = self._hmac(self.key, self.value)

    def generate(self, n_bytes: int) -> bytes:
        temp = b""
        while len(temp) < n_bytes:
            self.value = self._hmac(self.key, self.value)
            temp += self.value
        # The post-generate update gives backtracking resistance.
        self.update()
        return temp[:n_bytes]

    def reseed(self, entropy: bytes) -> None:
        self.update(entropy)

    def randint_below(self, bound: int) -> int:
        n_bytes = (bound.bit_length() + 7) // 8
        limit = (1 << (8 * n_bytes)) // bound * bound
        while True:
            candidate = int.from_bytes(self.generate(n_bytes), "big")
            if candidate < limit:
                return candidate % bound


def seed_of(length: int) -> bytes:
    return bytes((7 * index + 3) % 256 for index in range(length))


class TestDrbgKnownAnswers:
    """HmacDrbg and the one-shot draw byte for byte against the
    stdlib-built reference."""

    @pytest.mark.parametrize("seed, personalization", [
        (b"seed", b""),
        (b"seed", b"hsc-iot-challenge"),
        (bytes(range(256)), b"p" * 70),
        (b"", b""),
    ] + [
        # Seed material on both sides of the SHA-256 block boundaries;
        # empty seed material runs only the Update's first half.
        pytest.param(seed_of(length), personalization,
                     id=f"seed{length}-pers{len(personalization)}")
        for length in (0, 1, 4, 32, 55, 56, 64, 65, 200)
        for personalization in (b"", b"hsc-iot-challenge", bytes(range(70)))
    ])
    def test_instantiate_and_generate(self, seed, personalization):
        for n_bytes in (0, 1, 8, 32, 33, 100):
            assert generate_once(seed, n_bytes, personalization) == \
                HmacDrbg(seed, personalization).generate(n_bytes) == \
                ReferenceHmacDrbg(seed, personalization).generate(n_bytes)
        ours = HmacDrbg(seed, personalization)
        reference = ReferenceHmacDrbg(seed, personalization)
        # One block, several blocks, a partial block, nothing, repeats.
        for n_bytes in (32, 100, 7, 0, 64, 1, 33):
            assert ours.generate(n_bytes) == reference.generate(n_bytes)

    def test_reseed(self):
        ours = HmacDrbg(b"seed", b"pers")
        reference = ReferenceHmacDrbg(b"seed", b"pers")
        assert ours.generate(70) == reference.generate(70)
        ours.reseed(b"fresh entropy")
        reference.reseed(b"fresh entropy")
        for n_bytes in (33, 5, 96):
            assert ours.generate(n_bytes) == reference.generate(n_bytes)

    @pytest.mark.parametrize("bound", [1, 2, 10, 255, 256, 1000, 2**40 + 3])
    def test_randint_below(self, bound):
        ours = HmacDrbg(b"seed")
        reference = ReferenceHmacDrbg(b"seed")
        assert [ours.randint_below(bound) for _ in range(50)] == \
            [reference.randint_below(bound) for _ in range(50)]

    def test_recorded_stream(self):
        drbg = HmacDrbg(b"seed", b"pers")
        assert drbg.generate(70).hex() == (
            "e9d46de0679214100dda4e8a671a8095df2cb4bf396b4196c03cd08a5f5d6c88"
            "3a74507709edb610528e59c4b5037c6b2f3e49cea38c4a16d69bc9d429602e86"
            "b5c045300c78"
        )
        assert drbg.generate(5).hex() == "01c40fc388"
        drbg.reseed(b"e")
        assert drbg.generate(33).hex() == (
            "bff1ba680ae4a564ad4af52f25f613abdeb32e8bc2d8efbe1c379a82b7f129d1"
            "79"
        )
        assert [drbg.randint_below(1000) for _ in range(3)] == [650, 512, 934]


class TestChallengeDerivation:
    """c_{i+1} = RNG(r_i), pinned to bytes recorded before the DRBG
    stopped going through the MAC key cache."""

    CASES = [
        ("0" * 32, 64, "2bcb508c5b01ed2d"),
        ("1" * 32, 64, "aee6066bb3770c72"),
        ("10110011100011110", 100, "82da53fb2b3031cf3521bedd00"),
    ]

    @pytest.mark.parametrize("response, n_bits, expected", CASES)
    def test_derive_challenge_known_answers(self, response, n_bits,
                                            expected):
        import numpy as np

        from repro.protocols import mutual_auth

        bits = np.array([int(bit) for bit in response], dtype=np.uint8)
        challenge = mutual_auth.derive_challenge(bits, n_bits)
        assert challenge.size == n_bits
        assert np.packbits(challenge).tobytes().hex() == expected

    def test_batch_leaves_the_session_key_cache_alone(self):
        import importlib

        import numpy as np

        from repro.protocols import mutual_auth

        mac_module = importlib.import_module("repro.crypto.mac")
        mac_module.mac(b"warm", b"live session key")
        before = list(mac_module._state_cache.items())
        responses = np.random.default_rng(5).integers(
            0, 2, (256, 32)).astype(np.uint8)
        challenges = mutual_auth.derive_challenge_batch(responses, 64)
        assert list(mac_module._state_cache.items()) == before
        for row in (0, 97, 255):
            assert np.array_equal(
                challenges[row],
                mutual_auth.derive_challenge(responses[row], 64))
