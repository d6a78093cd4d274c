"""Wire-codec round-trips and rejection paths.

Property-style coverage: every message type, over a spread of derived
random contents (sizes 0..large, arbitrary bytes including embedded
NULs and length-prefix-looking runs), must encode → decode bit-exactly;
every truncation of a valid frame, foreign magic, unknown major
version, and unknown message type must be rejected with the shared
FailureKind taxonomy.
"""

import dataclasses

import pytest

from repro.fleet.verifier import AuthResponse, BatchAuthReport
from repro.protocols.mutual_auth import FailureKind
from repro.service import (
    MAGIC,
    SCHEMA_MAJOR,
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    WireType,
    decode_message,
    encode_message,
    peek_header,
)
from repro.utils.rng import derive_rng


def random_bytes(rng, max_len=96) -> bytes:
    return rng.bytes(int(rng.integers(0, max_len)))


def random_id(rng) -> str:
    # Device ids with dashes, digits, and non-ASCII (UTF-8 path).
    stem = "".join(chr(int(c)) for c in rng.integers(0x61, 0x7A, 6))
    return f"dev-{stem}-{int(rng.integers(1e6)):06d}-é"


def message_corpus(seed: int, n: int = 40):
    """A deterministic spread of every wire message type."""
    rng = derive_rng(seed, "codec-corpus")
    corpus = []
    for index in range(n):
        corpus.append(AuthChallenge(random_id(rng), random_bytes(rng)))
        corpus.append(AuthResponse(random_id(rng), random_bytes(rng, 256),
                                   random_bytes(rng, 48)))
        corpus.append(AuthConfirmation(random_id(rng), random_bytes(rng)))
        report = BatchAuthReport()
        for __ in range(int(rng.integers(0, 5))):
            report.confirmations[random_id(rng)] = random_bytes(rng)
        for __ in range(int(rng.integers(0, 5))):
            device_id = random_id(rng)
            report.failures[device_id] = "reason: " + random_id(rng)
            report.failure_kinds[device_id] = FailureKind.BAD_MAC.value
        corpus.append(report)
    # Degenerate edges: empty everything.
    corpus.append(AuthChallenge("", b""))
    corpus.append(AuthResponse("", b"", b""))
    corpus.append(AuthConfirmation("", b""))
    corpus.append(BatchAuthReport())
    return corpus


class TestRoundTrips:
    def test_every_message_round_trips_bit_exactly(self):
        for message in message_corpus(seed=101):
            frame = encode_message(message)
            decoded = decode_message(frame)
            assert decoded == message
            # Bit-exact: re-encoding the decoded message reproduces the
            # frame byte for byte (the codec is canonical).
            assert encode_message(decoded) == frame

    def test_dataclass_identity_fields(self):
        message = AuthResponse("dev-x", b"\x00\x01\x02", b"\xff" * 32)
        decoded = decode_message(encode_message(message))
        assert dataclasses.asdict(decoded) == dataclasses.asdict(message)

    def test_report_dict_contents_survive(self):
        report = BatchAuthReport(
            confirmations={"b": b"\x01", "a": b"\x02"},
            failures={"c": "bad mac"},
            failure_kinds={"c": FailureKind.BAD_MAC.value},
        )
        decoded = decode_message(encode_message(report))
        assert decoded.confirmations == report.confirmations
        assert decoded.failures == report.failures
        assert decoded.failure_kinds == report.failure_kinds

    def test_header_is_self_describing(self):
        frame = encode_message(AuthChallenge("dev", b"n"))
        major, minor, wire_type = peek_header(frame)
        assert frame[:2] == MAGIC
        assert major == SCHEMA_MAJOR
        assert WireType(wire_type) is WireType.CHALLENGE


class TestRejection:
    def test_every_truncation_rejected(self):
        # Truncation anywhere — header, length prefix, or field body —
        # must raise CodecError, never return a wrong message or crash
        # with a foreign exception.
        for message in message_corpus(seed=202, n=4):
            frame = encode_message(message)
            for cut in range(len(frame)):
                truncated = frame[:cut]
                with pytest.raises(CodecError) as excinfo:
                    decode_message(truncated)
                assert excinfo.value.kind is FailureKind.MALFORMED

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_message(AuthChallenge("dev", b"n")))
        frame[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_message(bytes(frame))

    def test_unknown_major_version_rejected(self):
        frame = bytearray(encode_message(AuthChallenge("dev", b"n")))
        frame[2] = SCHEMA_MAJOR + 1
        with pytest.raises(CodecError, match="major") as excinfo:
            decode_message(bytes(frame))
        assert excinfo.value.kind is FailureKind.UNSUPPORTED_VERSION

    def test_newer_minor_version_accepted(self):
        message = AuthChallenge("dev", b"n")
        frame = bytearray(encode_message(message))
        frame[3] = 250  # a future additive revision within this major
        assert decode_message(bytes(frame)) == message

    def test_unknown_message_type_rejected(self):
        frame = bytearray(encode_message(AuthChallenge("dev", b"n")))
        frame[4] = 0x7F
        with pytest.raises(CodecError, match="message type") as excinfo:
            decode_message(bytes(frame))
        assert excinfo.value.kind is FailureKind.MALFORMED

    def test_wrong_field_count_rejected(self):
        challenge = encode_message(AuthChallenge("dev", b"n"))
        response = encode_message(AuthResponse("dev", b"b", b"t"))
        # Challenge payload (2 fields) under the RESPONSE type tag.
        hybrid = response[:5] + challenge[5:]
        with pytest.raises(CodecError) as excinfo:
            decode_message(hybrid)
        assert excinfo.value.kind is FailureKind.MALFORMED

    def test_non_utf8_device_id_rejected(self):
        frame = bytearray(encode_message(AuthChallenge("dd", b"n")))
        # The id field body starts right after the header + 4-byte
        # length prefix; 0xFF 0xFE is not valid UTF-8.
        frame[9:11] = b"\xff\xfe"
        with pytest.raises(CodecError):
            decode_message(bytes(frame))

    def test_ragged_report_pairs_rejected(self):
        from repro.utils.serialization import encode_fields
        bad = MAGIC + bytes([SCHEMA_MAJOR, 0, int(WireType.REPORT)]) + \
            encode_fields([
                encode_fields([b"only-a-key"]),  # odd field count
                encode_fields([]),
                encode_fields([]),
            ])
        with pytest.raises(CodecError, match="pairs"):
            decode_message(bad)

    def test_non_message_encode_rejected(self):
        with pytest.raises(TypeError):
            encode_message("not a message")

    def test_codec_errors_speak_failure_taxonomy(self):
        # Transport-level rejections aggregate exactly like protocol
        # failures: CodecError IS an AuthenticationFailure.
        from repro.protocols.mutual_auth import AuthenticationFailure
        assert issubclass(CodecError, AuthenticationFailure)
        try:
            decode_message(b"")
        except AuthenticationFailure as failure:
            assert failure.kind in set(FailureKind)


class TestSessionFrames:
    """Wire format 1.1: the session layer spoken by repro.service.net."""

    def session_corpus(self, seed: int = 303, n: int = 12):
        from repro.service import (
            SessionHello,
            SessionReject,
            SessionRequest,
            SessionResult,
            SessionWelcome,
        )
        rng = derive_rng(seed, "session-corpus")
        corpus = []
        for __ in range(n):
            corpus.append(SessionHello(random_id(rng),
                                       int(rng.integers(0, 256)),
                                       int(rng.integers(0, 256))))
            corpus.append(SessionWelcome(random_id(rng),
                                         int(rng.integers(0, 256)),
                                         int(rng.integers(0, 256))))
            corpus.append(SessionReject(FailureKind.MALFORMED.value,
                                        "why: " + random_id(rng)))
            params = {random_id(rng): random_bytes(rng)
                      for __ in range(int(rng.integers(0, 4)))}
            corpus.append(SessionRequest(random_id(rng), random_id(rng),
                                         params))
            corpus.append(SessionResult(random_id(rng), random_id(rng),
                                        bool(rng.integers(2)), params))
        corpus.append(SessionHello("", 0, 0))
        corpus.append(SessionRequest("", "", {}))
        corpus.append(SessionResult("", "", False, {}))
        corpus.append(SessionReject("", ""))
        return corpus

    def test_session_frames_round_trip_bit_exactly(self):
        for message in self.session_corpus():
            frame = encode_message(message)
            decoded = decode_message(frame)
            assert decoded == message
            assert encode_message(decoded) == frame

    def test_minor_version_bumped_additively(self):
        # 1.1 added the session frame types; 1.2, 1.3 and 1.4 are
        # documented minor bumps that add only verbs and params on the
        # existing REQUEST/RESULT envelopes (the metrics/trace admin
        # verbs, the round form of finalize, a gateway round's nonces,
        # responses and confirmations in its verb frames) — same major,
        # no new frame types.
        from repro.service import SCHEMA_MINOR
        assert SCHEMA_MAJOR == 1
        assert SCHEMA_MINOR == 4
        for wire_type in ("HELLO", "WELCOME", "REJECT", "REQUEST",
                          "RESULT"):
            assert hasattr(WireType, wire_type)

    def test_every_session_truncation_rejected(self):
        for message in self.session_corpus(seed=404, n=2):
            frame = encode_message(message)
            for cut in range(len(frame)):
                with pytest.raises(CodecError) as excinfo:
                    decode_message(frame[:cut])
                assert excinfo.value.kind is FailureKind.MALFORMED

    def test_negotiation_same_major_takes_min_minor(self):
        from repro.service import (
            SCHEMA_MINOR,
            SessionHello,
            negotiate_version,
        )
        # Wire 1.4 is the floor: below it a gateway round had other forms.
        for minor in range(4):
            with pytest.raises(CodecError) as excinfo:
                negotiate_version(SessionHello("dev", SCHEMA_MAJOR, minor))
            assert excinfo.value.kind is FailureKind.UNSUPPORTED_VERSION
        assert negotiate_version(
            SessionHello("dev", SCHEMA_MAJOR, 4)) == (SCHEMA_MAJOR, 4)
        assert negotiate_version(
            SessionHello("dev", SCHEMA_MAJOR, 250)) == (SCHEMA_MAJOR,
                                                        SCHEMA_MINOR)

    def test_negotiation_foreign_major_unsupported(self):
        from repro.service import SessionHello, negotiate_version
        with pytest.raises(CodecError) as excinfo:
            negotiate_version(SessionHello("dev", SCHEMA_MAJOR + 1, 0))
        assert excinfo.value.kind is FailureKind.UNSUPPORTED_VERSION

    def test_reject_maps_back_to_failure_taxonomy(self):
        from repro.service import SessionReject
        failure = SessionReject(FailureKind.UNSUPPORTED_VERSION.value,
                                "go away").to_failure()
        assert failure.kind is FailureKind.UNSUPPORTED_VERSION
        assert SessionReject("not-a-kind", "x").to_failure().kind \
            is FailureKind.UNSPECIFIED

    def test_result_ok_flag_must_be_canonical(self):
        from repro.service import SCHEMA_MINOR
        from repro.utils.serialization import encode_fields
        # Hand-build a RESULT whose ok flag is 2 — not a canonical bool.
        frame = MAGIC + bytes([SCHEMA_MAJOR, SCHEMA_MINOR,
                               int(WireType.RESULT)]) + encode_fields(
            [b"auth", b"dev", b"\x02", encode_fields([])])
        with pytest.raises(CodecError, match="ok flag"):
            decode_message(frame)

    def test_version_byte_range_enforced_on_encode(self):
        from repro.service import SessionHello
        with pytest.raises(TypeError):
            encode_message(SessionHello("dev", 256, 0))

    def test_legacy_1_0_frames_decode_under_1_1(self):
        # A frame stamped minor=0 (a 1.0 sender) decodes identically.
        message = AuthChallenge("dev", b"nonce")
        frame = bytearray(encode_message(message))
        frame[3] = 0
        assert decode_message(bytes(frame)) == message
