"""The live wire codec against 0.11.0's, byte for byte and kind for kind.

``tests/service/codec_reference.py`` holds 0.11.0's codec verbatim.  For
every message type, hypothesis draws messages (ids empty or non-ASCII,
fields from 0 bytes to several KB, params/detail maps of 0-4 entries)
and the live encoder must write the reference's frame.  The live
decoder must then treat every input as the reference does — return an
equal message, or raise the same exception with the same
``FailureKind`` — over valid frames, each of their truncations, single
byte changes and random byte strings.  The frames one loopback gateway
round writes on both sides go through the same checks.
"""

import asyncio
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet.verifier import AuthResponse, BatchAuthReport
from repro.service import (
    MAGIC,
    AuthChallenge,
    AuthConfirmation,
    AuthService,
    FleetConfig,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    decode_message,
    encode_message,
)
from repro.service.net import AuthClient, AuthServer
from repro.service.net import client as client_mod
from repro.service.net import server as server_mod
from repro.utils.serialization import decode_fields, encode_fields
from tests.service import codec_reference as reference

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)

# Deterministic draws and no wall-clock deadline: tier-1 cannot flake here.
EXAMPLES = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _expand(seed: bytes, size: int) -> bytes:
    return (seed * (size // len(seed) + 1))[:size]


texts = st.text(max_size=24)            # "" and non-ASCII included
blobs = st.one_of(
    st.binary(max_size=64),
    # Several-KB fields, grown from a short drawn pattern.
    st.builds(_expand, st.binary(min_size=1, max_size=16),
              st.integers(1024, 4096)),
)
maps = st.dictionaries(texts, blobs, max_size=4)
text_maps = st.dictionaries(texts, texts, max_size=4)
versions = st.integers(-1, 256)         # one past each end of a byte
short_fields = st.one_of(
    st.integers(0, 255).map(lambda value: bytes([value])),  # flags
    st.binary(max_size=3),
    texts.map(lambda text: text.encode("utf-8")),
)
field_values = st.one_of(short_fields, st.lists(short_fields, max_size=4)
                         .map(reference.encode_fields))

MESSAGES = {
    "challenge": st.builds(AuthChallenge, texts, blobs),
    "response": st.builds(AuthResponse, texts, blobs, blobs),
    "confirmation": st.builds(AuthConfirmation, texts, blobs),
    "report": st.builds(BatchAuthReport, maps, text_maps, text_maps),
    "hello": st.builds(SessionHello, texts, versions, versions),
    "welcome": st.builds(SessionWelcome, texts, versions, versions),
    "reject": st.builds(SessionReject, texts, texts),
    "request": st.builds(SessionRequest, texts, texts, maps),
    "result": st.builds(SessionResult, texts, texts, st.booleans(), maps),
}


def outcome(function, argument):
    """What a call returns, or the type and failure kind it raises."""
    try:
        return "returned", function(argument)
    except Exception as exc:  # noqa: BLE001 — the type is the outcome
        return "raised", type(exc), getattr(exc, "kind", None)


def assert_decodes_alike(data: bytes) -> None:
    # Dataclass equality also compares the classes.
    assert outcome(decode_message, data) == \
        outcome(reference.decode_message, data)


def reference_frame(message):
    """The reference's frame, or None when it refuses to encode."""
    try:
        return reference.encode_message(message)
    except TypeError:
        return None


def changed(frame: bytes, position: int, value: int) -> bytes:
    return frame[:position] + bytes([value]) + frame[position + 1:]


@pytest.mark.parametrize("kind", sorted(MESSAGES))
class TestEveryMessageType:
    @given(data=st.data())
    @EXAMPLES
    def test_encoder_writes_the_reference_frame(self, kind, data):
        message = data.draw(MESSAGES[kind])
        assert outcome(encode_message, message) == \
            outcome(reference.encode_message, message)

    @given(data=st.data())
    @EXAMPLES
    def test_frame_and_every_truncation_decode_alike(self, kind, data):
        frame = reference_frame(data.draw(MESSAGES[kind]))
        if frame is None:
            return
        for cut in range(len(frame) + 1):
            assert_decodes_alike(frame[:cut])

    @given(data=st.data())
    @EXAMPLES
    def test_single_byte_changes_decode_alike(self, kind, data):
        frame = reference_frame(data.draw(MESSAGES[kind]))
        if frame is None:
            return
        # The header and the first length prefixes hold most of the
        # structure, so half of the changes land in the first 16 bytes.
        early = st.integers(0, min(len(frame), 16) - 1)
        anywhere = st.integers(0, len(frame) - 1)
        for position, value in data.draw(st.lists(
                st.tuples(st.one_of(early, anywhere), st.integers(0, 255)),
                min_size=1, max_size=16)):
            assert_decodes_alike(changed(frame, position, value))


    @given(data=st.data())
    @EXAMPLES
    def test_each_field_replaced_or_dropped_decodes_alike(self, kind, data):
        # Valid fields but one reach each type's own checks: UTF-8
        # text, single-byte versions, the ok flag, key/value pairs.
        frame = reference_frame(data.draw(MESSAGES[kind]))
        if frame is None:
            return
        header, fields = frame[:5], reference.decode_fields(frame[5:])
        for index in range(len(fields) + 1):
            edits = [fields[:index] + [data.draw(field_values)]
                     + fields[index:]]
            if index < len(fields):
                edits.append(fields[:index] + fields[index + 1:])
                edits.append(fields[:index] + [data.draw(field_values)]
                             + fields[index + 1:])
            for edited in edits:
                assert_decodes_alike(header
                                     + reference.encode_fields(edited))


class TestRandomInput:
    @given(st.binary(max_size=256))
    @EXAMPLES
    def test_random_bytes_decode_alike(self, data):
        assert_decodes_alike(data)

    @given(st.integers(0, 2), st.integers(0, 255), st.integers(0, 10),
           st.binary(max_size=128))
    @EXAMPLES
    def test_random_payloads_behind_a_header_decode_alike(
            self, major, minor, type_byte, payload):
        assert_decodes_alike(MAGIC + bytes([major, minor, type_byte])
                             + payload)

    def test_non_messages_and_subclasses_encode_alike(self):
        class Relayed(AuthResponse):
            """A message class's subclass frames as that class."""

        for thing in ("text", b"bytes", None, 3, [AuthChallenge("d", b"")],
                      Relayed("dev-é", b"body", b"tag")):
            assert outcome(encode_message, thing) == \
                outcome(reference.encode_message, thing)

    def test_bytearray_and_memoryview_frames_decode_alike(self):
        frame = reference.encode_message(
            SessionRequest("auth", "dev-é", {"k": b"v" * 70}))
        for data in (bytearray(frame), memoryview(frame)):
            assert_decodes_alike(data)
            assert_decodes_alike(data[:-1])


class TestFieldCodec:
    fields = st.lists(st.one_of(blobs, blobs.map(bytearray)), max_size=6)

    @given(fields)
    @EXAMPLES
    def test_encode_fields_matches_reference(self, fields):
        assert outcome(encode_fields, fields) == \
            outcome(reference.encode_fields, fields)

    @given(fields, st.data())
    @EXAMPLES
    def test_decode_fields_matches_reference(self, fields, data):
        blob = reference.encode_fields(fields)
        for cut in range(len(blob) + 1):
            assert outcome(decode_fields, blob[:cut]) == \
                outcome(reference.decode_fields, blob[:cut])
        noise = data.draw(st.binary(max_size=64))
        assert outcome(decode_fields, noise) == \
            outcome(reference.decode_fields, noise)
        assert outcome(decode_fields, bytearray(blob)) == \
            outcome(reference.decode_fields, bytearray(blob))

    def test_non_bytes_field_refused_alike(self):
        for fields in ([b"a", "b"], [memoryview(b"a")], [None]):
            assert outcome(encode_fields, fields) == \
                outcome(reference.encode_fields, fields)


def loopback_round_frames(monkeypatch, n_devices: int = 4) -> list:
    """Every frame both sides hand ``write_frame`` in one gateway round
    (handshake included)."""
    written = []
    for module in (server_mod, client_mod):
        original = module.write_frame

        def recording(writer, *frames, _original=original):
            written.extend(frames)
            return _original(writer, *frames)

        monkeypatch.setattr(module, "write_frame", recording)

    async def main():
        config = FleetConfig(n_devices=n_devices, seed=11, puf=FAST_PUF)
        served = AuthService.provision(config)
        gateway = AuthService.provision(config)
        async with AuthServer(served) as server:
            async with AuthClient.connect("127.0.0.1", server.port) as client:
                report = await client.authenticate_batch(gateway.device_list)
        assert report.n_accepted == n_devices

    asyncio.run(main())
    return written


def test_loopback_gateway_round_frames_match_reference(monkeypatch):
    n = 4
    frames = loopback_round_frames(monkeypatch, n)
    # HELLO and WELCOME; from the client open-round, N RESPONSEs,
    # close-round and N acks; from the server N CHALLENGEs and the
    # open-round RESULT, N CONFIRMATIONs and the REPORT, N ack RESULTs.
    assert len(frames) == 2 + (2 + 2 * n) + (2 + 3 * n)
    for frame in frames:
        message = reference.decode_message(frame)
        assert decode_message(frame) == message
        assert encode_message(message) == frame
        for cut in range(len(frame)):
            assert_decodes_alike(frame[:cut])
        for position in range(len(frame)):
            assert_decodes_alike(changed(frame, position,
                                         frame[position] ^ 0xFF))
        # A length prefix that claims one byte too many.
        if len(frame) >= 9:
            (length,) = struct.unpack_from(">I", frame, 5)
            assert_decodes_alike(frame[:5] + struct.pack(">I", length + 1)
                                 + frame[9:])
