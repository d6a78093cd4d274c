"""The wire codec as it stood at 0.11.0, kept as the test reference.

``encode_message``/``decode_message`` (with the helpers they call) and
``encode_fields``/``decode_fields`` are copied verbatim from 0.11.0's
``repro.service.codec`` and ``repro.utils.serialization``.  They share
the message classes, :class:`~repro.service.codec.CodecError` and
:class:`~repro.service.codec.WireType` with the live codec, so
``tests/service/test_codec_reference.py`` can compare frames, decoded
messages and failure kinds directly.  Not collected by pytest.
"""

import struct
from typing import List, Sequence, Tuple

from repro.fleet.verifier import AuthResponse, BatchAuthReport
from repro.protocols.mutual_auth import FailureKind
from repro.service.codec import (
    MAGIC,
    SCHEMA_MAJOR,
    SCHEMA_MINOR,
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    WireMessage,
    WireType,
)

_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct(">2sBBB")


def encode_fields(fields: Sequence[bytes]) -> bytes:
    """Length-prefix and concatenate a sequence of byte fields."""
    parts = []
    for field in fields:
        if not isinstance(field, (bytes, bytearray)):
            raise TypeError(f"fields must be bytes, got {type(field).__name__}")
        parts.append(_LENGTH.pack(len(field)))
        parts.append(bytes(field))
    return b"".join(parts)


def decode_fields(data: bytes) -> List[bytes]:
    """Inverse of :func:`encode_fields`; raises ``ValueError`` on malformed input."""
    fields = []
    offset = 0
    view = memoryview(data)
    while offset < len(view):
        if offset + _LENGTH.size > len(view):
            raise ValueError("truncated length prefix")
        (length,) = _LENGTH.unpack_from(view, offset)
        offset += _LENGTH.size
        if offset + length > len(view):
            raise ValueError("truncated field body")
        fields.append(bytes(view[offset:offset + length]))
        offset += length
    return fields


def _version_byte(value: int, label: str) -> bytes:
    if not 0 <= int(value) <= 255:
        raise TypeError(f"{label} version {value!r} does not fit one byte")
    return bytes([int(value)])


def _frame(wire_type: WireType, fields: List[bytes]) -> bytes:
    header = _HEADER.pack(MAGIC, SCHEMA_MAJOR, SCHEMA_MINOR, int(wire_type))
    return header + encode_fields(fields)


def _flatten(pairs: dict) -> List[bytes]:
    """Deterministic (sorted) flat field list of a string-keyed dict."""
    flat: List[bytes] = []
    for key in sorted(pairs):
        value = pairs[key]
        flat.append(key.encode("utf-8"))
        flat.append(value if isinstance(value, (bytes, bytearray))
                    else str(value).encode("utf-8"))
    return flat


def _unflatten(blob: bytes, *, text_values: bool) -> dict:
    fields = decode_fields(blob)
    if len(fields) % 2:
        raise CodecError(
            f"report section holds {len(fields)} fields, expected pairs"
        )
    out = {}
    for index in range(0, len(fields), 2):
        key = fields[index].decode("utf-8")
        value = fields[index + 1]
        out[key] = value.decode("utf-8") if text_values else bytes(value)
    return out


def encode_message(message: WireMessage) -> bytes:
    """Serialize one protocol message to a self-describing wire frame."""
    if isinstance(message, AuthChallenge):
        return _frame(WireType.CHALLENGE,
                      [message.device_id.encode("utf-8"),
                       bytes(message.nonce)])
    if isinstance(message, AuthResponse):
        return _frame(WireType.RESPONSE,
                      [message.device_id.encode("utf-8"),
                       bytes(message.body), bytes(message.tag)])
    if isinstance(message, AuthConfirmation):
        return _frame(WireType.CONFIRMATION,
                      [message.device_id.encode("utf-8"),
                       bytes(message.mac)])
    if isinstance(message, BatchAuthReport):
        return _frame(WireType.REPORT, [
            encode_fields(_flatten(message.confirmations)),
            encode_fields(_flatten(message.failures)),
            encode_fields(_flatten(message.failure_kinds)),
        ])
    if isinstance(message, SessionHello):
        return _frame(WireType.HELLO,
                      [message.peer.encode("utf-8"),
                       _version_byte(message.major, "major"),
                       _version_byte(message.minor, "minor")])
    if isinstance(message, SessionWelcome):
        return _frame(WireType.WELCOME,
                      [message.peer.encode("utf-8"),
                       _version_byte(message.major, "major"),
                       _version_byte(message.minor, "minor")])
    if isinstance(message, SessionReject):
        return _frame(WireType.REJECT,
                      [message.kind.encode("utf-8"),
                       message.reason.encode("utf-8")])
    if isinstance(message, SessionRequest):
        return _frame(WireType.REQUEST,
                      [message.verb.encode("utf-8"),
                       message.device_id.encode("utf-8"),
                       encode_fields(_flatten(dict(message.params)))])
    if isinstance(message, SessionResult):
        return _frame(WireType.RESULT,
                      [message.verb.encode("utf-8"),
                       message.device_id.encode("utf-8"),
                       b"\x01" if message.ok else b"\x00",
                       encode_fields(_flatten(dict(message.detail)))])
    raise TypeError(
        f"not a wire message: {type(message).__name__}"
    )


def peek_header(data: bytes) -> Tuple[int, int, int]:
    """``(major, minor, type)`` of a frame, validating magic and length."""
    if len(data) < _HEADER.size:
        raise CodecError(
            f"frame is {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, major, minor, wire_type = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r}, expected {MAGIC!r}")
    return major, minor, wire_type


def decode_message(data: bytes) -> WireMessage:
    """Inverse of :func:`encode_message`; raises :class:`CodecError`.

    Unknown *major* versions are rejected (the schema contract may have
    changed incompatibly); any minor version within the known major is
    accepted.  Every other malformation — truncation anywhere in the
    frame, unknown message type, wrong field count, non-UTF-8 device
    ids — raises with ``FailureKind.MALFORMED``.
    """
    major, minor, wire_type = peek_header(data)
    if major != SCHEMA_MAJOR:
        raise CodecError(
            f"unsupported schema major version {major} "
            f"(this codec reads {SCHEMA_MAJOR}.x)",
            FailureKind.UNSUPPORTED_VERSION,
        )
    try:
        wire_type = WireType(wire_type)
    except ValueError:
        raise CodecError(f"unknown message type {wire_type}") from None
    try:
        fields = decode_fields(data[_HEADER.size:])
    except ValueError as exc:
        raise CodecError(f"malformed payload: {exc}") from exc
    try:
        if wire_type is WireType.CHALLENGE:
            device_id, nonce = fields
            return AuthChallenge(device_id.decode("utf-8"), nonce)
        if wire_type is WireType.RESPONSE:
            device_id, body, tag = fields
            return AuthResponse(device_id.decode("utf-8"), body, tag)
        if wire_type is WireType.CONFIRMATION:
            device_id, mac = fields
            return AuthConfirmation(device_id.decode("utf-8"), mac)
        if wire_type in (WireType.HELLO, WireType.WELCOME):
            peer, major, minor = fields
            if len(major) != 1 or len(minor) != 1:
                raise ValueError("version fields must be single bytes")
            cls = SessionHello if wire_type is WireType.HELLO \
                else SessionWelcome
            return cls(peer.decode("utf-8"), major[0], minor[0])
        if wire_type is WireType.REJECT:
            kind, reason = fields
            return SessionReject(kind.decode("utf-8"),
                                 reason.decode("utf-8"))
        if wire_type is WireType.REQUEST:
            verb, device_id, params = fields
            return SessionRequest(verb.decode("utf-8"),
                                  device_id.decode("utf-8"),
                                  _unflatten(params, text_values=False))
        if wire_type is WireType.RESULT:
            verb, device_id, ok, detail = fields
            if ok not in (b"\x00", b"\x01"):
                raise ValueError(f"RESULT ok flag must be 0/1, got {ok!r}")
            return SessionResult(verb.decode("utf-8"),
                                 device_id.decode("utf-8"),
                                 ok == b"\x01",
                                 _unflatten(detail, text_values=False))
        confirmations, failures, kinds = fields
        return BatchAuthReport(
            confirmations=_unflatten(confirmations, text_values=False),
            failures=_unflatten(failures, text_values=True),
            failure_kinds=_unflatten(kinds, text_values=True),
        )
    except CodecError:
        raise
    except ValueError as exc:
        # Wrong field count for the type, or a non-UTF-8 device id.
        raise CodecError(
            f"malformed {wire_type.name} payload: {exc}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise CodecError(
            f"malformed {wire_type.name} payload: {exc}"
        ) from exc
