"""Versioned wire codec for the fleet authentication protocol.

Every protocol message — the verifier's challenge, the device's masked
response, the verifier's confirmation, and the round report — serializes
to a self-describing bytes frame:

.. code-block:: text

    +-------+-------+-------+------+----------------------------+
    | magic | major | minor | type | length-prefixed payload    |
    | 2 B   | 1 B   | 1 B   | 1 B  | (repro.utils.serialization)|
    +-------+-------+-------+------+----------------------------+

The header carries the schema version so transports (sockets, HTTP,
queues) can be layered on later without touching protocol code: a
decoder rejects frames from an unknown *major* version outright
(:data:`~repro.protocols.mutual_auth.FailureKind.UNSUPPORTED_VERSION`)
and accepts any minor version within its major (minor bumps are
additive).  Payload fields reuse the injective length-prefixed encoding
of :func:`repro.utils.serialization.encode_fields`, so encoding is
round-trip exact: ``decode_message(encode_message(m)) == m`` for every
message, bit for bit.

Malformed frames — truncations, bad magic, unknown message types,
wrong field counts — are rejected with :class:`CodecError`, an
:class:`~repro.protocols.mutual_auth.AuthenticationFailure` carrying
the shared :class:`~repro.protocols.mutual_auth.FailureKind` taxonomy,
so transport-level rejections aggregate in round reports exactly like
protocol-level ones.

Wire format history
-------------------
* **1.0** — the four protocol frames: ``CHALLENGE``, ``RESPONSE``,
  ``CONFIRMATION``, ``REPORT``.
* **1.1** — adds the *session layer* spoken by
  :mod:`repro.service.net`: ``HELLO`` / ``WELCOME`` (version
  negotiation), ``REJECT`` (taxonomy-coded transport refusal), and the
  generic ``REQUEST`` / ``RESULT`` verb envelopes.  Purely additive:
  every 1.0 frame encodes and decodes byte-identically under 1.1.
* **1.2** — adds the *admin verbs* ``metrics`` and ``trace``
  (:mod:`repro.obs` scrapes over the existing socket layer).  No new
  frame types: the verbs ride the 1.1 ``REQUEST`` / ``RESULT``
  envelopes, so the bump is only a capability gate — a server refuses
  the verbs on connections whose negotiated minor is below 2
  (``unsupported-version``), and every 1.1 frame still encodes and
  decodes byte-identically under 1.2.
* **1.3** — adds the *round form* of the ``finalize`` verb:
  one ``REQUEST`` whose ``acks`` param lists a gateway round's
  two-phase-commit acks as ``(device id, round token, verdict)``
  triples (verdict ``finalize`` or ``abort``), answered by one
  ``RESULT`` whose ``refused`` detail names each refused ack, in
  request order, as ``(device id, reason, failure kind)``.  Another
  capability gate on the existing envelopes: a server refuses the round
  form on connections whose negotiated minor is below 3
  (``unsupported-version``), where a client acks per device, and the
  per-device ``finalize`` / ``abort`` frames are unchanged.
* **1.4** (current) — a gateway round travels in its three verb
  frames.  The ``open-round`` ``RESULT`` carries the round's nonces as
  ``(device id, nonce)`` pairs under ``nonces`` and its policy vetoes
  as ``(device id, reason, failure kind)`` triples under ``vetoes``, in
  place of one ``CHALLENGE`` per device and one failure ``RESULT`` per
  veto; the ``close-round`` ``REQUEST`` carries every response as a
  ``(device id, body, tag)`` triple under ``responses``, in place of
  one ``RESPONSE`` per device, and is answered by the ``REPORT`` alone,
  whose confirmations map replaces one ``CONFIRMATION`` per device.
  The round ``finalize`` is that of 1.3, and micro-rounds keep their
  per-device frames.  0.16.0 still served the 1.1–1.3 round forms to
  older peers.  Since 0.17.0 1.4 is the floor: a server refuses a
  ``HELLO`` below it (``unsupported-version``), and a client refuses
  such a ``WELCOME``, so a gateway round has this one form.

The codec is table-driven: ``encode_message`` looks up each message
class's prebuilt 5-byte header and field builder, and
``decode_message`` looks up each type byte's field count and message
builder, then parses the payload in place.  The tables are an
implementation detail: the frames are exactly those the history above
defines.

Version negotiation rules (see :func:`negotiate_version`):

1. The first frame on a connection is the client's
   :class:`SessionHello`, advertising the highest wire version the
   client speaks.
2. A server whose *major* differs answers with a
   :class:`SessionReject` of kind ``unsupported-version`` and closes —
   majors are incompatible by contract, so no session exists to
   continue.
3. A *minor* below 4 is refused the same way (the floor, since
   0.17.0).  Otherwise the server answers :class:`SessionWelcome`
   carrying the negotiated version: the shared major and ``min(client
   minor, server minor)``.  Minor bumps are additive, so the lower
   minor is a subset both sides speak; neither peer may send a frame
   type introduced after the negotiated minor.
4. Any frame that fails to decode *before* the handshake completes is
   answered with a :class:`SessionReject` (kind ``malformed``, or
   ``unsupported-version`` when only the major was unreadable) and the
   connection is closed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import List, Mapping, Tuple, Union

from repro.fleet.verifier import AuthResponse, BatchAuthReport
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.utils.serialization import (
    _decode_from,
    _pack_length,
    decode_fields,
    encode_fields,
)

MAGIC = b"RW"  # "repro wire"
SCHEMA_MAJOR = 1
SCHEMA_MINOR = 4
#: The lowest minor a session negotiates: a gateway round has one form.
_MINOR_FLOOR = 4

_HEADER = struct.Struct(">2sBBB")


class WireType(IntEnum):
    """Message-type discriminator carried in the frame header."""

    CHALLENGE = 1
    RESPONSE = 2
    CONFIRMATION = 3
    REPORT = 4
    # Session layer — added by wire format 1.1.
    HELLO = 5
    WELCOME = 6
    REJECT = 7
    REQUEST = 8
    RESULT = 9


class CodecError(AuthenticationFailure):
    """A wire frame failed to decode (truncated, foreign, or unknown)."""

    def __init__(self, message: str,
                 kind: FailureKind = FailureKind.MALFORMED):
        super().__init__(message, kind)


@dataclass(frozen=True)
class AuthChallenge:
    """The verifier's round-opening request to one device."""

    device_id: str
    nonce: bytes


@dataclass(frozen=True)
class AuthConfirmation:
    """The verifier's ``mac'`` proving knowledge of the new secret."""

    device_id: str
    mac: bytes


@dataclass(frozen=True)
class SessionHello:
    """First frame on a connection: the client's version advertisement.

    ``major``/``minor`` are the *highest* wire version the sender
    speaks; ``peer`` is a free-form self-identification (logged, never
    trusted).
    """

    peer: str
    major: int = SCHEMA_MAJOR
    minor: int = SCHEMA_MINOR


@dataclass(frozen=True)
class SessionWelcome:
    """The server's handshake acceptance, carrying the negotiated
    version — the shared major and the minimum of both minors."""

    peer: str
    major: int = SCHEMA_MAJOR
    minor: int = SCHEMA_MINOR


@dataclass(frozen=True)
class SessionReject:
    """A taxonomy-coded refusal; the sender closes after this frame."""

    kind: str = FailureKind.UNSPECIFIED.value
    reason: str = ""

    def to_failure(self) -> AuthenticationFailure:
        """The refusal as a raisable :class:`AuthenticationFailure`."""
        try:
            kind = FailureKind(self.kind)
        except ValueError:
            kind = FailureKind.UNSPECIFIED
        return AuthenticationFailure(self.reason or self.kind, kind)


@dataclass(frozen=True)
class SessionRequest:
    """A client verb envelope: ``verb`` names a facade operation
    (``enroll``, ``auth``, ``flush``, ``spot`` …), ``params`` carries
    verb-specific bytes-valued arguments."""

    verb: str
    device_id: str = ""
    params: Mapping[str, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class SessionResult:
    """A server verb reply, correlated by ``(verb, device_id)``."""

    verb: str
    device_id: str = ""
    ok: bool = True
    detail: Mapping[str, bytes] = field(default_factory=dict)


WireMessage = Union[AuthChallenge, AuthResponse, AuthConfirmation,
                    BatchAuthReport, SessionHello, SessionWelcome,
                    SessionReject, SessionRequest, SessionResult]


def negotiate_version(hello: SessionHello) -> Tuple[int, int]:
    """Apply the negotiation rules to a client HELLO (server side).

    Returns the ``(major, minor)`` to answer in the WELCOME; raises
    :class:`CodecError` with ``FailureKind.UNSUPPORTED_VERSION`` when
    the majors differ or the client's minor is below the floor (the
    caller turns that into a wire :class:`SessionReject` and closes the
    connection).
    """
    if hello.major != SCHEMA_MAJOR or hello.minor < _MINOR_FLOOR:
        raise CodecError(
            f"peer speaks wire format {hello.major}.{hello.minor}, "
            f"this server speaks {SCHEMA_MAJOR}.x from "
            f"{SCHEMA_MAJOR}.{_MINOR_FLOOR}",
            FailureKind.UNSUPPORTED_VERSION,
        )
    return SCHEMA_MAJOR, min(hello.minor, SCHEMA_MINOR)


def _encode_rows(rows) -> bytes:
    """A verb param or detail of rows (wire 1.3+): :func:`encode_fields`
    of every row's fields in turn, text fields as UTF-8."""
    return encode_fields([value.encode("utf-8") if isinstance(value, str)
                          else value for row in rows for value in row])


def _decode_rows(blob: bytes, width: int, what: str) -> List[tuple]:
    """Inverse of :func:`_encode_rows` for ``width``-field rows, each
    led by a UTF-8 device id: the rows, ids decoded.  Raises
    :class:`CodecError` (``malformed-message``) unless ``blob`` is
    whole such rows."""
    try:
        fields = decode_fields(blob)
        if len(fields) % width:
            raise ValueError(f"{len(fields)} fields do not form rows "
                             f"of {width}")
        ids = [raw.decode("utf-8") for raw in fields[0::width]]
    except ValueError as exc:
        raise CodecError(f"malformed {what}: {exc}") from exc
    return list(zip(ids, *(fields[column::width]
                           for column in range(1, width))))


def _version_byte(value: int, label: str) -> bytes:
    if not 0 <= int(value) <= 255:
        raise TypeError(f"{label} version {value!r} does not fit one byte")
    return bytes([int(value)])


def _header(wire_type: WireType) -> bytes:
    return _HEADER.pack(MAGIC, SCHEMA_MAJOR, SCHEMA_MINOR, wire_type)


def _encode_map(pairs) -> bytes:
    """:func:`encode_fields` of a string-keyed dict, flattened in sorted
    key order; values that are not bytes travel as their UTF-8 text."""
    parts = []
    for key in sorted(pairs):
        value = pairs[key]
        key = key.encode("utf-8")
        if not isinstance(value, (bytes, bytearray)):
            value = str(value).encode("utf-8")
        parts += (_pack_length(len(key)), key, _pack_length(len(value)),
                  value)
    return b"".join(parts)


def _unflatten(blob: bytes, *, text_values: bool) -> dict:
    """Inverse of :func:`_encode_map` (``blob`` is a decoded field)."""
    fields = _decode_from(blob, 0)
    if len(fields) % 2:
        raise CodecError(
            f"report section holds {len(fields)} fields, expected pairs"
        )
    values = fields[1::2]
    return dict(zip(map(bytes.decode, fields[0::2]),
                    map(bytes.decode, values) if text_values else values))


def _report_fields(report: BatchAuthReport) -> tuple:
    return (_encode_map(report.confirmations), _encode_map(report.failures),
            _encode_map(report.failure_kinds))


def _version_fields(message) -> tuple:
    return (message.peer.encode("utf-8"),
            _version_byte(message.major, "major"),
            _version_byte(message.minor, "minor"))


#: Message class -> (its frame header, the payload fields of a message).
_ENCODERS = {
    AuthChallenge: (_header(WireType.CHALLENGE), lambda message: (
        message.device_id.encode("utf-8"), bytes(message.nonce))),
    AuthResponse: (_header(WireType.RESPONSE), lambda message: (
        message.device_id.encode("utf-8"), bytes(message.body),
        bytes(message.tag))),
    AuthConfirmation: (_header(WireType.CONFIRMATION), lambda message: (
        message.device_id.encode("utf-8"), bytes(message.mac))),
    BatchAuthReport: (_header(WireType.REPORT), _report_fields),
    SessionHello: (_header(WireType.HELLO), _version_fields),
    SessionWelcome: (_header(WireType.WELCOME), _version_fields),
    SessionReject: (_header(WireType.REJECT), lambda message: (
        message.kind.encode("utf-8"), message.reason.encode("utf-8"))),
    SessionRequest: (_header(WireType.REQUEST), lambda message: (
        message.verb.encode("utf-8"), message.device_id.encode("utf-8"),
        _encode_map(dict(message.params)))),
    SessionResult: (_header(WireType.RESULT), lambda message: (
        message.verb.encode("utf-8"), message.device_id.encode("utf-8"),
        b"\x01" if message.ok else b"\x00",
        _encode_map(dict(message.detail)))),
}


def encode_message(message: WireMessage) -> bytes:
    """Serialize one protocol message to a self-describing wire frame."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        # A subclass frames as the message class it derives from.
        encoder = next((_ENCODERS[cls] for cls in type(message).__mro__
                        if cls in _ENCODERS), None)
        if encoder is None:
            raise TypeError(
                f"not a wire message: {type(message).__name__}"
            )
    header, fields = encoder
    parts = [header]
    for value in fields(message):
        parts.append(_pack_length(len(value)))
        parts.append(value)
    return b"".join(parts)


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


def _decode_version(cls):
    def build(peer: bytes, major: bytes, minor: bytes):
        if len(major) != 1 or len(minor) != 1:
            raise ValueError("version fields must be single bytes")
        return cls(peer.decode("utf-8"), major[0], minor[0])
    return build


def _decode_result(verb: bytes, device_id: bytes, ok: bytes,
                   detail: bytes) -> SessionResult:
    if ok not in (b"\x00", b"\x01"):
        raise ValueError(f"RESULT ok flag must be 0/1, got {ok!r}")
    return SessionResult(verb.decode("utf-8"), device_id.decode("utf-8"),
                         ok == b"\x01", _unflatten(detail, text_values=False))


def _decode_report(confirmations: bytes, failures: bytes,
                   kinds: bytes) -> BatchAuthReport:
    return BatchAuthReport(
        confirmations=_unflatten(confirmations, text_values=False),
        failures=_unflatten(failures, text_values=True),
        failure_kinds=_unflatten(kinds, text_values=True),
    )


#: Type byte -> (wire type, payload field count, message builder).
_DECODERS = {int(wire_type): (wire_type, n_fields, build)
             for wire_type, n_fields, build in (
    (WireType.CHALLENGE, 2, lambda device_id, nonce: AuthChallenge(
        device_id.decode("utf-8"), nonce)),
    (WireType.RESPONSE, 3, lambda device_id, body, tag: AuthResponse(
        device_id.decode("utf-8"), body, tag)),
    (WireType.CONFIRMATION, 2, lambda device_id, mac: AuthConfirmation(
        device_id.decode("utf-8"), mac)),
    (WireType.REPORT, 3, _decode_report),
    (WireType.HELLO, 3, _decode_version(SessionHello)),
    (WireType.WELCOME, 3, _decode_version(SessionWelcome)),
    (WireType.REJECT, 2, lambda kind, reason: SessionReject(
        kind.decode("utf-8"), reason.decode("utf-8"))),
    (WireType.REQUEST, 3, lambda verb, device_id, params: SessionRequest(
        verb.decode("utf-8"), device_id.decode("utf-8"),
        _unflatten(params, text_values=False))),
    (WireType.RESULT, 4, _decode_result),
)}


def decode_message(data: bytes) -> WireMessage:
    """Inverse of :func:`encode_message`; raises :class:`CodecError`.

    Unknown *major* versions are rejected (the schema contract may have
    changed incompatibly); any minor version within the known major is
    accepted.  Every other malformation — truncation anywhere in the
    frame, unknown message type, wrong field count, non-UTF-8 device
    ids — raises with ``FailureKind.MALFORMED``.
    """
    major, minor, type_byte = peek_header(data)
    if major != SCHEMA_MAJOR:
        raise CodecError(
            f"unsupported schema major version {major} "
            f"(this codec reads {SCHEMA_MAJOR}.x)",
            FailureKind.UNSUPPORTED_VERSION,
        )
    decoder = _DECODERS.get(type_byte)
    if decoder is None:
        raise CodecError(f"unknown message type {type_byte}")
    wire_type, n_fields, build = decoder
    if type(data) is not bytes:
        data = memoryview(data).tobytes()
    try:
        fields = _decode_from(data, _HEADER.size)
    except ValueError as exc:
        raise CodecError(f"malformed payload: {exc}") from exc
    if len(fields) != n_fields:
        raise CodecError(f"malformed {wire_type.name} payload: "
                         f"{len(fields)} fields, expected {n_fields}")
    try:
        return build(*fields)
    except ValueError as exc:
        # A non-UTF-8 text field, or a field value out of range.
        raise CodecError(
            f"malformed {wire_type.name} payload: {exc}"
        ) from exc
