"""``AuthClient``: the device-side SDK for a served fleet verifier.

The client mirrors the :class:`~repro.service.facade.AuthService`
facade verb for verb — ``enroll`` / ``revoke`` / ``authenticate`` /
``submit`` / ``poll`` / ``flush`` / ``spot_check`` /
``authenticate_batch`` / ``open_round_wire`` / ``verify_round_wire`` —
so code written against the in-process service ports to a socket by
awaiting the same calls:

>>> async with AuthClient.connect("127.0.0.1", server.port) as client:
...     await client.enroll(device)
...     ticket = await client.authenticate(device)
...     assert ticket.accepted

One connection serves one *session*: a HELLO/WELCOME version handshake
(:func:`repro.service.codec.negotiate_version`), then full-duplex codec
frames — a background reader routes server-initiated ``CHALLENGE`` /
``CONFIRMATION`` frames to the device hardware held client-side (the
PUF never crosses the wire; only masked responses do) and correlates
``RESULT`` replies back to awaiting verbs.  The confirm/finalize ack
closes the protocol's two-phase commit from this side: the device rolls
its CRP only after the verifier's confirmation MAC checks out, and the
verifier rolls only after this client's ``finalize`` ack.

Gateway rounds
--------------
:meth:`AuthClient.authenticate_batch` runs one explicit round for a
device group held by this side, in three REQUEST/answer pairs whatever
the group's size: ``open-round``, whose ``RESULT`` carries the round's
``(device id, nonce)`` pairs and policy vetoes; then ``close-round``,
carrying every response as a ``(device id, body, tag)`` row, whose one
answer is the ``REPORT`` with the round's confirmations; then the round
``finalize``, whose ``acks`` go out in the order the responses did.
Each device still checks its own confirmation (``FleetDevice.confirm``)
before its ack.  This is wire 1.4's form, and 1.4 is the floor: since
0.17.0 :meth:`AuthClient.connect` refuses a server that negotiates
below it (``unsupported-version``), as a server refuses such a HELLO.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.fleet.rounds import respond_round
from repro.fleet.verifier import (
    AuthResponse,
    BatchAuthReport,
    FleetDevice,
)
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service.codec import (
    SCHEMA_MAJOR,
    _MINOR_FLOOR,
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    _decode_rows,
    _encode_rows,
    decode_message,
    encode_message,
)
from repro.service.net.stream import (
    MAX_FRAME_BYTES,
    _read_frames,
    read_frame,
    write_frame,
)

__all__ = ["AuthClient", "RemoteAuthError", "RemoteTicket"]


class RemoteAuthError(AuthenticationFailure):
    """A served verb failed: the server's taxonomy-coded refusal."""

    def __init__(self, message: str,
                 kind: FailureKind = FailureKind.UNSPECIFIED):
        if not isinstance(kind, FailureKind):
            try:
                kind = FailureKind(kind)
            except ValueError:
                kind = FailureKind.UNSPECIFIED
        super().__init__(message, kind)


def _refusal(result: SessionResult) -> RemoteAuthError:
    """A failure ``RESULT`` as the error it reports."""
    reason = result.detail.get("failure", b"").decode(
        "utf-8", "replace") or f"{result.verb} failed"
    kind = result.detail.get("kind", b"").decode("utf-8", "replace")
    return RemoteAuthError(reason, kind)


def _as_response(frame: Union[bytes, AuthResponse]) -> AuthResponse:
    """A decoded response: ``frame`` itself, or the RESPONSE it frames."""
    message = frame if isinstance(frame, AuthResponse) \
        else decode_message(frame)
    if not isinstance(message, AuthResponse):
        raise CodecError(f"expected a RESPONSE frame, got "
                         f"{type(message).__name__}")
    return message


class RemoteTicket:
    """The pending/settled outcome of one remote coalesced auth —
    the wire twin of :class:`repro.fleet.verifier.CoalescedAuth`."""

    def __init__(self, device: FleetDevice):
        self.device = device
        self.device_id = device.device_id
        self.done = False
        self.accepted = False
        self.failure: Optional[str] = None
        self.failure_kind: Optional[str] = None
        self.nonce: Optional[bytes] = None
        self._settled = asyncio.Event()

    def _settle(self, accepted: bool, failure: Optional[str] = None,
                failure_kind: Optional[str] = None) -> None:
        if self.done:
            return
        self.done = True
        self.accepted = accepted
        self.failure = failure
        self.failure_kind = failure_kind
        self._settled.set()

    async def wait(self, timeout: Optional[float] = None) -> "RemoteTicket":
        """Block until the micro-round settles this request."""
        await asyncio.wait_for(self._settled.wait(), timeout)
        return self


class _ClientRound:
    """State of one explicit gateway round (open-round/close-round)."""

    def __init__(self):
        self.nonces: Dict[str, bytes] = {}
        # Devices the server's policies vetoed at open-round, with the
        # veto (they get no nonce).
        self.vetoes: Dict[str, RemoteAuthError] = {}

    def opened(self, detail) -> None:
        """Read an ``open-round`` RESULT: its ``(device id, nonce)``
        pairs and ``(device id, reason, kind)`` vetoes."""
        self.nonces = dict(_decode_rows(detail.get("nonces", b""), 2,
                                        "open-round nonces"))
        self.vetoes = {
            device_id: RemoteAuthError(reason.decode("utf-8", "replace"),
                                       kind.decode("utf-8", "replace"))
            for device_id, reason, kind in _decode_rows(
                detail.get("vetoes", b""), 3, "open-round vetoes")}


class _Connector:
    """Makes ``AuthClient.connect(...)`` both awaitable and an async
    context manager (``async with AuthClient.connect(...) as client:``)."""

    def __init__(self, coro):
        self._coro = coro
        self._client: Optional["AuthClient"] = None

    def __await__(self):
        return self._coro.__await__()

    async def __aenter__(self) -> "AuthClient":
        self._client = await self._coro
        return self._client

    async def __aexit__(self, *exc) -> None:
        if self._client is not None:
            await self._client.aclose()


class AuthClient:
    """One authenticated-device session against an :class:`AuthServer`.

    Construct via :meth:`connect`; every facade verb is an ``async``
    method.  Device hardware (:class:`FleetDevice`) stays on this side
    of the socket — the client measures, masks, and MACs locally and
    ships only protocol frames.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *, peer: str,
                 server_peer: str, negotiated: Tuple[int, int],
                 response_timeout_s: float, max_frame_bytes: int):
        self._reader = reader
        self._writer = writer
        self.peer = peer
        self.server_peer = server_peer
        self.negotiated_version = negotiated
        self._timeout = response_timeout_s
        self._max_frame_bytes = max_frame_bytes
        self._send_lock = asyncio.Lock()
        self._tickets: Dict[str, RemoteTicket] = {}
        self._waiters: Dict[Tuple[str, str], Deque[asyncio.Future]] = {}
        self._round: Optional[_ClientRound] = None
        self._closed = False
        self._close_error: Optional[AuthenticationFailure] = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop())

    # -- connection -------------------------------------------------------

    @classmethod
    def connect(cls, host: str, port: int, *,
                peer: str = "repro-auth-client",
                handshake_timeout_s: float = 5.0,
                response_timeout_s: float = 30.0,
                max_frame_bytes: int = MAX_FRAME_BYTES) -> "_Connector":
        return _Connector(cls._connect(
            host, port, peer=peer,
            handshake_timeout_s=handshake_timeout_s,
            response_timeout_s=response_timeout_s,
            max_frame_bytes=max_frame_bytes,
        ))

    @classmethod
    async def _connect(cls, host: str, port: int, *, peer: str,
                       handshake_timeout_s: float,
                       response_timeout_s: float,
                       max_frame_bytes: int) -> "AuthClient":
        # Every pre-session await is bounded and taxonomy-coded: a
        # black-holed SYN, a server that accepts and goes silent, or one
        # that dies between HELLO and WELCOME must surface as a typed
        # RemoteAuthError within the handshake timeout, never hang.
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), handshake_timeout_s)
        except asyncio.TimeoutError as exc:
            raise RemoteAuthError(
                f"connect to {host}:{port} timed out",
                FailureKind.TIMEOUT) from exc
        except (ConnectionError, OSError) as exc:
            raise RemoteAuthError(
                f"connect to {host}:{port} failed: {exc}",
                FailureKind.CONNECTION_LOST) from exc
        try:
            write_frame(writer, encode_message(SessionHello(peer)))
            await writer.drain()
            frame = await read_frame(reader, max_bytes=max_frame_bytes,
                                     idle_timeout=handshake_timeout_s,
                                     frame_timeout=handshake_timeout_s)
            if frame is None:
                raise RemoteAuthError(
                    "server closed the connection mid-handshake",
                    FailureKind.CONNECTION_LOST)
            reply = decode_message(frame)
            if isinstance(reply, SessionReject):
                raise RemoteAuthError(reply.reason or reply.kind, reply.kind)
            if not isinstance(reply, SessionWelcome):
                raise RemoteAuthError(
                    f"expected a WELCOME, got {type(reply).__name__}",
                    FailureKind.MALFORMED)
            if reply.major != SCHEMA_MAJOR or reply.minor < _MINOR_FLOOR:
                raise RemoteAuthError(
                    f"server negotiated wire format {reply.major}."
                    f"{reply.minor}, this client speaks {SCHEMA_MAJOR}.x "
                    f"from {SCHEMA_MAJOR}.{_MINOR_FLOOR}",
                    FailureKind.UNSUPPORTED_VERSION)
        except asyncio.TimeoutError as exc:
            writer.close()
            raise RemoteAuthError(
                "server did not complete the handshake in time",
                FailureKind.TIMEOUT) from exc
        except (ConnectionError, OSError) as exc:
            writer.close()
            raise RemoteAuthError(
                f"connection lost mid-handshake: {exc}",
                FailureKind.CONNECTION_LOST) from exc
        except BaseException:
            writer.close()
            raise
        return cls(reader, writer, peer=peer, server_peer=reply.peer,
                   negotiated=(reply.major, reply.minor),
                   response_timeout_s=response_timeout_s,
                   max_frame_bytes=max_frame_bytes)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._fail_all(RemoteAuthError("connection closed",
                                       FailureKind.CONNECTION_LOST))
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            pass

    async def __aenter__(self) -> "AuthClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # -- facade verbs -----------------------------------------------------

    async def enroll(self, device: FleetDevice) -> None:
        """Enroll this side's device hardware with the served registry."""
        if device.current_response is None:
            raise AuthenticationFailure(
                f"device {device.device_id!r} is not provisioned",
                FailureKind.NOT_PROVISIONED)
        result = await self._call("enroll", device.device_id, {
            "response": device.current_response.astype(np.uint8).tobytes(),
            "challenge_bits": str(device.puf.challenge_bits).encode(),
            "firmware_hash": bytes(device.firmware_hash),
            "clock_count": str(device.clock_count).encode(),
        })
        self._raise_if_failed(result)

    async def revoke(self, device_id: str) -> None:
        self._raise_if_failed(await self._call("revoke", device_id))

    async def submit(self, device: FleetDevice) -> RemoteTicket:
        """Queue one auth request into the server's micro-round; the
        returned ticket settles when the round flushes."""
        if device.device_id in self._tickets:
            raise RemoteAuthError(
                f"device {device.device_id!r} already has a pending "
                "request on this connection", FailureKind.DUPLICATE_DEVICE)
        if self._round is not None:
            raise RemoteAuthError(
                "cannot mix coalesced auth with an open gateway round",
                FailureKind.SESSION_MISMATCH)
        ticket = RemoteTicket(device)
        self._tickets[device.device_id] = ticket
        await self._send(SessionRequest("auth", device.device_id))
        return ticket

    async def authenticate(self, device: FleetDevice,
                           flush: bool = False) -> RemoteTicket:
        """Submit and wait for settlement (optionally forcing a flush).

        A ticket that never settles within the verb timeout is aborted
        server-side (keeping both ends on the old CRP) and settled
        locally as a retryable ``timeout``; retrying across endpoints is
        :class:`~repro.service.ha.HAAuthClient`'s job.
        """
        ticket = await self.submit(device)
        if flush:
            await self.flush()
        try:
            await ticket.wait(self._timeout)
        except asyncio.TimeoutError:
            # The challenge or confirmation is lost in transit.  The
            # two-phase commit makes the abort safe: the device never
            # confirmed, so telling the server to abort leaves both
            # sides on the old CRP and a retry is idempotent.
            self._tickets.pop(device.device_id, None)
            try:
                # Quote the round nonce (when a challenge arrived) so the
                # abort can only tear down *this* attempt's round
                # server-side, never a later one it raced.
                await self._send(SessionRequest(
                    "abort", device.device_id,
                    {"round": ticket.nonce} if ticket.nonce else {}))
            except AuthenticationFailure:
                pass
            ticket._settle(False, "no settlement before the verb "
                           "deadline", FailureKind.TIMEOUT.value)
        return ticket

    async def flush(self) -> None:
        """Force the server's pending micro-round to run now."""
        self._raise_if_failed(await self._call("flush"))

    async def poll(self) -> bool:
        """Deadline-flush the server's coalescer; ``True`` if it fired."""
        result = await self._call("poll")
        self._raise_if_failed(result)
        return result.detail.get("flushed") == b"1"

    async def spot_check(self, device: FleetDevice, k: int = 8,
                         threshold: float = 0.25) -> Tuple[float, bool]:
        """Burn ``k`` spot CRPs over the wire: ``(fractional_hd, ok)``."""
        opened = await self._call("spot", device.device_id, {
            "k": str(k).encode(), "threshold": repr(threshold).encode()})
        self._raise_if_failed(opened)
        rows = int(opened.detail["rows"])
        cols = int(opened.detail["cols"])
        challenges = np.frombuffer(opened.detail["challenges"],
                                   dtype=np.uint8).reshape(rows, cols)
        fresh = device.spot_responses(challenges)
        scored = await self._call("spot-submit", device.device_id, {
            "responses": np.asarray(fresh, dtype=np.uint8).tobytes()})
        self._raise_if_failed(scored)
        return (float(scored.detail["hd"]),
                scored.detail["accepted"] == b"1")

    async def authenticate_batch(
            self, devices: Sequence[FleetDevice]) -> BatchAuthReport:
        """One explicit wire round for a gateway-held device group.

        Mirrors :meth:`AuthService.authenticate_batch` (and therefore
        :meth:`BatchVerifier.authenticate_fleet`) semantics: policy
        vetoes, respond, verify, confirm, finalize/abort — every message
        crossing the socket, one write per phase: ``open-round``, then
        the responses with ``close-round``, then the acks.  Only the
        devices that got a nonce respond; the server's policy vetoes
        land in the report with their kinds.  Each device checks its
        confirmation locally first; a device whose check fails is acked
        with ``abort``, the rest with ``finalize``, each fenced by its
        round token, in the order the responses went out.  The acks
        travel as one round ``finalize`` REQUEST, answered by one
        ``RESULT``: the server applies every ack before the first
        refused one raises :class:`RemoteAuthError`, so one refusal
        never leaves the devices behind it unacked.
        """
        devices = list(devices)
        ids = [device.device_id for device in devices]
        nonces = await self.open_round_wire(ids)
        messages = respond_round(
            [device for device in devices if device.device_id in nonces],
            nonces)
        report, confirmations = await self.verify_round_wire(messages)
        by_id = {device.device_id: device for device in devices}
        # (device id, round token, verdict), in the order the responses
        # went out: the order the server confirmed the devices in.
        acks: List[Tuple[str, bytes, str]] = []
        for device_id in dict.fromkeys(message.device_id
                                       for message in messages):
            mac = confirmations.get(device_id)
            if mac is None:
                continue
            device = by_id[device_id]
            try:
                device.confirm(mac, nonces[device_id])
            except AuthenticationFailure as failure:
                report.record_failure(
                    device_id,
                    AuthenticationFailure(f"confirmation: {failure}",
                                          failure.kind))
                report.confirmations.pop(device_id, None)
                acks.append((device_id, nonces[device_id], "abort"))
                continue
            acks.append((device_id, nonces[device_id], "finalize"))
        await self._ack_round(acks)
        return report

    async def _ack_round(self, acks: Sequence[Tuple[str, bytes, str]],
                         ) -> None:
        """Send a gateway round's acks; raise on the first refused one
        once the server has applied them all."""
        if not acks:
            return
        result = await self._call("finalize",
                                  params={"acks": _encode_rows(acks)})
        # (device id, reason, kind) per refused ack, in ack order.
        refused = _decode_rows(result.detail.get("refused", b""), 3,
                               "finalize result")
        if refused:
            __, reason, kind = refused[0]
            raise RemoteAuthError(reason.decode("utf-8", "replace"),
                                  kind.decode("utf-8", "replace"))
        self._raise_if_failed(result)

    # -- transport-level wire-round verbs (gateway mode) ------------------

    async def open_round_wire(
            self, device_ids: Sequence[str]) -> Dict[str, bytes]:
        """Open an explicit round; returns the per-device nonces.

        The nonces and the server's policy vetoes arrive in the
        ``open-round`` RESULT.  A vetoed device gets no nonce;
        :meth:`verify_round_wire` records its veto in the round report.
        """
        if self._round is not None:
            raise RemoteAuthError("a gateway round is already open",
                                  FailureKind.SESSION_MISMATCH)
        if self._tickets:
            raise RemoteAuthError(
                "cannot open a gateway round with coalesced requests "
                "pending", FailureKind.SESSION_MISMATCH)
        round_ = self._round = _ClientRound()
        try:
            result = await self._call("open-round", params={
                "ids": _encode_rows((device_id,)
                                    for device_id in device_ids)})
            self._raise_if_failed(result)
            round_.opened(result.detail)
        except BaseException:
            self._round = None
            raise
        return dict(round_.nonces)

    async def verify_round_wire(
            self, frames: Sequence[Union[bytes, AuthResponse]],
    ) -> Tuple[BatchAuthReport, Dict[str, bytes]]:
        """Ship the responses, close the round; returns ``(report,
        {device_id: confirmation mac})``, the report holding the
        open-round policy vetoes too.

        Each of ``frames`` is a RESPONSE frame or a decoded
        :class:`~repro.fleet.verifier.AuthResponse`, as
        :meth:`AuthService.verify_responses` takes them.  They travel
        as ``(device id, body, tag)`` rows of the ``close-round``
        REQUEST, and the confirmations are the ``REPORT``'s.
        """
        round_ = self._round
        if round_ is None:
            raise RemoteAuthError("no gateway round open",
                                  FailureKind.NO_SESSION)
        rows = _encode_rows((response.device_id, bytes(response.body),
                             bytes(response.tag))
                            for response in map(_as_response, frames))
        try:
            # The REPORT answers a close-round; a failure RESULT
            # refuses it.
            report = await self._call("close-round",
                                      params={"responses": rows})
        finally:
            self._round = None
        if not isinstance(report, BatchAuthReport):
            raise _refusal(report)
        for device_id, veto in round_.vetoes.items():
            report.record_failure(device_id, veto)
        return report, dict(report.confirmations)

    async def finalize(self, device_id: str,
                       token: Optional[bytes] = None) -> None:
        """Ack a confirmation: commit the verifier's side of the roll.

        ``token`` is the round's challenge nonce; when given, the server
        only commits the round it names (stale acks are no-ops).
        """
        self._raise_if_failed(await self._call(
            "finalize", device_id, {"round": token} if token else {}))

    async def abort(self, device_id: str,
                    token: Optional[bytes] = None) -> None:
        """Refuse a confirmation: both sides stay on the old CRP."""
        self._raise_if_failed(await self._call(
            "abort", device_id, {"round": token} if token else {}))

    # -- admin verbs ------------------------------------------------------

    async def metrics(self, fmt: str = "prometheus") -> str:
        """Scrape the server's metrics registry.

        ``fmt`` is ``"prometheus"`` (text exposition format) or
        ``"json"``; any other is refused ``malformed-message``.
        """
        result = await self._call(
            "metrics", params={"format": fmt.encode("utf-8")})
        self._raise_if_failed(result)
        return result.detail.get("body", b"").decode("utf-8")

    async def trace(self) -> list:
        """Fetch the server's recent round spans as JSON."""
        result = await self._call("trace")
        self._raise_if_failed(result)
        return json.loads(result.detail.get("body", b"[]").decode("utf-8"))

    # -- plumbing ---------------------------------------------------------

    async def _send(self, *messages) -> None:
        """Write messages in one write and one drain; raise at once on
        a connection that is closed or ended (see :meth:`_call`)."""
        if self._closed or self._writer.is_closing():
            raise self._close_error or RemoteAuthError(
                "connection closed", FailureKind.CONNECTION_LOST)
        frames = [encode_message(message) for message in messages]
        try:
            async with self._send_lock:
                write_frame(self._writer, *frames)
                await self._writer.drain()
        except ConnectionError as exc:
            raise RemoteAuthError(f"connection lost: {exc}",
                                  FailureKind.CONNECTION_LOST) from exc

    async def _call(self, verb: str, device_id: str = "",
                    params: Optional[Dict[str, bytes]] = None,
                    ) -> Union[SessionResult, BatchAuthReport]:
        """One request; its answer within one verb timeout (a RESULT, or
        the REPORT that answers a close-round).

        Answers carry no request id, so after a timeout this connection
        cannot tell a late answer from a lost one: a timed-out call ends
        the connection.  It raises ``asyncio.TimeoutError`` itself, and
        every other waiter and every later call gets a ``timeout``-kind
        :class:`RemoteAuthError` at once.
        """
        key = (verb, device_id)
        future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(key, deque()).append(future)
        try:
            await self._send(SessionRequest(verb, device_id, params or {}))
        except BaseException:
            # The request never left, so no answer settles its waiter:
            # drop it, so a later _fail_all leaves no error unretrieved,
            # and consume one that _fail_all already set.
            queue = self._waiters.get(key)
            if queue and future in queue:
                queue.remove(future)
                if not queue:
                    del self._waiters[key]
            if future.done():
                future.exception()
            raise
        try:
            return await asyncio.wait_for(future, self._timeout)
        except asyncio.TimeoutError:
            self._fail_all(RemoteAuthError(
                f"no answer to {verb!r} within {self._timeout} s; "
                "connection ended", FailureKind.TIMEOUT))
            self._writer.close()
            raise

    @staticmethod
    def _raise_if_failed(result: SessionResult) -> None:
        if not result.ok:
            raise _refusal(result)

    def _fail_all(self, error: AuthenticationFailure) -> None:
        self._close_error = self._close_error or error
        for queue in self._waiters.values():
            for future in queue:
                if not future.done():
                    future.set_exception(error)
        self._waiters.clear()
        for ticket in list(self._tickets.values()):
            ticket._settle(False, str(error),
                           getattr(error.kind, "value", None))
        self._tickets.clear()
        self._round = None

    # -- the background reader -------------------------------------------

    async def _read_loop(self) -> None:
        inbox = bytearray()
        try:
            while True:
                frames = await _read_frames(self._reader, inbox,
                                            max_bytes=self._max_frame_bytes)
                if frames is None:
                    self._fail_all(RemoteAuthError(
                        "server closed the connection",
                        FailureKind.CONNECTION_LOST))
                    return
                for frame in frames:
                    await self._handle_frame(decode_message(frame))
        except asyncio.CancelledError:
            raise
        except AuthenticationFailure as failure:
            self._fail_all(RemoteAuthError(str(failure), failure.kind))
        except (ConnectionError, OSError) as exc:
            self._fail_all(RemoteAuthError(f"connection lost: {exc}",
                                           FailureKind.CONNECTION_LOST))

    async def _handle_frame(self, message) -> None:
        if isinstance(message, AuthChallenge):
            await self._on_challenge(message)
        elif isinstance(message, AuthConfirmation):
            await self._on_confirmation(message)
        elif isinstance(message, BatchAuthReport):
            self._answer(("close-round", ""), message)
        elif isinstance(message, SessionResult):
            self._on_result(message)
        elif isinstance(message, SessionReject):
            raise CodecError(f"server rejected the session: "
                             f"{message.reason}", message.to_failure().kind)
        else:
            raise CodecError(
                f"unexpected {type(message).__name__} frame from server")

    async def _on_challenge(self, challenge: AuthChallenge) -> None:
        ticket = self._tickets.get(challenge.device_id)
        if ticket is None:
            return                        # unsolicited — ignore
        if ticket.nonce is not None:
            # A second CHALLENGE for an attempt already answered — a
            # duplicated REQUEST opened a ghost round server-side.
            # Answering it would overwrite the device's pending mask
            # (and this ticket's nonce) while the first round's
            # CONFIRMATION is in flight; stay bound to the first round
            # and let the ghost time out.
            return
        ticket.nonce = challenge.nonce
        try:
            response = ticket.device.respond(challenge.nonce)
        except AuthenticationFailure as failure:
            self._finish_ticket(ticket, False, str(failure),
                                failure.kind.value)
            return
        await self._send_raw(encode_message(response))

    async def _on_confirmation(self,
                               confirmation: AuthConfirmation) -> None:
        ticket = self._tickets.get(confirmation.device_id)
        if ticket is None:
            return
        round_token = {"round": ticket.nonce} if ticket.nonce else {}
        try:
            ticket.device.confirm(confirmation.mac, ticket.nonce)
        except AuthenticationFailure as failure:
            # Two-phase commit: refuse the ack so the verifier stays on
            # the old CRP alongside this device.
            await self._send_raw(encode_message(
                SessionRequest("abort", confirmation.device_id,
                               round_token)))
            self._finish_ticket(ticket, False, f"confirmation: {failure}",
                                failure.kind.value)
            return
        await self._send_raw(encode_message(
            SessionRequest("finalize", confirmation.device_id,
                           round_token)))
        self._finish_ticket(ticket, True)

    def _on_result(self, result: SessionResult) -> None:
        if result.verb == "auth":
            ticket = self._tickets.get(result.device_id)
            if ticket is not None:
                self._finish_ticket(
                    ticket, False,
                    result.detail.get("failure", b"").decode("utf-8",
                                                             "replace"),
                    result.detail.get("kind", b"").decode("utf-8",
                                                          "replace"))
            return
        self._answer((result.verb, result.device_id), result)

    def _answer(self, key: Tuple[str, str], answer) -> None:
        """Settle the oldest call awaiting ``key``."""
        queue = self._waiters.get(key)
        if queue:
            future = queue.popleft()
            if not queue:
                del self._waiters[key]
            if not future.done():
                future.set_result(answer)
        # else: an unawaited fire-and-forget ack (finalize/abort).

    def _finish_ticket(self, ticket: RemoteTicket, accepted: bool,
                       failure: Optional[str] = None,
                       failure_kind: Optional[str] = None) -> None:
        self._tickets.pop(ticket.device_id, None)
        ticket._settle(accepted, failure, failure_kind)

    async def _send_raw(self, frame: bytes) -> None:
        try:
            async with self._send_lock:
                write_frame(self._writer, frame)
                await self._writer.drain()
        except (ConnectionError, OSError):
            pass                          # the read loop reports the loss
