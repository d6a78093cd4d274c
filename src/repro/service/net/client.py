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
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.rounds import respond_round
from repro.fleet.verifier import (
    BatchAuthReport,
    FleetDevice,
)
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service.codec import (
    AuthChallenge,
    AuthConfirmation,
    CodecError,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    decode_message,
    encode_message,
)
from repro.service.net.stream import (
    MAX_FRAME_BYTES,
    _read_frames,
    read_frame,
    write_frame,
)
from repro.service.policy import RetryPolicy
from repro.utils.serialization import encode_fields

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

    def __init__(self, device_ids: Sequence[str]):
        self.expected = set(device_ids)
        self.nonces: Dict[str, bytes] = {}
        self.confirmations: Dict[str, bytes] = {}
        self.report: asyncio.Future = \
            asyncio.get_running_loop().create_future()


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
                           flush: bool = False,
                           retry_policy: Optional["RetryPolicy"] = None,
                           ) -> RemoteTicket:
        """Submit and wait for settlement (optionally forcing a flush).

        With a :class:`~repro.service.policy.RetryPolicy`, settled
        failures whose kind the policy deems retryable are retried on
        this same connection after the policy's backoff — the identical
        taxonomy the in-process facade uses, now covering the transport
        kinds too (``timeout``, ``replica-unavailable``, ...).  A ticket
        that never settles within the verb timeout is aborted
        server-side (keeping both ends on the old CRP) and settled
        locally as a retryable ``timeout``.
        """
        attempt = 0
        while True:
            attempt += 1
            ticket = await self.submit(device)
            if flush:
                await self.flush()
            try:
                await ticket.wait(self._timeout)
            except asyncio.TimeoutError:
                # The challenge or confirmation is lost in transit.  The
                # two-phase commit makes the abort safe: the device never
                # confirmed, so telling the server to abort leaves both
                # sides on the old CRP and the retry is idempotent.
                self._tickets.pop(device.device_id, None)
                try:
                    # Quote the round nonce (when a challenge arrived) so
                    # the abort can only tear down *this* attempt's round
                    # server-side, never a later one it raced.
                    await self._send(SessionRequest(
                        "abort", device.device_id,
                        {"round": ticket.nonce} if ticket.nonce else {}))
                except AuthenticationFailure:
                    pass
                ticket._settle(False, "no settlement before the verb "
                               "deadline", FailureKind.TIMEOUT.value)
            if ticket.accepted or retry_policy is None:
                return ticket
            if not retry_policy.should_retry(ticket.failure_kind, attempt):
                return ticket
            delay = retry_policy.delay(attempt)
            if delay > 0.0:
                await asyncio.sleep(delay)

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
        :meth:`BatchVerifier.authenticate_fleet`) semantics: respond,
        verify, confirm, finalize/abort — every message crossing the
        socket, one write per phase: ``open-round``, then every
        RESPONSE with ``close-round``, then every ack.  Each device
        checks its confirmation locally first; a device whose check
        fails is acked with ``abort``, the rest with ``finalize``, each
        fenced by its round token.  The acks are pipelined in one write
        and their results awaited in request order; the first refused
        ack then raises :class:`RemoteAuthError`, so one refusal never
        leaves the devices behind it unacked.
        """
        devices = list(devices)
        ids = [device.device_id for device in devices]
        nonces = await self.open_round_wire(ids)
        messages = respond_round(devices, nonces)
        report, confirmations = await self.verify_round_wire(
            [encode_message(message) for message in messages])
        by_id = {device.device_id: device for device in devices}
        acks = []
        for device_id, mac in list(confirmations.items()):
            device = by_id.get(device_id)
            if device is None:
                continue
            token = {"round": nonces[device_id]}
            try:
                device.confirm(mac, nonces[device_id])
            except AuthenticationFailure as failure:
                report.record_failure(
                    device_id,
                    AuthenticationFailure(f"confirmation: {failure}",
                                          failure.kind))
                report.confirmations.pop(device_id, None)
                acks.append(SessionRequest("abort", device_id, token))
                continue
            acks.append(SessionRequest("finalize", device_id, token))
        for result in await self._call_all(acks):
            self._raise_if_failed(result)
        return report

    # -- transport-level wire-round verbs (gateway mode) ------------------

    async def open_round_wire(
            self, device_ids: Sequence[str]) -> Dict[str, bytes]:
        """Open an explicit round; returns the per-device nonces."""
        if self._round is not None:
            raise RemoteAuthError("a gateway round is already open",
                                  FailureKind.SESSION_MISMATCH)
        if self._tickets:
            raise RemoteAuthError(
                "cannot open a gateway round with coalesced requests "
                "pending", FailureKind.SESSION_MISMATCH)
        round_ = _ClientRound(device_ids)
        self._round = round_
        try:
            result = await self._call("open-round", params={
                "ids": encode_fields([device_id.encode("utf-8")
                                      for device_id in device_ids])})
            self._raise_if_failed(result)
        except BaseException:
            self._round = None
            raise
        # Server FIFO: every CHALLENGE precedes the open-round RESULT.
        return dict(round_.nonces)

    async def verify_round_wire(
            self, frames: Sequence[bytes],
    ) -> Tuple[BatchAuthReport, Dict[str, bytes]]:
        """Ship RESPONSE frames, close the round; returns
        ``(report, {device_id: confirmation mac})``."""
        round_ = self._round
        if round_ is None:
            raise RemoteAuthError("no gateway round open",
                                  FailureKind.NO_SESSION)
        try:
            await self._send_frames(
                *frames, encode_message(SessionRequest("close-round")))
            report = await asyncio.wait_for(round_.report, self._timeout)
        finally:
            self._round = None
        return report, dict(round_.confirmations)

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

    # -- admin verbs (wire 1.2+) ------------------------------------------

    async def metrics(self, fmt: str = "prometheus") -> str:
        """Scrape the server's metrics registry (wire 1.2+).

        ``fmt`` is ``"prometheus"`` (text exposition format) or
        ``"json"``; a 1.1 server refuses with
        ``FailureKind.UNSUPPORTED_VERSION``.
        """
        result = await self._call(
            "metrics", params={"format": fmt.encode("utf-8")})
        self._raise_if_failed(result)
        return result.detail.get("body", b"").decode("utf-8")

    async def trace(self) -> list:
        """Fetch the server's recent round spans as JSON (wire 1.2+)."""
        result = await self._call("trace")
        self._raise_if_failed(result)
        return json.loads(result.detail.get("body", b"[]").decode("utf-8"))

    # -- plumbing ---------------------------------------------------------

    async def _send(self, *messages) -> None:
        await self._send_frames(*[encode_message(message)
                                  for message in messages])

    async def _send_frames(self, *frames: bytes) -> None:
        """Write frames in one write and one drain."""
        if self._closed:
            raise self._close_error or RemoteAuthError(
                "connection closed", FailureKind.CONNECTION_LOST)
        try:
            async with self._send_lock:
                write_frame(self._writer, *frames)
                await self._writer.drain()
        except ConnectionError as exc:
            raise RemoteAuthError(f"connection lost: {exc}",
                                  FailureKind.CONNECTION_LOST) from exc

    def _expect(self, verb: str, device_id: str = "") -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault((verb, device_id),
                                 deque()).append(future)
        return future

    async def _call(self, verb: str, device_id: str = "",
                    params: Optional[Dict[str, bytes]] = None,
                    ) -> SessionResult:
        (result,) = await self._call_all(
            [SessionRequest(verb, device_id, params or {})])
        return result

    async def _call_all(self, requests: Sequence[SessionRequest],
                        ) -> List[SessionResult]:
        """Pipeline requests in one write; their results, in request
        order, within one verb timeout."""
        if not requests:
            return []
        futures = [self._expect(request.verb, request.device_id)
                   for request in requests]
        await self._send(*requests)
        return await asyncio.wait_for(asyncio.gather(*futures),
                                      self._timeout)

    @staticmethod
    def _raise_if_failed(result: SessionResult) -> None:
        if not result.ok:
            reason = result.detail.get("failure", b"").decode(
                "utf-8", "replace") or f"{result.verb} failed"
            kind = result.detail.get("kind", b"").decode("utf-8", "replace")
            raise RemoteAuthError(reason, kind)

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
        if self._round is not None and not self._round.report.done():
            self._round.report.set_exception(error)
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
            if self._round is not None and not self._round.report.done():
                self._round.report.set_result(message)
        elif isinstance(message, SessionResult):
            self._on_result(message)
        elif isinstance(message, SessionReject):
            raise CodecError(f"server rejected the session: "
                             f"{message.reason}", message.to_failure().kind)
        else:
            raise CodecError(
                f"unexpected {type(message).__name__} frame from server")

    async def _on_challenge(self, challenge: AuthChallenge) -> None:
        if (self._round is not None
                and challenge.device_id in self._round.expected):
            self._round.nonces[challenge.device_id] = challenge.nonce
            return
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
        if self._round is not None:
            self._round.confirmations[confirmation.device_id] = \
                confirmation.mac
            return
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
        queue = self._waiters.get((result.verb, result.device_id))
        if queue:
            future = queue.popleft()
            if not queue:
                del self._waiters[(result.verb, result.device_id)]
            if not future.done():
                future.set_result(result)
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
