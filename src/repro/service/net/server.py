"""``AuthServer``: the fleet verifier served over asyncio TCP.

The server wraps one :class:`~repro.service.facade.AuthService` and
speaks the versioned wire codec (:mod:`repro.service.codec`) over
length-prefixed frames (:mod:`repro.service.net.stream`), following the
gateway/authorizer split of fleet provisioning services: connections
are cheap per-device sessions; all protocol authority stays in the
wrapped service.

Request coalescing
------------------
Individually-arriving ``auth`` requests are *not* verified one by one —
they queue into a server-wide
:class:`repro.fleet.verifier.RoundCoalescer`, the same trigger policy
the in-process service runs, built from the wrapped service's
:class:`~repro.service.config.FleetConfig` (latency budget,
``max_batch``) and its injectable monotonic clock
(:attr:`AuthService.clock`).  A served fleet therefore batches exactly
like the in-process one, and stragglers still batch onto the hot
stacked plane.  The server adds only what a socket needs: a retransmit
of a device already pending on the same connection is dropped, queued
requests count against the connection's read gate, and a flush-timer
task sleeps until the coalescer's deadline and then polls it (while
nothing is pending it waits on an event instead of polling).

A wire micro-round is the protocol's Fig. 4 exchange, scattered:

1. gather — pending ``REQUEST(auth)`` entries, across connections;
2. ``open_round`` on the service, in arrival order (the nonce stream
   is shared with the in-process path, bit for bit);
3. scatter ``CHALLENGE`` frames to each device's connection;
4. gather ``RESPONSE`` frames (bounded by ``response_timeout_s`` — a
   silent device fails *its own* ticket, never the round);
5. one batched ``verify_round_wire``; scatter ``CONFIRMATION`` frames
   (accepted) and ``RESULT`` frames (rejected, with the shared
   ``FailureKind`` taxonomy);
6. each device acks with ``REQUEST(finalize)`` (or ``abort``) to
   commit the two-phase CRP roll; a connection that dies before its
   ack is aborted, keeping both sides on the old CRP.  The same holds
   for the confirmations of an explicit gateway round
   (``open-round``/``close-round``).

Gateway rounds
--------------
A gateway drives a whole device group on one connection, and its frame
traffic grows with the round's phases, not its devices: ``open-round``
answers with every ``CHALLENGE`` plus its ``RESULT`` in one write, and
``close-round`` with every ``CONFIRMATION`` plus the ``REPORT``.  The
verb loop reads in bulk — every complete frame the socket delivered —
dispatches those frames in order and writes the replies they produce
together once they are done, so a gateway's pipelined ``finalize``
acks get their ``RESULT`` frames back in one write too.  Held replies
go out early once they reach ``write_high_bytes``, before the loop
waits on the backpressure gate, and before it closes a connection, so
a ``REJECT`` and the replies ahead of it still arrive.

Isolation and flow control
--------------------------
Hostile sockets never poison a round: malformed frames get a
taxonomy-coded ``REJECT`` and only *that* connection closes; truncated
frames and slow-loris trickles time out per-socket (the guards of
:mod:`repro.service.net.stream` hold for every frame of a bulk read);
a device that never answers its challenge is settled as failed while
the rest of its micro-round completes.  Per-connection flow control is
two-sided: reads pause above ``pending_high`` queued-but-unflushed
requests (resuming at ``pending_low``), and writes run under bounded
transport buffers (``set_write_buffer_limits``) with drain timeouts, so
one slow or stuck peer cannot pin a round or the server's memory.
Shutdown drains: pending tickets flush, in-flight rounds finish, and
unacked confirmations are aborted before the loop stops.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque, namedtuple
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.fleet.verifier import AuthResponse, RoundCoalescer
from repro.obs.export import render_json, render_prometheus
from repro.obs.instrument import RegistryBackedCounters
from repro.obs.registry import MetricsRegistry
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service.codec import (
    SCHEMA_MINOR,
    CodecError,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    WireMessage,
    decode_message,
    encode_message,
    negotiate_version,
)
from repro.service.net.stream import (
    MAX_FRAME_BYTES,
    _read_frames,
    read_frame,
    write_frame,
)
from repro.service.policy import run_hooks
from repro.utils.serialization import decode_fields

__all__ = ["AuthServer", "NetConfig", "ServerMetrics"]


@dataclass(frozen=True)
class NetConfig:
    """Transport knobs for :class:`AuthServer` (all times in seconds).

    Batching is not a transport knob: the server coalesces with the
    wrapped service's :class:`~repro.service.config.FleetConfig`
    (``latency_budget_s``, ``max_batch``).
    """

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (read server.port)
    peer: str = "repro-auth-server"
    max_frame_bytes: int = MAX_FRAME_BYTES
    handshake_timeout_s: float = 2.0    # HELLO must land this fast
    frame_timeout_s: float = 2.0        # slow-loris: started frames finish
    response_timeout_s: float = 10.0    # round waits this long for devices
    drain_timeout_s: float = 5.0        # shutdown: in-flight round grace
    pending_high: int = 256             # pause reads: queued unflushed auths
    pending_low: int = 64               # resume reads
    read_buffer_bytes: int = 1 << 16    # StreamReader limit per connection
    write_high_bytes: int = 1 << 16     # transport write buffer watermarks
    write_low_bytes: int = 1 << 14

    def __post_init__(self):
        if self.pending_low > self.pending_high:
            raise ValueError("pending_low must not exceed pending_high")
        if self.write_low_bytes > self.write_high_bytes:
            raise ValueError("write_low_bytes must not exceed "
                             "write_high_bytes")
        for name in ("handshake_timeout_s", "frame_timeout_s",
                     "response_timeout_s", "drain_timeout_s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


class ServerMetrics(RegistryBackedCounters):
    """Counters a served deployment exports: plain ints with
    ``to_json()``, living as ``repro_net_server_*`` series on a
    :class:`~repro.obs.MetricsRegistry` — scrapeable over the wire via
    the ``metrics`` verb (wire 1.2).  A server starts on a private
    registry; :func:`repro.obs.instrument_server` moves the counts onto
    a shared one.
    """

    _PREFIX = "repro_net_server_"
    _FIELDS = (
        "connections_opened", "connections_closed", "handshakes_failed",
        "rejected_connections", "requests", "submitted", "micro_rounds",
        "flushed_by_size", "flushed_by_deadline", "flushed_by_duplicate",
        "retransmits_dropped", "auths_accepted", "auths_failed",
        "responses_timed_out", "acks_aborted", "reads_paused",
        "drained_tickets",
    )
    _HELP = {
        "connections_opened": "Sockets accepted",
        "connections_closed": "Sockets torn down",
        "handshakes_failed": "Connections dropped before a valid HELLO",
        "rejected_connections": "Connections closed with a REJECT frame",
        "requests": "REQUEST frames dispatched",
        "submitted": "auth tickets queued into the wire coalescer",
        "micro_rounds": "Wire micro-rounds run",
        "flushed_by_size": "Micro-rounds flushed by max_batch",
        "flushed_by_deadline": "Micro-rounds flushed by latency budget",
        "flushed_by_duplicate": "Micro-rounds flushed by duplicate device",
        "retransmits_dropped": "Idempotent re-submits dropped",
        "auths_accepted": "Confirmations delivered",
        "auths_failed": "Failure RESULT frames sent",
        "responses_timed_out": "Devices silent past response_timeout_s",
        "acks_aborted": "Unacked confirmations aborted (ambiguous)",
        "reads_paused": "Backpressure gate closures",
        "drained_tickets": "Tickets flushed by graceful shutdown",
    }


class _Connection:
    """Per-socket state: routing tables, watermark gate, write lock."""

    def __init__(self, server: "AuthServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.peer = "?"
        self.minor = SCHEMA_MINOR        # negotiated wire minor (handshake)
        self.closed = False
        self.queued = 0                  # auths submitted, round not open yet
        self.gate = asyncio.Event()
        self.gate.set()
        # device_id -> rounds awaiting this connection's RESPONSE/ack,
        # oldest first (same-device pipelining across micro-rounds).
        self.routes: Dict[str, Deque["_WireRound"]] = {}
        self.explicit: Optional["_ExplicitRound"] = None
        self.spot_pending: Dict[str, Tuple[np.ndarray, float]] = {}
        self.ack_pending: Set[str] = set()
        self.inbox = bytearray()         # bytes read past the last frame
        # Replies held while the verb loop dispatches one read's frames.
        self.held: Optional[List[bytes]] = None
        self.held_bytes = 0
        self._write_lock = asyncio.Lock()

    async def send(self, *frames: bytes) -> bool:
        """Write frames in one write; ``False`` (and close) if the peer
        is gone or too slow to drain — a stuck writer must not pin a
        round.  While replies are held the frames join them instead;
        once they reach ``write_high_bytes`` every held frame is written,
        so a peer that never reads cannot pin more than that."""
        if self.closed:
            return False
        if self.held is not None:
            self.held.extend(frames)
            self.held_bytes += sum(map(len, frames))
            if self.held_bytes < self.server.config.write_high_bytes:
                return True
            frames, self.held, self.held_bytes = tuple(self.held), [], 0
        try:
            async with self._write_lock:
                write_frame(self.writer, *frames)
                await asyncio.wait_for(self.writer.drain(),
                                       self.server.config.frame_timeout_s)
        except (ConnectionError, asyncio.TimeoutError, RuntimeError):
            self.close()
            return False
        return True

    async def send_message(self, message: WireMessage) -> bool:
        return await self.send(encode_message(message))

    async def release(self) -> None:
        """Stop holding replies and write the held ones."""
        held, self.held, self.held_bytes = self.held, None, 0
        if held:
            await self.send(*held)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        held, self.held, self.held_bytes = self.held, None, 0
        self.gate.set()  # unblock a parked read so the handler exits
        try:
            if held:
                write_frame(self.writer, *held)
            self.writer.close()
        except RuntimeError:
            pass


#: One wire ``auth`` request, queued in the coalescer as its "device".
_WireAuth = namedtuple("_WireAuth", "conn device_id")


class _WireRound:
    """One scattered micro-round: who owes a RESPONSE, what arrived."""

    def __init__(self, entries: List[Tuple[_Connection, str]]):
        self.entries = entries
        self.order = [device_id for __, device_id in entries]
        self.conn_of = {device_id: conn for conn, device_id in entries}
        self.nonces: Dict[str, bytes] = {}
        # Decoded RESPONSEs, in arrival order (dict).
        self.responses: Dict[str, AuthResponse] = {}
        self.outstanding: Set[str] = set(self.order)
        self.complete = asyncio.Event()

    def deliver(self, response: AuthResponse) -> None:
        device_id = response.device_id
        if device_id in self.outstanding:
            self.responses[device_id] = response
            self.lose(device_id)

    def lose(self, device_id: str) -> None:
        self.outstanding.discard(device_id)
        if not self.outstanding:
            self.complete.set()


class _ExplicitRound:
    """A client-driven ``open-round``/``close-round`` gateway round."""

    def __init__(self, nonces: Dict[str, bytes]):
        self.nonces = nonces
        self.responses: List[AuthResponse] = []   # decoded, in order
        # A hostile gateway may stuff unboundedly many frames into one
        # round; past this the connection is rejected, not the round.
        self.max_frames = max(64, 4 * len(nonces))


class AuthServer:
    """Serve one :class:`~repro.service.facade.AuthService` over TCP.

    >>> async with AuthServer(service, NetConfig(port=0)) as server:
    ...     client = await AuthClient.connect("127.0.0.1", server.port)

    The server owns no protocol state of its own — every verb lands on
    the wrapped service/verifier, so snapshots, policies, and metrics
    of the in-process path apply unchanged to served fleets.
    """

    #: Verbs a fenced (non-primary / lease-lost) replica refuses.  The
    #: finalize/abort acks stay unfenced: they settle rounds *this*
    #: server already ran, and on a server that never ran one they land
    #: as a harmless NO_SESSION from the verifier.
    FENCED_VERBS = frozenset({"auth", "enroll", "revoke", "spot",
                              "spot-submit", "open-round", "close-round"})

    def __init__(self, service, config: Optional[NetConfig] = None,
                 fence=None):
        self.service = service
        self.config = config or NetConfig()
        # ``fence`` is an optional callable returning None (serve) or an
        # AuthenticationFailure to refuse state-changing verbs with —
        # how a ReplicaGroup keeps standbys and deposed primaries from
        # opening rounds (see repro.service.ha).
        self.fence = fence
        self.metrics = ServerMetrics(MetricsRegistry())
        self._obs = None
        self._clock = service.clock
        # The registry is read per request: an HA promotion may swap it.
        self._coalescer = RoundCoalescer(
            lambda device_id: self.service.registry.record(device_id),
            lambda batch: self._track(self._run_round(batch)),
            latency_budget_s=service.config.latency_budget_s,
            max_batch=service.config.max_batch, clock=service.clock,
        )
        self._pending_set = asyncio.Event()
        self._conns: Set[_Connection] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._rounds: Set[asyncio.Task] = set()
        self._ack_pending: Set[Tuple[_Connection, str]] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._flush_task: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "AuthServer":
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port,
            limit=self.config.read_buffer_bytes,
        )
        self._flush_task = asyncio.get_running_loop().create_task(
            self._flush_timer())
        return self

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    async def __aenter__(self) -> "AuthServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Graceful shutdown: drain tickets, finish rounds, abort the
        unacked, then tear the sockets down."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: pending tickets become one final micro-round.
        if self._coalescer.pending_count:
            self.metrics.drained_tickets += self._coalescer.pending_count
            self._coalescer.flush()
        if self._rounds:
            await asyncio.wait(list(self._rounds),
                               timeout=self.config.drain_timeout_s)
        # Give in-flight finalize acks a moment, then abort the rest —
        # two-phase commit keeps those devices on the old CRP.
        loop = asyncio.get_running_loop()
        grace = loop.time() + self.config.drain_timeout_s
        while self._ack_pending and loop.time() < grace:
            await asyncio.sleep(0.005)
        for conn, device_id in list(self._ack_pending):
            self._abort_unacked(conn, device_id)
        if self._flush_task is not None:
            self._flush_task.cancel()
        for conn in list(self._conns):
            conn.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers),
                               timeout=self.config.drain_timeout_s)

    async def kill(self) -> None:
        """Abrupt crash, for chaos testing: no drain, no final flush.

        In-flight rounds are cancelled wherever they stand — between
        CONFIRMATION and finalize included, which is exactly the window
        the CommitLog recovery path exists for.  Connection teardown
        still runs (a dead process's sockets close too), so unacked
        confirmations become *ambiguous* aborts, never clean ones.
        """
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        if self._flush_task is not None:
            self._flush_task.cancel()
        for task in list(self._rounds):
            task.cancel()
        for conn in list(self._conns):
            conn.close()
        for task in list(self._handlers):
            task.cancel()
        doomed = [task for task in (*self._rounds, *self._handlers,
                                    self._flush_task) if task is not None]
        if doomed:
            await asyncio.gather(*doomed, return_exceptions=True)
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- coalescing: the wire-specific parts around RoundCoalescer -------

    async def _flush_timer(self) -> None:
        """Enforce the latency budget on the service's monotonic clock.

        ``asyncio.sleep`` merely paces the coalescer's own
        :meth:`RoundCoalescer.poll`, which re-reads
        :attr:`AuthService.clock`, so an injected test clock stays
        authoritative.  While nothing is pending the timer waits on an
        event and never polls.
        """
        while True:
            delay = self._coalescer.time_to_deadline()
            if delay is None:
                self._pending_set.clear()
                await self._pending_set.wait()
                continue
            if delay > 0.0:
                await asyncio.sleep(delay)
            self._coalescer.poll()
            self._count()

    def _count(self) -> None:
        """Mirror the coalescer's counts onto the same-named metrics."""
        for name in ("submitted", "micro_rounds", "flushed_by_size",
                     "flushed_by_deadline", "flushed_by_duplicate"):
            setattr(self.metrics, name, getattr(self._coalescer, name))

    def _submit_auth(self, conn: _Connection, device_id: str) -> None:
        queued = self._coalescer.pending(device_id)
        if queued is not None and queued[0].conn is conn:
            # A retransmit (a duplicating network, or a client retry
            # racing its own first request): the pending entry will
            # challenge the device; queueing a second would open a
            # ghost round whose failure RESULT races the real round's
            # CONFIRMATION.  Submit is idempotent per (connection,
            # device); the same device on another connection is a
            # duplicate, which the coalescer flushes first.
            self.metrics.retransmits_dropped += 1
            return
        self._coalescer.submit(_WireAuth(conn, device_id))
        conn.queued += 1
        self._update_gate(conn)
        self._count()
        self._pending_set.set()

    def _update_gate(self, conn: _Connection) -> None:
        if conn.queued >= self.config.pending_high and conn.gate.is_set():
            conn.gate.clear()
            self.metrics.reads_paused += 1
        elif conn.queued <= self.config.pending_low and not conn.gate.is_set():
            conn.gate.set()

    async def _run_round(self, batch: List[tuple]) -> None:
        """One flushed micro-round, scattered over its connections."""
        pending = [request for request, __ in batch]
        for conn, __ in pending:
            conn.queued -= 1
            self._update_gate(conn)
        # Screen revoked-while-pending (their own not-enrolled rejection,
        # before the round opens) and dead connections.
        live: List[Tuple[_Connection, str]] = []
        for conn, device_id in pending:
            if conn.closed:
                continue
            if device_id in self.service.registry:
                live.append((conn, device_id))
            else:
                await self._fail_auth(
                    conn, device_id,
                    f"device {device_id!r} was revoked while its request "
                    "was pending", FailureKind.NOT_ENROLLED.value,
                )
        if not live:
            return
        self._coalescer.opened(len(live))
        self._count()
        ids = [device_id for __, device_id in live]
        try:
            nonces, challenge_frames = self.service.open_round_wire(ids)
        except AuthenticationFailure as failure:
            for conn, device_id in live:
                await self._fail_auth(conn, device_id,
                                      f"micro-round failed: {failure}",
                                      failure.kind.value)
            return
        round_ = _WireRound(live)
        round_.nonces = nonces
        for conn, device_id in live:
            conn.routes.setdefault(device_id, deque()).append(round_)
            if not await conn.send(challenge_frames[device_id]):
                self._drop_route(conn, device_id, round_)
        if round_.outstanding:
            try:
                await asyncio.wait_for(round_.complete.wait(),
                                       self.config.response_timeout_s)
            except asyncio.TimeoutError:
                self.metrics.responses_timed_out += len(round_.outstanding)
        report_frame, confirmation_frames = self.service.verify_round_wire(
            list(round_.responses.values()), nonces)
        report = decode_message(report_frame)
        for conn, device_id in live:
            self._drop_route(conn, device_id, round_)
            if device_id in report.confirmations:
                # Expose before the frame is written: from here the
                # device may roll, so the parked candidate must survive
                # any later unambiguous abort (see BatchVerifier.abort).
                self.service.verifier.expose(device_id)
                if await conn.send(confirmation_frames[device_id]):
                    self._await_ack(conn, device_id)
                    self.metrics.auths_accepted += 1
                else:
                    self._abort_unacked(conn, device_id)
            elif device_id in report.failures:
                await self._fail_auth(
                    conn, device_id, report.failures[device_id],
                    report.failure_kinds.get(device_id,
                                             FailureKind.UNSPECIFIED.value),
                )
            else:
                await self._fail_auth(
                    conn, device_id,
                    "no response before the round deadline",
                    FailureKind.TIMEOUT.value,
                )

    @staticmethod
    def _drop_route(conn: _Connection, device_id: str,
                    round_: _WireRound) -> None:
        queue = conn.routes.get(device_id)
        if queue is not None:
            try:
                queue.remove(round_)
            except ValueError:
                pass
            if not queue:
                conn.routes.pop(device_id, None)

    async def _fail_auth(self, conn: _Connection, device_id: str,
                         reason: str, kind: str) -> None:
        self.metrics.auths_failed += 1
        await conn.send_message(SessionResult(
            "auth", device_id, ok=False,
            detail={"failure": reason.encode("utf-8"),
                    "kind": kind.encode("utf-8")},
        ))

    def _await_ack(self, conn: _Connection, device_id: str) -> None:
        conn.ack_pending.add(device_id)
        self._ack_pending.add((conn, device_id))

    def _acked(self, conn: _Connection, device_id: str) -> None:
        conn.ack_pending.discard(device_id)
        self._ack_pending.discard((conn, device_id))

    def _abort_unacked(self, conn: _Connection, device_id: str) -> None:
        # The confirmation may already have reached the device before the
        # connection died, so this abort is *ambiguous*: when the
        # verifier carries a shared CommitLog the parked candidate
        # survives, and the device's next message settles which side of
        # the commit it landed on (see BatchVerifier._recover_interrupted).
        self.metrics.acks_aborted += 1
        self._acked(conn, device_id)
        self.service.verifier.abort(device_id, ambiguous=True)

    # -- connection handling ---------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        if self._closing:
            writer.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _reject(self, conn: _Connection, kind: FailureKind,
                      reason: str) -> None:
        self.metrics.rejected_connections += 1
        await conn.send_message(SessionReject(kind.value, reason))
        conn.close()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        config = self.config
        try:
            writer.transport.set_write_buffer_limits(
                high=config.write_high_bytes, low=config.write_low_bytes)
        except (AttributeError, RuntimeError):
            pass
        conn = _Connection(self, reader, writer)
        self._conns.add(conn)
        self.metrics.connections_opened += 1
        try:
            if await self._handshake(conn):
                await self._verb_loop(conn)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        finally:
            self._teardown(conn)
            conn.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conns.discard(conn)
            self.metrics.connections_closed += 1

    async def _handshake(self, conn: _Connection) -> bool:
        config = self.config
        started = self._clock()
        try:
            frame = await read_frame(conn.reader,
                                     max_bytes=config.max_frame_bytes,
                                     idle_timeout=config.handshake_timeout_s,
                                     frame_timeout=config.handshake_timeout_s)
        except (CodecError, asyncio.TimeoutError, ConnectionError):
            self.metrics.handshakes_failed += 1
            conn.close()
            return False
        if frame is None:                # mid-handshake disconnect
            self.metrics.handshakes_failed += 1
            conn.close()
            return False
        try:
            hello = decode_message(frame)
        except CodecError as failure:
            self.metrics.handshakes_failed += 1
            await self._reject(conn, failure.kind, str(failure))
            return False
        if not isinstance(hello, SessionHello):
            self.metrics.handshakes_failed += 1
            await self._reject(conn, FailureKind.MALFORMED,
                               "the first frame must be a HELLO")
            return False
        try:
            major, minor = negotiate_version(hello)
        except CodecError as failure:
            self.metrics.handshakes_failed += 1
            await self._reject(conn, failure.kind, str(failure))
            return False
        conn.peer = hello.peer
        conn.minor = minor
        welcomed = await conn.send_message(
            SessionWelcome(config.peer, major, minor))
        if welcomed and self._obs is not None:
            self._obs.on_handshake(self._clock() - started)
        return welcomed

    async def _verb_loop(self, conn: _Connection) -> None:
        # Keeps reading while the server drains (aclose): in-flight
        # rounds still need this connection's RESPONSE and finalize
        # frames; aclose closes the socket once draining is done.
        config = self.config
        while not conn.closed:
            await conn.gate.wait()
            if conn.closed:
                break
            try:
                frames = await _read_frames(
                    conn.reader, conn.inbox,
                    max_bytes=config.max_frame_bytes,
                    frame_timeout=config.frame_timeout_s)
            except CodecError as failure:
                await self._reject(conn, failure.kind, str(failure))
                break
            except asyncio.TimeoutError:      # slow loris
                await self._reject(conn, FailureKind.MALFORMED,
                                   "frame did not complete in time")
                break
            if frames is None:
                break
            # One read's replies go out in one write, after its frames.
            conn.held = []
            try:
                for frame in frames:
                    if not conn.gate.is_set():
                        await conn.release()
                        await conn.gate.wait()
                        if conn.closed:
                            return
                        conn.held = []
                    if not await self._dispatch(conn, frame):
                        return
            finally:
                await conn.release()

    async def _dispatch(self, conn: _Connection, frame: bytes) -> bool:
        """Handle one frame; ``False`` closes the connection."""
        try:
            message = decode_message(frame)
        except CodecError as failure:
            await self._reject(conn, failure.kind, str(failure))
            return False
        if isinstance(message, AuthResponse):
            try:
                self._route_response(conn, message)
            except CodecError as failure:
                await self._reject(conn, failure.kind, str(failure))
                return False
            return True
        if isinstance(message, SessionRequest):
            self.metrics.requests += 1
            try:
                await self._handle_request(conn, message)
            except AuthenticationFailure as failure:
                await conn.send_message(SessionResult(
                    message.verb, message.device_id, ok=False,
                    detail={"failure": str(failure).encode("utf-8"),
                            "kind": failure.kind.value.encode("utf-8")},
                ))
            return not conn.closed
        # CHALLENGE/CONFIRMATION/REPORT/HELLO/WELCOME from a client are
        # protocol violations — this peer is broken or hostile.
        await self._reject(conn, FailureKind.MALFORMED,
                           f"unexpected {type(message).__name__} frame")
        return False

    def _route_response(self, conn: _Connection,
                        response: AuthResponse) -> None:
        # The round gets the RESPONSE decoded, as _dispatch left it:
        # verify_round_wire takes it without decoding the frame again.
        if conn.explicit is not None:
            if len(conn.explicit.responses) >= conn.explicit.max_frames:
                raise CodecError("explicit round overflow")
            conn.explicit.responses.append(response)
            return
        queue = conn.routes.get(response.device_id)
        if queue:
            queue[0].deliver(response)
        # else: unsolicited — drop silently; it must not poison anything.

    async def _handle_request(self, conn: _Connection,
                              request: SessionRequest) -> None:
        verb = request.verb
        device_id = request.device_id
        params = request.params
        if self.fence is not None and verb in self.FENCED_VERBS:
            refusal = self.fence()
            if refusal is not None:
                raise refusal
        if verb == "auth":
            if self._closing:
                raise AuthenticationFailure(
                    "server is draining, retry elsewhere",
                    FailureKind.RATE_LIMITED)
            self._submit_auth(conn, device_id)
            return
        if verb == "flush":
            # Run off-loop: the verb reply must not block this reader —
            # the round it triggers may need frames from this very
            # connection.
            flushed = self._coalescer.pending_count
            task = self._coalescer.flush()

            async def _report_flush():
                if task is not None:
                    await task
                await conn.send_message(SessionResult(
                    "flush", detail={"flushed": str(flushed).encode()}))

            self._track(_report_flush())
            return
        if verb == "poll":
            flushed = self._coalescer.poll() is not None
            self._count()
            settled = list(self._rounds)   # snapshot BEFORE tracking self

            async def _report_poll():
                for round_task in settled:
                    await asyncio.shield(round_task)
                await conn.send_message(SessionResult(
                    "poll", detail={"flushed": b"1" if flushed else b"0"}))

            self._track(_report_poll())
            return
        if verb == "enroll":
            self._handle_enroll(device_id, params)
            await conn.send_message(SessionResult("enroll", device_id))
            return
        if verb == "revoke":
            self.service.revoke(device_id)
            await conn.send_message(SessionResult("revoke", device_id))
            return
        if verb == "spot":
            k = int(params.get("k", b"8"))
            threshold = float(params.get("threshold", b"0.25"))
            challenges, expected = self.service.verifier.open_spot_check(
                device_id, k)
            conn.spot_pending[device_id] = (expected, threshold)
            await conn.send_message(SessionResult(
                "spot", device_id,
                detail={"challenges": challenges.astype(np.uint8).tobytes(),
                        "rows": str(challenges.shape[0]).encode(),
                        "cols": str(challenges.shape[1]).encode()}))
            return
        if verb == "spot-submit":
            stash = conn.spot_pending.pop(device_id, None)
            if stash is None:
                raise AuthenticationFailure(
                    f"no spot check open for device {device_id!r}",
                    FailureKind.NO_SESSION)
            expected, threshold = stash
            fresh = np.frombuffer(params["responses"],
                                  dtype=np.uint8).reshape(expected.shape[0],
                                                          -1)
            distance, accepted = self.service.verifier.close_spot_check(
                expected, fresh, threshold)
            await conn.send_message(SessionResult(
                "spot-submit", device_id,
                detail={"hd": repr(distance).encode(),
                        "accepted": b"1" if accepted else b"0",
                        "threshold": repr(threshold).encode()}))
            return
        if verb == "open-round":
            if conn.explicit is not None:
                raise AuthenticationFailure(
                    "a gateway round is already open on this connection",
                    FailureKind.SESSION_MISMATCH)
            ids = [raw.decode("utf-8")
                   for raw in decode_fields(params.get("ids", b""))]
            nonces, challenge_frames = self.service.open_round_wire(ids)
            conn.explicit = _ExplicitRound(nonces)
            await conn.send(
                *[challenge_frames[round_device] for round_device in nonces],
                encode_message(SessionResult(
                    "open-round",
                    detail={"count": str(len(nonces)).encode()})))
            return
        if verb == "close-round":
            explicit = conn.explicit
            if explicit is None:
                raise AuthenticationFailure(
                    "no gateway round open on this connection",
                    FailureKind.NO_SESSION)
            conn.explicit = None
            report_frame, confirmation_frames = \
                self.service.verify_round_wire(explicit.responses,
                                               explicit.nonces)
            for accepted_id in confirmation_frames:
                # Expose and await the ack before the frames are written,
                # as a micro-round does: a connection that dies from here
                # on aborts these sessions (ambiguously) on teardown.
                self.service.verifier.expose(accepted_id)
                self._await_ack(conn, accepted_id)
            await conn.send(*confirmation_frames.values(), report_frame)
            return
        if verb == "finalize":
            # The "round" param (the challenge nonce) fences the ack to
            # the round that earned it: a chaos-delayed or duplicated
            # finalize must not commit a later pending session.
            self.service.verifier.finalize(device_id,
                                           token=params.get("round"))
            self._acked(conn, device_id)
            await conn.send_message(SessionResult("finalize", device_id))
            return
        if verb == "abort":
            self.service.verifier.abort(device_id,
                                        token=params.get("round"))
            self._acked(conn, device_id)
            await conn.send_message(SessionResult("abort", device_id))
            return
        if verb in ("metrics", "trace"):
            # Admin verbs, wire 1.2+.  Deliberately NOT in FENCED_VERBS:
            # standbys and deposed primaries stay scrapeable — that is
            # when an operator most wants to look at them.
            if conn.minor < 2:
                raise AuthenticationFailure(
                    f"the {verb!r} verb requires wire version >= 1.2 "
                    f"(negotiated 1.{conn.minor})",
                    FailureKind.UNSUPPORTED_VERSION)
            if verb == "metrics":
                fmt = params.get("format", b"prometheus").decode("utf-8")
                snapshot = self._metrics_registry().snapshot()
                if fmt == "prometheus":
                    body = render_prometheus(snapshot)
                elif fmt == "json":
                    body = render_json(snapshot)
                else:
                    raise AuthenticationFailure(
                        f"unknown metrics format {fmt!r}",
                        FailureKind.MALFORMED)
                await conn.send_message(SessionResult(
                    "metrics", detail={"body": body.encode("utf-8"),
                                       "format": fmt.encode("utf-8")}))
                return
            obs = getattr(self.service, "_obs", None)
            tracer = getattr(obs, "tracer", None)
            spans = tracer.to_json() if tracer is not None else []
            await conn.send_message(SessionResult(
                "trace", detail={"body": json.dumps(spans).encode("utf-8")}))
            return
        raise AuthenticationFailure(f"unknown verb {verb!r}",
                                    FailureKind.MALFORMED)

    def _metrics_registry(self):
        """The registry the ``metrics`` verb serves: the server's own
        observer's, else the wrapped service's, else the one backing
        :attr:`metrics`."""
        if self._obs is not None:
            return self._obs.registry
        obs = getattr(self.service, "_obs", None)
        if obs is not None:
            return obs.registry
        return self.metrics._registry

    def _handle_enroll(self, device_id: str, params) -> None:
        try:
            response = np.frombuffer(params["response"], dtype=np.uint8)
            remote = _RemoteDevice(
                device_id=device_id,
                current_response=response,
                challenge_bits=int(params["challenge_bits"]),
                firmware_hash=bytes(params["firmware_hash"]),
                clock_count=int(params["clock_count"]),
            )
        except (KeyError, ValueError) as exc:
            raise AuthenticationFailure(f"malformed enroll request: {exc}",
                                        FailureKind.MALFORMED) from exc
        try:
            # Wire enrollment records the rolling CRP only: the spot pool
            # needs physical hardware access, which a socket is not.
            self.service.registry.enroll(remote, n_spot_crps=0)
        except ValueError as exc:
            raise AuthenticationFailure(str(exc),
                                        FailureKind.DUPLICATE_DEVICE) from exc
        run_hooks(self.service.policies, "on_enroll", device_id)

    def _track(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._rounds.add(task)
        task.add_done_callback(self._rounds.discard)
        return task

    def _teardown(self, conn: _Connection) -> None:
        conn.close()
        for device_id, queue in list(conn.routes.items()):
            for round_ in list(queue):
                round_.lose(device_id)
        conn.routes.clear()
        for device_id in list(conn.ack_pending):
            self._abort_unacked(conn, device_id)
        conn.spot_pending.clear()
        conn.explicit = None


class _RemoteDevice:
    """Registry-shaped stand-in for hardware on the far side of a socket."""

    class _RemoteHardware:
        def __init__(self, challenge_bits: int, response_bits: int):
            self.challenge_bits = int(challenge_bits)
            self.response_bits = int(response_bits)

    def __init__(self, device_id: str, current_response: np.ndarray,
                 challenge_bits: int, firmware_hash: bytes,
                 clock_count: int):
        self.device_id = device_id
        self.current_response = current_response
        self.firmware_hash = firmware_hash
        self.clock_count = int(clock_count)
        self.puf = self._RemoteHardware(challenge_bits,
                                        int(current_response.size))
