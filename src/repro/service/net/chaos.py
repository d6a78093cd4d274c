"""``ChaosTransport``: a seeded fault-injecting TCP proxy for the wire.

Chaos sits *between* an :class:`~repro.service.net.client.AuthClient`
and an :class:`~repro.service.net.server.AuthServer` as a frame-aware
proxy: it parses only the 4-byte length prefix of the wire framing
(:mod:`repro.service.net.stream`), never the codec payload, and injects
faults per whole frame, per leg:

* **drop** — the frame silently vanishes (a lost datagram);
* **delay** — the frame (and, FIFO, everything behind it on that leg)
  waits a uniform draw from ``delay_range_s`` before forwarding;
* **duplicate** — the frame arrives twice (a retransmit gone wrong);
* **truncate** — half the frame arrives, then the connection dies
  mid-frame (the receiver sees a ``CodecError``-grade torn read);
* **black-hole** — the leg goes permanently silent while the socket
  stays open (a half-dead link: writes still "succeed", nothing ever
  arrives).

Fault decisions come from a deterministic per-connection, per-leg
stream (:func:`repro.utils.rng.derive_rng` over
``(seed, "chaos", connection_index, leg)``), so a campaign replays the
same fault pattern for the same frame sequence.  Zero-probability
faults draw nothing — enabling one fault never perturbs another's
stream.  ``spare_handshake`` (default on) forwards the first frame of
each leg faithfully so HELLO/WELCOME always completes and chaos lands
on the protocol, not on connection establishment.

This is the wire-level twin of :class:`repro.fleet.lifecycle.FaultModel`,
which injects the same taxonomy of trouble into the in-process path.
"""

from __future__ import annotations

import asyncio
import struct
from dataclasses import dataclass
from typing import Optional, Set

from repro.obs.instrument import RegistryBackedCounters
from repro.obs.registry import MetricsRegistry
from repro.utils.rng import derive_rng

__all__ = ["ChaosMetrics", "ChaosTransport", "LegChaos"]

_LENGTH = struct.Struct(">I")


@dataclass(frozen=True)
class LegChaos:
    """Fault probabilities for one direction of a proxied connection."""

    drop: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    truncate: float = 0.0
    blackhole: float = 0.0
    delay_range_s: tuple = (0.0005, 0.005)

    def __post_init__(self) -> None:
        for name in ("drop", "delay", "duplicate", "truncate", "blackhole"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value}"
                )
        low, high = self.delay_range_s
        if not 0.0 <= float(low) <= float(high):
            raise ValueError(
                f"delay_range_s must be ordered and non-negative, got "
                f"{self.delay_range_s}"
            )


class ChaosMetrics(RegistryBackedCounters):
    """What the proxy actually did: plain ints living as
    ``repro_net_chaos_*`` series on a
    :class:`~repro.obs.MetricsRegistry`.  A transport starts on a
    private registry; :func:`repro.obs.instrument_chaos` moves the
    counts onto a shared one.
    """

    _PREFIX = "repro_net_chaos_"
    _FIELDS = (
        "connections_opened", "connections_killed", "frames_forwarded",
        "frames_dropped", "frames_delayed", "frames_duplicated",
        "frames_truncated", "legs_blackholed",
    )
    _HELP = {
        "connections_opened": "Proxied connections accepted",
        "connections_killed": "Connections severed by kill_connections",
        "frames_forwarded": "Frames forwarded intact",
        "frames_dropped": "Frames silently dropped",
        "frames_delayed": "Frames held for a delay draw",
        "frames_duplicated": "Frames forwarded twice",
        "frames_truncated": "Frames torn mid-body (connection killed)",
        "legs_blackholed": "Legs gone permanently silent",
    }


class _TornFrame(Exception):
    """Internal: a truncate fault fired; kill the connection."""


class ChaosTransport:
    """A listening proxy that forwards frames to a target with faults.

    >>> chaos = ChaosTransport(server.host, server.port,
    ...                        uplink=LegChaos(drop=0.05), seed=7)
    >>> await chaos.start()
    >>> client = await AuthClient.connect(chaos.host, chaos.port)

    ``uplink`` faults client→server frames (requests, RESPONSEs, acks);
    ``downlink`` faults server→client frames (CHALLENGEs,
    CONFIRMATIONs, RESULTs).  :meth:`kill_connections` severs every
    live proxied connection at once — the transport face of a replica
    crash or a network partition.
    """

    def __init__(self, target_host: str, target_port: int, *,
                 uplink: Optional[LegChaos] = None,
                 downlink: Optional[LegChaos] = None,
                 seed: int = 0, spare_handshake: bool = True,
                 host: str = "127.0.0.1", port: int = 0):
        self.target_host = target_host
        self.target_port = int(target_port)
        self.uplink = uplink or LegChaos()
        self.downlink = downlink or LegChaos()
        self.seed = int(seed)
        self.spare_handshake = bool(spare_handshake)
        self._host = host
        self._port = int(port)
        self.metrics = ChaosMetrics(MetricsRegistry())
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        self._conn_counter = 0
        self._closing = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "ChaosTransport":
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port)
        return self

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._server.sockets[0].getsockname()[0]

    async def __aenter__(self) -> "ChaosTransport":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.kill_connections()
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)

    def kill_connections(self) -> int:
        """Sever every live proxied connection; returns how many."""
        killed = 0
        for writer in list(self._writers):
            try:
                writer.close()
            except RuntimeError:
                pass
            killed += 1
        for task in list(self._handlers):
            task.cancel()
        self.metrics.connections_killed += killed // 2  # two writers each
        return killed // 2

    # -- proxying ---------------------------------------------------------

    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        if self._closing:
            writer.close()
            return
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(self, client_reader: asyncio.StreamReader,
                      client_writer: asyncio.StreamWriter) -> None:
        index = self._conn_counter
        self._conn_counter += 1
        self.metrics.connections_opened += 1
        try:
            target_reader, target_writer = await asyncio.open_connection(
                self.target_host, self.target_port)
        except (ConnectionError, OSError):
            client_writer.close()
            return
        self._writers.add(client_writer)
        self._writers.add(target_writer)
        up = asyncio.get_running_loop().create_task(self._pump(
            client_reader, target_writer, self.uplink,
            derive_rng(self.seed, "chaos", index, "up")))
        down = asyncio.get_running_loop().create_task(self._pump(
            target_reader, client_writer, self.downlink,
            derive_rng(self.seed, "chaos", index, "down")))
        try:
            # Either side closing (EOF, torn frame, error) tears down the
            # whole proxied connection, like a real middlebox would.
            await asyncio.wait({up, down},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (up, down):
                task.cancel()
            await asyncio.gather(up, down, return_exceptions=True)
            for writer in (client_writer, target_writer):
                self._writers.discard(writer)
                try:
                    writer.close()
                except RuntimeError:
                    pass

    async def _pump(self, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, leg: LegChaos,
                    rng) -> None:
        metrics = self.metrics
        first = True
        blackholed = False
        try:
            while True:
                header = await reader.readexactly(4)
                (length,) = _LENGTH.unpack(header)
                payload = await reader.readexactly(length)
                if blackholed:
                    continue                  # consume forever, forward nothing
                if first:
                    first = False
                    if self.spare_handshake:
                        writer.write(header + payload)
                        await writer.drain()
                        metrics.frames_forwarded += 1
                        continue
                # Zero-probability faults draw nothing, so enabling one
                # fault never shifts another fault's stream.
                if leg.blackhole and rng.random() < leg.blackhole:
                    blackholed = True
                    metrics.legs_blackholed += 1
                    continue
                if leg.drop and rng.random() < leg.drop:
                    metrics.frames_dropped += 1
                    continue
                if leg.truncate and rng.random() < leg.truncate:
                    writer.write(header + payload[: max(1, length // 2)])
                    await writer.drain()
                    metrics.frames_truncated += 1
                    raise _TornFrame()
                if leg.delay and rng.random() < leg.delay:
                    metrics.frames_delayed += 1
                    low, high = leg.delay_range_s
                    await asyncio.sleep(float(low)
                                        + float(rng.random())
                                        * (float(high) - float(low)))
                writer.write(header + payload)
                if leg.duplicate and rng.random() < leg.duplicate:
                    writer.write(header + payload)
                    metrics.frames_duplicated += 1
                await writer.drain()
                metrics.frames_forwarded += 1
        except (_TornFrame, asyncio.IncompleteReadError, ConnectionError,
                OSError):
            pass
