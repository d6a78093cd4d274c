"""Hostile transport coverage: the server against broken/adversarial peers.

Mirrors the codec's rejection-path discipline
(``tests/service/test_codec.py``) at the socket layer: every-byte
fragmentation and truncation sweeps, mid-handshake disconnects,
slow-loris trickles, duplicate device ids racing over two sockets,
oversized frames, and foreign-major HELLOs.  The invariant throughout:
a hostile socket is isolated and closed with a taxonomy-coded REJECT —
it never takes the server, another connection, or an in-flight
micro-round down with it.
"""

import asyncio

import pytest

from repro.protocols.mutual_auth import FailureKind
from repro.service import (
    AuthChallenge,
    AuthConfirmation,
    AuthService,
    FleetConfig,
    SessionHello,
    SessionReject,
    SessionRequest,
    SessionResult,
    decode_message,
    encode_message,
)
from repro.service.codec import SCHEMA_MAJOR
from repro.service.net import (
    AuthClient,
    AuthServer,
    NetConfig,
    read_frame,
    write_frame,
)
from repro.service.net.stream import _LENGTH

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=4, seed=7, **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs))


def run(coro):
    return asyncio.run(coro)


def framed(message) -> bytes:
    payload = encode_message(message)
    return _LENGTH.pack(len(payload)) + payload


async def raw_connection(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def server_reply(reader):
    """First frame the server answers, or None on silent close."""
    try:
        return await asyncio.wait_for(read_frame(reader), 10)
    except Exception:
        return None


async def welcomed_connection(server, peer):
    reader, writer = await raw_connection(server)
    write_frame(writer, encode_message(SessionHello(peer)))
    await writer.drain()
    await server_reply(reader)                           # WELCOME
    return reader, writer


class TestFragmentationAndTruncation:
    def test_every_byte_fragmentation_still_handshakes(self):
        # The HELLO delivered one byte at a time must still negotiate:
        # frame reassembly cannot depend on TCP segment boundaries.
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await raw_connection(server)
                for byte in framed(SessionHello("drip")):
                    writer.write(bytes([byte]))
                    await writer.drain()
                    await asyncio.sleep(0)
                reply = await server_reply(reader)
                writer.close()
                return decode_message(reply)
        welcome = run(main())
        assert welcome.peer == "repro-auth-server"

    def test_every_truncation_of_the_hello_is_isolated(self):
        # Closing mid-frame at EVERY byte offset: the server must shrug
        # each one off (handshake failure) and keep serving others.
        async def main():
            service = provision()
            config = NetConfig(handshake_timeout_s=0.2)
            async with AuthServer(service, config) as server:
                wire = framed(SessionHello("cut"))
                for cut in range(len(wire)):
                    reader, writer = await raw_connection(server)
                    writer.write(wire[:cut])
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                # Still alive for a well-behaved client afterwards.
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.authenticate(
                        service.device_list[0])
                return len(wire), ticket, server.metrics
        n_cuts, ticket, metrics = run(main())
        assert ticket.accepted
        assert metrics.handshakes_failed == n_cuts

    def test_truncated_frame_after_handshake_rejected(self):
        async def main():
            service = provision()
            config = NetConfig(frame_timeout_s=0.2)
            async with AuthServer(service, config) as server:
                reader, writer = await raw_connection(server)
                write_frame(writer, encode_message(SessionHello("trunc")))
                await writer.drain()
                await server_reply(reader)               # WELCOME
                wire = framed(SessionRequest("auth", "dev-000000"))
                writer.write(wire[: len(wire) // 2])
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                # The service survives untouched.
                report = service.authenticate_batch()
                return report
        report = run(main())
        assert len(report.confirmations) == 4


class TestHandshakeAbuse:
    def test_mid_handshake_disconnect(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                __, writer = await raw_connection(server)
                writer.close()          # not a single byte sent
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return server.metrics
        metrics = run(main())
        assert metrics.handshakes_failed == 1
        assert metrics.connections_closed == 1

    def test_handshake_timeout_closes_silent_peer(self):
        async def main():
            service = provision()
            config = NetConfig(handshake_timeout_s=0.1)
            async with AuthServer(service, config) as server:
                reader, writer = await raw_connection(server)
                # Send nothing; the server must hang up on its own.
                got = await asyncio.wait_for(reader.read(1), 5)
                return got, server.metrics
        got, metrics = run(main())
        assert got == b""               # EOF from the server side
        assert metrics.handshakes_failed == 1

    def test_foreign_major_hello_rejected_on_the_wire(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await raw_connection(server)
                hello = bytearray(encode_message(SessionHello("future")))
                hello[2] = SCHEMA_MAJOR + 1     # header major byte
                writer.write(_LENGTH.pack(len(hello)) + bytes(hello))
                await writer.drain()
                reply = await server_reply(reader)
                return decode_message(reply)
        reject = run(main())
        assert isinstance(reject, SessionReject)
        assert reject.kind == FailureKind.UNSUPPORTED_VERSION.value

    def test_non_hello_first_frame_rejected(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await raw_connection(server)
                write_frame(writer, encode_message(
                    SessionRequest("auth", "dev-000000")))
                await writer.drain()
                reply = await server_reply(reader)
                return decode_message(reply)
        reject = run(main())
        assert isinstance(reject, SessionReject)
        assert reject.kind == FailureKind.MALFORMED.value

    def test_garbage_bytes_rejected(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await raw_connection(server)
                garbage = b"\xde\xad\xbe\xef" * 4
                writer.write(_LENGTH.pack(len(garbage)) + garbage)
                await writer.drain()
                reply = await server_reply(reader)
                return None if reply is None else decode_message(reply)
        reject = run(main())
        assert isinstance(reject, SessionReject)

    def test_client_raises_taxonomy_error_on_reject(self):
        # The SDK surfaces a REJECT handshake reply as a RemoteAuthError
        # carrying the server's taxonomy kind.
        from repro.service.net import RemoteAuthError

        async def rejecting_peer(reader, writer):
            await read_frame(reader)                     # the HELLO
            write_frame(writer, encode_message(SessionReject(
                FailureKind.UNSUPPORTED_VERSION.value, "too new")))
            await writer.drain()
            writer.close()

        async def main():
            stub = await asyncio.start_server(
                rejecting_peer, "127.0.0.1", 0)
            port = stub.sockets[0].getsockname()[1]
            try:
                with pytest.raises(RemoteAuthError) as excinfo:
                    await AuthClient.connect("127.0.0.1", port,
                                             handshake_timeout_s=2.0)
            finally:
                stub.close()
                await stub.wait_closed()
            return excinfo.value
        error = run(main())
        assert error.kind is FailureKind.UNSUPPORTED_VERSION


class TestSlowLoris:
    def test_slow_loris_frame_times_out(self):
        async def main():
            service = provision()
            config = NetConfig(frame_timeout_s=0.15)
            async with AuthServer(service, config) as server:
                reader, writer = await raw_connection(server)
                write_frame(writer, encode_message(SessionHello("loris")))
                await writer.drain()
                await server_reply(reader)               # WELCOME
                # One byte of a frame, then silence: the per-socket
                # frame timeout must evict this peer.
                writer.write(b"\x00")
                await writer.drain()
                reply = await server_reply(reader)
                closed = await asyncio.wait_for(reader.read(1), 5)
                return reply, closed, server.metrics
        reply, closed, metrics = run(main())
        assert closed == b""            # connection torn down
        assert metrics.rejected_connections == 1

    def test_slow_loris_does_not_stall_other_connections(self):
        async def main():
            service = provision()
            config = NetConfig(frame_timeout_s=0.5)
            async with AuthServer(service, config) as server:
                __, loris_writer = await raw_connection(server)
                loris_writer.write(b"\x00")       # eternal partial frame
                await loris_writer.drain()
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.authenticate(
                        service.device_list[0])
                loris_writer.close()
                return ticket
        assert run(main()).accepted


class TestConcurrentDuplicates:
    def test_duplicate_device_id_over_two_sockets(self):
        # The same device identity racing on two connections: the
        # coalescer's duplicate trigger must keep each micro-round
        # single-occupancy, and the rolling CRP must stay synchronized
        # (exactly one device object holds the hardware, so one of the
        # two interleavings commits and nothing desynchronizes).
        async def main():
            service = provision(latency_budget_s=0.01)
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as first, \
                        AuthClient.connect("127.0.0.1",
                                           server.port) as second:
                    ticket_a, ticket_b = await asyncio.gather(
                        first.submit(device), second.submit(device))
                    await asyncio.gather(ticket_a.wait(10),
                                         ticket_b.wait(10))
            record = service.registry.record(device.device_id)
            return ticket_a, ticket_b, record, device
        ticket_a, ticket_b, record, device = run(main())
        assert ticket_a.done and ticket_b.done
        # However the race lands, verifier and device agree afterwards.
        import numpy as np
        assert np.array_equal(record.current_response,
                              device.current_response)

    def test_oversized_frame_rejected_before_buffering(self):
        async def main():
            service = provision()
            config = NetConfig(max_frame_bytes=1024)
            async with AuthServer(service, config) as server:
                reader, writer = await raw_connection(server)
                write_frame(writer, encode_message(SessionHello("big")))
                await writer.drain()
                await server_reply(reader)               # WELCOME
                writer.write(_LENGTH.pack(1 << 30))      # 1 GiB claim
                await writer.drain()
                reply = await server_reply(reader)
                return None if reply is None else decode_message(reply)
        reject = run(main())
        assert isinstance(reject, SessionReject)
        assert reject.kind == FailureKind.MALFORMED.value

    def test_unsolicited_response_frames_are_ignored(self):
        from repro.fleet.verifier import AuthResponse

        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await raw_connection(server)
                write_frame(writer, encode_message(SessionHello("spam")))
                await writer.drain()
                await server_reply(reader)               # WELCOME
                for __ in range(16):
                    write_frame(writer, encode_message(
                        AuthResponse("dev-000000", b"junk", b"tag")))
                await writer.drain()
                # Connection is still healthy: a real verb round-trips.
                write_frame(writer, encode_message(
                    SessionRequest("poll")))
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 10)
                writer.close()
                return decode_message(reply)
        result = run(main())
        assert result.verb == "poll"


class TestBulkReads:
    """The verb loop reads every frame one socket read delivered; each
    of them still passes every per-frame guard."""

    def test_one_write_of_requests_still_pauses_reads(self):
        async def main():
            service = provision(n_devices=8, latency_budget_s=0.005)
            devices = {device.device_id: device
                       for device in service.device_list}
            config = NetConfig(pending_high=2, pending_low=1)
            async with AuthServer(service, config) as server:
                reader, writer = await welcomed_connection(server, "bulk")
                write_frame(writer, *[
                    encode_message(SessionRequest("auth", device_id))
                    for device_id in devices],
                    encode_message(SessionRequest("flush")))
                await writer.drain()
                nonces, settled = {}, {}
                while len(settled) < len(devices):
                    message = decode_message(
                        await asyncio.wait_for(read_frame(reader), 10))
                    device_id = getattr(message, "device_id", "")
                    if isinstance(message, AuthChallenge):
                        nonces[device_id] = message.nonce
                        write_frame(writer, encode_message(
                            devices[device_id].respond(message.nonce)))
                    elif isinstance(message, AuthConfirmation):
                        devices[device_id].confirm(message.mac,
                                                   nonces[device_id])
                        write_frame(writer, encode_message(SessionRequest(
                            "finalize", device_id,
                            {"round": nonces[device_id]})))
                        settled[device_id] = True
                    elif (isinstance(message, SessionResult)
                          and message.verb == "auth"):
                        settled[device_id] = False
                    await writer.drain()
                writer.close()
                await writer.wait_closed()
            return settled, server.metrics
        settled, metrics = run(main())
        assert metrics.reads_paused >= 1
        assert all(settled.values())

    def test_oversized_prefix_behind_valid_frames(self):
        async def main():
            service = provision()
            config = NetConfig(max_frame_bytes=1024)
            async with AuthServer(service, config) as server:
                reader, writer = await welcomed_connection(server, "big")
                writer.write(framed(SessionRequest("trace"))
                             + framed(SessionRequest("trace"))
                             + _LENGTH.pack(1 << 30))
                await writer.drain()
                replies = [decode_message(await server_reply(reader))
                           for __ in range(3)]
                eof = await asyncio.wait_for(read_frame(reader), 10)
                return replies, eof
        replies, eof = run(main())
        assert [reply.verb for reply in replies[:2]] == ["trace", "trace"]
        assert isinstance(replies[2], SessionReject)
        assert replies[2].kind == FailureKind.MALFORMED.value
        assert eof is None

    def test_slow_loris_behind_a_complete_frame(self):
        async def main():
            service = provision()
            config = NetConfig(frame_timeout_s=0.15)
            async with AuthServer(service, config) as server:
                reader, writer = await welcomed_connection(server, "loris")
                partial = framed(SessionRequest("trace"))
                writer.write(framed(SessionRequest("trace")) + partial[:2])
                await writer.drain()

                async def trickle():
                    # One byte per 50 ms: the partial frame would take
                    # far longer than the frame timeout to complete.
                    for byte in partial[2:-1]:
                        await asyncio.sleep(0.05)
                        writer.write(bytes([byte]))
                        await writer.drain()

                dripping = asyncio.get_running_loop().create_task(trickle())
                try:
                    answer = decode_message(await server_reply(reader))
                    reject = decode_message(await server_reply(reader))
                    trickling = not dripping.done()
                finally:
                    dripping.cancel()
                    await asyncio.gather(dripping, return_exceptions=True)
                try:
                    eof = await asyncio.wait_for(read_frame(reader), 10)
                except ConnectionResetError:
                    eof = None      # trickled bytes the server never read
                return answer, reject, trickling, eof, server.metrics
        answer, reject, trickling, eof, metrics = run(main())
        assert answer.verb == "trace"
        assert trickling                # the timeout fired mid-trickle
        assert isinstance(reject, SessionReject)
        assert reject.kind == FailureKind.MALFORMED.value
        assert eof is None
        assert metrics.rejected_connections == 1

    def test_a_peer_that_never_reads_is_cut_off_with_bounded_writes(
            self, monkeypatch):
        # Thousands of metrics scrapes in one write, each answered with
        # the whole rendered registry, and the peer never reads: the
        # replies go out in slices of the write watermark, a drain stalls
        # and the connection is cut off — the server never builds the
        # replies to a whole read in memory.
        from repro.service.net import server as server_mod

        writes = []

        def recording(writer, *frames, _write=server_mod.write_frame):
            writes.append(sum(map(len, frames)))
            _write(writer, *frames)
        monkeypatch.setattr(server_mod, "write_frame", recording)
        config = NetConfig(frame_timeout_s=0.3)
        scrapes = 8192

        async def main():
            service = provision()
            async with AuthServer(service, config) as server:
                reader, writer = await welcomed_connection(server, "deaf")
                writer.write(framed(SessionRequest("metrics")) * scrapes)

                async def cut_off():
                    while not all(conn.closed for conn in server._conns):
                        await asyncio.sleep(0.01)
                await asyncio.wait_for(cut_off(), 20)
                replies = 0
                try:
                    while await asyncio.wait_for(read_frame(reader), 10):
                        replies += 1
                except ConnectionResetError:
                    pass        # requests the server never read
                writer.close()
                return replies
        replies = run(main())
        assert 0 < replies < scrapes
        assert len(writes) > 2
        assert max(writes) < 2 * config.write_high_bytes
