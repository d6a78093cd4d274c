"""AuthServer/AuthClient happy paths over real sockets.

Every test drives asyncio with ``asyncio.run`` inside a synchronous
test function (no asyncio pytest plugin in the environment); servers
bind an ephemeral port on loopback.
"""

import asyncio

import numpy as np
import pytest

from repro.protocols.mutual_auth import FailureKind
from repro.service import AuthService, FleetConfig
from repro.service.net import (
    AuthClient,
    AuthServer,
    NetConfig,
    RemoteAuthError,
)

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=4, seed=7, **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs))


def run(coro):
    return asyncio.run(coro)


class TestHandshake:
    def test_hello_welcome_negotiation(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port,
                        peer="unit-test-client") as client:
                    assert client.negotiated_version == (1, 2)
                    assert client.server_peer == "repro-auth-server"
            return server.metrics
        metrics = run(main())
        assert metrics.connections_opened == 1
        assert metrics.connections_closed == 1
        assert metrics.handshakes_failed == 0

    def test_custom_server_peer_name(self):
        async def main():
            service = provision()
            config = NetConfig(peer="fleet-gateway-7")
            async with AuthServer(service, config) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    return client.server_peer
        assert run(main()) == "fleet-gateway-7"


class TestAuthVerbs:
    def test_single_authenticate_rolls_the_crp(self):
        async def main():
            service = provision()
            device = service.device_list[0]
            before = int(service.registry.record(device.device_id).sessions)
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.authenticate(device)
            after = int(service.registry.record(device.device_id).sessions)
            return ticket, before, after
        ticket, before, after = run(main())
        assert ticket.done and ticket.accepted
        assert ticket.failure is None
        assert after == before + 1

    def test_submit_flush_coalesces_one_micro_round(self):
        async def main():
            service = provision(n_devices=6)
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    tickets = [await client.submit(device)
                               for device in service.device_list]
                    await client.flush()
                    for ticket in tickets:
                        await ticket.wait(10)
                    return tickets, server.metrics
        tickets, metrics = run(main())
        assert all(ticket.accepted for ticket in tickets)
        # One batched verify for six individually-arriving requests.
        assert metrics.micro_rounds == 1
        assert metrics.submitted == 6

    def test_max_batch_triggers_size_flush(self):
        async def main():
            # A huge latency budget: only the size trigger can flush.
            service = provision(n_devices=4, max_batch=2,
                                latency_budget_s=60.0)
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    tickets = [await client.submit(device)
                               for device in service.device_list]
                    for ticket in tickets:
                        await ticket.wait(10)
                    return server.metrics
        metrics = run(main())
        assert metrics.flushed_by_size == 2
        assert metrics.micro_rounds == 2

    def test_latency_budget_flushes_without_explicit_flush(self):
        async def main():
            service = provision(latency_budget_s=0.02)
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.authenticate(device)
                    return ticket, server.metrics
        ticket, metrics = run(main())
        assert ticket.accepted
        assert metrics.flushed_by_deadline >= 1

    def test_duplicate_pending_device_flushes_previous_round(self):
        # Same device on two sockets: one round cannot hold it twice,
        # so the second submit flushes the first micro-round.
        async def main():
            service = provision(latency_budget_s=5.0)
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as first, \
                        AuthClient.connect("127.0.0.1",
                                           server.port) as second:
                    ticket_a = await first.submit(device)
                    ticket_b = await second.submit(device)
                    await ticket_a.wait(10)
                    await second.flush()
                    await ticket_b.wait(10)
                    return ticket_a, ticket_b, server.metrics
        ticket_a, ticket_b, metrics = run(main())
        assert metrics.flushed_by_duplicate == 1
        assert ticket_a.done and ticket_b.done
        # Both flows ran complete rounds; the rolling CRP serialized them.
        assert ticket_a.accepted and ticket_b.accepted

    def test_poll_verb_mirrors_coalescer_poll(self):
        async def main():
            service = provision(latency_budget_s=0.01)
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    assert await client.poll() is False
                    ticket = await client.submit(device)
                    await asyncio.sleep(0.03)
                    await client.poll()
                    await ticket.wait(10)
                    return ticket
        assert run(main()).accepted


class TestEnrollRevokeSpot:
    def test_wire_enrollment_then_authenticate(self):
        from repro.fleet.verifier import FleetDevice
        from repro.puf.photonic_strong import PhotonicStrongPUF

        async def main():
            service = provision()
            newcomer = FleetDevice("dev-newcomer",
                                   PhotonicStrongPUF(seed=999, **FAST_PUF))
            newcomer.provision(seed=7)
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    await client.enroll(newcomer)
                    ticket = await client.authenticate(newcomer)
            record = service.registry.record("dev-newcomer")
            return ticket, record
        ticket, record = run(main())
        assert ticket.accepted
        assert record.sessions == 1

    def test_duplicate_enrollment_rejected_with_taxonomy(self):
        async def main():
            service = provision()
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    with pytest.raises(RemoteAuthError) as excinfo:
                        await client.enroll(device)
                    return excinfo.value
        assert run(main()).kind is FailureKind.DUPLICATE_DEVICE

    def test_revoke_then_auth_fails_not_enrolled(self):
        async def main():
            service = provision()
            device = service.device_list[1]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    await client.revoke(device.device_id)
                    ticket = await client.authenticate(device)
                    return ticket
        ticket = run(main())
        assert not ticket.accepted
        assert ticket.failure_kind == FailureKind.NOT_ENROLLED.value

    def test_spot_check_matches_in_process_draws(self):
        # The same seed/counter state must draw the same pool indices
        # whether the spot check runs in-process or over the wire.
        async def main():
            wired = provision(n_spot_crps=16)
            device = wired.device_list[0]
            async with AuthServer(wired) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    distance, accepted = await client.spot_check(device, k=4)
            return wired, distance, accepted
        wired, distance, accepted = run(main())
        local = provision(n_spot_crps=16)
        report = local.spot_check([local.device_list[0]], k=4)
        assert accepted == bool(report.accepted[0])
        assert distance == pytest.approx(float(report.fractional_hd[0]))
        # Both burned the same number of pool entries.
        assert (wired.registry.record(wired.device_list[0].device_id)
                .spot_crps_left ==
                local.registry.record(local.device_list[0].device_id)
                .spot_crps_left)

    def test_spot_pool_exhaustion_speaks_taxonomy(self):
        async def main():
            service = provision()      # n_spot_crps=0
            device = service.device_list[0]
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    with pytest.raises(RemoteAuthError) as excinfo:
                        await client.spot_check(device, k=4)
                    return excinfo.value
        assert run(main()).kind is FailureKind.POOL_EXHAUSTED


class TestGatewayRounds:
    def test_authenticate_batch_matches_in_process(self):
        async def main():
            wired = provision(n_devices=8, seed=77)
            async with AuthServer(wired) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    report = await client.authenticate_batch(
                        wired.device_list)
            return wired, report
        wired, report_wired = run(main())
        plain = provision(n_devices=8, seed=77)
        report_plain = plain.authenticate_batch()
        assert report_plain.confirmations == report_wired.confirmations
        for legacy, modern in zip(plain.device_list, wired.device_list):
            assert np.array_equal(legacy.current_response,
                                  modern.current_response)

    def test_round_state_guards(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    with pytest.raises(RemoteAuthError):
                        await client.verify_round_wire([])
                    await client.open_round_wire(
                        [service.device_list[0].device_id])
                    with pytest.raises(RemoteAuthError):
                        await client.open_round_wire(
                            [service.device_list[1].device_id])
        run(main())

    def test_writes_per_round_do_not_grow_with_the_group(self, monkeypatch):
        # One write per round phase on each side: open-round, RESPONSEs
        # with close-round, the acks; and their replies.
        from repro.service.net import client as client_mod
        from repro.service.net import server as server_mod

        writes = {"server": 0, "client": 0}
        for side, module in (("server", server_mod), ("client", client_mod)):
            def counting(writer, *frames, _side=side,
                         _write=module.write_frame):
                writes[_side] += 1
                _write(writer, *frames)
            monkeypatch.setattr(module, "write_frame", counting)

        async def writes_per_round(n_devices):
            service = provision(n_devices=n_devices)
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    writes.update(server=0, client=0)
                    report = await client.authenticate_batch(
                        service.device_list)
                    assert report.n_accepted == n_devices
                    return dict(writes)
        small = run(writes_per_round(8))
        large = run(writes_per_round(64))
        assert small == large == {"server": 3, "client": 3}


class TestBackpressureAndShutdown:
    def test_reads_pause_past_high_watermark(self):
        async def main():
            service = provision(n_devices=8, latency_budget_s=0.005)
            config = NetConfig(pending_high=2, pending_low=1)
            async with AuthServer(service, config) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    tickets = [await client.submit(device)
                               for device in service.device_list]
                    for ticket in tickets:
                        await ticket.wait(10)
                    return tickets, server.metrics
        tickets, metrics = run(main())
        assert all(ticket.accepted for ticket in tickets)
        assert metrics.reads_paused >= 1

    def test_write_buffer_limits_applied(self):
        async def main():
            service = provision()
            config = NetConfig(write_high_bytes=1 << 12,
                               write_low_bytes=1 << 10)
            async with AuthServer(service, config) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.authenticate(
                        service.device_list[0])
                    return ticket
        assert run(main()).accepted

    def test_shutdown_drains_pending_tickets(self):
        async def main():
            # A huge budget: without drain the ticket would never flush.
            service = provision(latency_budget_s=60.0)
            device = service.device_list[0]
            server = await AuthServer(service).start()
            client = await AuthClient.connect("127.0.0.1", server.port)
            ticket = await client.submit(device)
            await asyncio.sleep(0.05)       # request lands server-side
            await server.aclose()           # drain flushes the ticket
            await ticket.wait(10)
            await client.aclose()
            return ticket, server.metrics
        ticket, metrics = run(main())
        assert metrics.drained_tickets == 1
        assert ticket.done and ticket.accepted

    def test_connection_loss_aborts_unacked_confirmation(self):
        # Die between CONFIRMATION and the finalize ack: the two-phase
        # commit must keep the verifier on the old CRP (abort), so the
        # device can retry later.
        from repro.service.codec import (
            SessionHello,
            SessionRequest,
            decode_message,
            encode_message,
            peek_header,
        )
        from repro.service.net import read_frame, write_frame

        async def main():
            service = provision()
            device = service.device_list[0]
            sessions_before = int(
                service.registry.record(device.device_id).sessions)
            async with AuthServer(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                write_frame(writer, encode_message(SessionHello("rude")))
                await writer.drain()
                await read_frame(reader)                   # WELCOME
                write_frame(writer, encode_message(
                    SessionRequest("auth", device.device_id)))
                write_frame(writer, encode_message(
                    SessionRequest("flush")))
                await writer.drain()
                challenge = None
                while challenge is None:
                    frame = await asyncio.wait_for(read_frame(reader), 10)
                    from repro.service import WireType
                    if peek_header(frame)[2] == int(WireType.CHALLENGE):
                        challenge = decode_message(frame)
                write_frame(writer, encode_message(
                    device.respond(challenge.nonce)))
                await writer.drain()
                # Wait for the CONFIRMATION, then vanish without an ack.
                from repro.service import WireType
                while True:
                    frame = await asyncio.wait_for(read_frame(reader), 10)
                    if peek_header(frame)[2] == int(WireType.CONFIRMATION):
                        break
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                sessions_after = int(
                    service.registry.record(device.device_id).sessions)
                return sessions_before, sessions_after, server.metrics
        before, after, metrics = run(main())
        assert after == before          # aborted, not rolled
        assert metrics.acks_aborted == 1

    def test_connection_loss_aborts_unacked_gateway_confirmations(self):
        # A gateway that vanishes between close-round and its acks: every
        # confirmation it got is aborted, exactly as in a micro-round.
        from repro.fleet.rounds import respond_round
        from repro.service import encode_message

        async def main():
            service = provision(n_devices=8)
            devices = service.device_list
            sessions = [int(service.registry.record(d.device_id).sessions)
                        for d in devices]
            async with AuthServer(service) as server:
                client = await AuthClient.connect("127.0.0.1", server.port)
                nonces = await client.open_round_wire(
                    [device.device_id for device in devices])
                report, confirmations = await client.verify_round_wire(
                    [encode_message(message)
                     for message in respond_round(devices, nonces)])
                await client.aclose()
            after = [int(service.registry.record(d.device_id).sessions)
                     for d in devices]
            return (report, confirmations, server.metrics,
                    service.verifier, sessions, after)
        report, confirmations, metrics, verifier, before, after = run(main())
        assert report.n_accepted == len(confirmations) == 8
        assert metrics.acks_aborted == 8
        assert verifier._pending == {}
        assert after == before          # aborted, not rolled


class TestMetricsShape:
    def test_metrics_export_plain_ints(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    await client.authenticate(service.device_list[0])
                return server.metrics.to_json()
        exported = run(main())
        assert all(isinstance(value, int) for value in exported.values())
        assert exported["auths_accepted"] == 1
