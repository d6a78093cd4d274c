"""One two-phase commit for every verifier.

Every :class:`~repro.fleet.verifier.BatchVerifier` parks each accepted
candidate in a :class:`~repro.fleet.verifier.CommitLog` — its own, or
one a replica group shares — so a finalize lost after the device rolled
is completed from the device's next message on a single server too:
in process, across a restore, over a micro-round and over a gateway
round.  The in-process paths resolve every entry they park.
"""

import asyncio

import numpy as np
import pytest

from repro.fleet import FaultModel, ReplayAdversary
from repro.service import AuthService, FleetConfig, SessionRequest
from repro.service.codec import decode_message
from repro.service.net import AuthClient, AuthServer, RemoteAuthError
from repro.service.net import client as client_mod

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=4, seed=11, **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs))


def desynchronized(service, devices):
    return [device.device_id for device in devices
            if not np.array_equal(
                service.registry.record(device.device_id).current_response,
                device.current_response)]


def lose_finalize(service, device):
    """One session up to the device's roll, then its finalize is lost:
    the confirmation leaves (``expose``), the device confirms and
    rolls, and the connection dies before the ack (ambiguous abort)."""
    verifier = service.verifier
    nonces = verifier.open_round([device.device_id])
    nonce = nonces[device.device_id]
    report = verifier.verify_round([device.respond(nonce)], nonces)
    verifier.expose(device.device_id)
    device.confirm(report.confirmations[device.device_id], nonce)
    verifier.abort(device.device_id, ambiguous=True)


def lose_finalize_writes(monkeypatch):
    """The client's first write holding a finalize closes its writer
    instead: the ack never leaves, after the device(s) rolled."""
    write_frame = client_mod.write_frame
    armed = [True]

    def lossy(writer, *frames):
        if armed[0] and any(
                isinstance(message, SessionRequest)
                and message.verb == "finalize"
                for message in map(decode_message, frames)):
            armed[0] = False
            writer.close()
            return
        write_frame(writer, *frames)

    monkeypatch.setattr(client_mod, "write_frame", lossy)


async def until(predicate, timeout=10.0):
    """Yield to the event loop until ``predicate()`` holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestLostFinalizeInProcess:
    @pytest.mark.parametrize("restart", [False, True])
    def test_next_round_completes_the_roll(self, restart):
        service = provision()
        device = service.device_list[0]
        lose_finalize(service, device)
        assert service.registry.record(device.device_id).sessions == 0
        if restart:
            # The restored verifier takes the outgoing one's log.
            service.restore(service.snapshot())
        report = service.authenticate_batch([device])
        assert report.n_accepted == 1, report.failure_kinds
        assert desynchronized(service, [device]) == []
        assert service.registry.record(device.device_id).sessions == 2
        assert len(service.verifier.commit_log) == 0


class TestLostFinalizeOnTheWire:
    def test_micro_round(self, monkeypatch):
        # max_batch=1: every submit flushes its own micro-round, so no
        # flush reply is owed on the connection the lost ack closes.
        served = provision(max_batch=1)
        device = provision().device_list[0]
        lose_finalize_writes(monkeypatch)

        async def main():
            async with AuthServer(served) as server:
                client = await AuthClient.connect("127.0.0.1", server.port)
                lost = await (await client.submit(device)).wait(10.0)
                await until(lambda: server.metrics.acks_aborted == 1)
                await client.aclose()
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as fresh:
                    retry = await fresh.authenticate(device, flush=True)
            return lost, retry

        lost, retry = asyncio.run(main())
        assert lost.accepted                    # the device rolled
        assert retry.accepted, retry.failure_kind
        assert desynchronized(served, [device]) == []
        assert served.registry.record(device.device_id).sessions == 2

    def test_gateway_round(self, monkeypatch):
        served = provision(n_devices=16)
        devices = provision(n_devices=16).device_list
        lose_finalize_writes(monkeypatch)

        async def main():
            async with AuthServer(served) as server:
                client = await AuthClient.connect("127.0.0.1", server.port)
                with pytest.raises(RemoteAuthError):
                    await client.authenticate_batch(devices)
                await until(lambda: server.metrics.acks_aborted == 16)
                await client.aclose()
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as fresh:
                    return await fresh.authenticate_batch(devices)

        report = asyncio.run(main())
        assert report.n_accepted == 16, report.failure_kinds
        assert desynchronized(served, devices) == []


class TestEveryEntryResolves:
    def test_in_process_round(self):
        service = provision(n_devices=8)
        assert service.authenticate_batch().n_accepted == 8
        assert len(service.verifier.commit_log) == 0

    def test_campaign(self):
        service = provision(n_devices=16)
        stats = service.simulator(
            faults=FaultModel(request_drop=0.05, response_drop=0.05,
                              confirmation_drop=0.3, max_retries=2),
            adversaries=[ReplayAdversary(probability=0.3)],
        ).run_campaign(6, crash_after_round=3)
        assert stats.dropped_confirmations > 0
        assert stats.desynchronized == 0
        assert len(service.verifier.commit_log) == 0
