"""Each frame a round delivers is decoded once, on either side.

The counts patch the module-level ``decode_message`` names that
``perfbench/tracer.py`` patches too: the server side decodes in
``repro.service.net.server`` and ``repro.service.facade``, the client
side in ``repro.service.net.client``.  Counting runs from after the
handshake to the last ack.
"""

import asyncio

import pytest

from repro.service import AuthService, FleetConfig
from repro.service import facade as facade_mod
from repro.service.net import AuthClient, AuthServer
from repro.service.net import client as client_mod
from repro.service.net import server as server_mod

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def count_decodes(monkeypatch):
    """Per-side ``decode_message`` counts, taken while ``counting[0]``."""
    counts = {"server": 0, "client": 0}
    counting = [False]
    for module, side in ((server_mod, "server"), (facade_mod, "server"),
                         (client_mod, "client")):
        original = module.decode_message

        def decode_message(frame, _original=original, _side=side):
            counts[_side] += counting[0]
            return _original(frame)

        monkeypatch.setattr(module, "decode_message", decode_message)
    return counts, counting


def gateway_round(n_devices):
    """One ``authenticate_batch`` of ``n_devices`` on loopback, counted."""
    async def main(counting):
        config = FleetConfig(n_devices=n_devices, seed=5, puf=FAST_PUF)
        served = AuthService.provision(config)
        gateway = AuthService.provision(config)
        async with AuthServer(served) as server:
            async with AuthClient.connect("127.0.0.1", server.port) as client:
                counting[0] = True
                report = await client.authenticate_batch(gateway.device_list)
                counting[0] = False
        return client.negotiated_version, report
    return main


@pytest.mark.parametrize("n_devices", [1, 8])
def test_wire_1_4_gateway_round_decodes_three_frames_a_side(monkeypatch,
                                                            n_devices):
    counts, counting = count_decodes(monkeypatch)
    version, report = asyncio.run(gateway_round(n_devices)(counting))
    assert version == (1, 4)
    assert report.n_accepted == n_devices
    # open-round, close-round (every response) and the one ack REQUEST.
    assert counts["server"] == 3
    # The open-round result (every nonce), the REPORT (every
    # confirmation) and the one ack result.
    assert counts["client"] == 3


def test_micro_round_decodes_each_received_frame_once(monkeypatch):
    # The round reads the verifier's report object: the server never
    # decodes a REPORT frame of its own making.
    counts, counting = count_decodes(monkeypatch)

    async def main():
        config = FleetConfig(n_devices=4, seed=5, puf=FAST_PUF)
        served = AuthService.provision(config)
        gateway = AuthService.provision(config)
        async with AuthServer(served) as server:
            async with AuthClient.connect("127.0.0.1", server.port) as client:
                counting[0] = True
                tickets = [await client.submit(device)
                           for device in gateway.device_list]
                await client.flush()
                for ticket in tickets:
                    await ticket.wait(10.0)
                # The finalize acks need no reply: wait until the server
                # has dispatched all nine requests.
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while server.metrics.requests < 9:
                    assert loop.time() < deadline, "acks never arrived"
                    await asyncio.sleep(0.001)
                counting[0] = False
        return tickets

    tickets = asyncio.run(main())
    assert all(ticket.accepted for ticket in tickets)
    # 4 auth, the flush and 4 finalize REQUESTs; 4 RESPONSEs.
    assert counts["server"] == 13
