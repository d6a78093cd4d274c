"""Each frame a gateway round delivers is decoded once, on either side.

The counts patch the module-level ``decode_message`` names that
``perfbench/tracer.py`` patches too: the server side decodes in
``repro.service.net.server`` and ``repro.service.facade``, the client
side in ``repro.service.net.client``.  Counting runs from after the
handshake to the last ack result.
"""

import asyncio

import pytest

from repro.service import AuthService, FleetConfig
from repro.service import facade as facade_mod
from repro.service.net import AuthClient, AuthServer
from repro.service.net import client as client_mod
from repro.service.net import server as server_mod

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


@pytest.mark.parametrize("n_devices", [1, 8])
def test_gateway_round_decodes_each_received_frame_once(monkeypatch,
                                                        n_devices):
    counts = {"server": 0, "client": 0}
    counting = [False]
    for module, side in ((server_mod, "server"), (facade_mod, "server"),
                         (client_mod, "client")):
        original = module.decode_message

        def decode_message(frame, _original=original, _side=side):
            counts[_side] += counting[0]
            return _original(frame)

        monkeypatch.setattr(module, "decode_message", decode_message)

    async def main():
        config = FleetConfig(n_devices=n_devices, seed=5, puf=FAST_PUF)
        served = AuthService.provision(config)
        gateway = AuthService.provision(config)
        async with AuthServer(served) as server:
            async with AuthClient.connect("127.0.0.1", server.port) as client:
                counting[0] = True
                report = await client.authenticate_batch(gateway.device_list)
                counting[0] = False
        return report

    report = asyncio.run(main())
    n = n_devices
    assert report.n_accepted == n
    # N RESPONSEs, N acks, open-round and close-round.
    assert counts["server"] == 2 * n + 2
    # N CHALLENGEs, N CONFIRMATIONs, N ack results, the open-round
    # result and the REPORT.
    assert counts["client"] == 3 * n + 2
