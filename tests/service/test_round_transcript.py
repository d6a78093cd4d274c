"""Round confirmations against the standards, recomputed from scratch.

For every device a round accepts, the confirmation it checked must be
``MAC(c_{i+1} || N, r_{i+1})`` (paper Fig. 4) with ``c_{i+1} = RNG(r_i)``,
recomputed here from ``r_i``, ``r_{i+1}`` and the round nonce alone:
``RNG`` through ``ReferenceHmacDrbg`` (NIST SP 800-90A HMAC_DRBG built
on the stdlib ``hmac``) and ``MAC`` through the stdlib ``hmac``
(RFC 2104).  PUF responses may differ across BLAS builds, but the
protocol bytes computed from them may not, so the check recomputes
instead of pinning a digest.  It covers an in-process
``authenticate_fleet`` round and a loopback ``AuthClient`` gateway round.
"""

import asyncio
import hashlib
import hmac
import math

import numpy as np
import pytest

from repro.fleet.verifier import FleetDevice
from repro.service import AuthService, FleetConfig
from repro.service.net import AuthClient, AuthServer
from tests.crypto.test_mac_kdf_drbg import ReferenceHmacDrbg

#: 12 response bits and 20 challenge bits pad their last bytes.
PUFS = [dict(challenge_bits=64, n_stages=12, response_bits=32),
        dict(challenge_bits=20, n_stages=4, response_bits=12)]


def reference_confirmation(r_i, r_next, challenge_bits: int,
                           nonce: bytes) -> bytes:
    raw = ReferenceHmacDrbg(np.packbits(r_i).tobytes(),
                            b"hsc-iot-challenge").generate(
        math.ceil(challenge_bits / 8))
    challenge = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    # Two length-prefixed fields: c_{i+1}, packed, and the nonce.
    body = b"".join(len(field).to_bytes(4, "big") + field for field in (
        np.packbits(challenge[:challenge_bits]).tobytes(), nonce))
    return hmac.new(np.packbits(r_next).tobytes(), body,
                    hashlib.sha256).digest()


@pytest.fixture
def confirmed(monkeypatch):
    """Every confirmation a device accepted, with ``r_i`` and ``r_{i+1}``."""
    rows = []
    confirm = FleetDevice.confirm

    def recorded(self, confirmation, nonce):
        r_i = self.current_response.copy()
        confirm(self, confirmation, nonce)
        rows.append((self.device_id, self.puf.challenge_bits, r_i,
                     self.current_response.copy(), confirmation, nonce))

    monkeypatch.setattr(FleetDevice, "confirm", recorded)
    return rows


def check(rows, report) -> None:
    assert sorted(device_id for device_id, *__ in rows) == \
        sorted(report.confirmations) == sorted(report.accepted_ids)
    for device_id, challenge_bits, r_i, r_next, confirmation, nonce in rows:
        assert confirmation == report.confirmations[device_id]
        assert confirmation == reference_confirmation(
            r_i, r_next, challenge_bits, nonce), device_id


def provision(puf) -> AuthService:
    return AuthService.provision(FleetConfig(n_devices=12, seed=7, puf=puf))


@pytest.mark.parametrize("puf", PUFS)
def test_in_process_round_matches_the_reference(puf, confirmed):
    service = provision(puf)
    for __ in range(2):
        confirmed.clear()
        report = service.authenticate_batch()
        assert report.n_accepted == 12
        check(confirmed, report)


@pytest.mark.parametrize("puf", PUFS)
def test_gateway_round_matches_the_reference(puf, confirmed):
    service, gateway = provision(puf), provision(puf)

    async def main():
        async with AuthServer(service) as server:
            async with AuthClient.connect(server.host, server.port) as client:
                reports = []
                for __ in range(2):
                    confirmed.clear()
                    reports.append(
                        await client.authenticate_batch(gateway.device_list))
                    check(confirmed, reports[-1])
                return reports

    for report in asyncio.run(main()):
        assert report.n_accepted == 12
