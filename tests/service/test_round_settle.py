"""A served gateway round reads each record once and settles its acks in
one registry transaction.

Counts on loopback rounds: ``FleetRegistry.record`` once per device, one
``transaction()`` for the round ``finalize``, and on the sharded backend
one WAL write for the round's rolls.  ``BatchVerifier.settle`` is held
to the same acks applied one ``finalize``/``abort`` at a time.
"""

import asyncio

import numpy as np
import pytest

from repro.fleet.registry import FleetRegistry
from repro.fleet.rounds import respond_round
from repro.fleet.storage.sharded import ShardedFileBackend
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service import AuthService, FleetConfig
from repro.service.net import AuthClient, AuthServer
from repro.utils.rng import derive_bytes

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def config(n_devices=8, **kwargs):
    return FleetConfig(n_devices=n_devices, seed=11, puf=FAST_PUF, **kwargs)


def serve_round(service, gateway):
    async def main():
        async with AuthServer(service) as server:
            async with AuthClient.connect(server.host, server.port) as client:
                return await client.authenticate_batch(gateway.device_list)
    return asyncio.run(main())


def test_a_served_round_reads_each_record_once(monkeypatch):
    service, gateway = AuthService.provision(config()), \
        AuthService.provision(config())
    reads, transactions = [], []
    record, transaction = FleetRegistry.record, FleetRegistry.transaction

    def counted_record(self, device_id):
        if self is service.registry:
            reads.append(device_id)
        return record(self, device_id)

    def counted_transaction(self):
        if self is service.registry:
            transactions.append(None)
        return transaction(self)

    monkeypatch.setattr(FleetRegistry, "record", counted_record)
    monkeypatch.setattr(FleetRegistry, "transaction", counted_transaction)
    report = serve_round(service, gateway)
    assert report.n_accepted == 8
    # open-round screens by membership, close-round reads each record
    # once, and the round finalize rolls without reading.
    assert reads == gateway.device_ids()
    assert len(transactions) == 1
    for device in gateway.device_list:
        assert np.array_equal(
            record(service.registry, device.device_id).current_response,
            device.current_response)


def test_a_served_round_journals_its_acks_in_one_wal_write(tmp_path,
                                                           monkeypatch):
    service = AuthService.provision(config(
        registry_backend="sharded", storage_root=str(tmp_path)))
    gateway = AuthService.provision(config())
    backend = service.registry.backend
    writes = []
    wal_write = ShardedFileBackend._wal_write

    def counted(self, text):
        if self is backend:
            writes.append(text.count("\n"))
        return wal_write(self, text)

    monkeypatch.setattr(ShardedFileBackend, "_wal_write", counted)
    try:
        report = serve_round(service, gateway)
        assert report.n_accepted == 8
        # Eight rolls, journaled as one write.
        assert writes == [8]
    finally:
        service.close()


def round_to_settle(service):
    """An open, verified round whose devices all confirmed."""
    devices = service.device_list
    nonces = service.verifier.open_round(service.device_ids())
    report = service.verifier.verify_round(respond_round(devices, nonces),
                                           nonces)
    assert report.n_accepted == len(devices)
    for device in devices:
        device.confirm(report.confirmations[device.device_id],
                       nonces[device.device_id])
    return nonces


def end_state(service):
    verifier = service.verifier
    return (
        [(device_id, record.sessions, record.current_response.tobytes())
         for device_id, record in (
             (device_id, service.registry.record(device_id))
             for device_id in service.device_ids())],
        sorted(verifier._pending),
        sorted(verifier.commit_log.device_ids()),
        sorted(verifier._seen_tags),
    )


def test_settle_matches_acks_applied_one_at_a_time():
    services = [AuthService.provision(config(n_devices=6)) for __ in (0, 1)]
    refusals = []
    for service in services:
        nonces = round_to_settle(service)
        ids = service.device_ids()
        acks = [
            (ids[0], nonces[ids[0]], "finalize"),
            (ids[1], None, "finalize"),
            (ids[2], nonces[ids[2]], "abort"),
            (ids[3], b"stale-round-token", "finalize"),   # ignored
            (ids[0], nonces[ids[0]], "finalize"),         # no session
            ("dev-ghost", None, "finalize"),               # no session
            (ids[4], b"stale-round-token", "abort"),       # ignored
            (ids[5], nonces[ids[5]], "finalize"),
        ]
        if service is services[0]:
            refused = service.verifier.settle(acks)
        else:
            refused = []
            for device_id, token, verdict in acks:
                try:
                    if verdict == "finalize":
                        service.verifier.finalize(device_id, token=token)
                    else:
                        service.verifier.abort(device_id, token=token)
                except AuthenticationFailure as failure:
                    refused.append((device_id, failure))
        refusals.append([(device_id, str(failure), failure.kind)
                         for device_id, failure in refused])
    assert refusals[0] == refusals[1]
    assert [(device_id, kind) for device_id, __, kind in refusals[0]] == [
        (services[0].device_ids()[0], FailureKind.NO_SESSION),
        ("dev-ghost", FailureKind.NO_SESSION),
    ]
    assert end_state(services[0]) == end_state(services[1])


def test_open_round_reads_no_record(monkeypatch):
    service = AuthService.provision(config(n_devices=3))
    verifier, ids = service.verifier, service.device_ids()
    reads = []
    record = FleetRegistry.record

    def counted(self, device_id):
        reads.append(device_id)
        return record(self, device_id)

    monkeypatch.setattr(FleetRegistry, "record", counted)
    start = verifier._nonce_counter
    nonces = verifier.open_round(ids)
    assert reads == []
    assert list(nonces.values()) == [
        derive_bytes(16, verifier.seed, "fleet-nonce", verifier.stream_epoch,
                     start + index) for index in range(3)]
    # An unknown id refuses the call after the ids before it drew their
    # nonces.
    with pytest.raises(AuthenticationFailure) as excinfo:
        verifier.open_round([ids[0], ids[1], "dev-ghost", ids[2]])
    assert excinfo.value.kind is FailureKind.NOT_ENROLLED
    assert verifier._nonce_counter == start + 3 + 2


def test_roll_of_an_unknown_id_is_not_enrolled():
    service = AuthService.provision(config(n_devices=1))
    with pytest.raises(AuthenticationFailure) as excinfo:
        service.registry.roll("dev-ghost", np.zeros(16, dtype=np.uint8))
    assert excinfo.value.kind is FailureKind.NOT_ENROLLED
    assert str(excinfo.value) == "device 'dev-ghost' is not enrolled"
