"""A gateway round's acks travel in one frame each way.

``AuthClient.authenticate_batch`` settles a round's two-phase commit
with one ``finalize`` REQUEST listing every ``(device id, round token,
verdict)`` ack (the round form, since wire 1.3), and ``AuthServer``
answers with one ``RESULT`` naming each refused ack.  The server
applies the acks exactly as the per-device ``finalize`` / ``abort``
verbs apply one each, so a round acked either way — the per-device
side sends its acks through ``AuthClient.finalize`` / ``abort`` —
leaves the same registry and devices behind.  Frames are counted where
each side hands them to ``write_frame``
(``tests/service/test_round_frames.py`` pins the rest of the round).
"""

import asyncio
from collections import namedtuple

import pytest

from repro.fleet.verifier import BatchAuthReport, FleetDevice
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service import (
    AuthService,
    FleetConfig,
    SessionHello,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    decode_message,
    encode_message,
)
from repro.service.net import AuthClient, AuthServer, RemoteAuthError
from repro.service.net import client as client_mod
from repro.service.net import server as server_mod
from repro.service.net.stream import read_frame, write_frame
from repro.utils.serialization import decode_fields, encode_fields

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=8, seed=11):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF))


def is_ack(message) -> bool:
    return (isinstance(message, (SessionRequest, SessionResult))
            and message.verb in ("finalize", "abort"))


def record_writes(monkeypatch):
    """Every frame each side hands to ``write_frame``, in order."""
    frames = {"server": [], "client": []}
    for module, side in ((server_mod, "server"), (client_mod, "client")):
        def recording(writer, *payloads, _write=module.write_frame,
                      _side=side):
            frames[_side].extend(payloads)
            return _write(writer, *payloads)

        monkeypatch.setattr(module, "write_frame", recording)
    return frames


def acks_written(frames):
    return {side: [message for message in map(decode_message, written)
                   if is_ack(message)]
            for side, written in frames.items()}


def ack_per_device(monkeypatch):
    """``AuthClient.authenticate_batch`` sends its acks one device at a
    time through ``AuthClient.finalize`` / ``abort`` instead of in one
    round ``finalize``, and raises the first refused one once every ack
    went out."""
    async def per_device(client, acks):
        refusals = []
        for device_id, token, verdict in acks:
            try:
                await getattr(client, verdict)(device_id, token)
            except RemoteAuthError as refusal:
                refusals.append(refusal)
        if refusals:
            raise refusals[0]

    monkeypatch.setattr(AuthClient, "_ack_round", per_device)


def end_state(service, devices):
    """Registry records (or ``None`` once revoked) and device CRPs."""
    state = []
    for device in devices:
        record = (service.registry.record(device.device_id)
                  if device.device_id in service.registry else None)
        state.append((device.device_id, device.current_response.tobytes(),
                      None if record is None else
                      (record.current_response.tobytes(),
                       int(record.sessions))))
    return state


async def gateway_rounds(served, groups, expect_error=None):
    """One ``authenticate_batch`` per group on one connection."""
    reports = []
    async with AuthServer(served) as server:
        async with AuthClient.connect("127.0.0.1", server.port) as client:
            version = client.negotiated_version
            for group in groups:
                if expect_error is None:
                    reports.append(await client.authenticate_batch(group))
                    continue
                with pytest.raises(RemoteAuthError) as excinfo:
                    await client.authenticate_batch(group)
                reports.append(excinfo.value)
    return version, reports, server.metrics


async def raw_call(port, request):
    """``request`` on a fresh raw connection; the server's reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        write_frame(writer, encode_message(SessionHello("raw")))
        await writer.drain()
        welcome = decode_message(await asyncio.wait_for(
            read_frame(reader), 10))
        assert isinstance(welcome, SessionWelcome)
        write_frame(writer, encode_message(request))
        await writer.drain()
        return decode_message(await asyncio.wait_for(read_frame(reader), 10))
    finally:
        writer.close()


def round_finalize(acks) -> SessionRequest:
    return SessionRequest("finalize", params={"acks": encode_fields(
        [field for device_id, token, verdict in acks
         for field in (device_id.encode(), token, verdict.encode())])})


async def confirmed_round(client, devices):
    """A gateway round up to the acks: every device confirmed and
    rolled; returns the nonces."""
    nonces = await client.open_round_wire(
        [device.device_id for device in devices])
    messages = [device.respond(nonces[device.device_id])
                for device in devices]
    report, confirmations = await client.verify_round_wire(
        [encode_message(message) for message in messages])
    assert report.n_accepted == len(devices)
    for device in devices:
        device.confirm(confirmations[device.device_id],
                       nonces[device.device_id])
    return nonces


def sessions(service, devices):
    return [service.registry.record(device.device_id).sessions
            for device in devices]


class TestOneAckFramePerRound:
    def test_one_request_and_one_result(self, monkeypatch):
        frames = record_writes(monkeypatch)
        served, gateway = provision(), provision()
        version, (report,), __ = asyncio.run(
            gateway_rounds(served, [gateway.device_list]))
        assert version == (1, 4)
        assert report.n_accepted == 8
        acks = acks_written(frames)
        assert len(acks["client"]) == 1 and len(acks["server"]) == 1
        (request,), (result,) = acks["client"], acks["server"]
        assert request.verb == "finalize" and request.device_id == ""
        assert len(decode_fields(request.params["acks"])) == 3 * 8
        assert result.ok and dict(result.detail) == {}
        assert end_state(served, gateway.device_list) == \
            [(device.device_id, device.current_response.tobytes(),
              (device.current_response.tobytes(), 1))
             for device in gateway.device_list]


class TestRefusedAcks:
    VICTIMS = ("dev-000005", "dev-000002")

    def run_with_revocations(self, monkeypatch, per_device):
        """Revoke the victims server-side just before the client's
        first write holding an ack."""
        if per_device:
            ack_per_device(monkeypatch)
        frames = record_writes(monkeypatch)
        served, gateway = provision(), provision()
        recording = client_mod.write_frame
        armed = [True]

        def revoking(writer, *payloads):
            if armed[0] and any(map(is_ack, map(decode_message, payloads))):
                armed[0] = False
                for victim in self.VICTIMS:
                    served.revoke(victim)
            recording(writer, *payloads)

        monkeypatch.setattr(client_mod, "write_frame", revoking)
        version, (error,), metrics = asyncio.run(gateway_rounds(
            served, [gateway.device_list], expect_error=RemoteAuthError))
        return (version, error, metrics, acks_written(frames),
                end_state(served, gateway.device_list))

    def test_refused_entries_are_named_and_the_rest_applied(
            self, monkeypatch):
        version, error, metrics, acks, state = self.run_with_revocations(
            monkeypatch, per_device=False)
        assert version == (1, 4)
        # The client raises on the first refused ack in request order.
        assert error.kind is FailureKind.NO_SESSION
        assert "dev-000002" in str(error)
        (result,) = acks["server"]
        assert not result.ok
        refused = decode_fields(result.detail["refused"])
        assert refused[0::3] == [b"dev-000002", b"dev-000005"]
        assert refused[2::3] == [b"no-session"] * 2
        assert all(b"no session" in reason for reason in refused[1::3])
        for device_id, __, record in state:
            if device_id in self.VICTIMS:
                assert record is None
            else:
                assert record[1] == 1
        # Refused acks stay pending on the connection: its teardown
        # aborts them, as it aborts a refused per-device ack.
        assert metrics.acks_aborted == 2

    def test_state_equals_per_device_acks(self, monkeypatch):
        __, round_error, round_metrics, round_acks, round_state = \
            self.run_with_revocations(monkeypatch, per_device=False)
        assert len(round_acks["client"]) == len(round_acks["server"]) == 1
        monkeypatch.undo()
        __, error, metrics, acks, state = self.run_with_revocations(
            monkeypatch, per_device=True)
        assert len(acks["client"]) == 8 and len(acks["server"]) == 8
        assert state == round_state
        assert (error.kind, str(error)) == \
            (round_error.kind, str(round_error))
        assert metrics.acks_aborted == round_metrics.acks_aborted

    def test_stale_token_is_ignored_like_the_per_device_verb(self):
        stale = b"\x00" * 16

        async def main(round_form):
            served, gateway = provision(n_devices=4), provision(n_devices=4)
            devices = gateway.device_list
            async with AuthServer(served) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    nonces = await confirmed_round(client, devices)
                    tokens = {device_id: stale if device_id == "dev-000000"
                              else nonce
                              for device_id, nonce in nonces.items()}
                    if round_form:
                        result = await raw_call(server.port, round_finalize(
                            [(device_id, token, "finalize")
                             for device_id, token in tokens.items()]))
                        assert result.ok and dict(result.detail) == {}
                    else:
                        for device_id, token in tokens.items():
                            await client.finalize(device_id, token)
                    before = sessions(served, devices)
                    # The stale ack left the session pending: the right
                    # token still commits it.
                    await client.finalize("dev-000000", nonces["dev-000000"])
            return before, end_state(served, devices)

        round_before, round_state = asyncio.run(main(round_form=True))
        device_before, device_state = asyncio.run(main(round_form=False))
        assert round_before == device_before == [0, 1, 1, 1]
        assert round_state == device_state
        assert [record[1] for __, __, record in round_state] == [1] * 4


class TestHostileAcks:
    @pytest.mark.parametrize("acks", [
        encode_fields([b"dev-000000", b"token"]),
        encode_fields([b"dev-000000", b"token", b"finalize", b"extra"]),
        b"\x00\x00\x00\x09dev",
        b"\x00\x00",
        encode_fields([b"dev-000000", b"token", b"commit"]),
        encode_fields([b"\xff\xfe", b"token", b"finalize"]),
    ], ids=["pair", "four", "truncated-body", "truncated-prefix",
            "unknown-verdict", "non-utf8-id"])
    def test_malformed_acks_get_a_failure_result(self, acks):
        async def main():
            served, gateway = provision(n_devices=4), provision(n_devices=4)
            devices = gateway.device_list
            async with AuthServer(served) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    nonces = await confirmed_round(client, devices)
                    # A valid ack ahead of the malformed bytes: the whole
                    # param is refused, so it is not applied either.
                    valid = round_finalize(
                        [("dev-000000", nonces["dev-000000"], "finalize")])
                    result = await raw_call(server.port, SessionRequest(
                        "finalize", params={
                            "acks": valid.params["acks"] + acks}))
                    applied = sessions(served, devices)
                    # The gateway's own connection is unaffected.
                    for device_id, nonce in nonces.items():
                        await client.finalize(device_id, nonce)
            return result, applied, sessions(served, devices)

        result, applied, settled = asyncio.run(main())
        assert isinstance(result, SessionResult)
        assert result.verb == "finalize" and not result.ok
        assert result.detail["kind"] == FailureKind.MALFORMED.value.encode()
        assert applied == [0, 0, 0, 0]
        assert settled == [1, 1, 1, 1]


Run = namedtuple("Run", "frames reports state commit_log")


class TestEquivalence:
    """The same seeded rounds acked per device and per round: every
    other frame and every end state match."""

    REFUSER = "dev-000003"

    def run(self, monkeypatch, per_device):
        if per_device:
            ack_per_device(monkeypatch)
        frames = record_writes(monkeypatch)
        confirm = FleetDevice.confirm

        def refusing(device, mac, nonce=None):
            # One device rejects its confirmations: its acks are aborts.
            if device.device_id == self.REFUSER:
                raise AuthenticationFailure("forced refusal",
                                            FailureKind.BAD_CONFIRMATION)
            return confirm(device, mac, nonce)

        monkeypatch.setattr(FleetDevice, "confirm", refusing)
        served, gateway = provision(n_devices=12), provision(n_devices=12)
        devices = gateway.device_list
        groups = [devices[:6], devices[6:], devices[:6], devices[6:]]
        __, reports, __ = asyncio.run(gateway_rounds(served, groups))
        monkeypatch.undo()
        return Run(frames, reports, end_state(served, devices),
                   served.verifier.commit_log)

    @staticmethod
    def comparable(written):
        """The frames that are not acks."""
        return [frame for frame in written
                if not is_ack(decode_message(frame))]

    def test_same_frames_and_end_state(self, monkeypatch):
        per_device = self.run(monkeypatch, per_device=True)
        current = self.run(monkeypatch, per_device=False)
        for side in ("server", "client"):
            assert self.comparable(per_device.frames[side]) == \
                self.comparable(current.frames[side])
        per_device_acks = acks_written(per_device.frames)
        current_acks = acks_written(current.frames)
        assert len(per_device_acks["client"]) == 4 * 6
        assert len(current_acks["client"]) == 4
        assert len(current_acks["server"]) == 4
        verdicts = [decode_fields(request.params["acks"])[2::3]
                    for request in current_acks["client"]]
        assert [verdict.count(b"abort") for verdict in verdicts] == \
            [1, 0, 1, 0]
        for index, (per_device_report, report) in enumerate(
                zip(per_device.reports, current.reports)):
            assert isinstance(report, BatchAuthReport)
            assert report.confirmations == per_device_report.confirmations
            assert report.failure_kinds == per_device_report.failure_kinds == (
                {} if index % 2 else {self.REFUSER: "bad-confirmation"})
        assert per_device.state == current.state
        assert len(current.commit_log) == len(per_device.commit_log)
        # Every device, the refuser included, agrees with its record.
        assert [(device, record) for __, device, record in current.state] \
            == [(device, (device, 0 if device_id == self.REFUSER else 2))
                for device_id, device, __ in current.state]
