"""Wire 1.4: a gateway round travels in its three verb frames.

The ``open-round`` RESULT carries the round's ``(device id, nonce)``
pairs and its policy vetoes, the ``close-round`` REQUEST every response
as a ``(device id, body, tag)`` row, answered by the ``REPORT`` alone,
and the round ``finalize`` is 1.3's.  Frames are counted where each
side hands them to ``write_frame``.  The same seeded rounds run in
process on a twin service (``AuthService.authenticate_batch``) leave
the same reports and state.  Verb params that do not parse are refused
with a ``malformed-message`` failure RESULT before any state changes,
and the connection keeps serving.
"""

import asyncio
from collections import namedtuple

import numpy as np
import pytest

from repro.fleet.verifier import BatchAuthReport, FleetDevice
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service import (
    AuthService,
    FleetConfig,
    RateLimitPolicy,
    SessionHello,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    decode_message,
    encode_message,
)
from repro.service import facade as facade_mod
from repro.service.net import (
    AuthClient,
    AuthServer,
    NetConfig,
    RemoteAuthError,
)
from repro.service.net import client as client_mod
from repro.service.net import server as server_mod
from repro.service.net.stream import read_frame, write_frame
from repro.utils.serialization import decode_fields, encode_fields

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision(n_devices=8, seed=11, policies=(), **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs),
        policies=policies)


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


def rows(*entries) -> bytes:
    """``encode_fields`` of rows of byte fields."""
    return encode_fields([field for entry in entries for field in entry])


def end_state(service, devices):
    """Registry records and device CRPs."""
    return [(device.device_id, device.current_response.tobytes(),
             service.registry.record(device.device_id)
             .current_response.tobytes(),
             int(service.registry.record(device.device_id).sessions))
            for device in devices]


async def gateway_rounds(served, groups, config=None):
    """One ``authenticate_batch`` per group on one connection."""
    async with AuthServer(served, config) as server:
        async with AuthClient.connect("127.0.0.1", server.port) as client:
            reports = [await client.authenticate_batch(group)
                       for group in groups]
    return client.negotiated_version, reports, server.metrics


async def reply(reader):
    """The server's next frame, decoded; ``None`` on EOF."""
    frame = await asyncio.wait_for(read_frame(reader), 10)
    return None if frame is None else decode_message(frame)


async def raw_session(port):
    """A handshaken raw connection: ``call(request)`` answers with the
    server's reply to it."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    write_frame(writer, encode_message(SessionHello("raw")))
    await writer.drain()
    assert isinstance(await reply(reader), SessionWelcome)

    async def call(request):
        write_frame(writer, encode_message(request))
        await writer.drain()
        return await reply(reader)
    return call, writer


def assert_malformed(result, verb):
    assert isinstance(result, SessionResult), result
    assert (result.verb, result.ok) == (verb, False)
    assert result.detail["kind"] == FailureKind.MALFORMED.value.encode()


class TestThreeFramesEachWay:
    def test_three_frames_each_way_per_round(self, monkeypatch):
        frames = record_writes(monkeypatch)
        served, gateway = provision(n_devices=12), provision(n_devices=12)
        devices = gateway.device_list
        groups = [devices[:8], devices[4:]]
        version, reports, __ = asyncio.run(gateway_rounds(served, groups))
        assert version == (1, 4)
        assert [report.n_accepted for report in reports] == [8, 8]
        server = [decode_message(frame) for frame in frames["server"]]
        client = [decode_message(frame) for frame in frames["client"]]
        assert isinstance(server.pop(0), SessionWelcome)
        assert isinstance(client.pop(0), SessionHello)
        assert len(server) == len(client) == 3 * len(groups)
        for at, group in zip((0, 3), groups):
            ids = [device.device_id.encode() for device in group]
            opened, closed, acked = client[at:at + 3]
            assert (opened.verb, closed.verb, acked.verb) == \
                ("open-round", "close-round", "finalize")
            assert decode_fields(closed.params["responses"])[0::3] == ids
            assert decode_fields(acked.params["acks"])[0::3] == ids
            result, report, ack_result = server[at:at + 3]
            assert result.verb == "open-round" and result.ok
            assert "vetoes" not in result.detail
            assert decode_fields(result.detail["nonces"])[0::2] == ids
            assert isinstance(report, BatchAuthReport)
            assert sorted(report.confirmations) == sorted(
                device.device_id for device in group)
            assert ack_result.verb == "finalize" and ack_result.ok
        assert [sessions for *__, sessions in end_state(served, devices)] \
            == [1] * 4 + [2] * 4 + [1] * 4
        assert all(device == record for __, device, record, __
                   in end_state(served, devices))


    def test_server_encodes_only_what_it_writes(self, monkeypatch):
        # No CHALLENGE or CONFIRMATION is built for a gateway round: the
        # server encodes the open-round RESULT, the REPORT and the ack
        # RESULT.
        encoded = []
        for module in (server_mod, facade_mod):
            def counting(message, _encode=module.encode_message):
                encoded.append(type(message).__name__)
                return _encode(message)

            monkeypatch.setattr(module, "encode_message", counting)
        served, gateway = provision(), provision()
        asyncio.run(gateway_rounds(served, [gateway.device_list]))
        assert encoded == ["SessionWelcome", "SessionResult",
                           "BatchAuthReport", "SessionResult"]


def rate_limited():
    return [RateLimitPolicy(max_requests=1, window_s=60.0)]


def refusing_confirmations(monkeypatch, refuser):
    """``FleetDevice.confirm`` refuses every confirmation ``refuser``
    gets."""
    confirm = FleetDevice.confirm

    def refusing(device, mac, nonce=None):
        if device.device_id == refuser:
            raise AuthenticationFailure("forced refusal",
                                        FailureKind.BAD_CONFIRMATION)
        return confirm(device, mac, nonce)

    monkeypatch.setattr(FleetDevice, "confirm", refusing)


def same_reports(served, in_process):
    return [(report.confirmations, report.failures, report.failure_kinds)
            for report in served] == \
        [(report.confirmations, report.failures, report.failure_kinds)
         for report in in_process]


class TestVetoes:
    GROUPS = (slice(0, 1), slice(0, 2))

    def run(self, monkeypatch):
        frames = record_writes(monkeypatch)
        served = provision(n_devices=4, policies=rate_limited())
        devices = provision(n_devices=4).device_list
        version, reports, metrics = asyncio.run(gateway_rounds(
            served, [devices[group] for group in self.GROUPS]))
        monkeypatch.undo()
        return (version, reports, metrics, served,
                [decode_message(frame) for frame in frames["server"]])

    def test_vetoes_ride_the_open_round_result(self, monkeypatch):
        version, (first, second), metrics, served, written = self.run(
            monkeypatch)
        assert version == (1, 4)
        assert first.n_accepted == 1
        assert list(second.confirmations) == ["dev-000001"]
        assert second.failure_kinds == {
            "dev-000000": FailureKind.RATE_LIMITED.value}
        assert metrics.auths_failed == 1
        (vetoing,) = [message for message in written
                      if isinstance(message, SessionResult)
                      and "vetoes" in message.detail]
        vetoes = decode_fields(vetoing.detail["vetoes"])
        assert vetoes[0::3] == [b"dev-000000"]
        assert vetoes[2::3] == [b"rate-limited"]
        assert decode_fields(vetoing.detail["nonces"])[0::2] == \
            [b"dev-000001"]
        # No per-device veto RESULT: the open-round RESULT carried it.
        assert not [message for message in written
                    if isinstance(message, SessionResult)
                    and message.verb == "auth"]
        assert served.verifier._nonce_counter == 2

    def test_same_reports_and_counts_as_in_process(self, monkeypatch):
        __, reports, metrics, __, __ = self.run(monkeypatch)
        twin = provision(n_devices=4, policies=rate_limited())
        in_process = [twin.authenticate_batch(twin.device_list[group])
                      for group in self.GROUPS]
        assert same_reports(reports, in_process)
        assert metrics.auths_failed == 1 == sum(
            len(report.failures) for report in in_process)


Run = namedtuple("Run", "acks reports state commit_log")


class TestEquivalenceWithInProcess:
    """The same seeded rounds, one device refusing its confirmations,
    served and in process on a twin service."""

    REFUSER = "dev-000003"

    @staticmethod
    def groups(devices):
        return [devices[:6], devices[6:], devices[:6], devices[6:]]

    def served(self, monkeypatch):
        frames = record_writes(monkeypatch)
        refusing_confirmations(monkeypatch, self.REFUSER)
        served, gateway = provision(n_devices=12), provision(n_devices=12)
        devices = gateway.device_list
        __, reports, __ = asyncio.run(gateway_rounds(
            served, self.groups(devices)))
        monkeypatch.undo()
        acks = [message for message in map(decode_message, frames["client"])
                if getattr(message, "verb", "") == "finalize"]
        return Run(acks, reports, end_state(served, devices),
                   served.verifier.commit_log)

    def in_process(self, monkeypatch):
        refusing_confirmations(monkeypatch, self.REFUSER)
        twin = provision(n_devices=12)
        devices = twin.device_list
        reports = [twin.authenticate_batch(group)
                   for group in self.groups(devices)]
        monkeypatch.undo()
        return Run([], reports, end_state(twin, devices),
                   twin.verifier.commit_log)

    def test_same_reports_registry_devices_and_commit_log(self,
                                                          monkeypatch):
        served = self.served(monkeypatch)
        in_process = self.in_process(monkeypatch)
        assert same_reports(served.reports, in_process.reports)
        assert [report.failure_kinds for report in served.reports] == \
            [{self.REFUSER: "bad-confirmation"}, {}] * 2
        assert served.state == in_process.state
        # The refuser's candidate stays parked on the server: its
        # confirmation left before the abort came back, so only the
        # device's next message settles it.  In process it never left.
        assert served.commit_log.device_ids() == [self.REFUSER]
        assert len(in_process.commit_log) == 0
        # The acks go out in the order the responses did, the refuser's
        # an abort.
        assert len(served.acks) == 4
        for ack, group in zip(served.acks, self.groups(
                [device_id for device_id, *__ in served.state])):
            acks = decode_fields(ack.params["acks"])
            assert acks[0::3] == [device_id.encode() for device_id in group]
            assert acks[2::3] == [b"abort" if device_id == self.REFUSER
                                  else b"finalize" for device_id in group]
        for device_id, device, record, sessions in served.state:
            assert device == record
            assert sessions == (0 if device_id == self.REFUSER else 2)


class TestFrameCap:
    def test_oversized_close_round_leaves_everything_unrolled(self):
        # At 32/4/16 a response row takes about 125 B: 8 devices do not
        # fit a 600-byte close-round, 2 do.
        config = NetConfig(max_frame_bytes=600)

        async def main():
            served, gateway = provision(n_devices=12), provision(n_devices=12)
            devices = gateway.device_list
            before = end_state(served, devices)
            async with AuthServer(served, config) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as bystander:
                    async with AuthClient.connect(
                            "127.0.0.1", server.port) as client:
                        with pytest.raises(RemoteAuthError) as excinfo:
                            await client.authenticate_batch(devices[:8])
                    unrolled = end_state(served, devices)
                    served_report = await bystander.authenticate_batch(
                        devices[8:10])
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as fresh:
                    retried = [await fresh.authenticate_batch(pair)
                               for pair in (devices[:2], devices[2:4])]
            return (excinfo.value, before, unrolled, served_report, retried,
                    served, server.metrics)

        (error, before, unrolled, served_report, retried, served,
         metrics) = asyncio.run(main())
        assert error.kind is FailureKind.MALFORMED
        assert "exceeds" in str(error)
        assert unrolled == before
        assert len(served.verifier.commit_log) == 0
        assert metrics.rejected_connections == 1
        assert served_report.n_accepted == 2
        assert [report.n_accepted for report in retried] == [2, 2]


class TestRefusedCloseRound:
    def test_client_raises_and_the_connection_opens_the_next_round(self):
        # A close-round the server refuses gets no REPORT: the client
        # raises the refusal instead of waiting out its timeout, and
        # both sides drop the round, so the next one opens.
        async def main():
            served, gateway = provision(n_devices=1), provision(n_devices=1)
            (device,) = gateway.device_list
            async with AuthServer(served) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port,
                        response_timeout_s=60.0) as client:
                    nonces = await client.open_round_wire([device.device_id])
                    response = device.respond(nonces[device.device_id])
                    with pytest.raises(RemoteAuthError) as excinfo:
                        await asyncio.wait_for(
                            client.verify_round_wire([response] * 65), 10)
                    refused_state = end_state(served, [device])
                    report = await client.authenticate_batch([device])
            return excinfo.value, refused_state, report

        error, state, report = asyncio.run(main())
        assert error.kind is FailureKind.MALFORMED
        assert "65 responses" in str(error)
        assert [sessions for *__, sessions in state] == [0]
        assert report.n_accepted == 1

    def test_a_fenced_close_round_ends_the_round(self):
        # The fence refuses only the close-round of a 1-device round and
        # then lifts: the refusal ended the round on both sides, so the
        # connection's next round is served.
        refusal = AuthenticationFailure("fenced for the test",
                                        FailureKind.LEASE_EXPIRED)
        fenced = [False]

        async def main():
            served, gateway = provision(n_devices=1), provision(n_devices=1)
            (device,) = gateway.device_list
            async with AuthServer(served, fence=lambda: (
                    refusal if fenced[0] else None)) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    nonces = await client.open_round_wire([device.device_id])
                    fenced[0] = True
                    with pytest.raises(RemoteAuthError) as excinfo:
                        await client.verify_round_wire(
                            [device.respond(nonces[device.device_id])])
                    fenced[0] = False
                    refused_state = end_state(served, [device])
                    report = await client.authenticate_batch([device])
            return excinfo.value, refused_state, report

        error, state, report = asyncio.run(main())
        assert error.kind is FailureKind.LEASE_EXPIRED
        assert [sessions for *__, sessions in state] == [0]
        assert report.n_accepted == 1, report.failures


def spot_service():
    return provision(n_devices=2, n_spot_crps=16)


class TestMalformedParams:
    """A verb param that does not parse gets a ``malformed-message``
    failure RESULT and changes nothing; the connection keeps serving."""

    @pytest.mark.parametrize("ids", [
        b"\x00\x00", b"\x00\x00\x00\x09dev", rows([b"\xff\xfe"]),
    ], ids=["truncated-prefix", "truncated-body", "non-utf8-id"])
    def test_open_round_ids(self, ids):
        async def main():
            served = provision(n_devices=2)
            async with AuthServer(served) as server:
                call, writer = await raw_session(server.port)
                refused = await call(SessionRequest(
                    "open-round", params={"ids": ids}))
                counter = served.verifier._nonce_counter
                opened = await call(SessionRequest(
                    "open-round", params={"ids": rows([b"dev-000000"])}))
                writer.close()
            return refused, counter, opened

        refused, counter, opened = asyncio.run(main())
        assert_malformed(refused, "open-round")
        assert counter == 0
        assert opened.ok
        assert decode_fields(opened.detail["nonces"])[0::2] == \
            [b"dev-000000"]

    @pytest.mark.parametrize("params", [
        {"k": b"x"}, {"k": b"0"}, {"k": b"\xff"}, {"threshold": b"x"},
    ], ids=["k-text", "k-zero", "k-non-utf8", "threshold-text"])
    def test_spot_k_and_threshold(self, params):
        async def main():
            served = spot_service()
            async with AuthServer(served) as server:
                call, writer = await raw_session(server.port)
                refused = await call(SessionRequest(
                    "spot", "dev-000000", params))
                untouched = (served.verifier._nonce_counter,
                             int(served.registry.record("dev-000000")
                                 .crp_used.sum()))
                opened = await call(SessionRequest(
                    "spot", "dev-000000", {"k": b"4"}))
                writer.close()
            return refused, untouched, opened

        refused, untouched, opened = asyncio.run(main())
        assert_malformed(refused, "spot")
        assert untouched == (0, 0)
        assert opened.ok and opened.detail["rows"] == b"4"

    @pytest.mark.parametrize("params", [{}, {"responses": b"\x01" * 7}],
                             ids=["missing", "short"])
    def test_spot_submit_responses(self, params):
        async def main():
            served, device = spot_service(), spot_service().device_list[0]
            async with AuthServer(served) as server:
                call, writer = await raw_session(server.port)
                opened = await call(SessionRequest(
                    "spot", device.device_id, {"k": b"4"}))
                challenges = np.frombuffer(
                    opened.detail["challenges"], dtype=np.uint8).reshape(
                        int(opened.detail["rows"]), -1)
                refused = await call(SessionRequest(
                    "spot-submit", device.device_id, params))
                # The refusal kept the open spot check: the real
                # measurement still scores.
                scored = await call(SessionRequest(
                    "spot-submit", device.device_id, {"responses": np.asarray(
                        device.spot_responses(challenges),
                        dtype=np.uint8).tobytes()}))
                writer.close()
            return refused, scored

        refused, scored = asyncio.run(main())
        assert_malformed(refused, "spot-submit")
        assert scored.ok and scored.detail["accepted"] == b"1"

    @pytest.mark.parametrize("bad", [
        "pair", "four", "non-utf8-id", "truncated", "past-the-bound",
    ])
    def test_close_round_responses(self, bad):
        async def main():
            served, gateway = provision(n_devices=2), provision(n_devices=2)
            devices = gateway.device_list
            async with AuthServer(served) as server:
                call, writer = await raw_session(server.port)
                opened = await call(SessionRequest("open-round", params={
                    "ids": rows(*[[device.device_id.encode()]
                                  for device in devices])}))
                pairs = decode_fields(opened.detail["nonces"])
                nonces = dict(zip(map(bytes.decode, pairs[0::2]),
                                  pairs[1::2]))
                responses = [device.respond(nonces[device.device_id])
                             for device in devices]
                valid = rows(*[(response.device_id.encode(), response.body,
                                response.tag) for response in responses])
                blob = {
                    "pair": rows([b"dev-000000", b"body"]),
                    "four": rows([b"dev-000000", b"body", b"tag", b"x"]),
                    "non-utf8-id": valid + rows([b"\xff", b"body", b"tag"]),
                    "truncated": valid[:-1],
                    # More rows than the round's bound of max(64, 4 x 2).
                    "past-the-bound": valid + rows(
                        *[[b"dev-000000", b"", b""]] * 63),
                }[bad]
                refused = await call(SessionRequest(
                    "close-round", params={"responses": blob}))
                state = end_state(served, devices)
                # The refusal ended the round: nothing verified, and the
                # connection opens and closes the next one.
                closed = await call(SessionRequest(
                    "close-round", params={"responses": valid}))
                opened = await call(SessionRequest("open-round", params={
                    "ids": rows(*[[device.device_id.encode()]
                                  for device in devices])}))
                pairs = decode_fields(opened.detail["nonces"])
                nonces = dict(zip(map(bytes.decode, pairs[0::2]),
                                  pairs[1::2]))
                report = await call(SessionRequest(
                    "close-round", params={"responses": rows(*[
                        (response.device_id.encode(), response.body,
                         response.tag)
                        for response in (
                            device.respond(nonces[device.device_id])
                            for device in devices)])}))
                writer.close()
            return refused, state, closed, report

        refused, state, closed, report = asyncio.run(main())
        assert_malformed(refused, "close-round")
        assert [sessions for *__, sessions in state] == [0, 0]
        assert (closed.verb, closed.ok) == ("close-round", False)
        assert closed.detail["kind"] == FailureKind.NO_SESSION.value.encode()
        assert isinstance(report, BatchAuthReport)
        assert report.n_accepted == 2

    def test_metrics_format(self):
        async def main():
            async with AuthServer(provision(n_devices=1)) as server:
                call, writer = await raw_session(server.port)
                refused = await call(SessionRequest(
                    "metrics", params={"format": b"\xff"}))
                scraped = await call(SessionRequest(
                    "metrics", params={"format": b"json"}))
                writer.close()
            return refused, scraped

        refused, scraped = asyncio.run(main())
        assert_malformed(refused, "metrics")
        assert scraped.ok and scraped.detail["format"] == b"json"
