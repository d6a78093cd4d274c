"""Instrumentation wiring: shims, facade hooks, and the admin verbs.

Every async test drives asyncio with ``asyncio.run`` inside a
synchronous test function (no asyncio pytest plugin in the
environment); servers bind ephemeral loopback ports.
"""

import asyncio
import json
import warnings

import pytest

from repro.obs import (
    MetricsRegistry,
    RoundTracer,
    instrument_chaos,
    instrument_replica_group,
    instrument_server,
    instrument_service,
    parse_prometheus,
)
from repro.fleet.lifecycle import CampaignStats
from repro.protocols.mutual_auth import FailureKind
from repro.service import AuthService, FleetConfig, HAConfig
from repro.service.codec import (
    SCHEMA_MAJOR,
    SessionHello,
    SessionRequest,
    SessionResult,
    SessionWelcome,
    decode_message,
    encode_message,
)
from repro.service.ha import HAAuthClient, ReplicaGroup
from repro.service.net import (
    AuthClient,
    AuthServer,
    ChaosTransport,
    NetConfig,
    RemoteAuthError,
)
from repro.service.net.chaos import ChaosMetrics
from repro.service.net.server import ServerMetrics
from repro.service.net.stream import read_frame, write_frame
from repro.service.policy import AuditLogPolicy

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)
FAST_NET = NetConfig(response_timeout_s=2.0)


def provision(n_devices=4, seed=7, **kwargs):
    return AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=FAST_PUF, **kwargs))


def run(coro):
    return asyncio.run(coro)


class TestDeprecatedShims:
    def test_bare_construction_warns(self):
        with pytest.warns(DeprecationWarning, match="migration"):
            ServerMetrics()
        with pytest.warns(DeprecationWarning, match="migration"):
            ChaosMetrics()

    def test_for_owner_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ServerMetrics._for_owner()
            ChaosMetrics._for_owner()

    def test_attribute_api_is_preserved(self):
        metrics = ServerMetrics._for_owner()
        assert metrics.requests == 0
        metrics.requests += 1
        metrics.requests += 1
        metrics.auths_accepted = 5
        assert metrics.requests == 2
        assert metrics.auths_accepted == 5
        assert isinstance(metrics.requests, int)
        with pytest.raises(AttributeError):
            metrics.not_a_counter

    def test_to_json_keeps_the_legacy_field_order(self):
        metrics = ServerMetrics._for_owner()
        assert list(metrics.to_json()) == list(ServerMetrics._FIELDS)
        assert set(metrics.to_json().values()) == {0}

    def test_counts_stay_live_with_a_disabled_registry(self):
        registry = MetricsRegistry(enabled=False)
        metrics = ServerMetrics._for_owner(registry)
        metrics.drained_tickets += 3
        assert metrics.drained_tickets == 3

    def test_fields_back_registry_counters(self):
        registry = MetricsRegistry()
        metrics = ChaosMetrics._for_owner(registry, labels={"replica": 1})
        metrics.frames_dropped += 4
        counter = registry.get("repro_net_chaos_frames_dropped")
        assert counter is not None
        assert counter.value(replica="1") == 4


class TestInstrumentEntryPoints:
    def test_instrument_server_carries_counts_over(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                server.metrics.requests += 7
                registry = MetricsRegistry()
                instrument_server(server, registry,
                                  labels={"replica": 0})
                assert server.metrics.requests == 7
                assert registry.get(
                    "repro_net_server_requests").value(replica="0") == 7
        run(main())

    def test_instrument_chaos_carries_counts_over(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                chaos = ChaosTransport("127.0.0.1", server.port)
                await chaos.start()
                try:
                    chaos.metrics.frames_forwarded += 2
                    registry = MetricsRegistry()
                    shim = instrument_chaos(chaos, registry)
                    assert chaos.metrics is shim
                    assert chaos.metrics.frames_forwarded == 2
                finally:
                    await chaos.aclose()
        run(main())

    def test_facade_hooks_count_rounds_enroll_revoke(self):
        service = provision(n_devices=4)
        obs = instrument_service(service)
        report = service.authenticate_batch()
        assert report.n_accepted == 4
        assert obs.finalized.value() == 4
        assert obs.results.value(result="accepted") == 4
        assert obs.rounds.value() >= 1
        latency = obs.round_latency._snapshot()["samples"]
        assert any(sample["labels"]["phase"] == "batch"
                   for sample in latency)
        victim = service.device_list[0].device_id
        service.revoke(victim)
        assert obs.revoked.value() == 1
        service.close()


class TestAuditLogTimestamps:
    def test_entries_carry_clock_and_incarnation(self):
        ticks = iter([3.5, 4.5])
        audit = AuditLogPolicy(clock=lambda: next(ticks))
        audit.record("probe")
        audit.bind_incarnation(2, replica=1)
        audit.record("probe")
        first, second = audit.events
        assert first == {"event": "probe", "ts": 3.5, "incarnation": 0}
        assert second == {"event": "probe", "ts": 4.5, "incarnation": 2,
                          "replica": 1}

    def test_service_rounds_are_audited_with_timestamps(self):
        audit = AuditLogPolicy(clock=lambda: 9.0)
        service = AuthService.provision(
            FleetConfig(n_devices=4, seed=7, puf=FAST_PUF),
            policies=[audit])
        service.authenticate_batch()
        rounds = [entry for entry in audit.events
                  if entry["event"] == "round"]
        assert rounds and rounds[-1]["ts"] == 9.0
        assert rounds[-1]["incarnation"] == 0
        service.close()


class TestCampaignStatsState:
    def test_json_round_trip_is_equality(self):
        stats = CampaignStats(rounds=4, attempts=326, authenticated=255,
                              retries=70, dropped_confirmations=29,
                              failures_by_kind={"bad-mac": 3},
                              elapsed_s=0.25)
        clone = CampaignStats.from_state(
            json.loads(json.dumps(stats.to_state())))
        assert clone == stats

    def test_from_state_ignores_derived_keys(self):
        stats = CampaignStats(authenticated=10, elapsed_s=2.0)
        payload = stats.to_json()
        assert payload["auths_per_sec"] == 5.0
        assert CampaignStats.from_state(payload) == stats

    def test_failure_kinds_are_normalized(self):
        clone = CampaignStats.from_state(
            {"failures_by_kind": {"bad-mac": 3.0}})
        assert clone.failures_by_kind == {"bad-mac": 3}


class TestMetricsVerb:
    def test_scrape_reconciles_with_the_batch_report(self):
        async def main():
            service = provision(n_devices=6)
            registry = MetricsRegistry()
            instrument_service(service, registry)
            async with AuthServer(service, FAST_NET) as server:
                instrument_server(server, registry)
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    report = await client.authenticate_batch(
                        service.device_list)
                    scrape = await client.metrics()
            return report, scrape
        report, scrape = run(main())
        parsed = parse_prometheus(scrape)
        assert report.n_accepted == 6
        assert parsed[("repro_auth_finalized_total", ())] == \
            float(report.n_accepted)
        assert parsed[("repro_auth_results_total",
                       (("result", "accepted"),))] == \
            float(report.n_accepted)
        # The socket plane scraped alongside the auth plane: the shim
        # counters live in the same registry.
        assert parsed[("repro_net_server_connections_opened_total",
                       ())] >= 1.0

    def test_uninstrumented_server_serves_its_own_counters(self):
        # Fallback registry: no instrument_* call anywhere, yet the
        # verb still scrapes the shim's private registry.
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    return await client.metrics()
        parsed = parse_prometheus(run(main()))
        assert parsed[("repro_net_server_requests_total", ())] == 1.0

    def test_json_format(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    return await client.metrics(fmt="json")
        snapshot = json.loads(run(main()))
        assert snapshot["enabled"] is True
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert "repro_net_server_requests" in names

    def test_unknown_format_is_malformed(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    with pytest.raises(RemoteAuthError,
                                       match="unknown metrics format"):
                        await client.metrics(fmt="yaml")
        run(main())

    def test_verbs_require_wire_minor_2(self):
        # A 1.1 client negotiates minor 1; the admin verbs must be
        # refused with the version taxonomy, not served or crashed.
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                try:
                    write_frame(writer, encode_message(
                        SessionHello("legacy-1.1", SCHEMA_MAJOR, 1)))
                    await writer.drain()
                    welcome = decode_message(await read_frame(reader))
                    assert isinstance(welcome, SessionWelcome)
                    assert (welcome.major, welcome.minor) == (1, 1)
                    write_frame(writer, encode_message(
                        SessionRequest("metrics")))
                    await writer.drain()
                    result = decode_message(await read_frame(reader))
                finally:
                    writer.close()
                    await writer.wait_closed()
                return result
        result = run(main())
        assert isinstance(result, SessionResult)
        assert not result.ok
        assert result.detail["kind"].decode() == \
            FailureKind.UNSUPPORTED_VERSION.value
        assert b"1.2" in result.detail["failure"]


class TestTraceVerb:
    def test_round_spans_are_served_over_the_wire(self):
        async def main():
            service = provision(n_devices=3)
            tracer = RoundTracer()
            instrument_service(service, MetricsRegistry(), tracer=tracer)
            async with AuthServer(service, FAST_NET) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    report = await client.authenticate_batch(
                        service.device_list)
                    assert report.n_accepted == 3
                    return await client.trace()
        spans = run(main())
        assert spans, "the authenticated round must leave a span"
        last = spans[-1]
        assert last["status"] == "finalized"
        assert set(last["nonces"]) == set(last["device_ids"])
        events = [name for name, _ in last["events"]]
        assert "challenge" in events and "finalize" in events

    def test_untraced_server_serves_an_empty_list(self):
        async def main():
            service = provision()
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    return await client.trace()
        assert run(main()) == []


class TestReplicaGroupScrape:
    def test_ha_client_scrapes_any_replica(self):
        async def main():
            config = FleetConfig(
                n_devices=4, seed=7, puf=FAST_PUF,
                ha=HAConfig(n_replicas=2, lease_timeout_s=0.5,
                            heartbeat_interval_s=0.05))
            group = await ReplicaGroup.provision(config,
                                                 net_config=FAST_NET)
            try:
                obs = instrument_replica_group(group)
                device = group.devices[0]
                async with HAAuthClient(group.endpoints,
                                        verb_timeout_s=2.0) as client:
                    ticket = await client.authenticate(device)
                    assert ticket.accepted
                    primary = await client.scrape()
                    standby = await client.scrape(index=1)
                    spans = await client.trace()
            finally:
                await group.aclose()
            return obs, primary, standby, spans
        obs, primary, standby, spans = run(main())
        parsed = parse_prometheus(primary)
        assert parsed[("repro_auth_finalized_total", ())] == 1.0
        assert parsed[("repro_ha_replica_incarnations",
                       (("replica", "0"),))] >= 1.0
        # The standby — fenced for mutating verbs — serves the same
        # shared registry: admin verbs are deliberately unfenced.
        assert parse_prometheus(standby)[
            ("repro_auth_finalized_total", ())] == 1.0
        # No tracer attached: the verb answers an empty list, not an
        # error.
        assert obs.tracer is None and spans == []
