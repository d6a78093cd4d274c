"""The replicated verifier plane: leases, fencing, failover, chaos.

Every test drives asyncio with ``asyncio.run`` inside a synchronous
test function; servers bind ephemeral loopback ports.  Timing-sensitive
lease logic is tested synchronously on a fake clock via
``ReplicaGroup.lease_tick``; the socket-level tests use short real
leases (hundreds of milliseconds) so the whole file stays fast.
"""

import asyncio

import pytest

from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.service import AuthService, FleetConfig, HAConfig, RetryPolicy
from repro.service.ha import (
    HAAuthClient,
    KillEvent,
    ReplicaGroup,
    run_replicated_campaign,
)
from repro.service.net import (
    AuthClient,
    AuthServer,
    ChaosTransport,
    LegChaos,
    NetConfig,
    RemoteAuthError,
)
from repro.service.policy import NETWORK_TRANSIENT_KINDS

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16,
                noise_mw=0.0)
FAST_NET = NetConfig(response_timeout_s=2.0)
FAST_HA = HAConfig(n_replicas=3, lease_timeout_s=0.3,
                   heartbeat_interval_s=0.05)


def fleet_config(n_devices=4, seed=7, ha=FAST_HA, **kwargs):
    return FleetConfig(n_devices=n_devices, seed=seed, puf=FAST_PUF,
                       ha=ha, **kwargs)


def run(coro):
    return asyncio.run(coro)


class TestHAConfig:
    def test_defaults_and_validation(self):
        ha = HAConfig()
        assert ha.n_replicas == 1 and ha.handoff == "shared"
        with pytest.raises(ValueError):
            HAConfig(n_replicas=0)
        with pytest.raises(ValueError):
            HAConfig(heartbeat_interval_s=1.0, lease_timeout_s=0.5)
        with pytest.raises(ValueError):
            HAConfig(handoff="quantum")

    def test_attach_requires_sharded_backend(self):
        with pytest.raises(ValueError):
            FleetConfig(n_devices=2,
                        ha=HAConfig(n_replicas=2, handoff="attach"))

    def test_state_roundtrip_through_fleet_config(self):
        config = fleet_config()
        clone = FleetConfig.from_state(config.to_state())
        assert clone.ha == config.ha
        assert FleetConfig.from_state(
            FleetConfig(n_devices=2).to_state()).ha is None


class TestRetryPolicyBackoff:
    def test_network_kinds_are_retryable(self):
        policy = RetryPolicy.network()
        for kind in ("timeout", "connection-lost", "replica-unavailable",
                     "lease-expired"):
            assert kind in NETWORK_TRANSIENT_KINDS
            assert policy.should_retry(kind, 1)
        assert not policy.should_retry("bad-mac", 1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy.network(backoff_base_s=0.01, backoff_max_s=0.05,
                                     jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(1, 7)]
        assert delays[0] == pytest.approx(0.01)
        assert delays[1] == pytest.approx(0.02)
        assert delays[2] == pytest.approx(0.04)
        assert all(d == pytest.approx(0.05) for d in delays[3:])

    def test_jitter_is_seeded_and_bounded(self):
        a = [RetryPolicy.network(seed=3, jitter=0.5).delay(2)
             for _ in range(3)]
        b = [RetryPolicy.network(seed=3, jitter=0.5).delay(2)
             for _ in range(3)]
        assert a == b                       # deterministic across instances
        base = RetryPolicy.network(jitter=0.0).delay(2)
        assert all(base <= d <= base * 1.5 for d in a)

    def test_facade_default_still_sleeps_nothing(self):
        assert RetryPolicy().delay(5) == 0.0


class TestLease:
    """Lease mechanics on a fake clock — no sockets, no sleeps."""

    def make_group(self):
        # Build the group without starting servers: lease_tick and
        # _fence are pure functions of (clock, replica liveness).
        clock = {"now": 0.0}
        service = AuthService.provision(fleet_config(n_devices=2),
                                        clock=lambda: clock["now"])
        group = ReplicaGroup(service, net_config=FAST_NET)
        for replica in group.replicas:
            replica.alive = True
        group._grant_lease(0, clock["now"])
        return group, clock

    def teardown_group(self, group):
        group.service.close()

    def test_live_primary_heartbeats(self):
        group, clock = self.make_group()
        try:
            for _ in range(10):
                clock["now"] += FAST_HA.lease_timeout_s * 0.9
                group.lease_tick()
            assert group.lease.holder == 0 and group.primary == 0
        finally:
            self.teardown_group(group)

    def test_dead_primary_expires_then_standby_promotes(self):
        group, clock = self.make_group()
        try:
            group.replicas[0].alive = False
            group.lease_tick()
            # Within the lease the deposed slot keeps its claim...
            assert group.lease.holder == 0
            assert group.primary is None            # ...but serves nothing
            clock["now"] += FAST_HA.lease_timeout_s + 0.01
            group.lease_tick()
            assert group.lease.holder == 1 and group.primary == 1
            assert group.promotions == 1
        finally:
            self.teardown_group(group)

    def test_promotion_prefers_lowest_live_index(self):
        group, clock = self.make_group()
        try:
            group.replicas[0].alive = False
            group.replicas[1].alive = False
            clock["now"] += FAST_HA.lease_timeout_s + 0.01
            group.lease_tick()
            assert group.lease.holder == 2
        finally:
            self.teardown_group(group)

    def test_fence_taxonomy(self):
        group, clock = self.make_group()
        try:
            assert group._fence(0) is None                 # primary serves
            refusal = group._fence(1)                      # standby refuses
            assert refusal.kind is FailureKind.REPLICA_UNAVAILABLE
            clock["now"] += FAST_HA.lease_timeout_s + 0.01
            refusal = group._fence(0)                      # deposed primary
            assert refusal.kind is FailureKind.LEASE_EXPIRED
        finally:
            self.teardown_group(group)

    def test_epoch_floors_never_reuse_a_stream(self):
        group, clock = self.make_group()
        try:
            streams = [replica.service.verifier.stream_epoch
                       for replica in group.replicas]
            assert len(set(streams)) == len(streams)
            # Ten restore cycles of replica 1: every incarnation gets a
            # fresh stream in the same residue class.
            for _ in range(10):
                verifier = group._make_verifier(
                    1, group.replicas[1].service.registry)
                assert verifier.stream_epoch not in streams
                assert verifier.stream_epoch % 3 == 1
                streams.append(verifier.stream_epoch)
        finally:
            self.teardown_group(group)


class TestReplicaGroupSockets:
    def test_standby_refuses_primary_serves(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                device = group.devices[0]
                host, port = group.endpoints[1]        # a standby
                async with AuthClient.connect(host, port) as client:
                    with pytest.raises(RemoteAuthError) as exc:
                        await client.enroll(device)
                    assert exc.value.kind is FailureKind.REPLICA_UNAVAILABLE
                host, port = group.endpoints[0]        # the primary
                async with AuthClient.connect(host, port) as client:
                    ticket = await client.authenticate(device)
                assert ticket.accepted
            finally:
                await group.aclose()
        run(main())

    def test_kill_promotes_and_restored_replica_rejoins(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                await group.kill_replica(0)
                promoted = await group.wait_for_primary()
                assert promoted == 1
                await group.restore_replica(0)
                assert group.replicas[0].alive
                assert group.primary == 1              # still a standby
                # The restored replica's verifier is a fresh incarnation
                # on a fresh stream.
                assert group.replicas[0].starts == 2
                kinds = {event["event"] for event in group.events}
                assert {"kill", "promote", "restore"} <= kinds
            finally:
                await group.aclose()
        run(main())

    def test_endpoints_stable_across_kill_restore(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                before = group.endpoints
                await group.kill_replica(0)
                await group.restore_replica(0)
                assert group.endpoints == before
            finally:
                await group.aclose()
        run(main())


class TestHAAuthClient:
    def test_fails_over_past_a_dead_endpoint(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                device = group.devices[0]
                # Endpoint order: standby first, then a black hole of a
                # port, then the primary — the client must walk the list.
                dead = ("127.0.0.1", 1)
                endpoints = [group.endpoints[1], dead, group.endpoints[0]]
                async with HAAuthClient(
                        endpoints, verb_timeout_s=2.0,
                        retry_policy=RetryPolicy.network(
                            backoff_base_s=0.005)) as client:
                    ticket = await client.authenticate(device)
                    assert ticket.accepted
                    assert client.failovers >= 2
            finally:
                await group.aclose()
        run(main())

    def test_authenticates_through_a_promotion(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                device = group.devices[0]
                async with HAAuthClient(
                        group.endpoints, verb_timeout_s=2.0,
                        retry_policy=RetryPolicy.network(
                            max_retries=12, backoff_base_s=0.01,
                            backoff_max_s=0.1)) as client:
                    first = await client.authenticate(device)
                    assert first.accepted
                    await group.kill_replica(0)
                    # No primary exists until the lease runs out; the
                    # client must ride that gap on retries alone.
                    second = await client.authenticate(device)
                    assert second.accepted
                # finalize is fire-and-forget on the client; give the
                # promoted server a beat to process it.
                for _ in range(50):
                    if int(group.registry.record(
                            device.device_id).sessions) == 2:
                        break
                    await asyncio.sleep(0.02)
                assert int(group.registry.record(
                    device.device_id).sessions) == 2
            finally:
                await group.aclose()
        run(main())

    def test_retried_enroll_treats_duplicate_as_done(self):
        async def main():
            config = fleet_config()
            service = AuthService.provision(config)
            device = service.device_list[0]
            service.registry.evict = getattr(service.registry, "evict", None)
            async with AuthServer(service, FAST_NET) as server:
                # First endpoint refuses the dial: the client rotates,
                # marking the verb ambiguous — a later duplicate-device
                # refusal then means "the enroll landed", not an error.
                endpoints = [("127.0.0.1", 1),
                             ("127.0.0.1", server.port)]
                async with HAAuthClient(
                        endpoints,
                        retry_policy=RetryPolicy.network(
                            backoff_base_s=0.005)) as client:
                    await client.enroll(device)     # swallowed duplicate
            service.close()
        run(main())

    def test_protocol_failures_do_not_fail_over(self):
        async def main():
            group = await ReplicaGroup.provision(fleet_config(),
                                                 net_config=FAST_NET)
            try:
                stranger = AuthService.provision(
                    FleetConfig(n_devices=1, seed=999, puf=FAST_PUF))
                intruder = stranger.device_list[0]
                async with HAAuthClient(group.endpoints,
                                        verb_timeout_s=2.0) as client:
                    ticket = await client.authenticate(intruder)
                    assert not ticket.accepted
                    # The intruder's id collides with an enrolled device,
                    # so the verifier sees a bad MAC; either way it is a
                    # protocol refusal, not a transport fault — the
                    # client must not burn retries walking endpoints.
                    assert ticket.failure_kind in (
                        FailureKind.BAD_MAC.value,
                        FailureKind.NOT_ENROLLED.value)
                    assert client.failovers == 0
                stranger.close()
            finally:
                await group.aclose()
        run(main())


class TestClientHandshakeTimeouts:
    """The hang fix: a server that dies (or stalls) between HELLO and
    WELCOME must surface a taxonomy-coded error within the handshake
    timeout, never hang the client."""

    def test_silent_server_times_out_with_timeout_kind(self):
        async def main():
            hung_up = asyncio.Event()

            async def mute(reader, writer):
                await reader.read()                # accept, say nothing
                writer.close()                     # until the client quits
                hung_up.set()
            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(RemoteAuthError) as exc:
                    await asyncio.wait_for(
                        AuthClient.connect("127.0.0.1", port,
                                           handshake_timeout_s=0.2),
                        timeout=2.0)
                assert exc.value.kind is FailureKind.TIMEOUT
                # The handler ends before the loop does: one cancelled
                # at loop shutdown logs an asyncio error.
                await asyncio.wait_for(hung_up.wait(), 2.0)
            finally:
                server.close()
                await server.wait_closed()
        run(main())

    def test_server_death_mid_handshake_is_connection_lost(self):
        async def main():
            async def slam(reader, writer):
                await reader.read(64)              # take the HELLO...
                writer.close()                     # ...die before WELCOME
            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(RemoteAuthError) as exc:
                    await asyncio.wait_for(
                        AuthClient.connect("127.0.0.1", port,
                                           handshake_timeout_s=1.0),
                        timeout=2.0)
                assert exc.value.kind is FailureKind.CONNECTION_LOST
            finally:
                server.close()
                await server.wait_closed()
        run(main())

    def test_unreachable_port_is_connection_lost(self):
        async def main():
            with pytest.raises(RemoteAuthError) as exc:
                await AuthClient.connect("127.0.0.1", 1,
                                         handshake_timeout_s=0.5)
            assert exc.value.kind is FailureKind.CONNECTION_LOST
        run(main())


class TestChaosTransport:
    def test_faultless_proxy_is_transparent(self):
        async def main():
            service = AuthService.provision(fleet_config(ha=None))
            device = service.device_list[0]
            async with AuthServer(service, FAST_NET) as server:
                async with ChaosTransport(server.host, server.port) as chaos:
                    async with AuthClient.connect(chaos.host,
                                                  chaos.port) as client:
                        ticket = await client.authenticate(device)
            assert ticket.accepted
            assert chaos.metrics.frames_forwarded > 0
            assert chaos.metrics.frames_dropped == 0
            service.close()
        run(main())

    def test_leg_chaos_validation(self):
        with pytest.raises(ValueError):
            LegChaos(drop=1.5)
        with pytest.raises(ValueError):
            LegChaos(delay_range_s=(0.5, 0.1))

    def test_downlink_blackhole_forces_timeout_then_retry_succeeds(self):
        async def main():
            service = AuthService.provision(fleet_config(ha=None))
            device = service.device_list[0]
            async with AuthServer(service, FAST_NET) as server:
                chaos = ChaosTransport(server.host, server.port,
                                       downlink=LegChaos(blackhole=1.0),
                                       seed=3)
                async with chaos:
                    async with AuthClient.connect(
                            chaos.host, chaos.port,
                            response_timeout_s=0.5) as client:
                        ticket = await client.authenticate(device)
                        assert not ticket.accepted
                        assert ticket.failure_kind == \
                            FailureKind.TIMEOUT.value
                # The device never saw a confirmation, so nobody rolled;
                # a clean retry must succeed from the same state.
                async with AuthClient.connect(server.host,
                                              server.port) as client:
                    ticket = await client.authenticate(device)
                    assert ticket.accepted
            service.close()
        run(main())

    def test_duplicated_frames_do_not_break_authentication(self):
        async def main():
            service = AuthService.provision(fleet_config(ha=None))
            async with AuthServer(service, FAST_NET) as server:
                chaos = ChaosTransport(
                    server.host, server.port, seed=11,
                    uplink=LegChaos(duplicate=1.0),
                    downlink=LegChaos(duplicate=1.0))
                async with chaos:
                    async with AuthClient.connect(
                            chaos.host, chaos.port,
                            response_timeout_s=2.0) as client:
                        for device in service.device_list:
                            ticket = await client.authenticate(device)
                            assert ticket.accepted, ticket.failure
            assert chaos.metrics.frames_duplicated > 0
            service.close()
        run(main())

    def test_truncate_tears_the_connection(self):
        async def main():
            service = AuthService.provision(fleet_config(ha=None))
            device = service.device_list[0]
            async with AuthServer(service, FAST_NET) as server:
                chaos = ChaosTransport(server.host, server.port,
                                       uplink=LegChaos(truncate=1.0),
                                       seed=5)
                async with chaos:
                    client = await AuthClient.connect(
                        chaos.host, chaos.port, response_timeout_s=1.0)
                    try:
                        ticket = await client.authenticate(device)
                        assert not ticket.accepted
                    except AuthenticationFailure as failure:
                        assert failure.kind in (FailureKind.CONNECTION_LOST,
                                                FailureKind.TIMEOUT)
                    finally:
                        await client.aclose()
            assert chaos.metrics.frames_truncated >= 1
            service.close()
        run(main())

    def test_kill_connections_severs_live_sessions(self):
        async def main():
            service = AuthService.provision(fleet_config(ha=None))
            async with AuthServer(service, FAST_NET) as server:
                async with ChaosTransport(server.host,
                                          server.port) as chaos:
                    client = await AuthClient.connect(
                        chaos.host, chaos.port, response_timeout_s=1.0)
                    assert chaos.kill_connections() >= 1
                    # Depending on how fast the EOF propagates, the verb
                    # either raises connection-lost or settles a failed
                    # ticket; it must never succeed.
                    try:
                        ticket = await asyncio.wait_for(
                            client.authenticate(service.device_list[0]),
                            timeout=3.0)
                        assert not ticket.accepted
                    except AuthenticationFailure:
                        pass
                    await client.aclose()
            service.close()
        run(main())


class TestMidRoundKillCampaign:
    def test_campaign_with_one_mid_round_kill_converges_clean(self):
        async def main():
            group = await ReplicaGroup.provision(
                fleet_config(n_devices=6), net_config=FAST_NET)
            try:
                report = await run_replicated_campaign(
                    group, n_rounds=2,
                    kill_schedule=[KillEvent(0, 3, 0)],
                    verb_timeout_s=2.0)
                assert report.failures == {}
                assert report.accepted == 6 * 3     # 2 rounds + reconcile
                assert report.kills == [(0, 0)]
                assert report.promotions >= 1
                assert report.desynchronized == []
                assert report.nonces_unique
                assert report.commit_log_unresolved == 0
                assert group.assert_nonces_unique() == report.nonces_issued
            finally:
                await group.aclose()
        run(main())
