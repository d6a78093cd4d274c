"""A replicated verifier plane surviving a scripted primary crash.

The deployment shape of ``repro.service.ha``: three :class:`AuthServer`
replicas over shared registry state, each fronted by a stable
:class:`ChaosTransport` proxy endpoint (a stand-in for a load-balancer
address) injecting seeded drop/delay/duplicate faults, with
:class:`HAAuthClient` failing the fleet over between them.

The script: one authentication round against the healthy group, a kill
of the live primary, a round that rides the promotion, a restore of the
dead replica as a standby, and a calm reconciliation round — after
which the audit must be exact: no device desynchronized from the
registry, no nonce ever issued twice across replica incarnations.

Run:   python examples/replicated_fleet.py

The full acceptance campaign (64 devices, mid-round kills, bit-exact
equality against a fault-free single server) is
``benchmarks/test_ha_chaos.py``.
"""

import asyncio

from repro.service import FleetConfig, HAConfig, RetryPolicy
from repro.service.ha import HAAuthClient, ReplicaGroup
from repro.service.net import LegChaos, NetConfig

FLEET = 16
SEED = 42
# Small PUF + zero noise: the demo is about the service plane, and a
# deterministic CRP chain keeps every run's audit exact.
PUF = dict(challenge_bits=32, n_stages=4, response_bits=16, noise_mw=0.0)
CHAOS = LegChaos(drop=0.02, delay=0.05, duplicate=0.02)


async def one_round(group: ReplicaGroup, label: str) -> None:
    # Each device is an independent network client; all submit
    # concurrently so the primary coalesces them into micro-rounds.
    async def authenticate(position, device):
        policy = RetryPolicy.network(max_retries=12, seed=position)
        async with HAAuthClient(group.endpoints, retry_policy=policy,
                                verb_timeout_s=2.0) as client:
            ticket = await client.authenticate(device)
            return ticket.accepted, client.failovers

    results = await asyncio.gather(
        *(authenticate(position, device)
          for position, device in enumerate(group.devices)))
    accepted = sum(ok for ok, _ in results)
    failovers = sum(f for _, f in results)
    print(f"{label}: {accepted}/{FLEET} accepted "
          f"(primary replica {group.primary}, {failovers} failovers)")


async def demo() -> None:
    group = await ReplicaGroup.provision(
        FleetConfig(n_devices=FLEET, seed=SEED, puf=PUF,
                    latency_budget_s=0.01,
                    ha=HAConfig(n_replicas=3, lease_timeout_s=0.4,
                                heartbeat_interval_s=0.05)),
        net_config=NetConfig(response_timeout_s=1.0),
        uplink=CHAOS, downlink=CHAOS, chaos_seed=7)
    try:
        await one_round(group, "round 1 (healthy group)")

        # Crash the primary abruptly: no drain, sockets severed.  The
        # steward notices the heartbeat silence when the lease runs
        # out and promotes the lowest-index live standby.
        victim = group.primary
        await group.kill_replica(victim)
        promoted = await group.wait_for_primary()
        print(f"killed replica {victim}; replica {promoted} promoted")

        await one_round(group, "round 2 (after failover)")

        # The dead replica rejoins as a standby on a fresh nonce
        # epoch — nothing it issued before the crash can ever repeat.
        await group.restore_replica(victim)
        print(f"replica {victim} restored as standby")

        # One fault-free round lets any ambiguous commit settle via
        # the shared commit log, so the audit below is exact.
        group.calm()
        await one_round(group, "round 3 (reconcile, chaos off)")

        drifted = group.desynchronized()
        nonces = group.assert_nonces_unique()
        assert drifted == [], f"desynchronized devices: {drifted}"
        print(f"audit: 0 desyncs, {nonces} nonces issued, all unique")
        print(f"lifecycle events: "
              f"{[event['event'] for event in group.events]}")
    finally:
        await group.aclose()


def main() -> None:
    asyncio.run(demo())


if __name__ == "__main__":
    main()
