"""HA-CHAOS: the replicated verifier plane under a hostile campaign.

The acceptance bar for ``repro.service.ha``: a 64-device fleet drives
rounds through a 3-replica group behind seeded chaos transports
(drop + delay + duplicate on both legs) while the schedule kills the
primary **mid-round, twice** — and the campaign must end with

* zero device/registry desyncs,
* zero unresolved commit-log entries,
* no nonce issued twice across every replica incarnation
  (wiretap-asserted), and
* final device + registry state **bit-identical** to the same number
  of rounds against a single fault-free server.

The last point is the strongest: retries, duplicated frames, ghost
rounds, promotions, and crash-window recovery must together be
*exactly* invisible in durable authentication state.  (Nonce counters
differ by construction — partitioned epoch streams are the point — so
"state" here is what both deployments must agree on: every device's
rolling CRP chain and session count, and every registry record.)

Results land in ``BENCH_ha.json``; CI runs this file as a blocking
chaos lane.
"""

import asyncio
import json
import os
import time

from repro.service import AuthService, FleetConfig, HAConfig
from repro.service.ha import KillEvent, ReplicaGroup, run_replicated_campaign
from repro.service.net import AuthClient, AuthServer, LegChaos, NetConfig
from tests.asyncio_guard import no_asyncio_errors  # noqa: F401

DEVICES = int(os.environ.get("HA_BENCH_DEVICES", "64"))
ROUNDS = int(os.environ.get("HA_BENCH_ROUNDS", "3"))
CHAOS_SEED = int(os.environ.get("HA_BENCH_CHAOS_SEED", "3309"))
HA_JSON = "BENCH_ha.json"

# noise_mw=0.0: the equality gate needs the CRP chain to be a pure
# function of (seed, rounds), never of how many retries chaos caused.
PUF = dict(challenge_bits=32, n_stages=4, response_bits=16, noise_mw=0.0)
# Short response deadline: a chaos-duplicated REQUEST that survives the
# server's retransmit dedup opens a ghost round; this bounds its stall.
NET = NetConfig(response_timeout_s=1.0)
CHAOS_LEG = LegChaos(drop=0.03, delay=0.10, duplicate=0.03)

_results = {}


def _record(**kwargs) -> None:
    _results.update({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                     for k, v in kwargs.items()})
    payload = dict(sorted(_results.items()))
    payload["devices"] = DEVICES
    payload["rounds"] = ROUNDS
    payload["chaos_seed"] = CHAOS_SEED
    with open(HA_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def fleet_config(**kwargs):
    return FleetConfig(n_devices=DEVICES, seed=3309, puf=PUF,
                       latency_budget_s=0.01, **kwargs)


async def run_single_server_baseline(total_rounds: int):
    """The same fleet, same rounds, one server, zero faults."""
    service = AuthService.provision(fleet_config())
    async with AuthServer(service, NET) as server:
        async with AuthClient.connect("127.0.0.1", server.port,
                                      response_timeout_s=30.0) as client:
            for _ in range(total_rounds):
                batch = await client.authenticate_batch(
                    service.device_list)
                assert batch.failures == {}
    # Let fire-and-forget finalizes settle before snapshotting state.
    await asyncio.sleep(0.05)
    return service


def durable_state(service_or_registry, devices):
    """The state both deployments must agree on, bit for bit."""
    registry = getattr(service_or_registry, "registry", service_or_registry)
    state = {}
    for device in devices:
        record = registry.record(device.device_id)
        state[device.device_id] = {
            "device": device.to_state(),
            "record_response": record.current_response.tobytes(),
            "record_sessions": int(record.sessions),
            "spot_used": record.crp_used.tobytes(),
        }
    return state


def test_ha_chaos_campaign(table_printer):
    """64 devices, 3 replicas, 2 mid-round kills, seeded chaos."""
    started = time.perf_counter()

    async def main():
        group = await ReplicaGroup.provision(
            fleet_config(ha=HAConfig(n_replicas=3, lease_timeout_s=0.4,
                                     heartbeat_interval_s=0.05)),
            net_config=NET, uplink=CHAOS_LEG, downlink=CHAOS_LEG,
            chaos_seed=CHAOS_SEED)
        try:
            report = await run_replicated_campaign(
                group, n_rounds=ROUNDS,
                kill_schedule=[
                    KillEvent(0, DEVICES // 3, 0),
                    KillEvent(1, DEVICES // 3, 1),
                ],
                verb_timeout_s=2.0)
            chaos_metrics = [replica.chaos.metrics.to_json()
                             for replica in group.replicas]
            state = durable_state(group, group.devices)
            nonces = group.assert_nonces_unique()
            return report, state, nonces, chaos_metrics, group.events
        finally:
            await group.aclose()

    report, ha_state, nonces, chaos_metrics, events = asyncio.run(main())
    elapsed = time.perf_counter() - started

    # -- the campaign itself must have been hostile and have converged
    assert report.kills == [(0, 0), (1, 1)], "both mid-round kills fired"
    assert report.promotions >= 2
    faults_injected = sum(m["frames_dropped"] + m["frames_duplicated"]
                          + m["frames_delayed"] for m in chaos_metrics)
    assert faults_injected > 0, "chaos must actually have fired"
    assert report.failures == {}, f"devices left behind: {report.failures}"
    assert report.accepted == DEVICES * (ROUNDS + 1)
    assert report.desynchronized == []
    assert report.commit_log_unresolved == 0
    assert report.nonces_unique and nonces == report.nonces_issued

    # -- bit-identical durable state vs a single fault-free server
    baseline_started = time.perf_counter()

    async def baseline():
        service = await run_single_server_baseline(ROUNDS + 1)
        state = durable_state(service, service.device_list)
        service.close()
        return state

    base_state = asyncio.run(baseline())
    baseline_elapsed = time.perf_counter() - baseline_started
    assert set(base_state) == set(ha_state)
    for device_id in base_state:
        assert base_state[device_id] == ha_state[device_id], (
            f"{device_id}: durable state diverged from the fault-free "
            "single-server run")

    table_printer(
        "HA-CHAOS campaign (64 devices, 3 replicas, 2 mid-round kills)",
        ["metric", "value"],
        [("devices", DEVICES),
         ("rounds (incl. reconcile)", ROUNDS + 1),
         ("accepted", report.accepted),
         ("attempts", report.attempts),
         ("failovers", report.failovers),
         ("promotions", report.promotions),
         ("nonces issued (all unique)", nonces),
         ("faults injected", faults_injected),
         ("campaign seconds", f"{elapsed:.2f}"),
         ("baseline seconds", f"{baseline_elapsed:.2f}")])
    _record(campaign_s=elapsed, baseline_s=baseline_elapsed,
            accepted=report.accepted, attempts=report.attempts,
            failovers=report.failovers, promotions=report.promotions,
            nonces_issued=nonces, faults_injected=faults_injected,
            desyncs=0, state_bit_identical=True)


def test_ha_attach_handoff_campaign(tmp_path, table_printer):
    """The on-disk crash path: promotion re-attaches the sharded root
    with journal replay, under the same chaos and kill schedule."""
    n_devices = min(DEVICES, 16)       # disk-bound; keep the lane fast
    started = time.perf_counter()

    async def main():
        config = FleetConfig(
            n_devices=n_devices, seed=3311, puf=PUF,
            latency_budget_s=0.01, registry_backend="sharded",
            storage_root=str(tmp_path / "fleet"),
            ha=HAConfig(n_replicas=3, lease_timeout_s=0.4,
                        heartbeat_interval_s=0.05, handoff="attach"))
        group = await ReplicaGroup.provision(
            config, net_config=NET, uplink=CHAOS_LEG, downlink=CHAOS_LEG,
            chaos_seed=CHAOS_SEED + 1)
        try:
            report = await run_replicated_campaign(
                group, n_rounds=2,
                kill_schedule=[KillEvent(0, n_devices // 3, 0),
                               KillEvent(1, n_devices // 3, 1)],
                verb_timeout_s=2.0)
            nonces = group.assert_nonces_unique()
            desyncs = group.desynchronized()
            return report, nonces, desyncs
        finally:
            await group.aclose()

    report, nonces, desyncs = asyncio.run(main())
    elapsed = time.perf_counter() - started
    assert report.failures == {}
    assert report.kills == [(0, 0), (1, 1)] and report.promotions >= 2
    assert desyncs == [] and report.commit_log_unresolved == 0
    assert report.nonces_unique
    table_printer(
        "HA-CHAOS attach handoff (sharded root, journal replay)",
        ["metric", "value"],
        [("devices", n_devices),
         ("accepted", report.accepted),
         ("promotions", report.promotions),
         ("nonces issued (all unique)", nonces),
         ("campaign seconds", f"{elapsed:.2f}")])
    _record(attach_campaign_s=elapsed, attach_accepted=report.accepted,
            attach_promotions=report.promotions, attach_desyncs=0)
