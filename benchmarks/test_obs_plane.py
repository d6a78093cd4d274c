"""OBS: the observability plane's acceptance lane.

Three gates, all blocking in CI (results land in ``BENCH_obs.json``):

* **Exact reconciliation over the wire** — a 64-device net campaign
  runs with metrics on, the registry is scraped through the ``metrics``
  verb (wire 1.2), and the scraped Prometheus totals must equal the
  :class:`BatchAuthReport` totals *exactly* — counters are bookkeeping,
  not sampling.
* **Noninterference under replicated chaos** — the same 64-device
  hostile campaign (chaos legs on every replica, one mid-round primary
  kill) runs instrumented (metrics + tracing) and uninstrumented, and
  every byte of durable authentication state must be identical.  The
  instrumented group's scrape must reconcile with the registry's own
  session counts: every CRP roll is a ``finalized`` or ``recovered``
  increment, no more, no less.
* **Overhead ceiling** — a fleet-stacked authentication round with a
  live registry + tracer must cost no more than
  ``OBS_OVERHEAD_CEILING`` (default 1.03x) of the uninstrumented
  round.
"""

import asyncio
import json
import os
import time

from repro.obs import (
    MetricsRegistry,
    RoundTracer,
    instrument_replica_group,
    instrument_server,
    instrument_service,
    instrument_verifier,
    parse_prometheus,
)
from repro.service import AuthService, FleetConfig, HAConfig
from repro.service.ha import HAAuthClient, KillEvent, ReplicaGroup, \
    run_replicated_campaign
from repro.service.net import AuthClient, AuthServer, LegChaos, NetConfig

DEVICES = int(os.environ.get("OBS_BENCH_DEVICES", "64"))
ROUNDS = int(os.environ.get("OBS_BENCH_ROUNDS", "2"))
CHAOS_SEED = int(os.environ.get("OBS_BENCH_CHAOS_SEED", "3309"))
OBS_OVERHEAD_CEILING = float(os.environ.get("OBS_OVERHEAD_CEILING", "1.03"))
OBS_JSON = "BENCH_obs.json"
FLEET_JSON = "BENCH_fleet.json"

# noise_mw=0.0: durable state must be a pure function of (seed, rounds)
# so the instrumented and uninstrumented campaigns are comparable bit
# for bit regardless of retry timing.
PUF = dict(challenge_bits=32, n_stages=4, response_bits=16, noise_mw=0.0)
NET = NetConfig(response_timeout_s=1.0)
CHAOS_LEG = LegChaos(drop=0.03, delay=0.10, duplicate=0.03)

_results = {}


def _record(**kwargs) -> None:
    _results.update({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                     for k, v in kwargs.items()})
    payload = dict(sorted(_results.items()))
    payload["devices"] = DEVICES
    payload["rounds"] = ROUNDS
    payload["overhead_ceiling"] = OBS_OVERHEAD_CEILING
    with open(OBS_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def fleet_config(**kwargs):
    return FleetConfig(n_devices=DEVICES, seed=3309, puf=PUF,
                       latency_budget_s=0.01, **kwargs)


def durable_state(registry, devices):
    """The bytes both campaigns must agree on exactly."""
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


def test_wire_scrape_reconciles_exactly(table_printer):
    """Net campaign with metrics on; scraped totals == report totals."""

    async def main():
        service = AuthService.provision(fleet_config())
        registry = MetricsRegistry()
        instrument_service(service, registry,
                           tracer=RoundTracer(capacity=512))
        accepted = 0
        async with AuthServer(service, NET) as server:
            instrument_server(server, registry)
            async with AuthClient.connect(
                    "127.0.0.1", server.port,
                    response_timeout_s=30.0) as client:
                for _ in range(ROUNDS):
                    report = await client.authenticate_batch(
                        service.device_list)
                    assert report.failures == {}
                    accepted += report.n_accepted
                await asyncio.sleep(0.05)  # settle async finalizes
                started = time.perf_counter()
                scrape = await client.metrics()
                scrape_s = time.perf_counter() - started
                spans = await client.trace()
        service.close()
        return accepted, scrape, scrape_s, spans

    accepted, scrape, scrape_s, spans = asyncio.run(main())
    parsed = parse_prometheus(scrape)
    assert accepted == DEVICES * ROUNDS

    # Exact reconciliation: bookkeeping, not sampling.
    assert parsed[("repro_auth_finalized_total", ())] == float(accepted)
    assert parsed[("repro_auth_results_total",
                   (("result", "accepted"),))] == float(accepted)
    assert parsed.get(("repro_auth_aborted_total", ()), 0.0) == 0.0
    # The socket plane lives in the same registry: the explicit wire
    # rounds crossed exactly one connection, several verbs per round.
    assert parsed[("repro_net_server_connections_opened_total", ())] == 1.0
    assert parsed[("repro_net_server_requests_total", ())] >= \
        float(ROUNDS * 2)

    # The tracer saw every coalesced round, finalized.
    assert spans and spans[-1]["status"] == "finalized"

    table_printer(
        "OBS wire scrape (metrics verb, wire 1.2)",
        ["metric", "value"],
        [("devices", DEVICES),
         ("rounds", ROUNDS),
         ("accepted (== scraped finalized)", accepted),
         ("scrape bytes", len(scrape)),
         ("scraped series", len(parsed)),
         ("retained spans", len(spans)),
         ("scrape ms", f"{scrape_s * 1e3:.2f}")])
    _record(wire_accepted=accepted, scrape_bytes=len(scrape),
            scrape_series=len(parsed), scrape_s=scrape_s,
            spans_retained=len(spans))


async def _chaos_campaign(instrumented: bool):
    """One hostile replicated campaign; optionally fully instrumented."""
    group = await ReplicaGroup.provision(
        fleet_config(ha=HAConfig(n_replicas=3, lease_timeout_s=0.4,
                                 heartbeat_interval_s=0.05)),
        net_config=NET, uplink=CHAOS_LEG, downlink=CHAOS_LEG,
        chaos_seed=CHAOS_SEED)
    try:
        obs = None
        if instrumented:
            obs = instrument_replica_group(
                group, tracer=RoundTracer(capacity=1024))
        report = await run_replicated_campaign(
            group, n_rounds=ROUNDS,
            kill_schedule=[KillEvent(0, DEVICES // 3, 0)],
            verb_timeout_s=2.0)
        await asyncio.sleep(0.1)  # settle fire-and-forget finalizes
        scrape = None
        if instrumented:
            async with HAAuthClient(group.endpoints,
                                    verb_timeout_s=2.0) as client:
                scrape = await client.scrape()
        state = durable_state(group.registry, group.devices)
        nonces = group.assert_nonces_unique()
        return report, state, nonces, scrape, obs
    finally:
        await group.aclose()


def test_replicated_chaos_campaign_unperturbed(table_printer):
    """Metrics + tracing on vs off: durable state bit-identical."""
    started = time.perf_counter()
    report, state, nonces, scrape, obs = asyncio.run(
        _chaos_campaign(instrumented=True))
    instrumented_s = time.perf_counter() - started

    started = time.perf_counter()
    bare_report, bare_state, bare_nonces, _, _ = asyncio.run(
        _chaos_campaign(instrumented=False))
    bare_s = time.perf_counter() - started

    # Both campaigns were genuinely hostile and converged.
    for rep in (report, bare_report):
        assert rep.kills == [(0, 0)], "the mid-round kill must fire"
        assert rep.promotions >= 1
        assert rep.failures == {}
        assert rep.accepted == DEVICES * (ROUNDS + 1)
        assert rep.desynchronized == []
        assert rep.commit_log_unresolved == 0
        assert rep.nonces_unique

    # The tentpole invariant: instrumentation is invisible in every
    # durable byte.
    assert set(state) == set(bare_state)
    for device_id in state:
        assert state[device_id] == bare_state[device_id], (
            f"{device_id}: durable state diverged between the "
            "instrumented and uninstrumented campaigns")

    # Scraped totals reconcile with the registry's own bookkeeping:
    # every CRP roll is exactly one finalized or recovered increment.
    parsed = parse_prometheus(scrape)
    total_sessions = sum(entry["record_sessions"]
                         for entry in state.values())
    scraped_rolls = parsed[("repro_auth_finalized_total", ())] + \
        parsed.get(("repro_auth_recovered_total", ()), 0.0)
    assert scraped_rolls == float(total_sessions)
    assert parsed[("repro_ha_promotions_total", ())] == \
        float(report.promotions)
    assert len(obs.tracer) > 0

    table_printer(
        "OBS replicated chaos campaign (1 mid-round kill)",
        ["metric", "value"],
        [("devices", DEVICES),
         ("rounds (incl. reconcile)", ROUNDS + 1),
         ("accepted", report.accepted),
         ("promotions", report.promotions),
         ("nonces issued (all unique)", nonces),
         ("session rolls (== scraped)", total_sessions),
         ("retained spans", len(obs.tracer)),
         ("instrumented seconds", f"{instrumented_s:.2f}"),
         ("uninstrumented seconds", f"{bare_s:.2f}")])
    _record(chaos_accepted=report.accepted,
            chaos_promotions=report.promotions,
            chaos_nonces=nonces, chaos_session_rolls=total_sessions,
            chaos_instrumented_s=instrumented_s, chaos_bare_s=bare_s,
            chaos_state_bit_identical=True)


def test_overhead_ceiling(table_printer):
    """A live registry + tracer costs <= OBS_OVERHEAD_CEILING per round."""
    repeats_min, repeats_max = 15, 60

    def provision():
        service = AuthService.provision(fleet_config())
        verifier, devices = service.verifier, service.device_list
        verifier.authenticate_fleet(devices)  # warm kernels + MAC states
        return service, verifier, devices

    def timed_round(verifier, devices):
        start = time.perf_counter()
        report = verifier.authenticate_fleet(devices)
        elapsed = time.perf_counter() - start
        assert report.n_accepted == len(devices)
        return elapsed

    base = provision()
    instrumented = provision()
    instrument_verifier(instrumented[1], MetricsRegistry(),
                        tracer=RoundTracer(capacity=512))
    # Interleave the samples: machine noise (frequency scaling, page
    # cache, a background task) hits both planes alike, so best-of is
    # a paired comparison rather than two disjoint measurement windows.
    # Best-of-N only ever decreases toward the true floor, so sampling
    # may stop as soon as the gate converges; a loaded machine gets
    # more draws instead of a false failure.
    base_s = obs_s = float("inf")
    samples = 0
    for samples in range(1, repeats_max + 1):
        base_s = min(base_s, timed_round(base[1], base[2]))
        obs_s = min(obs_s, timed_round(instrumented[1], instrumented[2]))
        if samples >= repeats_min and obs_s / base_s <= OBS_OVERHEAD_CEILING:
            break
    base[0].close()
    instrumented[0].close()

    ratio = obs_s / base_s
    fleet_ref = None
    if os.path.exists(FLEET_JSON):
        with open(FLEET_JSON) as handle:
            fleet_ref = json.load(handle).get("round_stacked_s")

    table_printer(
        "OBS per-round overhead (fleet-stacked, best of %d)" % samples,
        ["metric", "value"],
        [("devices", DEVICES),
         ("uninstrumented round ms", f"{base_s * 1e3:.3f}"),
         ("instrumented round ms", f"{obs_s * 1e3:.3f}"),
         ("overhead ratio", f"{ratio:.4f}"),
         ("ceiling", OBS_OVERHEAD_CEILING),
         ("BENCH_fleet round_stacked_s", fleet_ref)])
    _record(round_base_s=base_s, round_obs_s=obs_s,
            overhead_ratio=ratio,
            fleet_round_ref_s=fleet_ref if fleet_ref else 0.0)
    assert ratio <= OBS_OVERHEAD_CEILING, (
        f"instrumented round costs {ratio:.3f}x the uninstrumented "
        f"round (ceiling {OBS_OVERHEAD_CEILING}x)")
