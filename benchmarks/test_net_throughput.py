"""NET-THR: the served fleet under concurrent socket load.

The acceptance bar for ``repro.service.net``: one :class:`AuthServer`
(one process, one event loop) sustains ``NET_BENCH_CONNS`` (default
1000) *simultaneous* ``AuthClient`` connections — every client holding
its device hardware and authenticating through the wire micro-round
path — and the recorded throughput clears ``NET_AUTHS_FLOOR``.
Latency is reported as p50/p99 of the per-request submit→settle time
under full load, plus a sequential single-connection round-trip
baseline.  Results land in ``BENCH_net.json``; CI runs a
smaller-concurrency configuration of the same harness as a blocking
lane with a matching floor.
"""

import asyncio
import json
import os
import statistics
import time

from repro.service import AuthService, FleetConfig
from repro.service.net import AuthClient, AuthServer, NetConfig
from tests.asyncio_guard import no_asyncio_errors  # noqa: F401

CONNS = int(os.environ.get("NET_BENCH_CONNS", "1000"))
WAVES = int(os.environ.get("NET_BENCH_WAVES", "3"))
AUTHS_FLOOR = float(os.environ.get("NET_AUTHS_FLOOR", "100.0"))
CONNECT_CHUNK = int(os.environ.get("NET_BENCH_CONNECT_CHUNK", "100"))
NET_JSON = "BENCH_net.json"

PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)

_results = {}


def _record(**kwargs) -> None:
    _results.update({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                     for k, v in kwargs.items()})
    payload = dict(sorted(_results.items()))
    payload["concurrent_connections"] = CONNS
    payload["waves"] = WAVES
    with open(NET_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _percentiles_ms(samples):
    ordered = sorted(samples)
    return (statistics.median(ordered) * 1e3,
            ordered[min(len(ordered) - 1,
                        int(0.99 * len(ordered)))] * 1e3)


def test_net_concurrent_load(table_printer):
    """1000+ live connections authenticating in concurrent waves."""
    service = AuthService.provision(FleetConfig(
        n_devices=CONNS, seed=3302, puf=PUF, latency_budget_s=0.05))
    config = NetConfig(response_timeout_s=120.0, drain_timeout_s=30.0,
                       pending_high=CONNS + 1, pending_low=CONNS // 2)

    async def main():
        async with AuthServer(service, config) as server:
            clients = []
            t_connect = time.perf_counter()
            for base in range(0, CONNS, CONNECT_CHUNK):
                chunk = await asyncio.gather(*(
                    AuthClient.connect("127.0.0.1", server.port,
                                       response_timeout_s=120.0)
                    for __ in range(base,
                                    min(base + CONNECT_CHUNK, CONNS))))
                clients.extend(chunk)
            connect_s = time.perf_counter() - t_connect
            assert len(clients) == CONNS

            async def one_auth(client, device):
                start = time.perf_counter()
                ticket = await client.submit(device)
                await ticket.wait(120.0)
                assert ticket.accepted, ticket.failure
                return time.perf_counter() - start

            latencies = []
            t_load = time.perf_counter()
            for __ in range(WAVES):
                latencies.extend(await asyncio.gather(*(
                    one_auth(client, device) for client, device
                    in zip(clients, service.device_list))))
            load_s = time.perf_counter() - t_load
            metrics = server.metrics
            for client in clients:
                await client.aclose()
        return connect_s, load_s, latencies, metrics

    connect_s, load_s, latencies, metrics = asyncio.run(main())
    total_auths = CONNS * WAVES
    auths_per_sec = total_auths / load_s
    p50_ms, p99_ms = _percentiles_ms(latencies)
    table_printer(
        f"NET-THR — concurrent load ({CONNS} connections, "
        f"{WAVES} waves)",
        ["measure", "value"],
        [
            ("connections", CONNS),
            ("connect time", f"{connect_s:.2f} s"),
            ("auths completed", total_auths),
            ("auths/s (sustained)", f"{auths_per_sec:.0f}"),
            ("latency p50", f"{p50_ms:.1f} ms"),
            ("latency p99", f"{p99_ms:.1f} ms"),
            ("micro-rounds", metrics.micro_rounds),
            ("reads paused (backpressure)", metrics.reads_paused),
        ],
    )
    _record(connect_s=connect_s, load_s=load_s,
            auths_total=total_auths, auths_per_sec=auths_per_sec,
            latency_p50_ms=p50_ms, latency_p99_ms=p99_ms,
            micro_rounds=int(metrics.micro_rounds),
            auths_floor=AUTHS_FLOOR)
    assert metrics.auths_accepted == total_auths
    assert auths_per_sec >= AUTHS_FLOOR, (
        f"served fleet sustained only {auths_per_sec:.0f} auths/s over "
        f"{CONNS} concurrent connections (floor {AUTHS_FLOOR})"
    )


def test_net_single_connection_latency(table_printer):
    """Sequential flush-per-auth round trips: the no-contention baseline."""
    repeats = int(os.environ.get("NET_BENCH_LATENCY_REPEATS", "50"))
    service = AuthService.provision(FleetConfig(
        n_devices=1, seed=3303, puf=PUF))
    device = service.device_list[0]

    async def main():
        samples = []
        async with AuthServer(service) as server:
            async with AuthClient.connect("127.0.0.1",
                                          server.port) as client:
                await client.authenticate(device, flush=True)  # warm
                for __ in range(repeats):
                    start = time.perf_counter()
                    ticket = await client.authenticate(device, flush=True)
                    assert ticket.accepted
                    samples.append(time.perf_counter() - start)
        return samples

    samples = asyncio.run(main())
    p50_ms, p99_ms = _percentiles_ms(samples)
    table_printer(
        f"NET-THR — single-connection round trip ({repeats} auths)",
        ["measure", "value"],
        [("round-trip p50", f"{p50_ms:.2f} ms"),
         ("round-trip p99", f"{p99_ms:.2f} ms")],
    )
    _record(single_conn_p50_ms=p50_ms, single_conn_p99_ms=p99_ms)
