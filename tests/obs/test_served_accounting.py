"""Scraped counts reconcile with what a service and its server did.

A policy veto is an authentication outcome: whichever path screens it
(an in-process batch or submit, a wire ``auth``, a gateway round's
``open-round``), it counts under its failure kind in
``repro_auth_results_total``, and every veto ``RESULT`` a server sends
counts in ``repro_net_server_auths_failed_total``.  A served fleet's
coalescer series count the micro-rounds its server coalesces, and keep
counting them once that server has stopped.
"""

import asyncio
import gc
import weakref

import pytest

from repro.obs import (
    MetricsRegistry,
    instrument_server,
    instrument_service,
    parse_prometheus,
    render_prometheus,
)
from repro.service import AuthService, FleetConfig, RateLimitPolicy
from repro.service.net import AuthClient, AuthServer
from tests.asyncio_guard import no_asyncio_errors  # noqa: F401

FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)

RATE_LIMITED = ("repro_auth_results_total", (("result", "rate-limited"),))
ACCEPTED = ("repro_auth_results_total", (("result", "accepted"),))


def provision(n_devices=4, policies=(), **kwargs):
    return AuthService.provision(
        FleetConfig(n_devices=n_devices, seed=7, puf=FAST_PUF, **kwargs),
        policies=policies)


def one_per_minute():
    return [RateLimitPolicy(max_requests=1, window_s=60)]


class TestPolicyVetoesReachTheMetrics:
    def test_in_process_batch_and_submit(self):
        service = provision(policies=one_per_minute())
        registry = instrument_service(service).registry
        first, second = service.device_list[:2]
        assert service.authenticate_batch([first]).n_accepted == 1
        vetoed = service.authenticate_batch([first])
        assert vetoed.failure_kinds == {first.device_id: "rate-limited"}
        assert service.authenticate(second).accepted
        ticket = service.submit(second)
        assert ticket.failure_kind == "rate-limited"
        parsed = parse_prometheus(render_prometheus(registry.snapshot()))
        assert parsed[ACCEPTED] == 2.0
        assert parsed[RATE_LIMITED] == 2.0

    def test_wire_auth_and_open_round(self):
        async def main():
            service = provision(policies=one_per_minute())
            registry = MetricsRegistry()
            instrument_service(service, registry)
            first, second = provision().device_list[:2]
            async with AuthServer(service) as server:
                instrument_server(server, registry)
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    admitted = await client.authenticate(first, flush=True)
                    vetoed = await client.authenticate(first, flush=True)
                    batch = await client.authenticate_batch([second])
                    round_veto = await client.authenticate_batch([second])
                    scrape = await client.metrics()
            return admitted, vetoed, batch, round_veto, scrape

        admitted, vetoed, batch, round_veto, scrape = asyncio.run(main())
        assert admitted.accepted and batch.n_accepted == 1
        assert vetoed.failure_kind == "rate-limited"
        assert round_veto.failure_kinds == {"dev-000001": "rate-limited"}
        parsed = parse_prometheus(scrape)
        assert parsed[RATE_LIMITED] == 2.0
        assert parsed[("repro_net_server_auths_failed_total", ())] == 2.0


class TestServedCoalescerCounts:
    @pytest.mark.parametrize("instrument_first", [True, False])
    def test_scrape_counts_the_servers_micro_round(self, instrument_first):
        async def main():
            # A long budget: only the flush closes the micro-round.
            service = provision(latency_budget_s=30.0)
            registry = MetricsRegistry()
            if instrument_first:
                instrument_service(service, registry)
            gateway = provision()
            async with AuthServer(service) as server:
                if not instrument_first:
                    instrument_service(service, registry)
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    tickets = [await client.submit(device)
                               for device in gateway.device_list]
                    await client.flush()
                    for ticket in tickets:
                        await ticket.wait(10.0)
                    scrape = await client.metrics()
            return tickets, scrape

        tickets, scrape = asyncio.run(main())
        assert all(ticket.accepted for ticket in tickets)
        parsed = parse_prometheus(scrape)
        assert parsed[("repro_coalescer_micro_rounds_total", ())] == 1.0
        assert parsed[("repro_coalescer_submitted_total", ())] == 4.0
        assert parsed[("repro_coalescer_micro_round_size_count", ())] == 1.0
        assert parsed[("repro_coalescer_queue_depth", ())] == 0.0

    def test_a_stopped_servers_totals_stay_and_its_queue_goes(self):
        async def main():
            service = provision(latency_budget_s=30.0)
            registry = instrument_service(service).registry
            devices = provision().device_list
            killed = AuthServer(service)
            await killed.start()
            client = await AuthClient.connect("127.0.0.1", killed.port)
            for device in devices[:2]:
                await client.submit(device)
            # Wait until both auths are queued, then crash the server.
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while killed.metrics.submitted < 2:
                assert loop.time() < deadline, "auths never queued"
                await asyncio.sleep(0.001)
            await killed.kill()
            await client.aclose()
            after_kill = render_prometheus(registry.snapshot())
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as fresh:
                    tickets = [await fresh.submit(device)
                               for device in devices]
                    await fresh.flush()
                    for ticket in tickets:
                        await ticket.wait(10.0)
            return weakref.ref(killed), after_kill, tickets, \
                render_prometheus(registry.snapshot())

        killed, after_kill, tickets, final = asyncio.run(main())
        assert all(ticket.accepted for ticket in tickets)
        parsed = parse_prometheus(after_kill)
        assert parsed[("repro_coalescer_submitted_total", ())] == 2.0
        assert parsed[("repro_coalescer_queue_depth", ())] == 0.0
        parsed = parse_prometheus(final)
        assert parsed[("repro_coalescer_submitted_total", ())] == 6.0
        assert parsed[("repro_coalescer_micro_rounds_total", ())] == 1.0
        gc.collect()
        assert killed() is None, "the service keeps a stopped server alive"
