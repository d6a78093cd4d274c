"""Deadline semantics of the coalescer on its injectable clock.

The flush boundary is defined as ``clock() >= deadline`` — a ticket
submitted at ``t`` with budget ``B`` flushes at exactly ``t + B``, not
one tick later.  These are regression tests for that boundary, for the
:attr:`RoundCoalescer.deadline` / :meth:`RoundCoalescer.time_to_deadline`
timer API the network server schedules against, for the server's
flush timer reading the *same* injected clock as the coalescer
(``AuthService.clock``) rather than its own ``time.monotonic``, and for
the in-process service and the wire server flushing the same schedule
into the same micro-rounds.  :class:`TestRoundCoalescer` covers the
size, duplicate and empty flushes, submit-time rejection of unknown
devices, and devices revoked while their request is pending.
"""

import asyncio

import pytest

from repro.fleet import RoundCoalescer
from repro.service import AuthService, FleetConfig, ServicePolicy
from repro.service.net import AuthClient, AuthServer

CONFIG = dict(challenge_bits=32, n_stages=4, response_bits=16)
BUDGET = 5.0


class FakeClock:
    """A monotonic clock that moves only when told to."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def clocked_coalescer(n_devices=4, seed=11):
    clock = FakeClock()
    service = AuthService.provision(FleetConfig(
        n_devices=n_devices, seed=seed, puf=CONFIG, latency_budget_s=BUDGET,
        max_batch=64), clock=clock)
    return service.device_list, service.coalescer, clock


class TestDeadlineBoundary:
    def test_idle_coalescer_has_no_deadline(self):
        __, coalescer, __ = clocked_coalescer()
        assert coalescer.deadline is None
        assert coalescer.time_to_deadline() is None

    def test_deadline_anchors_to_first_submit(self):
        devices, coalescer, clock = clocked_coalescer()
        start = clock()
        coalescer.submit(devices[0])
        assert coalescer.deadline == start + BUDGET
        clock.advance(1.0)
        # Later submits do NOT extend the deadline: the budget caps the
        # latency of the *oldest* pending request.
        coalescer.submit(devices[1])
        assert coalescer.deadline == start + BUDGET

    def test_poll_holds_strictly_before_the_boundary(self):
        devices, coalescer, clock = clocked_coalescer()
        ticket = coalescer.submit(devices[0])
        clock.advance(BUDGET - 1e-9)
        assert coalescer.poll() is None
        assert not ticket.done
        assert coalescer.flushed_by_deadline == 0

    def test_poll_flushes_at_exactly_the_boundary(self):
        # The regression this file exists for: the flush condition is
        # clock() >= deadline, so a timer that sleeps time_to_deadline()
        # and polls fires on the dot — never a tick late.
        devices, coalescer, clock = clocked_coalescer()
        ticket = coalescer.submit(devices[0])
        clock.advance(BUDGET)
        assert clock() == coalescer.deadline
        assert coalescer.time_to_deadline() == 0.0
        report = coalescer.poll()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted
        assert coalescer.flushed_by_deadline == 1
        assert coalescer.deadline is None          # reset after flush

    def test_time_to_deadline_counts_down_on_the_injected_clock(self):
        devices, coalescer, clock = clocked_coalescer()
        coalescer.submit(devices[0])
        assert coalescer.time_to_deadline() == BUDGET
        clock.advance(2.0)
        assert coalescer.time_to_deadline() == BUDGET - 2.0
        clock.advance(10.0)                        # long past due
        assert coalescer.time_to_deadline() == 0.0  # clamped, never < 0
        assert coalescer.time_to_deadline(now=clock() - 11.0) == 4.0

    def test_zero_budget_flushes_on_first_poll(self):
        clock = FakeClock()
        service = AuthService.provision(FleetConfig(
            n_devices=2, seed=12, puf=CONFIG, latency_budget_s=0.0,
            max_batch=64), clock=clock)
        devices, coalescer = service.device_list, service.coalescer
        ticket = coalescer.submit(devices[0])
        # deadline == now: due immediately, without the clock moving.
        assert coalescer.time_to_deadline() == 0.0
        assert coalescer.poll() is not None
        assert ticket.accepted


class TestServerSharesTheInjectedClock:
    def test_wire_poll_reads_the_service_clock(self):
        # The server's flush decision must consult AuthService.clock —
        # with a frozen fake clock, no amount of real time makes the
        # deadline pass; one fake-clock tick does.
        clock = FakeClock()
        service = AuthService.provision(
            FleetConfig(n_devices=2, seed=13,
                        puf=dict(challenge_bits=32, n_stages=4,
                                 response_bits=16),
                        latency_budget_s=BUDGET),
            clock=clock)
        assert service.clock is clock

        async def main():
            async with AuthServer(service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port) as client:
                    ticket = await client.submit(service.device_list[0])
                    await asyncio.sleep(0.2)       # real time passes...
                    fired_early = await client.poll()
                    clock.advance(BUDGET)          # ...fake time decides
                    fired_on_time = await client.poll()
                    await ticket.wait(10)
                return fired_early, fired_on_time, ticket, server.metrics
        fired_early, fired_on_time, ticket, metrics = asyncio.run(main())
        assert not fired_early
        assert fired_on_time
        assert ticket.accepted
        assert metrics.flushed_by_deadline == 1


class RoundLog(ServicePolicy):
    """Records which devices each settled round held."""

    def __init__(self):
        self.rounds = []

    def after_round(self, report):
        self.rounds.append(sorted({*report.confirmations, *report.failures}))


#: Steps: ("submit", device, connection), ("advance", seconds), ("poll",).
#: Every submit is followed by a poll, which on the wire is also the
#: barrier that orders requests across connections.
SCHEDULES = {
    "max-batch": [("submit", 0, 0), ("submit", 1, 0)],
    "duplicate": [("submit", 0, 0), ("submit", 0, 1)],
    "deadline": [("submit", 0, 0), ("advance", BUDGET / 2), ("poll",),
                 ("advance", BUDGET / 2), ("poll",)],
}


def policy_service(clock):
    log = RoundLog()
    service = AuthService.provision(
        FleetConfig(n_devices=2, seed=14, puf=CONFIG, latency_budget_s=BUDGET,
                    max_batch=2),
        policies=[log], clock=clock)
    return service, log


def flush_counts(counters):
    return (counters.flushed_by_size, counters.flushed_by_deadline,
            counters.flushed_by_duplicate)


class TestOneTriggerPolicyTwoDrivers:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_same_micro_rounds_in_process_and_on_the_wire(self, schedule):
        clock = FakeClock()
        steps = SCHEDULES[schedule]

        service, in_process = policy_service(clock)
        for step in steps:
            if step[0] == "submit":
                service.submit(service.device_list[step[1]])
                service.poll()
            elif step[0] == "advance":
                clock.advance(step[1])
            else:
                service.poll()
        in_process_counts = flush_counts(service.coalescer)

        async def over_the_wire():
            served, wire = policy_service(clock)
            async with AuthServer(served) as server:
                clients = [await AuthClient.connect("127.0.0.1", server.port)
                           for __ in range(2)]
                try:
                    for step in steps:
                        if step[0] == "submit":
                            await clients[step[2]].submit(
                                served.device_list[step[1]])
                            await clients[step[2]].poll()
                        elif step[0] == "advance":
                            clock.advance(step[1])
                        else:
                            await clients[0].poll()
                    return list(wire.rounds), flush_counts(server.metrics)
                finally:
                    for client in clients:
                        await client.aclose()

        wire_rounds, wire_counts = asyncio.run(over_the_wire())
        assert in_process.rounds and wire_rounds == in_process.rounds
        assert wire_counts == in_process_counts


N_DEVICES = 10


@pytest.fixture()
def fleet():
    service = AuthService.provision(FleetConfig(
        n_devices=N_DEVICES, seed=77, n_spot_crps=8, puf=CONFIG))
    return service.registry, service.device_list, service.verifier


class TestRoundCoalescer:
    @pytest.fixture()
    def clocked(self, fleet):
        registry, devices, verifier = fleet
        now = [0.0]
        coalescer = AuthService(
            registry, devices, verifier,
            config=FleetConfig(n_devices=N_DEVICES, latency_budget_s=1.0,
                               max_batch=4),
            clock=lambda: now[0]).coalescer
        return devices, coalescer, now

    def test_holds_until_deadline(self, clocked):
        devices, coalescer, now = clocked
        ticket = coalescer.submit(devices[0])
        assert coalescer.pending_count == 1
        assert coalescer.poll() is None
        assert not ticket.done
        now[0] = 1.5
        report = coalescer.poll()
        assert report is not None and report.n_accepted == 1
        assert ticket.done and ticket.accepted
        assert coalescer.flushed_by_deadline == 1

    def test_full_micro_round_flushes_immediately(self, clocked):
        devices, coalescer, __ = clocked
        tickets = [coalescer.submit(device) for device in devices[:4]]
        assert coalescer.pending_count == 0
        assert all(t.done and t.accepted for t in tickets)
        assert coalescer.flushed_by_size == 1
        assert coalescer.micro_rounds == 1

    def test_duplicate_submission_flushes_first(self, clocked):
        devices, coalescer, __ = clocked
        first = coalescer.submit(devices[0])
        second = coalescer.submit(devices[0])
        assert first.done and first.accepted
        assert not second.done
        coalescer.flush()
        assert second.done and second.accepted

    def test_unknown_device_rejected_at_submit(self, clocked):
        from repro.fleet import FleetDevice
        from repro.protocols.mutual_auth import AuthenticationFailure
        devices, coalescer, __ = clocked
        stranger = FleetDevice("dev-stranger", devices[0].puf)
        ticket = coalescer.submit(devices[0])
        # A stray unenrolled request fails at the door, not mid-round.
        with pytest.raises(AuthenticationFailure):
            coalescer.submit(stranger)
        assert coalescer.pending_count == 1
        report = coalescer.flush()
        assert report.n_accepted == 1 and ticket.accepted

    def test_revoked_mid_coalesce_fails_only_that_ticket(self, clocked,
                                                         fleet):
        """Revocation between submit and flush rejects the victim only.

        Regression: the revoked device used to reach ``open_round``,
        which raised ``not-enrolled`` for the *whole* micro-round and
        settled every ticket as failed.  The flush must screen revoked
        devices out first so the survivors still authenticate.
        """
        registry, devices, verifier = fleet
        __, coalescer, __ = clocked
        survivor = coalescer.submit(devices[1])
        victim = coalescer.submit(devices[2])
        registry.revoke(devices[2].device_id)
        verifier.evict(devices[2].device_id)
        report = coalescer.flush()
        assert report is not None and report.n_accepted == 1
        assert survivor.done and survivor.accepted
        assert victim.done and not victim.accepted
        assert "revoked" in victim.failure
        assert victim.failure_kind == "not-enrolled"
        assert coalescer.pending_count == 0
        assert coalescer.micro_rounds == 1

    def test_whole_micro_round_revoked_is_noop_round(self, clocked,
                                                     fleet):
        registry, devices, verifier = fleet
        __, coalescer, __ = clocked
        ticket = coalescer.submit(devices[3])
        registry.revoke(devices[3].device_id)
        verifier.evict(devices[3].device_id)
        # Every pending device gone: no round runs at all.
        assert coalescer.flush() is None
        assert ticket.done and not ticket.accepted
        assert ticket.failure_kind == "not-enrolled"
        assert coalescer.micro_rounds == 0

    def test_flush_empty_is_noop(self, clocked):
        __, coalescer, __ = clocked
        assert coalescer.flush() is None
        assert coalescer.micro_rounds == 0

    def test_validation(self, fleet):
        registry, __, __ = fleet
        with pytest.raises(ValueError):
            RoundCoalescer(registry.record, list, latency_budget_s=-1.0)
        with pytest.raises(ValueError):
            RoundCoalescer(registry.record, list, max_batch=0)
