"""Instrumentation is an observer, never a participant.

The package invariant: enabling metrics and tracing must not perturb
a campaign in any way — same nonce stream, same RNG draws, same CRP
rolls, same stats.  Three otherwise-identical hostile campaigns run
here (uninstrumented, instrumented-enabled, instrumented-disabled)
and every durable artifact is compared bit for bit.
"""

import pytest

from repro.fleet import (
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    TamperAdversary,
)
from repro.obs import MetricsRegistry, RoundTracer, instrument_verifier
from repro.service import AuthService, FleetConfig

#: Zero-noise PUF: the whole campaign is a pure function of the seed.
FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16,
                noise_mw=0.0)

N_DEVICES = 32
N_ROUNDS = 4
SEED = 2203


def tap_nonces(verifier, log):
    """Record every issued nonce without changing the call."""
    original = verifier.open_round

    def wrapped(device_ids):
        nonces = original(device_ids)
        for device_id in sorted(nonces):
            log.append((device_id, bytes(nonces[device_id])))
        return nonces

    verifier.open_round = wrapped


def durable_state(service):
    """Every byte that must match across runs."""
    state = {}
    for device in service.device_list:
        record = service.registry.record(device.device_id)
        state[device.device_id] = (
            device.current_response.tobytes(),
            record.current_response.tobytes(),
            int(record.sessions),
            record.crp_used.tobytes(),
        )
    return state


def hostile_campaign(mode):
    """Run the reference campaign; ``mode`` picks the instrumentation."""
    service = AuthService.provision(FleetConfig(
        n_devices=N_DEVICES, seed=SEED, puf=FAST_PUF))
    simulator = FleetSimulator(
        service,
        faults=FaultModel(request_drop=0.05, response_drop=0.05,
                          confirmation_drop=0.10),
        adversaries=[ReplayAdversary(probability=0.3),
                     TamperAdversary(probability=0.05, factor=1.5)],
    )
    nonces = []
    tap_nonces(simulator.verifier, nonces)
    obs = None
    if mode != "off":
        ticks = {"now": 0.0}

        def clock():
            ticks["now"] += 1.0 / 1024.0
            return ticks["now"]

        registry = MetricsRegistry(enabled=(mode == "enabled"),
                                   clock=clock)
        obs = instrument_verifier(
            simulator.verifier, registry,
            tracer=RoundTracer(capacity=64, clock=clock))
    stats = simulator.run_campaign(N_ROUNDS)
    state = stats.to_state()
    state.pop("elapsed_s")  # the only wall-clock-dependent field
    return {
        "stats": state,
        "nonces": nonces,
        "durable": durable_state(service),
        "obs": obs,
    }


@pytest.fixture(scope="module")
def campaigns():
    return {mode: hostile_campaign(mode)
            for mode in ("off", "enabled", "disabled")}


class TestBitIdenticalTranscripts:
    def test_campaign_stats_are_identical(self, campaigns):
        reference = campaigns["off"]["stats"]
        assert reference["authenticated"] > 0
        assert reference["failures_by_kind"], \
            "the reference campaign must actually be hostile"
        assert campaigns["enabled"]["stats"] == reference
        assert campaigns["disabled"]["stats"] == reference

    def test_nonce_streams_are_identical(self, campaigns):
        reference = campaigns["off"]["nonces"]
        assert len(reference) >= N_DEVICES * N_ROUNDS
        assert campaigns["enabled"]["nonces"] == reference
        assert campaigns["disabled"]["nonces"] == reference

    def test_durable_state_is_identical(self, campaigns):
        reference = campaigns["off"]["durable"]
        assert campaigns["enabled"]["durable"] == reference
        assert campaigns["disabled"]["durable"] == reference


class TestReconciliation:
    """Scraped totals are exact, not sampled: they reconcile with the
    campaign's own bookkeeping to the last device."""

    def test_counters_reconcile_with_campaign_stats(self, campaigns):
        stats = campaigns["enabled"]["stats"]
        obs = campaigns["enabled"]["obs"]
        assert obs.finalized.value() == stats["authenticated"]
        assert obs.aborted.value() == stats["dropped_confirmations"]
        assert obs.challenges.value() == stats["attempts"]
        assert obs.results.value(result="accepted") == \
            obs.finalized.value() + obs.aborted.value()

    def test_failure_kinds_reconcile_exactly(self, campaigns):
        stats = campaigns["enabled"]["stats"]
        obs = campaigns["enabled"]["obs"]
        seen = {sample["labels"]["result"]: sample["value"]
                for sample in obs.results._snapshot()["samples"]
                if sample["labels"]["result"] != "accepted"}
        assert seen == {kind: float(count) for kind, count
                        in stats["failures_by_kind"].items()}

    def test_disabled_registry_stays_empty(self, campaigns):
        obs = campaigns["disabled"]["obs"]
        assert obs.finalized.value() == 0
        assert obs.results._snapshot()["samples"] == []
        assert len(obs.tracer) == 0

    def test_enabled_tracer_saw_the_rounds(self, campaigns):
        obs = campaigns["enabled"]["obs"]
        assert len(obs.tracer) > 0
        span = obs.tracer.last()
        assert span.nonces and span.status != "open"
