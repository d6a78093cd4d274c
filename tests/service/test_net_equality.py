"""The acceptance gate for ``repro.service.net``: wire == in-process.

A hostile 64-device campaign (drops, replays, tampering, retries) is run
twice from the same seed — once against the in-process
:class:`AuthService` path, once with every verifier touch-point routed
through :class:`AuthClient` → :class:`AuthServer` over real TCP sockets
— and the two runs must be **bit-identical**: every nonce, every encoded
response frame, every report frame, every finalize/abort decision, the
campaign statistics, and the final registry/verifier/device state.

The wire run reuses :class:`FleetSimulator` verbatim (its fault and
adversary RNG draw sequence lives entirely in ``_attempt``) and overrides
only the four ``_transport_*`` hooks, so any divergence is the
transport's fault — exactly what this test exists to catch.
"""

import asyncio
import dataclasses
import threading

import numpy as np

from repro.fleet.lifecycle import (
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    TamperAdversary,
)
from repro.service import AuthService, FleetConfig, encode_message
from repro.service.net import AuthClient, AuthServer

FLEET = 64
SEED = 2026
ROUNDS = 5
FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


def provision():
    return AuthService.provision(FleetConfig(
        n_devices=FLEET, seed=SEED, puf=FAST_PUF))


def hostile():
    return (FaultModel(response_drop=0.05, confirmation_drop=0.2,
                       max_retries=4),
            [ReplayAdversary(probability=0.3),
             TamperAdversary(probability=0.02, factor=1.4)])


class TranscriptingSimulator(FleetSimulator):
    """In-process baseline that records the transport touch-points as
    the codec frames a transport would carry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transcript = []

    def _transport_open_round(self, ids):
        nonces = super()._transport_open_round(ids)
        self.transcript.append(("open", tuple(ids),
                                tuple(sorted(nonces.items()))))
        return nonces

    def _transport_verify_round(self, messages, nonces):
        self.transcript.append(
            ("verify", tuple(encode_message(m) for m in messages)))
        report = super()._transport_verify_round(messages, nonces)
        self.transcript.append(("report", encode_message(report)))
        return report

    def _transport_finalize(self, device_id):
        self.transcript.append(("finalize", device_id))
        super()._transport_finalize(device_id)

    def _transport_abort(self, device_id):
        self.transcript.append(("abort", device_id))
        super()._transport_abort(device_id)


class WireSimulator(FleetSimulator):
    """The same campaign with every touch-point crossing a real socket."""

    def __init__(self, *args, bridge, **kwargs):
        super().__init__(*args, **kwargs)
        self._bridge = bridge
        self.transcript = []

    def _wire(self, coro):
        return asyncio.run_coroutine_threadsafe(
            coro, self._bridge.loop).result(60)

    def _transport_open_round(self, ids):
        nonces = self._wire(self._bridge.client.open_round_wire(ids))
        self.transcript.append(("open", tuple(ids),
                                tuple(sorted(nonces.items()))))
        return nonces

    def _transport_verify_round(self, messages, nonces):
        frames = [encode_message(m) for m in messages]
        self.transcript.append(("verify", tuple(frames)))
        report, __ = self._wire(
            self._bridge.client.verify_round_wire(frames))
        # The codec is canonical (key-sorted dicts), so re-encoding the
        # decoded report reproduces the REPORT frame byte for byte.
        self.transcript.append(("report", encode_message(report)))
        # In-process insertion order is first-occurrence-of-device in
        # the message list (duplicates can never confirm); restore it so
        # the confirmation-loop RNG draws consume in the same order.
        order = [m.device_id for m in messages
                 if m.device_id in report.confirmations]
        seen = dict.fromkeys(order)
        report.confirmations = {
            device_id: report.confirmations[device_id]
            for device_id in seen
        }
        return report

    def _transport_finalize(self, device_id):
        self.transcript.append(("finalize", device_id))
        self._wire(self._bridge.client.finalize(device_id))

    def _transport_abort(self, device_id):
        self.transcript.append(("abort", device_id))
        self._wire(self._bridge.client.abort(device_id))


class ServerBridge:
    """AuthServer + one gateway AuthClient on a background event loop,
    so the synchronous FleetSimulator can block on wire futures."""

    def __init__(self, service):
        self._service = service
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.loop = None
        self.client = None
        self.error = None

    def __enter__(self):
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("server bridge never came up")
        if self.error is not None:
            raise self.error
        return self

    def __exit__(self, *exc):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            async with AuthServer(self._service) as server:
                async with AuthClient.connect(
                        "127.0.0.1", server.port,
                        peer="equality-gateway") as client:
                    self.client = client
                    self._ready.set()
                    await self._stop.wait()
        except Exception as exc:               # pragma: no cover
            self.error = exc
            self._ready.set()


def run_in_process():
    service = provision()
    faults, adversaries = hostile()
    sim = TranscriptingSimulator(
        service, faults=faults, adversaries=adversaries)
    stats = sim.run_campaign(ROUNDS)
    return service, sim, stats


def run_over_wire():
    service = provision()
    faults, adversaries = hostile()
    with ServerBridge(service) as bridge:
        sim = WireSimulator(
            service, faults=faults, adversaries=adversaries, bridge=bridge)
        stats = sim.run_campaign(ROUNDS)
    return service, sim, stats


def strip_timing(stats) -> dict:
    payload = dataclasses.asdict(stats)
    payload.pop("elapsed_s")
    return payload


class TestWireEqualsInProcess:
    def test_hostile_campaign_is_bit_identical(self):
        local_service, local_sim, local_stats = run_in_process()
        wire_service, wire_sim, wire_stats = run_over_wire()

        # Transport transcript: every nonce, frame, and two-phase
        # decision, in order, byte for byte.
        assert len(wire_sim.transcript) == len(local_sim.transcript)
        for wire_entry, local_entry in zip(wire_sim.transcript,
                                           local_sim.transcript):
            assert wire_entry == local_entry

        # Campaign statistics (timing aside) match exactly.
        assert strip_timing(wire_stats) == strip_timing(local_stats)
        assert wire_stats.authenticated > 0
        assert wire_stats.desynchronized == 0 == local_stats.desynchronized

        # Final state: registry arrays, verifier counters, device CRPs.
        wire_state = wire_service.snapshot()
        local_state = local_service.snapshot()
        assert wire_state["manifest"] == local_state["manifest"]
        assert wire_state["arrays"].keys() == local_state["arrays"].keys()
        for key in wire_state["arrays"]:
            assert np.array_equal(wire_state["arrays"][key],
                                  local_state["arrays"][key]), key
        for wire_dev, local_dev in zip(wire_sim.devices.values(),
                                       local_sim.devices.values()):
            assert wire_dev.device_id == local_dev.device_id
            assert np.array_equal(wire_dev.current_response,
                                  local_dev.current_response)

    def test_hostility_is_actually_exercised(self):
        # Guard against the equality above passing vacuously: the seeded
        # campaign must include drops, retries, and adversary traffic.
        __, sim, stats = run_in_process()
        assert stats.dropped_confirmations > 0
        assert stats.dropped_responses > 0
        assert stats.retries > 0
        assert stats.adversary_messages > 0
        assert any(("abort", d) in sim.transcript
                   for d in sim.devices), "no two-phase aborts exercised"
