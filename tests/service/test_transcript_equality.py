"""End-to-end transcript equality: facade vs directly built simulator.

The acceptance gate of the service redesign: a 64-device hostile
campaign driven through :meth:`AuthService.simulator` (fault model from
the config) must produce *bit-identical* round transcripts to a
:class:`FleetSimulator` built directly on a service provisioned without
one and handed the fault model explicitly — the facade changes the API
surface, never a byte of protocol traffic — and every wire message
observed on the way must round-trip exactly through the versioned codec.
"""

import numpy as np
import pytest

from repro.fleet import (
    Adversary,
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    TamperAdversary,
)
from repro.service import (
    AuthConfirmation,
    AuthService,
    FleetConfig,
    decode_message,
    encode_message,
)

FLEET = 64
SEED = 2026
FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)
HOSTILE = dict(
    faults=FaultModel(confirmation_drop=0.2, response_drop=0.05,
                      max_retries=4),
    adversaries_factory=lambda: [ReplayAdversary(probability=0.3),
                                 TamperAdversary(probability=0.02,
                                                 factor=1.4)],
)


class TranscriptRecorder(Adversary):
    """A passive wiretap: records every in-flight message, mutates none."""

    name = "transcript-recorder"

    def __init__(self):
        self.frames = []

    def mutate(self, messages, captured, rng):
        self.frames.extend(
            (message.device_id, bytes(message.body), bytes(message.tag))
            for message in messages
        )
        return messages


def legacy_campaign(n_rounds):
    service = AuthService.provision(FleetConfig(
        n_devices=FLEET, seed=SEED, puf=FAST_PUF))
    recorder = TranscriptRecorder()
    simulator = FleetSimulator(
        service, faults=HOSTILE["faults"],
        adversaries=HOSTILE["adversaries_factory"]() + [recorder],
    )
    stats = simulator.run_campaign(n_rounds)
    return simulator, recorder, stats


def facade_campaign(n_rounds):
    service = AuthService.provision(FleetConfig(
        n_devices=FLEET, seed=SEED, puf=FAST_PUF,
        fault_model=HOSTILE["faults"],
    ))
    recorder = TranscriptRecorder()
    simulator = service.simulator(
        adversaries=HOSTILE["adversaries_factory"]() + [recorder],
    )
    stats = simulator.run_campaign(n_rounds)
    return service, simulator, recorder, stats


@pytest.fixture(scope="module")
def campaigns():
    n_rounds = 12
    legacy_sim, legacy_rec, legacy_stats = legacy_campaign(n_rounds)
    service, facade_sim, facade_rec, facade_stats = facade_campaign(n_rounds)
    return dict(legacy=(legacy_sim, legacy_rec, legacy_stats),
                facade=(service, facade_sim, facade_rec, facade_stats))


class TestHostileCampaignEquality:
    def test_round_transcripts_bit_identical(self, campaigns):
        __, legacy_rec, __ = campaigns["legacy"]
        *__, facade_rec, __ = campaigns["facade"]
        assert len(legacy_rec.frames) == len(facade_rec.frames)
        assert legacy_rec.frames == facade_rec.frames  # bytes, in order

    def test_campaign_statistics_identical(self, campaigns):
        *__, legacy_stats = campaigns["legacy"]
        *__, facade_stats = campaigns["facade"]
        legacy_json = legacy_stats.to_json()
        facade_json = facade_stats.to_json()
        # Wall-clock fields are the only legitimate difference.
        for volatile in ("elapsed_s", "auths_per_sec"):
            legacy_json.pop(volatile)
            facade_json.pop(volatile)
        assert legacy_json == facade_json
        assert facade_stats.desynchronized == 0

    def test_final_fleet_state_bit_identical(self, campaigns):
        legacy_sim, *__ = campaigns["legacy"]
        __, facade_sim, *__ = campaigns["facade"]
        assert sorted(legacy_sim.devices) == sorted(facade_sim.devices)
        for device_id in sorted(legacy_sim.devices):
            legacy_record = legacy_sim.registry.record(device_id)
            facade_record = facade_sim.registry.record(device_id)
            assert legacy_record.sessions == facade_record.sessions
            assert np.array_equal(legacy_record.current_response,
                                  facade_record.current_response)
            assert np.array_equal(
                legacy_sim.devices[device_id].current_response,
                facade_sim.devices[device_id].current_response,
            )

    def test_every_observed_message_round_trips_the_codec(self, campaigns):
        from repro.fleet.verifier import AuthResponse
        *__, facade_rec, __ = campaigns["facade"]
        assert facade_rec.frames, "hostile campaign produced no traffic"
        for device_id, body, tag in facade_rec.frames:
            message = AuthResponse(device_id, body, tag)
            frame = encode_message(message)
            assert decode_message(frame) == message
            assert encode_message(decode_message(frame)) == frame


class TestWireRoundMatchesInProcessRound:
    def test_codec_layer_does_not_change_protocol_bytes(self):
        """One round through verify_round_wire vs authenticate_batch."""
        plain = AuthService.provision(FleetConfig(
            n_devices=8, seed=77, puf=FAST_PUF))
        wired = AuthService.provision(FleetConfig(
            n_devices=8, seed=77, puf=FAST_PUF))

        # In-process round.
        report_plain = plain.authenticate_batch()

        # The same round, every message crossing the codec boundary.
        nonces, challenge_frames = wired.open_round_wire()
        response_frames = []
        for device in wired.device_list:
            challenge = decode_message(challenge_frames[device.device_id])
            response_frames.append(
                encode_message(device.respond(challenge.nonce)))
        report_frame, confirmation_frames = wired.verify_round_wire(
            response_frames, nonces)
        report_wired = decode_message(report_frame)
        for device in wired.device_list:
            confirmation = decode_message(
                confirmation_frames[device.device_id])
            assert isinstance(confirmation, AuthConfirmation)
            device.confirm(confirmation.mac, nonces[device.device_id])
            wired.verifier.finalize(device.device_id)

        # Same confirmations byte for byte, same rolled secrets.
        assert report_plain.confirmations == report_wired.confirmations
        for legacy, modern in zip(plain.device_list, wired.device_list):
            assert np.array_equal(legacy.current_response,
                                  modern.current_response)
