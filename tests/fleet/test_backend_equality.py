"""Cross-backend campaign equality: memory vs sharded, bit for bit.

The acceptance gate of the storage refactor: a 64-device hostile
campaign (drops, replay + tamper adversaries, one mid-campaign
incremental snapshot + crash/restore) driven over a
``ShardedFileBackend`` with a deliberately tiny resident set must be
*bit-identical* to the same campaign over the in-memory reference —
same round transcripts, same nonce/session outcomes, same campaign
statistics, same final registry and device state.  The storage layer
changes where bytes live, never which bytes exist.

(Extends the ``tests/service/test_transcript_equality.py`` pattern one
layer down: there the facade is pinned against the legacy entry
points; here the out-of-core backend is pinned against the facade's
reference storage.)
"""

import numpy as np
import pytest

from repro.fleet import (
    Adversary,
    FaultModel,
    ReplayAdversary,
    TamperAdversary,
    photonic_device_factory,
)
from repro.service import AuthService, FleetConfig

FLEET = 64
SEED = 2026
N_ROUNDS = 12
CRASH_AFTER = 6
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


def run_campaign(storage_name, tmp_path, n_spot_crps=0):
    config = FleetConfig(
        n_devices=FLEET, seed=SEED, n_spot_crps=n_spot_crps, puf=FAST_PUF,
        fault_model=HOSTILE["faults"], registry_backend=storage_name,
        **({"storage_root": str(tmp_path / storage_name),
            "resident_records": 8}
           if storage_name == "sharded" else {}),
    )
    service = AuthService.provision(config)
    pre_crash_backend = service.registry.backend
    recorder = TranscriptRecorder()
    simulator = service.simulator(
        adversaries=HOSTILE["adversaries_factory"]() + [recorder],
    )
    # One incremental snapshot + crash/restore in the middle of the
    # hostile campaign — on the sharded backend this exercises the
    # O(dirty) checkpoint, journal truncation, and generation-guarded
    # re-attach while rounds keep flowing on both sides of the crash.
    stats = simulator.run_campaign(N_ROUNDS, crash_after_round=CRASH_AFTER)
    return service, simulator, recorder, stats, pre_crash_backend


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    root = tmp_path_factory.mktemp("backend-equality")
    return {name: run_campaign(name, root)
            for name in ("memory", "sharded")}


class TestHostileCampaignBackendEquality:
    def test_backends_actually_differ(self, campaigns):
        memory_service = campaigns["memory"][0]
        assert memory_service.registry.backend.name == "memory"
        sharded_backend = campaigns["sharded"][4]
        assert sharded_backend.name == "sharded"
        # The tiny resident cap really forced out-of-core paging.
        assert sharded_backend.stats["evictions"] > 0
        assert sharded_backend.stats["checkpoints"] >= 1

    def test_round_transcripts_bit_identical(self, campaigns):
        memory_frames = campaigns["memory"][2].frames
        sharded_frames = campaigns["sharded"][2].frames
        assert memory_frames, "hostile campaign produced no traffic"
        assert memory_frames == sharded_frames  # bytes, in order

    def test_campaign_statistics_identical(self, campaigns):
        memory_stats = campaigns["memory"][3].to_json()
        sharded_stats = campaigns["sharded"][3].to_json()
        for volatile in ("elapsed_s", "auths_per_sec"):
            memory_stats.pop(volatile)
            sharded_stats.pop(volatile)
        assert memory_stats == sharded_stats
        assert campaigns["sharded"][3].desynchronized == 0
        assert campaigns["sharded"][3].restores == 1

    def test_final_fleet_state_bit_identical(self, campaigns):
        memory_sim = campaigns["memory"][1]
        sharded_sim = campaigns["sharded"][1]
        assert sorted(memory_sim.devices) == sorted(sharded_sim.devices)
        for device_id in sorted(memory_sim.devices):
            memory_record = memory_sim.registry.record(device_id)
            sharded_record = sharded_sim.registry.record(device_id)
            assert memory_record.sessions == sharded_record.sessions
            assert np.array_equal(memory_record.current_response,
                                  sharded_record.current_response)
            assert np.array_equal(
                memory_sim.devices[device_id].current_response,
                sharded_sim.devices[device_id].current_response,
            )
        assert memory_sim.registry.storage_bytes == \
            sharded_sim.registry.storage_bytes


class TestChurnAndSpotChecksAcrossBackends:
    """Enroll/revoke churn and spot-pool burns, same on both backends."""

    def run_churny(self, storage_name, tmp_path):
        config = FleetConfig(
            n_devices=16, seed=77, n_spot_crps=6, puf=FAST_PUF,
            registry_backend=storage_name,
            **({"storage_root": str(tmp_path / f"churn-{storage_name}"),
                "resident_records": 4}
               if storage_name == "sharded" else {}),
        )
        service = AuthService.provision(config)
        simulator = service.simulator(
            faults=FaultModel(confirmation_drop=0.1, enroll_prob=0.5,
                              revoke_prob=0.5, min_fleet_size=4,
                              max_retries=3),
            device_factory=photonic_device_factory(seed=77, **FAST_PUF),
        )
        stats = simulator.run_campaign(10, crash_after_round=5)
        spot = simulator.verifier.spot_check(
            [simulator.devices[device_id]
             for device_id in sorted(simulator.devices)][:4], k=2)
        return simulator, stats, spot

    def test_churn_campaign_identical(self, tmp_path):
        memory_sim, memory_stats, memory_spot = self.run_churny(
            "memory", tmp_path)
        sharded_sim, sharded_stats, sharded_spot = self.run_churny(
            "sharded", tmp_path)
        assert memory_stats.enrolled == sharded_stats.enrolled > 0
        assert memory_stats.revoked == sharded_stats.revoked > 0
        memory_json, sharded_json = (memory_stats.to_json(),
                                     sharded_stats.to_json())
        for volatile in ("elapsed_s", "auths_per_sec"):
            memory_json.pop(volatile)
            sharded_json.pop(volatile)
        assert memory_json == sharded_json
        assert sorted(memory_sim.devices) == sorted(sharded_sim.devices)
        for device_id in sorted(memory_sim.devices):
            memory_record = memory_sim.registry.record(device_id)
            sharded_record = sharded_sim.registry.record(device_id)
            assert memory_record.sessions == sharded_record.sessions
            assert np.array_equal(memory_record.current_response,
                                  sharded_record.current_response)
            assert np.array_equal(memory_record.crp_used,
                                  sharded_record.crp_used)
        assert memory_spot.device_ids == sharded_spot.device_ids
        assert np.array_equal(memory_spot.fractional_hd,
                              sharded_spot.fractional_hd)
        assert np.array_equal(memory_spot.accepted, sharded_spot.accepted)
