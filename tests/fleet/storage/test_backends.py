"""Registry storage backends: contract, equivalence, and durability.

The memory backend is the reference (bit-for-bit the historical
``FleetRegistry`` behavior); every test here that runs parametrized
over both backends pins the sharded out-of-core store against it —
same records, same draws, same accounting, same state captures.  The
sharded-only tests cover what the memory backend has no analogue for:
WAL crash replay, LRU residency bounds, incremental checkpoints with
generation-guarded pointer states, and compaction.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.registry import (
    STATE_FORMAT,
    STATE_VERSION,
    DeviceRecord,
    FleetRegistry,
)
from repro.fleet.storage import ShardedFileBackend, make_backend
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind

FIXTURES = Path(__file__).parent.parent / "fixtures"

CHALLENGE_BITS = 24
RESPONSE_BITS = 8
N_POOL = 16


class PoolPUF:
    """Deterministic fake PUF: cheap enough for storage-layer tests."""

    challenge_bits = CHALLENGE_BITS
    response_bits = RESPONSE_BITS

    def __init__(self, salt: int):
        self.salt = salt

    def evaluate_batch(self, challenges, measurement=0):
        rng = np.random.default_rng(
            self.salt * 100_003 + int(challenges.sum()) + measurement)
        return rng.integers(0, 2, size=(len(challenges), RESPONSE_BITS),
                            dtype=np.uint8)


class PoolDevice:
    def __init__(self, index: int):
        self.device_id = f"dev-{index:05d}"
        self.puf = PoolPUF(index)
        self.current_response = np.asarray(
            np.arange(RESPONSE_BITS) % 2, dtype=np.uint8)
        self.firmware_hash = bytes([index % 256]) * 32
        self.clock_count = 1000 + index


def fresh_registry(storage_name, tmp_path, **kwargs):
    if storage_name == "memory":
        return FleetRegistry()
    return FleetRegistry(make_backend(
        "sharded", root=str(tmp_path / "shards"), **kwargs))


def enroll_some(registry, n=12, n_spot_crps=N_POOL, seed=5):
    return registry.enroll_fleet([PoolDevice(i) for i in range(n)],
                                 n_spot_crps=n_spot_crps, seed=seed)


def assert_records_equal(a: DeviceRecord, b: DeviceRecord):
    assert a.device_id == b.device_id
    assert a.challenge_bits == b.challenge_bits
    assert a.sessions == b.sessions
    assert a.firmware_hash == b.firmware_hash
    assert a.expected_clock_count == b.expected_clock_count
    for field in ("current_response", "crp_challenges",
                  "crp_responses", "crp_used"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.fixture(params=["memory", "sharded"])
def registry(request, tmp_path):
    registry = fresh_registry(request.param, tmp_path)
    yield registry
    registry.close()


class TestBackendContract:
    def test_enroll_get_len_contains(self, registry):
        records = enroll_some(registry, 6)
        assert len(registry) == 6
        assert all(r.device_id in registry for r in records)
        assert "dev-99999" not in registry
        fetched = registry.record("dev-00003")
        assert_records_equal(fetched, records[3])

    def test_duplicate_enroll_rejected(self, registry):
        enroll_some(registry, 3)
        with pytest.raises(ValueError, match="already enrolled"):
            registry.enroll(PoolDevice(1), n_spot_crps=4, seed=5)

    def test_missing_device_uniform_failure(self, registry):
        with pytest.raises(AuthenticationFailure) as excinfo:
            registry.record("dev-absent")
        assert excinfo.value.kind is FailureKind.NOT_ENROLLED

    def test_revoke_returns_record_and_forgets(self, registry):
        enroll_some(registry, 4)
        revoked = registry.revoke("dev-00002")
        assert revoked.device_id == "dev-00002"
        assert "dev-00002" not in registry
        assert len(registry) == 3
        with pytest.raises(AuthenticationFailure):
            registry.revoke("dev-00002")

    def test_roll_advances_response_and_sessions(self, registry):
        enroll_some(registry, 2)
        new = np.asarray([1] * RESPONSE_BITS, dtype=np.uint8)
        registry.roll("dev-00000", new)
        record = registry.record("dev-00000")
        assert record.sessions == 1
        assert np.array_equal(record.current_response, new)

    def test_iteration_matches_device_ids(self, registry):
        records = enroll_some(registry, 5)
        ids = [r.device_id for r in records]
        assert registry.device_ids() == ids
        assert list(registry.iter_device_ids()) == ids
        assert [r.device_id for r in registry.iter_records()] == ids

    def test_draw_spot_indices_burns(self, registry):
        enroll_some(registry, 2)
        rng = np.random.default_rng(11)
        first = registry.draw_spot_indices("dev-00000", 6, rng)
        assert first.size == 6
        record = registry.record("dev-00000")
        assert record.crp_used[first].all()
        assert record.spot_crps_left == N_POOL - 6
        second = registry.draw_spot_indices("dev-00000", 6, rng)
        assert not np.intersect1d(first, second).size
        with pytest.raises(AuthenticationFailure) as excinfo:
            registry.draw_spot_indices("dev-00000", 6, rng)
        assert excinfo.value.kind is FailureKind.POOL_EXHAUSTED

    def test_storage_bytes_tracks_cold_recount(self, registry):
        """The running total must match an O(n) recount at every step."""
        def recount():
            return sum(r.storage_bytes for r in registry.iter_records())

        assert registry.storage_bytes == 0
        enroll_some(registry, 8)
        assert registry.storage_bytes == recount()
        registry.roll("dev-00001",
                      np.zeros(RESPONSE_BITS, dtype=np.uint8))
        assert registry.storage_bytes == recount()
        registry.revoke("dev-00004")
        assert registry.storage_bytes == recount()
        registry.enroll(PoolDevice(80), n_spot_crps=N_POOL, seed=5)
        assert registry.storage_bytes == recount()

    def test_transaction_scope_is_reentrant(self, registry):
        enroll_some(registry, 3)
        with registry.transaction():
            registry.roll("dev-00000",
                          np.ones(RESPONSE_BITS, dtype=np.uint8))
            with registry.transaction():
                registry.roll("dev-00001",
                              np.ones(RESPONSE_BITS, dtype=np.uint8))
        assert registry.record("dev-00000").sessions == 1
        assert registry.record("dev-00001").sessions == 1


class TestCrossBackendEquivalence:
    def test_same_records_same_draws_same_capture(self, tmp_path):
        mem = fresh_registry("memory", tmp_path)
        shd = fresh_registry("sharded", tmp_path,
                             n_shards=5, resident_records=3)
        for registry in (mem, shd):
            enroll_some(registry, 10)
        rng_mem, rng_shd = (np.random.default_rng(3),
                            np.random.default_rng(3))
        for step in range(20):
            device_id = f"dev-{step % 10:05d}"
            assert np.array_equal(
                mem.draw_spot_indices(device_id, 2, rng_mem),
                shd.draw_spot_indices(device_id, 2, rng_shd))
            roll = np.asarray((np.arange(RESPONSE_BITS) + step) % 2,
                              dtype=np.uint8)
            mem.roll(device_id, roll)
            shd.roll(device_id, roll)
        mem.revoke("dev-00007")
        shd.revoke("dev-00007")
        for device_id in mem.iter_device_ids():
            assert_records_equal(mem.record(device_id),
                                 shd.record(device_id))
        assert mem.storage_bytes == shd.storage_bytes
        # Forced-monolithic captures are byte-identical.
        mem_state = mem.to_state()
        shd_state = shd.to_state(full=True)
        assert mem_state["manifest"] == shd_state["manifest"]
        assert mem_state["arrays"].keys() == shd_state["arrays"].keys()
        for key in mem_state["arrays"]:
            assert np.array_equal(mem_state["arrays"][key],
                                  shd_state["arrays"][key]), key
        shd.close()

    def test_monolithic_state_loads_into_either_backend(self, tmp_path):
        source = fresh_registry("memory", tmp_path)
        enroll_some(source, 6)
        source.roll("dev-00002", np.ones(RESPONSE_BITS, dtype=np.uint8))
        state = source.to_state()
        for target in (None, make_backend("sharded", n_shards=3)):
            restored = FleetRegistry.from_state(state, backend=target)
            for device_id in source.iter_device_ids():
                assert_records_equal(source.record(device_id),
                                     restored.record(device_id))
            assert restored.storage_bytes == source.storage_bytes
            restored.close()


class TestShardedDurability:
    def make(self, tmp_path, **kwargs):
        kwargs.setdefault("n_shards", 4)
        return FleetRegistry(ShardedFileBackend(
            str(tmp_path / "shards"), **kwargs))

    def test_crash_replay_recovers_unsnapshotted_mutations(self, tmp_path):
        registry = self.make(tmp_path)
        enroll_some(registry, 8)
        registry.to_state()                       # checkpoint
        rng = np.random.default_rng(2)
        burned = registry.draw_spot_indices("dev-00003", 4, rng)
        registry.roll("dev-00005", np.ones(RESPONSE_BITS, dtype=np.uint8))
        registry.revoke("dev-00006")
        registry.enroll(PoolDevice(90), n_spot_crps=N_POOL, seed=5)
        expected = {device_id: registry.record(device_id)
                    for device_id in registry.iter_device_ids()}
        # Crash: drop the backend without checkpointing, reopen the root.
        del registry
        recovered = self.make(tmp_path)
        assert sorted(recovered.iter_device_ids()) == sorted(expected)
        assert recovered.record("dev-00003").crp_used[burned].all()
        assert recovered.record("dev-00005").sessions == 1
        assert "dev-00006" not in recovered
        for device_id, record in expected.items():
            assert_records_equal(record, recovered.record(device_id))
        assert recovered.storage_bytes == \
            sum(r.storage_bytes for r in recovered.iter_records())
        recovered.close()

    def test_pointer_restore_discards_post_snapshot_journal(self, tmp_path):
        registry = self.make(tmp_path)
        enroll_some(registry, 6)
        state = registry.to_state()
        assert state["manifest"]["format"] == STATE_FORMAT
        assert state["manifest"]["version"] == 2
        assert state["arrays"] == {}
        registry.roll("dev-00000", np.ones(RESPONSE_BITS, dtype=np.uint8))
        registry.backend.close()
        restored = FleetRegistry.from_state(state)
        assert restored.record("dev-00000").sessions == 0
        restored.close()

    def test_generation_guard_rejects_superseded_pointer(self, tmp_path):
        registry = self.make(tmp_path)
        enroll_some(registry, 4)
        stale = registry.to_state()
        registry.roll("dev-00000", np.ones(RESPONSE_BITS, dtype=np.uint8))
        registry.to_state()                       # generation moves on
        registry.backend.close()
        with pytest.raises(ValueError, match="superseded"):
            FleetRegistry.from_state(stale)

    def test_checkpoint_is_incremental_and_idempotent(self, tmp_path):
        registry = self.make(tmp_path)
        backend = registry.backend
        enroll_some(registry, 8)
        first = backend.checkpoint()
        assert backend.checkpoint() == first      # nothing dirty: no-op
        registry.roll("dev-00001", np.ones(RESPONSE_BITS, dtype=np.uint8))
        assert backend.checkpoint() == first + 1
        # The WAL is truncated by a checkpoint.
        assert os.path.getsize(os.path.join(backend.root, "wal.log")) == 0
        registry.close()

    def test_lru_bounds_resident_records(self, tmp_path):
        registry = self.make(tmp_path, resident_records=3)
        backend = registry.backend
        enroll_some(registry, 12)
        backend.checkpoint()
        for device_id in registry.iter_device_ids():
            registry.record(device_id)
            assert backend.resident_count <= 3
        assert backend.stats["evictions"] > 0
        # Dirty records stay pinned past the cap until the next
        # checkpoint flushes them.
        with registry.transaction():
            for device_id in list(registry.iter_device_ids())[:6]:
                registry.roll(device_id,
                              np.ones(RESPONSE_BITS, dtype=np.uint8))
        assert backend.resident_count >= 6
        backend.checkpoint()
        assert backend.resident_count <= 3
        registry.close()

    def test_shrinking_resident_cap_evicts_immediately(self, tmp_path):
        registry = self.make(tmp_path, resident_records=8)
        backend = registry.backend
        enroll_some(registry, 8)
        backend.checkpoint()
        for device_id in registry.iter_device_ids():
            registry.record(device_id)
        assert backend.resident_count == 8
        backend.resident_records = 2
        assert backend.resident_records == 2
        assert backend.resident_count <= 2     # no fault needed to trim
        with pytest.raises(ValueError, match="resident_records"):
            backend.resident_records = 0
        registry.close()

    def test_pool_pages_are_lazy(self, tmp_path):
        registry = self.make(tmp_path, resident_records=2)
        enroll_some(registry, 6)
        backend = registry.backend
        backend.checkpoint()
        faults_before = backend.stats["faults"]
        record = registry.record("dev-00000")
        assert backend.stats["faults"] == faults_before + 1
        # Pool arrays come back as read-only mmap views, not copies.
        assert not record.crp_challenges.flags.writeable
        assert not record.crp_responses.flags.writeable
        registry.close()

    def test_compact_reclaims_revoked_bytes(self, tmp_path):
        registry = self.make(tmp_path, n_shards=2)
        enroll_some(registry, 10)
        registry.to_state()
        before = {r.device_id: r for r in registry.iter_records()}
        for index in (1, 3, 5, 7):
            registry.revoke(f"dev-{index:05d}")
            before.pop(f"dev-{index:05d}")

        def pool_file_bytes():
            backend = registry.backend
            return sum(
                os.path.getsize(os.path.join(backend.root, "shards", name))
                for name in os.listdir(os.path.join(backend.root, "shards"))
                if name.startswith("pool-"))

        stale = pool_file_bytes()
        registry.backend.compact()
        assert pool_file_bytes() < stale
        for device_id, record in before.items():
            assert_records_equal(record, registry.record(device_id))
        registry.close()

    def test_put_rejects_rolled_response_resize(self, tmp_path):
        registry = self.make(tmp_path)
        enroll_some(registry, 1)
        with pytest.raises(ValueError, match="fixed-slot"):
            registry.roll("dev-00000", np.ones(4, dtype=np.uint8))
        registry.close()


class TestLegacyArchive:
    def test_v04_fixture_still_loads(self):
        """The checked-in 0.4-era monolithic npz opens unchanged."""
        registry = FleetRegistry.load(
            str(FIXTURES / "legacy_registry_v04.npz"))
        assert registry.backend.name == "memory"
        assert len(registry) == 4
        assert registry.device_ids() == [f"dev-{i:06d}" for i in range(4)]
        for record in registry.iter_records():
            assert record.sessions == 1           # one committed round
            assert record.crp_challenges.shape == (8, 32)
            assert record.spot_crps_left == 8
        assert registry.storage_bytes == \
            sum(r.storage_bytes for r in registry.iter_records())

    def test_v04_fixture_migrates_to_sharded(self, tmp_path):
        reference = FleetRegistry.load(
            str(FIXTURES / "legacy_registry_v04.npz"))
        migrated = FleetRegistry.load(
            str(FIXTURES / "legacy_registry_v04.npz"),
            backend=make_backend("sharded", root=str(tmp_path / "m")))
        assert migrated.backend.name == "sharded"
        for device_id in reference.iter_device_ids():
            assert_records_equal(reference.record(device_id),
                                 migrated.record(device_id))
        # And back out again through the portable archive.
        path = migrated.save(str(tmp_path / "back.npz"), full=True)
        round_tripped = FleetRegistry.load(path)
        for device_id in reference.iter_device_ids():
            assert_records_equal(reference.record(device_id),
                                 round_tripped.record(device_id))
        migrated.close()

    def test_state_version_constants_frozen(self):
        assert STATE_FORMAT == "fleet-registry"
        assert STATE_VERSION == 1
