"""Sharded shared-memory executor vs the single-process fleet plane.

The shard layer must be *bit-identical* to ``CompiledFleet``: every
per-die operation in the engine is independent of how the die axis is
tiled, so partitioning the fleet across worker processes (operators
mapped out of shared memory) may change wall clock only, never a single
bit.  Also covered: ragged shard sizes, shard count 1, inline fallback
when no pool can start, and worker crash mid-campaign.
"""

import numpy as np
import pytest

from repro.photonics.shard import (
    ShardLayout,
    ShardedFleetExecutor,
    usable_cores,
)
from repro.puf.photonic_strong import photonic_strong_family

N_DIES = 7
CONFIG = dict(challenge_bits=16, n_stages=4, response_bits=8)


@pytest.fixture(scope="module")
def fleet():
    family = photonic_strong_family(N_DIES, seed=11, **CONFIG)
    return family.stack().compiled_fleet()


@pytest.fixture(scope="module")
def tensors(fleet):
    rng = np.random.default_rng(3)
    n_samples = 80
    waves = rng.normal(size=(N_DIES, 2, n_samples))
    fields = (rng.normal(size=(N_DIES, 2, fleet.n_channels, n_samples))
              + 1j * rng.normal(size=(N_DIES, 2, fleet.n_channels, n_samples)))
    samples = np.array([3, 17, 42, 79])
    return waves, fields, samples


class TestShardLayout:
    def test_balanced_ragged_sizes(self):
        layout = ShardLayout.balanced(10, 3)
        assert layout.slices() == [(0, 4), (4, 7), (7, 10)]
        assert layout.n_shards == 3

    def test_more_shards_than_dies_clamps(self):
        layout = ShardLayout.balanced(2, 8)
        assert layout.n_shards == 2
        assert layout.slices() == [(0, 1), (1, 2)]

    def test_owner(self):
        layout = ShardLayout.balanced(7, 3)
        owners = [layout.owner(die) for die in range(7)]
        assert owners == [0, 0, 0, 1, 1, 2, 2]
        with pytest.raises(ValueError):
            layout.owner(7)

    def test_split_selection_scattered(self):
        layout = ShardLayout.balanced(7, 3)
        groups = layout.split_selection([6, 0, 4, 1])
        # Shard order, positions point back into the selection.
        assert [shard for shard, __, __ in groups] == [0, 1, 2]
        by_shard = {shard: (positions.tolist(), local.tolist())
                    for shard, positions, local in groups}
        assert by_shard[0] == ([1, 3], [0, 1])
        assert by_shard[1] == ([2], [1])
        assert by_shard[2] == ([0], [1])

    def test_empty_shards_are_skipped(self):
        layout = ShardLayout.balanced(7, 3)
        groups = layout.split_selection([0, 1])
        assert [shard for shard, __, __ in groups] == [0]


class TestShardedBitwiseEquivalence:
    """Ragged 3-way sharding of 7 dies: every op, bit for bit."""

    @pytest.fixture(scope="class")
    def executor(self, fleet):
        executor = ShardedFleetExecutor(fleet, n_workers=3)
        yield executor
        executor.close()

    def test_pool_started(self, executor):
        assert executor.active
        assert executor.n_workers == 3
        assert executor.degraded_reason is None

    def test_response_power_bitwise(self, fleet, executor, tensors):
        waves, __, samples = tensors
        reference = fleet.response_power_at(waves, samples, launch=4)
        sharded = executor.response_power_at(waves, samples, launch=4)
        assert np.array_equal(reference, sharded)

    def test_modulated_response_bitwise(self, fleet, executor, tensors):
        waves, __, __ = tensors
        reference = fleet.modulated_response(waves, launch=4)
        sharded = executor.modulated_response(waves, launch=4)
        assert np.array_equal(reference, sharded)

    def test_propagate_bitwise(self, fleet, executor, tensors):
        __, fields, __ = tensors
        reference = fleet.propagate(fields)
        sharded = executor.propagate(fields)
        assert np.array_equal(reference, sharded)

    def test_scattered_subset_bitwise(self, fleet, executor, tensors):
        waves, __, samples = tensors
        selection = [5, 1, 3]
        reference = fleet.response_power_at(waves[:3], samples, 4,
                                            dies=selection)
        sharded = executor.response_power_at(waves[:3], samples, 4,
                                             dies=selection)
        assert np.array_equal(reference, sharded)

    def test_submission_chunks_cover_selection(self, fleet, executor,
                                               tensors):
        waves, __, samples = tensors
        reference = fleet.response_power_at(waves, samples, launch=4)
        submission = executor.submit_response_power(waves, samples, 4)
        covered = np.zeros(N_DIES, dtype=bool)
        for positions, chunk in submission:
            assert np.array_equal(chunk, reference[positions])
            covered[positions] = True
        assert covered.all()

    def test_submission_consumed_once(self, executor, tensors):
        waves, __, samples = tensors
        submission = executor.submit_response_power(waves, samples, 4)
        submission.result()
        with pytest.raises(RuntimeError):
            list(submission)

    def test_repeated_rounds_reuse_scratch(self, fleet, executor, tensors):
        waves, __, samples = tensors
        reference = fleet.response_power_at(waves, samples, launch=4)
        for __ in range(3):
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )

    def test_growing_rounds_churn_scratch_names(self, fleet, executor):
        """Many distinct block generations: workers must never close a
        block the in-flight command still views (old names age out of
        the per-worker cache instead)."""
        rng = np.random.default_rng(9)
        samples = np.array([3, 17])
        for batch in range(1, 14):  # > worker cache size generations
            waves = rng.normal(size=(N_DIES, batch, 80))
            reference = fleet.response_power_at(waves, samples, launch=4)
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )
        assert executor.active

    def test_shared_memory_footprint_accounts_kernels(self, executor):
        # Operators + the response kernel warmed by the tests above.
        assert executor.memory_footprint_bytes() > 0


class TestShardedKernelSharing:
    """The pool shares time-domain taps per round, spectra on demand."""

    @pytest.fixture
    def fresh(self):
        family = photonic_strong_family(N_DIES, seed=11, **CONFIG)
        return family.stack().compiled_fleet()

    def test_readout_shares_no_spectra(self, fresh, tensors):
        waves, __, samples = tensors
        operators = sum(getattr(fresh, key).nbytes for key in (
            "stage_matrices", "ring_b", "ring_a", "static_matrix"))
        with ShardedFleetExecutor(fresh, n_workers=2) as executor:
            executor.response_power_at(waves, samples, 4)
            h_real, h_imag = fresh.impulse_response(4, waves.shape[-1])
            assert executor.memory_footprint_bytes() == (
                operators + h_real.nbytes + h_imag.nbytes
            )
            assert fresh._spectra_cache == {}

    def test_spectra_shared_on_demand_bitwise(self, fleet, fresh, tensors):
        waves, __, samples = tensors
        fleet.response_kernel(4, waves.shape[-1])        # eager spectra
        reference = fleet.modulated_response(waves, launch=4)
        with ShardedFleetExecutor(fresh, n_workers=2) as executor:
            assert np.array_equal(
                executor.response_power_at(waves, samples, 4),
                fleet.response_power_at(waves, samples, launch=4),
            )
            assert np.array_equal(
                executor.modulated_response(waves, launch=4), reference
            )
            assert executor.active


class TestShardedSampleValidation:
    @pytest.mark.parametrize("samples", [[-5, 3], [80]],
                             ids=["negative", "end"])
    def test_rejected_before_dispatch(self, fleet, tensors, samples):
        waves, __, good = tensors
        with ShardedFleetExecutor(fleet, n_workers=2) as executor:
            with pytest.raises(ValueError, match="samples"):
                executor.submit_response_power(waves, samples, 4)
            # Nothing reached the workers: the pool still serves rounds.
            assert np.array_equal(
                executor.response_power_at(waves, good, 4),
                fleet.response_power_at(waves, good, launch=4),
            )
            assert executor.active


class TestShardCountOne:
    def test_single_worker_bitwise(self, fleet, tensors):
        waves, __, samples = tensors
        reference = fleet.response_power_at(waves, samples, launch=4)
        with ShardedFleetExecutor(fleet, n_workers=1) as executor:
            assert executor.n_workers == 1
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )


class TestFallback:
    def test_unstartable_pool_degrades_to_inline(self, fleet, tensors):
        waves, __, samples = tensors
        executor = ShardedFleetExecutor(fleet, n_workers=2,
                                        start_method="no-such-method")
        try:
            assert not executor.active
            assert executor.degraded_reason is not None
            reference = fleet.response_power_at(waves, samples, launch=4)
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )
        finally:
            executor.close()

    def test_worker_crash_mid_campaign(self, fleet, tensors):
        waves, __, samples = tensors
        reference = fleet.response_power_at(waves, samples, launch=4)
        executor = ShardedFleetExecutor(fleet, n_workers=3)
        try:
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )
            victim = executor._workers[1]
            victim.kill()
            victim.join()
            # The crashed shard is recomputed inline — same bits — and
            # the pool is retired for subsequent rounds.
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )
            assert not executor.active
            assert "unavailable" in executor.degraded_reason
            assert np.array_equal(
                reference, executor.response_power_at(waves, samples, 4)
            )
        finally:
            executor.close()

    def test_close_is_idempotent(self, fleet):
        executor = ShardedFleetExecutor(fleet, n_workers=2)
        executor.close()
        executor.close()


def test_usable_cores_positive():
    assert usable_cores() >= 1
