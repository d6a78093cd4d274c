"""Equivalence suite for the fleet-stacked execution plane.

Every die's output from the stacked pass must match (rtol 1e-9) both the
per-die :class:`CompiledMesh` and the uncompiled loop path of
:meth:`PassiveScrambler.propagate`, including a die-count-1 fleet and a
ragged-environment fleet (per-die operating points).  The bit-slot
readout is pinned bit for bit against the original advanced-index gather
(:func:`reference_power_at`), and the time-domain taps it reads are
checked to be the only kernel a plane builds, bit for bit as eagerly.
"""

import numpy as np
import pytest

from repro.photonics import fleet_engine
from repro.photonics.engine import CompiledMesh, stacked_ring_scan
from repro.photonics.fleet_engine import CompiledFleet
from repro.photonics.mesh import PassiveScrambler
from repro.photonics.variation import OpticalEnvironment, VariationModel
from repro.puf.base import NOMINAL_ENV, PUFEnvironment
from repro.puf.photonic_strong import PhotonicStrongPUF, photonic_strong_family

RTOL = 1e-9
N_DIES = 5


@pytest.fixture(scope="module")
def scramblers():
    model = VariationModel()
    return [
        PassiveScrambler(n_channels=8, n_stages=4, design_seed=3,
                         variation=model.sample_die(3, die))
        for die in range(N_DIES)
    ]


@pytest.fixture(scope="module")
def fleet(scramblers):
    return CompiledFleet.compile(scramblers)


@pytest.fixture(scope="module")
def meshes(scramblers):
    return [CompiledMesh.compile(s) for s in scramblers]


def random_fields(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def eager_kernel(fleet, launch, n_samples):
    """The complex taps ``h`` built the original, eager way."""
    impulse = np.zeros((fleet.n_dies, 1, fleet.n_channels, n_samples),
                       dtype=np.complex128)
    impulse[:, 0, launch, 0] = 1.0
    return fleet.propagate(impulse)[:, 0]


def reference_power_at(fleet, waves, samples, launch, dies=None):
    """The original bit-slot readout: one 2-D advanced-index gather.

    Left-pads each drive so every lag index is in range, then gathers
    every die's ``(S, batch*T)`` lag matrix at once — column ``(b, j)``
    is drive ``b`` reversed around sample ``t_j`` — and runs the same
    two real GEMMs on the fleet's cached taps (pinned to
    :func:`eager_kernel` by ``TestSpectraOnDemand``), tiled over dies by
    the module's original tile budget.  The satellite micro-bench times
    the readout against this copy.
    """
    waves = np.asarray(waves, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.intp)
    indices = (np.arange(fleet.n_dies) if dies is None
               else np.asarray(dies, dtype=np.intp))
    n_sel, batch, n_samples = waves.shape
    h_real, h_imag = fleet.impulse_response(launch, n_samples)
    h_real, h_imag = h_real[indices], h_imag[indices]
    n_sel_samples = samples.size
    lag_index = (samples[np.newaxis, :] + (n_samples - 1)
                 - np.arange(n_samples)[:, np.newaxis])
    batch_index = np.repeat(np.arange(batch), n_sel_samples)
    sample_index = np.tile(lag_index, (1, batch))
    out = np.empty((n_sel, batch, fleet.n_channels, n_sel_samples))
    per_die = batch * n_samples * n_sel_samples * 8
    die_tile = max(1, (4 * fleet_engine._TILE_TARGET_BYTES)
                   // max(1, per_die))
    for f0 in range(0, n_sel, die_tile):
        f1 = min(f0 + die_tile, n_sel)
        padded = np.concatenate(
            [np.zeros((f1 - f0, batch, n_samples - 1)), waves[f0:f1]],
            axis=-1,
        )
        lag = padded[:, batch_index, sample_index]
        y_real = np.matmul(h_real[f0:f1], lag)
        y_imag = np.matmul(h_imag[f0:f1], lag)
        power = y_real * y_real + y_imag * y_imag
        out[f0:f1] = power.reshape(
            f1 - f0, fleet.n_channels, batch, n_sel_samples
        ).transpose(0, 2, 1, 3)
    return out


class TestStackedCompilation:
    def test_operators_match_per_die_compile(self, fleet, meshes):
        for die, mesh in enumerate(meshes):
            assert np.allclose(fleet.stage_matrices[die], mesh.stage_matrices,
                               rtol=1e-12, atol=1e-15)
            assert np.array_equal(fleet.ring_b[die], mesh.ring_b)
            assert np.array_equal(fleet.ring_a[die], mesh.ring_a)
            assert np.allclose(fleet.static_matrix[die], mesh.static_matrix,
                               rtol=1e-12, atol=1e-15)

    def test_from_meshes_matches_batched_compile(self, fleet, meshes):
        stacked = CompiledFleet.from_meshes(meshes)
        assert np.allclose(stacked.stage_matrices, fleet.stage_matrices,
                           rtol=1e-12, atol=1e-15)
        assert np.array_equal(stacked.ring_b, fleet.ring_b)

    def test_mesh_view_shares_operators(self, fleet, meshes):
        view = fleet.mesh(2)
        fields = random_fields((3, 8, 64))
        assert np.allclose(view.propagate(fields),
                           meshes[2].propagate(fields),
                           rtol=RTOL, atol=1e-12)

    def test_heterogeneous_geometry_rejected(self, scramblers):
        odd = PassiveScrambler(n_channels=4, n_stages=4, design_seed=3)
        with pytest.raises(ValueError):
            CompiledFleet.compile([scramblers[0], odd])
        with pytest.raises(ValueError):
            CompiledFleet.compile(
                [scramblers[0],
                 PassiveScrambler(n_channels=8, n_stages=4, design_seed=9)]
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            CompiledFleet.compile([])

    def test_memory_accounting(self, fleet):
        total = fleet.memory_footprint_bytes()
        assert total > 0
        assert fleet.per_die_bytes() == total // N_DIES
        h_real, h_imag = fleet.impulse_response(4, 64)
        assert fleet.memory_footprint_bytes() == (
            total + h_real.nbytes + h_imag.nbytes
        )


class TestStackedPropagation:
    def test_matches_compiled_and_loop_paths(self, fleet, scramblers, meshes):
        fields = random_fields((N_DIES, 3, 8, 83), seed=1)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            compiled = meshes[die].propagate(fields[die])
            loop = scrambler.propagate(fields[die])
            assert np.allclose(stacked[die], compiled, rtol=RTOL, atol=1e-12)
            assert np.allclose(stacked[die], loop, rtol=RTOL, atol=1e-12)

    def test_single_die_fleet(self, scramblers):
        fleet = CompiledFleet.compile(scramblers[:1])
        fields = random_fields((1, 2, 8, 40), seed=2)
        reference = scramblers[0].propagate(fields[0])
        assert np.allclose(fleet.propagate(fields)[0], reference,
                           rtol=RTOL, atol=1e-12)

    def test_ragged_environments(self, scramblers):
        envs = [OpticalEnvironment(temperature_c=25.0 + 7.0 * die)
                for die in range(N_DIES)]
        fleet = CompiledFleet.compile(scramblers, envs=envs)
        fields = random_fields((N_DIES, 2, 8, 48), seed=3)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            loop = scrambler.propagate(fields[die], env=envs[die])
            assert np.allclose(stacked[die], loop, rtol=RTOL, atol=1e-12)
        nominal = CompiledFleet.compile(scramblers).propagate(fields)
        assert not np.allclose(stacked[1:], nominal[1:])

    def test_batchless_input_squeezes(self, fleet, meshes):
        fields = random_fields((N_DIES, 8, 36), seed=4)
        stacked = fleet.propagate(fields)
        assert stacked.shape == (N_DIES, 8, 36)
        for die, mesh in enumerate(meshes):
            assert np.allclose(stacked[die], mesh.propagate(fields[die]),
                               rtol=RTOL, atol=1e-12)

    def test_die_subset(self, fleet, meshes):
        subset = [3, 0]
        fields = random_fields((2, 2, 8, 44), seed=5)
        stacked = fleet.propagate(fields, dies=subset)
        for position, die in enumerate(subset):
            assert np.allclose(stacked[position],
                               meshes[die].propagate(fields[position]),
                               rtol=RTOL, atol=1e-12)

    def test_without_memory_uses_static_matrices(self):
        model = VariationModel()
        scramblers = [
            PassiveScrambler(8, 3, 11, model.sample_die(11, die),
                             with_memory=False)
            for die in range(3)
        ]
        fleet = CompiledFleet.compile(scramblers)
        fields = random_fields((3, 2, 8, 24), seed=6)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            assert np.allclose(stacked[die], scrambler.propagate(fields[die]),
                               rtol=RTOL, atol=1e-12)

    def test_shape_validation(self, fleet):
        with pytest.raises(ValueError):
            fleet.propagate(random_fields((2, 1, 8, 16)))   # wrong die count
        with pytest.raises(ValueError):
            fleet.propagate(random_fields((N_DIES, 1, 5, 16)))  # channels


class TestResponseKernels:
    def test_response_power_at_selected_samples(self, fleet):
        rng = np.random.default_rng(8)
        waves = rng.standard_normal((N_DIES, 3, 60))
        sparse = np.zeros((N_DIES, 3, 8, 60), dtype=np.complex128)
        sparse[:, :, 4, :] = waves
        reference = np.abs(fleet.propagate(sparse)) ** 2
        samples = np.array([0, 13, 27, 58, 59])
        power = fleet.response_power_at(waves, samples, launch=4)
        assert np.allclose(power, reference[..., samples],
                           rtol=RTOL, atol=1e-12)

    def test_kernel_cache_reused(self, fleet):
        first = fleet.impulse_response(4, 60)
        again = fleet.impulse_response(4, 60)
        assert first[0] is again[0] and first[1] is again[1]
        other = fleet.impulse_response(4, 72)
        assert other[0] is not first[0]

    def test_kernel_subset_dies(self, fleet, meshes):
        rng = np.random.default_rng(9)
        waves = rng.standard_normal((2, 1, 52))
        subset = [4, 2]
        out = fleet.response_power_at(waves, np.arange(52), launch=4,
                                      dies=subset)
        for position, die in enumerate(subset):
            sparse = np.zeros((1, 8, 52), dtype=np.complex128)
            sparse[:, 4, :] = waves[position]
            reference = np.abs(meshes[die].propagate(sparse)) ** 2
            assert np.allclose(out[position], reference,
                               rtol=RTOL, atol=1e-12)


TAIL = np.arange(40, 60)                     # the protocol's shape
SCATTERED = np.array([29, 0, 1, 2, 3, 17, 18, 41, 41, 5])


class TestReadoutEquivalence:
    """``response_power_at`` bit for bit against the original gather."""

    @pytest.mark.parametrize("batch", [1, 17])
    @pytest.mark.parametrize("samples", [TAIL, SCATTERED, np.array([0])],
                             ids=["tail", "scattered", "single"])
    @pytest.mark.parametrize("dies", [None, [3, 0, 3, 4, 1, 0]],
                             ids=["all", "unsorted-repeated"])
    def test_matches_reference_gather(self, fleet, batch, samples, dies):
        n_sel = N_DIES if dies is None else len(dies)
        waves = np.random.default_rng(batch).standard_normal(
            (n_sel, batch, 60)
        )
        expected = reference_power_at(fleet, waves, samples, 4, dies=dies)
        got = fleet.response_power_at(waves, samples, launch=4, dies=dies)
        assert got.shape == (n_sel, batch, 8, samples.size)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("batch", [1, 17])
    def test_multi_tile_pass(self, fleet, monkeypatch, batch):
        waves = np.random.default_rng(5).standard_normal((N_DIES, batch, 60))
        # The readout tiles a quarter of the budget: two dies per tile,
        # so tiles of 2, 2 and a last tile of 1.
        per_die = batch * 60 * TAIL.size * 8
        monkeypatch.setattr(fleet_engine, "_TILE_TARGET_BYTES", 8 * per_die)
        expected = reference_power_at(fleet, waves, TAIL, 4)
        assert np.array_equal(fleet.response_power_at(waves, TAIL, 4),
                              expected)

    def test_empty_selection(self, fleet):
        waves = np.zeros((0, 3, 60))
        out = fleet.response_power_at(waves, TAIL, launch=4, dies=[])
        assert out.shape == (0, 3, 8, TAIL.size)


class TestReadoutSampleValidation:
    """Out-of-range bit-slot samples raise instead of wrapping."""

    @pytest.mark.parametrize("samples", [[-5, 3], [60], [3, 60], [[3, 4]],
                                         [3.0, 4.0]],
                             ids=["negative", "end", "past-end", "2-d",
                                  "float"])
    def test_rejected(self, fleet, samples):
        waves = np.zeros((N_DIES, 1, 60))
        with pytest.raises(ValueError, match="samples"):
            fleet.response_power_at(waves, samples, launch=4)

    def test_edges_accepted(self, fleet):
        waves = np.random.default_rng(6).standard_normal((N_DIES, 1, 60))
        out = fleet.response_power_at(waves, [0, 59], launch=4)
        assert out.shape == (N_DIES, 1, 8, 2)


class TestSpectraOnDemand:
    """Every readout builds the time-domain taps only, never spectra."""

    @pytest.fixture
    def fresh(self, scramblers):
        return CompiledFleet.compile(scramblers)

    def test_readout_builds_no_spectra(self, fresh):
        operators = fresh.memory_footprint_bytes()
        waves = np.random.default_rng(7).standard_normal((N_DIES, 2, 60))
        fresh.response_power_at(waves, TAIL, launch=4)
        fresh.response_power_at(waves, np.arange(60), launch=4)
        h_real, h_imag = fresh.impulse_response(4, 60)
        assert list(fresh._kernel_cache) == [(4, 60)]
        assert fresh.memory_footprint_bytes() == (
            operators + h_real.nbytes + h_imag.nbytes
        )

    def test_taps_match_eager(self, fresh, fleet):
        h = eager_kernel(fleet, 4, 60)
        h_real, h_imag = fresh.impulse_response(4, 60)
        assert h_real.flags.c_contiguous and h_imag.flags.c_contiguous
        assert np.array_equal(h_real, h.real)
        assert np.array_equal(h_imag, h.imag)


CONFIG = dict(challenge_bits=16, n_stages=4, response_bits=8)


class TestPlaneSpectraAndMemo:
    """``PhotonicFleet``: one kernel, no spectra; one plane per env."""

    @pytest.fixture
    def plane(self):
        return photonic_strong_family(6, seed=21, **CONFIG).stack()

    @staticmethod
    def challenges(plane, batch=2, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, (len(plane), batch, 16), dtype=np.uint8)

    def test_round_caches_no_spectra(self, plane):
        plane.evaluate(self.challenges(plane))
        fleet = plane.compiled_fleet()
        served = plane.memory_footprint_bytes()
        plane.slot_energies(self.challenges(plane, seed=1))
        assert len(fleet._kernel_cache) == 1
        kernels = sum(h_real.nbytes + h_imag.nbytes
                      for h_real, h_imag in fleet._kernel_cache.values())
        operators = (fleet.stage_matrices.nbytes + fleet.ring_b.nbytes
                     + fleet.ring_a.nbytes + fleet.static_matrix.nbytes)
        assert plane.memory_footprint_bytes() == served == operators + kernels

    def test_energy_maps_on_demand_match_eager(self, plane):
        eager = photonic_strong_family(6, seed=21, **CONFIG).stack()
        base = eager.base
        n_samples = base.modulator.n_samples(base.total_slots)
        eager.compiled_fleet().impulse_response(base.launch_channel,
                                                n_samples)
        challenges = self.challenges(plane, seed=1)
        plane.evaluate(challenges, measurements=0)
        assert np.array_equal(
            plane.slot_energies(challenges, measurements=3),
            eager.slot_energies(challenges, measurements=3),
        )

    def test_single_env_memo(self, plane):
        nominal = plane.compiled_fleet()
        assert plane.compiled_fleet(PUFEnvironment()) is nominal
        assert plane.compiled_fleet(NOMINAL_ENV.with_noise_scale(2.0)) \
            is nominal
        assert plane.fleet_cache_size() == 1
        hot = plane.compiled_fleet(PUFEnvironment(temperature_c=55.0))
        assert hot is not nominal
        assert plane.fleet_cache_size() == 2
        assert plane.compiled_fleet(PUFEnvironment(temperature_c=55.0)) \
            is hot
        assert plane.fleet_cache_size() == 2

    def test_per_die_lists_keyed_per_die(self, plane):
        nominal = plane.compiled_fleet()
        assert plane.compiled_fleet([NOMINAL_ENV] * len(plane)) is nominal
        hot = PUFEnvironment(temperature_c=55.0)
        ragged = [NOMINAL_ENV, hot] * (len(plane) // 2)
        mixed = plane.compiled_fleet(ragged)
        assert mixed is not nominal
        assert plane.compiled_fleet(list(ragged)) is mixed
        assert plane.fleet_cache_size() == 2

    def test_warm_round_rebuilds_no_environment_key(self, plane,
                                                    monkeypatch):
        challenges = self.challenges(plane)
        plane.evaluate(challenges[:3], dies=[4, 0, 2])
        calls = []
        original = PhotonicStrongPUF._optical_env

        def counting(puf, env):
            calls.append(puf.die_index)
            return original(puf, env)

        monkeypatch.setattr(PhotonicStrongPUF, "_optical_env", counting)
        plane.evaluate(challenges[:3], dies=[4, 0, 2])
        plane.evaluate(challenges)
        empty = plane.evaluate(challenges[:0], dies=[])
        assert empty.shape == (0, 2, CONFIG["response_bits"])
        assert calls == []


class TestStackedRingScan:
    def test_matches_lfilter_reference(self, scramblers):
        scrambler = scramblers[0]
        mesh = CompiledMesh.compile(scrambler)
        fields = random_fields((2, 8, 64), seed=10)
        stacked = stacked_ring_scan(
            fields,
            mesh.ring_b[1, :, 0][:, np.newaxis],
            -mesh.ring_b[1, :, -1][:, np.newaxis],
            -mesh.ring_a[1, :, -1][:, np.newaxis],
            mesh.delay_samples,
        )
        for channel in range(8):
            reference = scrambler._ring(1, channel).filter(
                fields[:, channel, :]
            )
            assert np.allclose(stacked[:, channel, :], reference,
                               rtol=RTOL, atol=1e-12)

    def test_unpadded_sample_count(self, scramblers):
        scrambler = scramblers[0]
        mesh = CompiledMesh.compile(scrambler)
        fields = random_fields((1, 8, 61), seed=11)   # 61 % 4 != 0
        stacked = stacked_ring_scan(
            fields,
            mesh.ring_b[0, :, 0][:, np.newaxis],
            -mesh.ring_b[0, :, -1][:, np.newaxis],
            -mesh.ring_a[0, :, -1][:, np.newaxis],
            mesh.delay_samples,
        )
        assert stacked.shape == (1, 8, 61)
        reference = scrambler._ring(0, 0).filter(fields[:, 0, :])
        assert np.allclose(stacked[:, 0, :], reference, rtol=RTOL, atol=1e-12)
