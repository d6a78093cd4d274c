"""Scalar-vs-compiled equivalence for the vectorized propagation engine."""

import numpy as np
import pytest

from repro.photonics.engine import environment_cache_key, stacked_ring_scan
from repro.photonics.mesh import PassiveScrambler, ScramblingMesh
from repro.photonics.sources import MachZehnderModulator
from repro.photonics.variation import OpticalEnvironment, VariationModel


RTOL = 1e-9


@pytest.fixture(scope="module")
def die():
    return VariationModel().sample_die(3, 2)


@pytest.fixture(scope="module")
def scrambler(die):
    return PassiveScrambler(n_channels=8, n_stages=5, design_seed=3, variation=die)


def random_fields(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ring_inputs(seed=7, shape=(3, 2, 6, 41), delay=5):
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeff_shape = (shape[0], 1, shape[2], 1)
    tau = rng.uniform(0.84, 0.92, coeff_shape).astype(np.complex128)
    rho = 0.99 * np.exp(-1j * rng.uniform(0, 2 * np.pi, coeff_shape))
    return fields, tau, rho, tau * rho, delay


class TestCompilation:
    def test_alias_is_the_same_class(self):
        assert ScramblingMesh is PassiveScrambler

    def test_operator_shapes(self, scrambler):
        engine = scrambler.compile()
        n, stages, delay = 8, 5, scrambler.ring_delay_samples
        assert engine.stage_matrices.shape == (stages, n, n)
        assert engine.ring_b.shape == (stages, n, delay + 1)
        assert engine.ring_a.shape == (stages, n, delay + 1)
        assert engine.static_matrix.shape == (n, n)
        assert engine.memory_footprint_bytes() > 0

    def test_stage_matrices_match_layers(self, scrambler):
        engine = scrambler.compile()
        for stage, layer in enumerate(scrambler.layers):
            assert np.array_equal(engine.stage_matrices[stage], layer.matrix())

    def test_ring_coefficients_match_rings(self, scrambler):
        engine = scrambler.compile()
        for stage in range(scrambler.n_stages):
            for channel in range(scrambler.n_channels):
                b, a = scrambler._ring(stage, channel).coefficients()
                assert np.array_equal(engine.ring_b[stage, channel], b)
                assert np.array_equal(engine.ring_a[stage, channel], a)

    def test_cache_key_ignores_detection_noise(self):
        quiet = OpticalEnvironment(detection_noise_scale=1.0)
        noisy = OpticalEnvironment(detection_noise_scale=7.0)
        assert environment_cache_key(1.55e-6, quiet) == environment_cache_key(
            1.55e-6, noisy
        )
        hot = OpticalEnvironment(temperature_c=60.0)
        assert environment_cache_key(1.55e-6, quiet) != environment_cache_key(
            1.55e-6, hot
        )


class TestPropagationEquivalence:
    def test_batch_matches_loop_path(self, scrambler):
        fields = random_fields((12, 8, 96))
        reference = scrambler.propagate(fields)
        compiled = scrambler.compile().propagate(fields)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)

    def test_single_interrogation_squeezes(self, scrambler):
        fields = random_fields((8, 96))
        reference = scrambler.propagate(fields)
        compiled = scrambler.compile().propagate(fields)
        assert compiled.shape == reference.shape == (8, 96)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)

    def test_without_memory_uses_static_matrix(self, die):
        scrambler = PassiveScrambler(8, 5, 3, die, with_memory=False)
        fields = random_fields((4, 8, 32))
        reference = scrambler.propagate(fields)
        compiled = scrambler.compile().propagate(fields)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)

    def test_environment_changes_operators(self, scrambler):
        hot = OpticalEnvironment(temperature_c=60.0)
        fields = random_fields((3, 8, 64))
        reference = scrambler.propagate(fields, env=hot)
        compiled = scrambler.compile(env=hot).propagate(fields)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)
        nominal = scrambler.compile().propagate(fields)
        assert not np.allclose(compiled, nominal)

    def test_unpadded_sample_count(self, die):
        # n_samples not divisible by the ring delay exercises the padding.
        scrambler = PassiveScrambler(4, 3, 9, die, ring_delay_samples=4)
        fields = random_fields((5, 4, 83))
        reference = scrambler.propagate(fields)
        compiled = scrambler.compile().propagate(fields)
        assert compiled.shape == (5, 4, 83)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)

    def test_long_stream_stays_stable(self, die):
        # A long stream (many recurrence blocks) must not accumulate error.
        scrambler = PassiveScrambler(4, 2, 9, die, ring_delay_samples=2)
        fields = random_fields((2, 4, 2 * (512 + 40)))
        reference = scrambler.propagate(fields)
        compiled = scrambler.compile().propagate(fields)
        assert np.allclose(compiled, reference, rtol=RTOL, atol=1e-12)

    def test_channel_mismatch_rejected(self, scrambler):
        with pytest.raises(ValueError):
            scrambler.compile().propagate(random_fields((2, 5, 16)))

    def test_stacked_scan_matches_per_ring_filter(self, scrambler):
        # The generalized scan applied to one bank agrees with each ring's
        # scipy.lfilter reference individually.
        engine = scrambler.compile()
        fields = random_fields((3, 8, 96), seed=11)
        banked = engine._ring_bank(2, fields)
        for channel in range(8):
            ring = scrambler._ring(2, channel)
            expected = ring.filter(fields[:, channel, :])
            assert np.allclose(banked[:, channel, :], expected,
                               rtol=RTOL, atol=1e-12)


class TestScanCacheBound:
    def test_varied_sample_counts_stay_bounded(self, scrambler):
        from repro.photonics.engine import _SCAN_CACHE_LIMIT

        engine = scrambler.compile()
        # Sweep far more distinct sample counts (hence (stage, blocks)
        # keys) than the cap admits; the LRU must evict, not grow.
        for n_samples in range(16, 16 + 4 * _SCAN_CACHE_LIMIT, 2):
            engine.propagate(random_fields((1, 8, n_samples)))
        assert len(engine._scan_cache) <= _SCAN_CACHE_LIMIT

    def test_eviction_is_least_recently_used(self, scrambler):
        from repro.photonics.engine import _SCAN_CACHE_LIMIT

        engine = scrambler.compile()
        delay = scrambler.ring_delay_samples
        hot = (0, 1)
        engine._scan_coefficients(*hot)
        # Keep the hot key warm while flooding with fresh keys: it must
        # survive every eviction round.
        for blocks in range(2, 2 + 2 * _SCAN_CACHE_LIMIT):
            engine._scan_coefficients(0, blocks)
            engine._scan_coefficients(*hot)
            assert hot in engine._scan_cache
        assert len(engine._scan_cache) <= _SCAN_CACHE_LIMIT
        # Evicted entries rebuild transparently with identical results.
        fields = random_fields((1, 8, delay * 3))
        assert engine.propagate(fields).shape == (1, 8, delay * 3)


class TestBatchedModulator:
    def test_drive_waveform_batch_matches_scalar(self):
        modulator = MachZehnderModulator(samples_per_bit=4, rise_samples=1.5)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(6, 24), dtype=np.uint8)
        batch = modulator.drive_waveform_batch(bits)
        for row in range(6):
            assert np.allclose(batch[row], modulator.drive_waveform(bits[row]),
                               rtol=RTOL, atol=1e-12)

    def test_modulate_batch_matches_scalar(self):
        modulator = MachZehnderModulator(samples_per_bit=2, rise_samples=0.0)
        bits = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        carrier = np.full(6, 2.0, dtype=np.complex128)
        batch = modulator.modulate_batch(carrier, bits)
        for row in range(2):
            assert np.allclose(batch[row], modulator.modulate(carrier, bits[row]))


class TestNumpyReference:
    """The restructured reference is bit-identical to the old algorithm."""

    @staticmethod
    def legacy_ring_scan(fields, tau, rho, feedback, delay):
        # The pre-restructure implementation: zero-pad + concatenate,
        # then the same block-major recurrence.
        lead = fields.shape[:-1]
        n_samples = fields.shape[-1]
        blocks = -(-n_samples // delay)
        padding = blocks * delay - n_samples
        x = fields
        if padding:
            x = np.concatenate(
                [x, np.zeros((*lead, padding), dtype=fields.dtype)], axis=-1
            )
        u = tau * x
        u[..., delay:] -= rho * x[..., :-delay]
        w = np.ascontiguousarray(
            np.moveaxis(u.reshape(*lead, blocks, delay), -2, 0)
        )
        for k in range(1, blocks):
            w[k] += feedback * w[k - 1]
        out = np.moveaxis(w, 0, -2).reshape(*lead, blocks * delay)
        return out[..., :n_samples] if padding else out

    @pytest.mark.parametrize("n_samples", [1, 3, 5, 40, 41, 64, 259])
    def test_bit_identical_to_legacy(self, n_samples):
        fields, tau, rho, feedback, delay = ring_inputs(
            shape=(3, 2, 6, n_samples)
        )
        new = stacked_ring_scan(fields, tau, rho, feedback, delay)
        old = self.legacy_ring_scan(fields, tau, rho, feedback, delay)
        assert np.array_equal(new, old)

    def test_does_not_mutate_input(self):
        fields, tau, rho, feedback, delay = ring_inputs()
        before = fields.copy()
        stacked_ring_scan(fields, tau, rho, feedback, delay)
        assert np.array_equal(fields, before)
