"""Tests for the process-variation and environment models."""

import numpy as np
import pytest

from repro.photonics.variation import (
    OpticalEnvironment,
    VariationModel,
    environment_sweep,
)


class TestVariationModel:
    def test_same_die_same_state(self):
        model = VariationModel()
        a = model.sample_die(1, 4)
        b = model.sample_die(1, 4)
        assert a.neff_global == b.neff_global
        assert a.neff_offset("x") == b.neff_offset("x")

    def test_different_dies_differ(self):
        model = VariationModel()
        dies = [model.sample_die(1, i) for i in range(10)]
        offsets = {d.neff_global for d in dies}
        assert len(offsets) == 10

    def test_component_offsets_differ_within_die(self):
        die = VariationModel().sample_die(1, 0)
        assert die.neff_offset("ring0") != die.neff_offset("ring1")

    def test_global_component_shared_within_die(self):
        die = VariationModel(sigma_neff_local=0.0).sample_die(1, 0)
        assert die.neff_offset("a") == pytest.approx(die.neff_offset("b"))

    def test_statistics_match_model(self):
        model = VariationModel(sigma_neff_global=1e-4, sigma_neff_local=0.0)
        samples = [model.sample_die(3, i).neff_global for i in range(3000)]
        assert np.std(samples) == pytest.approx(1e-4, rel=0.1)
        assert np.mean(samples) == pytest.approx(0.0, abs=1e-5)

    def test_coupling_factor_positive(self):
        model = VariationModel(sigma_coupling=0.5)  # exaggerated spread
        die = model.sample_die(1, 0)
        factors = [die.coupling_factor(f"c{i}") for i in range(500)]
        assert min(factors) > 0.0

    def test_loss_factor_positive(self):
        die = VariationModel(sigma_loss=0.5).sample_die(1, 0)
        assert min(die.loss_factor(f"l{i}") for i in range(500)) > 0.0


class TestEnvironment:
    def test_delta_t(self):
        assert OpticalEnvironment(temperature_c=35.0).delta_t == pytest.approx(10.0)

    def test_defaults(self):
        env = OpticalEnvironment()
        assert env.delta_t == 0.0
        assert env.detection_noise_scale == 1.0

    def test_sweep(self):
        envs = environment_sweep([0.0, 25.0, 50.0])
        assert [e.temperature_c for e in envs] == [0.0, 25.0, 50.0]
