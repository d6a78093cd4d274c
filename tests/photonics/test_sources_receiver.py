"""Tests for the laser/modulator source chain and the PD/TIA/ADC receive chain."""

import math

import numpy as np
import pytest

from repro.photonics.receiver import (
    AnalogToDigitalConverter,
    Photodiode,
    ReceiverChain,
    TransimpedanceAmplifier,
)
from repro.photonics.sources import Laser, MachZehnderModulator


def rng():
    return np.random.default_rng(1234)


class TestLaser:
    def test_field_power(self):
        laser = Laser(power_mw=4.0)
        assert laser.field_amplitude() == pytest.approx(2.0)

    def test_emission_mean_power(self):
        laser = Laser(power_mw=2.0)
        field = laser.emit(10_000, 20e9, rng())
        assert np.mean(np.abs(field) ** 2) == pytest.approx(2.0, rel=0.01)

    def test_rin_scales_with_bandwidth(self):
        laser = Laser()
        assert laser.rin_sigma(40e9) > laser.rin_sigma(10e9)


class TestModulator:
    def test_sample_count(self):
        mod = MachZehnderModulator(samples_per_bit=8)
        assert mod.n_samples(16) == 128

    def test_extinction_ratio(self):
        mod = MachZehnderModulator(extinction_ratio_db=20.0, rise_samples=0.0)
        wave = mod.drive_waveform(np.array([1, 0], dtype=np.uint8))
        ratio_db = 20 * np.log10(wave[:8].max() / wave[8:].min())
        assert ratio_db == pytest.approx(20.0, abs=0.5)

    def test_finite_rise_time_smooths_edges(self):
        sharp = MachZehnderModulator(rise_samples=0.0)
        smooth = MachZehnderModulator(rise_samples=2.0)
        bits = np.array([0, 1, 0], dtype=np.uint8)
        assert np.max(np.abs(np.diff(smooth.drive_waveform(bits)))) < \
            np.max(np.abs(np.diff(sharp.drive_waveform(bits))))

    def test_modulate_length_mismatch(self):
        mod = MachZehnderModulator()
        with pytest.raises(ValueError):
            mod.modulate(np.ones(3, dtype=complex), np.array([1], dtype=np.uint8))

    def test_rate_25g(self):
        mod = MachZehnderModulator(bit_rate=25e9)
        assert mod.bit_period == pytest.approx(40e-12)


class TestDriveWaveformBatch:
    """The numpy smoother is ``scipy.signal.lfilter``'s, bit for bit."""

    @staticmethod
    def lfilter_reference(mod, bits):
        from scipy.signal import lfilter

        floor = 10.0 ** (-mod.extinction_ratio_db / 20.0)
        wave = np.repeat(np.where(bits > 0, 1.0, floor),
                         mod.samples_per_bit, axis=1)
        alpha = 1.0 - math.exp(-1.0 / mod.rise_samples)
        smoothed, __ = lfilter([alpha], [1.0, -(1.0 - alpha)], wave,
                               axis=-1, zi=(1.0 - alpha) * wave[:, :1])
        return smoothed

    @pytest.mark.parametrize("rise_samples", [0.3, 1.0, 1.5, 3.7])
    @pytest.mark.parametrize("samples_per_bit", [1, 2, 4, 8])
    def test_matches_lfilter(self, rise_samples, samples_per_bit):
        mod = MachZehnderModulator(samples_per_bit=samples_per_bit,
                                   rise_samples=rise_samples)
        for rows in (1, 2, 7, 256, 1024):
            bits = np.random.default_rng(rows).integers(
                0, 2, (rows, 68), dtype=np.uint8)
            wave = mod.drive_waveform_batch(bits)
            assert wave.shape == (rows, 68 * samples_per_bit)
            assert wave.dtype == np.float64
            assert np.array_equal(wave, self.lfilter_reference(mod, bits))

    def test_zero_rise_stays_unsmoothed(self):
        mod = MachZehnderModulator(samples_per_bit=4, rise_samples=0.0)
        bits = np.random.default_rng(3).integers(0, 2, (5, 16),
                                                 dtype=np.uint8)
        levels = np.where(bits > 0, 1.0, 10.0 ** (-20.0 / 20.0))
        for rows in (bits[:1], bits):
            assert np.array_equal(mod.drive_waveform_batch(rows),
                                  np.repeat(levels[:len(rows)], 4, axis=1))


class TestPhotodiode:
    def test_responsivity(self):
        pd = Photodiode(responsivity_a_per_w=0.9, dark_current_na=0.0)
        field = np.full(20_000, 1.0, dtype=complex)  # 1 mW
        current = pd.detect(field, rng())
        assert np.mean(current) == pytest.approx(0.9, rel=0.01)  # mA

    def test_square_law_phase_insensitive_single_tone(self):
        pd = Photodiode(dark_current_na=0.0)
        a = pd.detect(np.full(1000, 1.0, dtype=complex), rng(), noise_scale=0.0)
        b = pd.detect(np.full(1000, 1.0j, dtype=complex), rng(), noise_scale=0.0)
        assert np.allclose(a, b)

    def test_interference_is_phase_sensitive(self):
        # |E1 + E2|^2 depends on relative phase: the coherence property the
        # paper exploits (Sec. II-A).
        pd = Photodiode(dark_current_na=0.0)
        constructive = pd.detect(np.array([1.0 + 1.0]), rng(), noise_scale=0.0)
        destructive = pd.detect(np.array([1.0 - 1.0]), rng(), noise_scale=0.0)
        assert constructive[0] > destructive[0]

    def test_shot_noise_grows_with_power(self):
        pd = Photodiode(dark_current_na=0.0)
        low = pd.detect(np.full(50_000, 0.1, dtype=complex), rng())
        high = pd.detect(np.full(50_000, 3.0, dtype=complex), rng())
        assert np.std(high) > np.std(low)


class TestTIA:
    def test_gain(self):
        tia = TransimpedanceAmplifier(gain_ohm=1000.0)
        v = tia.amplify(np.array([1.0]), rng(), noise_scale=0.0)  # 1 mA
        assert v[0] == pytest.approx(1.0)  # 1 mA * 1 kOhm = 1 V

    def test_noise_nonzero(self):
        tia = TransimpedanceAmplifier()
        v = tia.amplify(np.zeros(10_000), rng())
        assert np.std(v) > 0.0


class TestADC:
    def test_quantize_range(self):
        adc = AnalogToDigitalConverter(n_bits=8, full_scale_v=1.0)
        codes = adc.quantize(np.array([-0.5, 0.0, 0.5, 2.0]))
        assert codes.tolist() == [0, 0, 128, 255]

    def test_lsb(self):
        adc = AnalogToDigitalConverter(n_bits=10, full_scale_v=1.0)
        assert adc.lsb == pytest.approx(1.0 / 1024)

    def test_reconstruction_error_bounded(self):
        adc = AnalogToDigitalConverter(n_bits=12, full_scale_v=1.0)
        v = np.linspace(0.0, 0.999, 100)
        recon = adc.to_voltage(adc.quantize(v))
        assert np.max(np.abs(recon - v)) <= adc.lsb


class TestReceiverChain:
    def test_digitize_shape_and_determinism(self):
        chain = ReceiverChain()
        field = np.full(64, 0.5, dtype=complex)
        a = chain.digitize(field, np.random.default_rng(5))
        b = chain.digitize(field, np.random.default_rng(5))
        assert a.shape == (64,)
        assert np.array_equal(a, b)

    def test_more_power_higher_codes(self):
        chain = ReceiverChain()
        weak = chain.digitize(np.full(256, 0.1, dtype=complex), rng())
        strong = chain.digitize(np.full(256, 0.9, dtype=complex), rng())
        assert strong.mean() > weak.mean()
