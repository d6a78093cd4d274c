"""Optical sources and modulators.

The NEUROPULS interrogation chain (paper Fig. 2) is: telecom laser ->
Mach-Zehnder optical modulator driven by the ASIC -> passive PUF
architecture -> photodiodes.  This module models the laser (power, relative
intensity noise) and the modulator (bit stream -> optical field samples at
a configurable bit rate and oversampling factor).  The modulator's finite
edges are a single-pole smoother computed with numpy and Python floats
alone: the modulator imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.photonics.constants import DEFAULT_WAVELENGTH


@dataclass(frozen=True)
class Laser:
    """Continuous-wave telecom laser.

    Attributes
    ----------
    power_mw:
        Emitted optical power in milliwatts.
    wavelength:
        Emission wavelength in metres.
    rin_db_per_hz:
        Relative intensity noise spectral density; -150 dB/Hz is a typical
        DFB value.  Converted to per-sample amplitude noise given the
        simulation bandwidth.
    """

    power_mw: float = 1.0
    wavelength: float = DEFAULT_WAVELENGTH
    rin_db_per_hz: float = -150.0

    def field_amplitude(self) -> float:
        """CW field amplitude in sqrt(mW) units (|E|^2 = power)."""
        return math.sqrt(self.power_mw)

    def rin_sigma(self, bandwidth_hz: float) -> float:
        """RMS relative power fluctuation over the given bandwidth."""
        rin_linear = 10.0 ** (self.rin_db_per_hz / 10.0)
        return math.sqrt(rin_linear * bandwidth_hz)

    def emit(self, n_samples: int, bandwidth_hz: float, rng: np.random.Generator) -> np.ndarray:
        """Complex field samples including intensity noise."""
        relative = 1.0 + self.rin_sigma(bandwidth_hz) * rng.standard_normal(n_samples)
        power = np.clip(self.power_mw * relative, 0.0, None)
        return np.sqrt(power).astype(np.complex128)


@dataclass(frozen=True)
class MachZehnderModulator:
    """Intensity modulator encoding a bit stream onto the optical carrier.

    Attributes
    ----------
    bit_rate:
        Modulation rate in bit/s.  The paper's demonstrated architecture
        ran at 25 Gbit/s (Sec. II-A).
    extinction_ratio_db:
        Power ratio between the '1' and '0' levels.
    samples_per_bit:
        Time-domain oversampling factor used by downstream filters.
    rise_samples:
        10-90 % edge duration expressed in samples; implemented as a
        single-pole smoothing of the drive waveform.
    """

    bit_rate: float = 25e9
    extinction_ratio_db: float = 20.0
    samples_per_bit: int = 8
    rise_samples: float = 1.5

    @property
    def sample_rate(self) -> float:
        """Simulation sample rate in Hz."""
        return self.bit_rate * self.samples_per_bit

    @property
    def bit_period(self) -> float:
        return 1.0 / self.bit_rate

    def drive_waveform(self, bits: np.ndarray) -> np.ndarray:
        """Normalised drive amplitude per sample in [floor, 1]."""
        floor = 10.0 ** (-self.extinction_ratio_db / 20.0)
        levels = np.where(np.asarray(bits, dtype=np.uint8) > 0, 1.0, floor)
        wave = np.repeat(levels, self.samples_per_bit).astype(np.float64)
        if self.rise_samples > 0:
            # Single-pole low-pass to give finite rise/fall times.
            alpha = 1.0 - math.exp(-1.0 / self.rise_samples)
            state = wave[0]
            for i in range(wave.size):
                state += alpha * (wave[i] - state)
                wave[i] = state
        return wave

    def modulate(self, carrier: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Apply the bit stream to CW carrier field samples."""
        wave = self.drive_waveform(bits)
        if carrier.shape[0] != wave.shape[0]:
            raise ValueError(
                f"carrier has {carrier.shape[0]} samples, drive needs {wave.shape[0]}"
            )
        return carrier * wave

    def drive_waveform_batch(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`drive_waveform` over a ``(batch, n_bits)`` matrix.

        The per-sample single-pole smoother is the recurrence
        ``y[i] = keep * y[i - 1] + alpha * w[i]`` with ``keep = 1 - alpha``,
        seeded with ``y[-1] = w[0]``.  A batch runs it in place over the
        samples of a samples-major copy, one batch-wide add and multiply
        per sample, and returns that copy transposed; a single row (every
        batch-1 interrogation) runs it on Python floats, where numpy's
        per-call overhead would dominate.
        """
        floor = 10.0 ** (-self.extinction_ratio_db / 20.0)
        bits = np.atleast_2d(np.asarray(bits, dtype=np.uint8))
        levels = np.where(bits > 0, 1.0, floor)
        if self.rise_samples <= 0:
            return np.repeat(levels, self.samples_per_bit, axis=1)
        alpha = 1.0 - math.exp(-1.0 / self.rise_samples)
        keep = 1.0 - alpha
        if bits.shape[0] == 1:
            state, smoothed = float(levels[0, 0]), []
            for drive in (alpha * levels[0]).tolist():
                for __ in range(self.samples_per_bit):
                    state = keep * state + drive
                    smoothed.append(state)
            return np.array(smoothed)[np.newaxis]
        wave = np.repeat(levels.T, self.samples_per_bit, axis=0)
        state = keep * wave[0]
        wave *= alpha
        for sample in wave:
            sample += state
            np.multiply(sample, keep, out=state)
        return wave.T

    def modulate_batch(self, carrier: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """Apply many bit streams to one CW carrier: ``(batch, n_samples)``."""
        wave = self.drive_waveform_batch(bits)
        if carrier.shape[0] != wave.shape[1]:
            raise ValueError(
                f"carrier has {carrier.shape[0]} samples, drive needs {wave.shape[1]}"
            )
        return carrier[np.newaxis, :] * wave

    def n_samples(self, n_bits: int) -> int:
        """Number of field samples needed to carry ``n_bits``."""
        return n_bits * self.samples_per_bit
