"""Ring-oscillator (RO) PUF model.

A challenge selects a pair of nominally identical ring oscillators; the
response bit states which one is faster, measured by comparing counter
values accumulated over a gate time.  The *counter difference* is the
analog margin on which the threshold-filtering technique of Vinagrero et
al. [13] operates (paper Fig. 3): pairs with tiny differences are
unreliable, pairs with extreme differences are biased across devices
(aliased), and the shaded band in between is the good trade-off.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.puf.base import (
    NOMINAL_ENV,
    NOMINAL_SUPPLY_V,
    AnalogMarginPUF,
    PUFEnvironment,
    WeakPUF,
)
from repro.utils.bits import BitArray
from repro.utils.rng import derive_rng


class ROPUF(WeakPUF, AnalogMarginPUF):
    """RO-pair comparison PUF.

    Challenges address a fixed list of RO pairs.  By default the pair list
    is the ``n_ros/2`` disjoint neighbour pairs, the arrangement that keeps
    responses independent; :meth:`counter_difference` exposes the margin.

    Parameters
    ----------
    n_ros:
        Number of ring oscillators (power of two).
    f0_hz:
        Nominal oscillation frequency.
    sigma_process:
        Relative frequency spread from process variation (die-internal).
    sigma_noise:
        Relative jitter-induced frequency noise per measurement.
    temp_coeff_per_k / supply_coeff_per_v:
        Linear environmental coefficients (common mode, but with per-RO
        slope mismatch ``sigma_temp_slope`` so temperature *can* flip bits).
    gate_time_s:
        Counting window; counter values are ``f * gate_time``.
    """

    def __init__(
        self,
        n_ros: int = 512,
        seed: int = 0,
        die_index: int = 0,
        f0_hz: float = 100e6,
        sigma_process: float = 0.01,
        sigma_noise: float = 2e-4,
        temp_coeff_per_k: float = -2e-3,
        sigma_temp_slope: float = 4e-5,
        supply_coeff_per_v: float = 0.15,
        gate_time_s: float = 100e-6,
        sigma_systematic: float = 0.004,
    ):
        super().__init__()
        if n_ros < 4 or n_ros & (n_ros - 1):
            raise ValueError("n_ros must be a power of two >= 4")
        self.n_ros = n_ros
        self.seed = seed
        self.die_index = die_index
        self.f0_hz = f0_hz
        self.sigma_noise = sigma_noise
        self.temp_coeff_per_k = temp_coeff_per_k
        self.supply_coeff_per_v = supply_coeff_per_v
        self.gate_time_s = gate_time_s
        self._pairs: List[Tuple[int, int]] = [
            (2 * i, 2 * i + 1) for i in range(n_ros // 2)
        ]
        self.challenge_bits = int(math.log2(len(self._pairs)))
        self.response_bits = 1
        rng = derive_rng(seed, "ro", die_index, "process")
        self._process = rng.normal(0.0, sigma_process, size=n_ros)
        slope_rng = derive_rng(seed, "ro", die_index, "tslope")
        self._temp_slope = slope_rng.normal(0.0, sigma_temp_slope, size=n_ros)
        # Layout-induced systematic frequency offsets: identical on every
        # die (no die_index in the derivation context).  They are why
        # extreme counter differences alias across devices — the effect
        # behind the entropy roll-off in the paper's Fig. 3 ([13]).
        systematic_rng = derive_rng(seed, "ro", "systematic")
        self._systematic = systematic_rng.normal(0.0, sigma_systematic, size=n_ros)

    @property
    def n_addresses(self) -> int:
        return len(self._pairs)

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        return list(self._pairs)

    def frequencies(
        self,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> np.ndarray:
        """Instantaneous frequency of every RO under one noise draw (Hz)."""
        if measurement is None:
            measurement = self._measurement_counter
            self._measurement_counter += 1
        delta_t = env.temperature_c - 25.0
        delta_v = env.supply_v - NOMINAL_SUPPLY_V
        common = (1.0
                  + self.temp_coeff_per_k * delta_t
                  + self.supply_coeff_per_v * delta_v)
        aging = 1.0
        if env.age_hours > 0:
            # ROs slow down with age (NBTI); ~0.5 % per decade of hours.
            aging = 1.0 - 0.005 * math.log10(1.0 + env.age_hours)
        rng = derive_rng(self.seed, "ro", self.die_index, "noise", measurement)
        noise = rng.normal(0.0, self.sigma_noise * env.noise_scale, size=self.n_ros)
        relative = (1.0 + self._systematic + self._process
                    + self._temp_slope * delta_t + noise)
        return self.f0_hz * common * aging * relative

    def counter_difference(
        self,
        pair_index: int,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> float:
        """Counter difference c_i - c_j for the addressed pair."""
        i, j = self._pairs[pair_index]
        freqs = self.frequencies(env, measurement)
        return float((freqs[i] - freqs[j]) * self.gate_time_s)

    def margin(
        self,
        challenge: Sequence[int],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> float:
        return self.counter_difference(
            self.address_from_challenge(np.asarray(challenge, dtype=np.uint8)),
            env,
            measurement,
        )

    def _evaluate(
        self, challenge: BitArray, env: PUFEnvironment, measurement: int
    ) -> BitArray:
        diff = self.counter_difference(
            self.address_from_challenge(challenge), env, measurement
        )
        return np.array([1 if diff > 0 else 0], dtype=np.uint8)

    def read_all(
        self,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> BitArray:
        """All pair comparisons from a single frequency measurement."""
        freqs = self.frequencies(env, measurement)
        bits = [1 if freqs[i] > freqs[j] else 0 for i, j in self._pairs]
        return np.array(bits, dtype=np.uint8)

    def all_margins(
        self,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> np.ndarray:
        """Counter difference of every pair from a single measurement."""
        freqs = self.frequencies(env, measurement)
        return np.array(
            [(freqs[i] - freqs[j]) * self.gate_time_s for i, j in self._pairs]
        )
