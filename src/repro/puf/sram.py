"""SRAM PUF model.

Each 6T SRAM cell has a frozen threshold-voltage mismatch between its two
cross-coupled inverters; at power-up the cell settles to the side favoured
by the mismatch, perturbed by thermal noise.  The paper uses an ASIC SRAM
PUF to bind the driving ASIC to the photonic die (Fig. 1) and cites the
remanence-decay side channel as an SRAM-specific weakness (Sec. IV [27]),
both of which this model supports.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.puf.base import NOMINAL_ENV, NOMINAL_SUPPLY_V, PUFEnvironment, WeakPUF
from repro.utils.bits import BitArray
from repro.utils.rng import derive_rng


class SRAMPUF(WeakPUF):
    """Power-up SRAM PUF over ``n_cells`` cells.

    Parameters
    ----------
    n_cells:
        Number of cells; must be a power of two so addresses pack densely.
    seed, die_index:
        Select the fabricated device (frozen mismatch pattern).
    sigma_mismatch_mv:
        Std. dev. of the inverter threshold mismatch.
    sigma_noise_mv:
        Std. dev. of power-up noise at nominal conditions.
    temp_noise_mv_per_k:
        Extra noise per kelvin away from nominal (thermal agitation).
    aging_mv_per_decade:
        NBTI-style drift magnitude per decade of operating hours.
    """

    def __init__(
        self,
        n_cells: int = 1024,
        seed: int = 0,
        die_index: int = 0,
        sigma_mismatch_mv: float = 30.0,
        sigma_noise_mv: float = 3.0,
        temp_noise_mv_per_k: float = 0.06,
        aging_mv_per_decade: float = 2.0,
    ):
        super().__init__()
        if n_cells < 2 or n_cells & (n_cells - 1):
            raise ValueError("n_cells must be a power of two >= 2")
        self.n_cells = n_cells
        self.seed = seed
        self.die_index = die_index
        self.challenge_bits = int(math.log2(n_cells))
        self.response_bits = 1
        self.sigma_noise_mv = sigma_noise_mv
        self.temp_noise_mv_per_k = temp_noise_mv_per_k
        self.aging_mv_per_decade = aging_mv_per_decade
        rng = derive_rng(seed, "sram", die_index, "mismatch")
        self._mismatch_mv = rng.normal(0.0, sigma_mismatch_mv, size=n_cells)
        # Aging drift direction is frozen per cell (stress is data dependent
        # in reality; a frozen random direction captures the reliability
        # impact without simulating workloads).
        age_rng = derive_rng(seed, "sram", die_index, "aging")
        self._aging_direction = age_rng.choice([-1.0, 1.0], size=n_cells)

    @property
    def n_addresses(self) -> int:
        return self.n_cells

    def _effective_mismatch(self, env: PUFEnvironment) -> np.ndarray:
        """Mismatch including aging drift (mV)."""
        drift = 0.0
        if env.age_hours > 0:
            drift = self.aging_mv_per_decade * math.log10(1.0 + env.age_hours)
        supply_derate = 1.0 + 0.05 * (env.supply_v - NOMINAL_SUPPLY_V)
        return (self._mismatch_mv + drift * self._aging_direction) * supply_derate

    def _noise_sigma(self, env: PUFEnvironment) -> float:
        thermal = self.temp_noise_mv_per_k * abs(env.temperature_c - 25.0)
        return (self.sigma_noise_mv + thermal) * env.noise_scale

    def power_up(
        self, env: PUFEnvironment = NOMINAL_ENV, measurement: Optional[int] = None
    ) -> BitArray:
        """Power-up value of every cell (one noise draw for the array)."""
        if measurement is None:
            measurement = self._measurement_counter
            self._measurement_counter += 1
        rng = derive_rng(self.seed, "sram", self.die_index, "noise", measurement)
        noise = rng.normal(0.0, 1.0, size=self.n_cells) * self._noise_sigma(env)
        return (self._effective_mismatch(env) + noise > 0).astype(np.uint8)

    def _evaluate(
        self, challenge: BitArray, env: PUFEnvironment, measurement: int
    ) -> BitArray:
        address = self.address_from_challenge(challenge)
        rng = derive_rng(self.seed, "sram", self.die_index, "noise", measurement)
        noise = rng.normal(0.0, 1.0, size=self.n_cells) * self._noise_sigma(env)
        value = self._effective_mismatch(env)[address] + noise[address] > 0
        return np.array([1 if value else 0], dtype=np.uint8)

    def read_all(
        self,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> BitArray:
        # One power-up event reads every cell at once; this override avoids
        # n_cells separate noise draws (and is ~1000x faster).
        return self.power_up(env, measurement)

    def remanence_read(
        self,
        previous: BitArray,
        power_off_seconds: float,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
        retention_half_life_s: float = 0.15,
    ) -> BitArray:
        """Power-up value after a *short* power-off period.

        Cells that have not yet decayed keep their previous content instead
        of settling by mismatch — the remanence-decay side channel of [27].
        ``retention_half_life_s`` controls how quickly stored data fades;
        after many half-lives this converges to :meth:`power_up`.
        """
        previous = np.asarray(previous, dtype=np.uint8)
        if previous.size != self.n_cells:
            raise ValueError("previous content must cover every cell")
        if measurement is None:
            measurement = self._measurement_counter
            self._measurement_counter += 1
        fresh = self.power_up(env, measurement)
        decay_rng = derive_rng(self.seed, "sram", self.die_index, "remanence", measurement)
        decay_probability = 1.0 - 0.5 ** (power_off_seconds / retention_half_life_s)
        decayed = decay_rng.random(self.n_cells) < decay_probability
        return np.where(decayed, fresh, previous).astype(np.uint8)
