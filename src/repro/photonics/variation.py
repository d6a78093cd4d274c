"""Process-variation and environment models for photonic components.

Fabrication variability is the entropy source of every PUF in this library.
For photonic devices the dominant contributions are waveguide width and
thickness deviations, which shift the effective index, and coupler gap
deviations, which shift power-coupling ratios.  We model each as the sum of
a die-to-die (global) Gaussian term and a within-die (local, per-component)
Gaussian term, the standard decomposition used in variation-aware design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.photonics.constants import REFERENCE_TEMPERATURE_C
from repro.utils.rng import derive_rng, gather_standard_normals


@dataclass(frozen=True)
class VariationModel:
    """Statistical magnitudes of fabrication variability.

    Attributes
    ----------
    sigma_neff_global:
        Die-to-die standard deviation of the effective-index offset.
    sigma_neff_local:
        Within-die (per component) standard deviation of the
        effective-index offset.  For SOI, ~1e-4..1e-3 absolute.
    sigma_coupling:
        Standard deviation of the *relative* deviation of power-coupling
        coefficients (dimensionless fraction).
    sigma_loss:
        Standard deviation of the relative deviation of propagation loss.
    """

    sigma_neff_global: float = 2e-4
    sigma_neff_local: float = 4e-4
    sigma_coupling: float = 0.03
    sigma_loss: float = 0.08

    def sample_die(self, root_seed: int, die_index: int) -> "DieVariation":
        """Draw the frozen variation state of one fabricated die."""
        rng = derive_rng(root_seed, "die", die_index)
        return DieVariation(
            model=self,
            neff_global=float(rng.normal(0.0, self.sigma_neff_global)),
            rng_seed=root_seed,
            die_index=die_index,
        )


@dataclass(frozen=True)
class DieVariation:
    """Frozen per-die variation state.

    Local (per-component) deviations are derived deterministically from the
    component's label so that re-instantiating the same die always yields
    the identical physical device — this is what makes a simulated PUF
    instance stable across evaluations.
    """

    model: VariationModel
    neff_global: float
    rng_seed: int
    die_index: int

    def neff_offset(self, component_label: str) -> float:
        """Total effective-index offset for a named component."""
        rng = derive_rng(self.rng_seed, "die", self.die_index, "neff", component_label)
        return self.neff_global + float(rng.normal(0.0, self.model.sigma_neff_local))

    def coupling_factor(self, component_label: str) -> float:
        """Multiplicative deviation of a power-coupling coefficient (clipped > 0)."""
        rng = derive_rng(self.rng_seed, "die", self.die_index, "coupling", component_label)
        return max(1e-3, 1.0 + float(rng.normal(0.0, self.model.sigma_coupling)))

    def loss_factor(self, component_label: str) -> float:
        """Multiplicative deviation of a propagation-loss coefficient (clipped > 0)."""
        rng = derive_rng(self.rng_seed, "die", self.die_index, "loss", component_label)
        return max(1e-3, 1.0 + float(rng.normal(0.0, self.model.sigma_loss)))


def _gathered_draws(dies, kind: str, component_labels) -> "np.ndarray":
    """Every die's ``kind`` draw of every component, in one gathered pass."""
    return gather_standard_normals(
        [(die.rng_seed, ("die", die.die_index, kind)) for die in dies],
        component_labels,
    )


def _per_die(values) -> "np.ndarray":
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def stacked_neff_offsets(dies, component_labels) -> "np.ndarray":
    """:meth:`DieVariation.neff_offset` of every die and component.

    ``(len(dies), len(component_labels))``, bit for bit the scalar
    values, with the whole fleet's draws made in one gathered call
    (:func:`repro.utils.rng.gather_standard_normals`).  Each die keeps
    its own root seed, :class:`VariationModel` and ``neff_global``.
    """
    draws = _gathered_draws(dies, "neff", component_labels)
    neff_global = _per_die([die.neff_global for die in dies])
    sigma = _per_die([die.model.sigma_neff_local for die in dies])
    return neff_global + sigma * draws


def stacked_coupling_factors(dies, component_labels) -> "np.ndarray":
    """:meth:`DieVariation.coupling_factor` of every die and component."""
    draws = _gathered_draws(dies, "coupling", component_labels)
    sigma = _per_die([die.model.sigma_coupling for die in dies])
    return np.maximum(1e-3, 1.0 + sigma * draws)


@dataclass(frozen=True)
class OpticalEnvironment:
    """Operating conditions of a photonic die during one evaluation.

    Attributes
    ----------
    temperature_c:
        Die temperature.  Shifts every effective index through the
        thermo-optic coefficient; the dominant reliability threat for
        resonant devices (Sec. II-B of the paper).
    laser_power_mw:
        Optical power injected by the laser source.
    detection_noise_scale:
        Multiplier on receiver noise (1.0 = nominal); lets experiments
        sweep SNR without re-deriving physical noise budgets.
    """

    temperature_c: float = REFERENCE_TEMPERATURE_C
    laser_power_mw: float = 1.0
    detection_noise_scale: float = 1.0

    @property
    def delta_t(self) -> float:
        """Temperature excursion from the calibration point, in kelvin."""
        return self.temperature_c - REFERENCE_TEMPERATURE_C


def environment_sweep(temperatures_c: "np.ndarray | list") -> list:
    """Convenience: one :class:`OpticalEnvironment` per temperature."""
    return [OpticalEnvironment(temperature_c=float(t)) for t in np.asarray(temperatures_c)]
