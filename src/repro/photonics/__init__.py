"""Behavioral silicon-photonics substrate.

Implements the optical components the NEUROPULS PIC is built from:
waveguides, couplers, Mach-Zehnder interferometers, microring resonators,
the laser/modulator source chain, the photodiode/TIA/ADC receive chain,
and the passive multi-port scrambling architecture of Fig. 2 — all with
per-die process variation and thermo-optic drift.
"""

from repro.photonics.backend import (
    ArrayBackend,
    BackendUnavailable,
    NumbaBackend,
    NumpyBackend,
    available_backend_names,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.photonics.components import (
    DirectionalCoupler,
    MachZehnderInterferometer,
    MicroringAddDrop,
    MicroringAllPass,
    PhaseShifter,
    Waveguide,
    effective_index,
)
from repro.photonics.constants import (
    DEFAULT_N_EFF,
    DEFAULT_N_GROUP,
    DEFAULT_WAVELENGTH,
    REFERENCE_TEMPERATURE_C,
    SILICON_DN_DT,
)
from repro.photonics.engine import (
    CompiledMesh,
    environment_cache_key,
    stacked_ring_scan,
)
from repro.photonics.fleet_engine import CompiledFleet
from repro.photonics.mesh import (
    DiscreteTimeRing,
    MixingLayer,
    PassiveScrambler,
    ScramblingMesh,
)
from repro.photonics.receiver import (
    AnalogToDigitalConverter,
    Photodiode,
    ReceiverChain,
    TransimpedanceAmplifier,
)
from repro.photonics.sources import Laser, MachZehnderModulator
from repro.photonics.variation import (
    DieVariation,
    OpticalEnvironment,
    VariationModel,
    environment_sweep,
)

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "NumbaBackend",
    "NumpyBackend",
    "available_backend_names",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "DirectionalCoupler",
    "MachZehnderInterferometer",
    "MicroringAddDrop",
    "MicroringAllPass",
    "PhaseShifter",
    "Waveguide",
    "effective_index",
    "DEFAULT_N_EFF",
    "DEFAULT_N_GROUP",
    "DEFAULT_WAVELENGTH",
    "REFERENCE_TEMPERATURE_C",
    "SILICON_DN_DT",
    "CompiledFleet",
    "CompiledMesh",
    "environment_cache_key",
    "stacked_ring_scan",
    "DiscreteTimeRing",
    "MixingLayer",
    "PassiveScrambler",
    "ScramblingMesh",
    "AnalogToDigitalConverter",
    "Photodiode",
    "ReceiverChain",
    "TransimpedanceAmplifier",
    "Laser",
    "MachZehnderModulator",
    "DieVariation",
    "OpticalEnvironment",
    "VariationModel",
    "environment_sweep",
]
