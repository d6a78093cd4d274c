"""repro — behavioral reproduction of the NEUROPULS security layers (DATE 2024).

Subpackages
-----------
- :mod:`repro.utils` — bit arrays, deterministic RNG streams, serialization
- :mod:`repro.photonics` — silicon-photonics component/circuit models
- :mod:`repro.puf` — photonic + electronic PUF primitives
- :mod:`repro.metrics` — PUF quality metrics and NIST-style statistical tests
- :mod:`repro.quality` — response filtering and compensation
- :mod:`repro.crypto` — ECC, fuzzy extraction, lightweight ciphers, MAC, DRBG
- :mod:`repro.attacks` — modeling, side-channel, remanence, protocol attacks
- :mod:`repro.accelerator` — neuromorphic photonic accelerator model
- :mod:`repro.system` — discrete-event system/SoC model
- :mod:`repro.protocols` — mutual authentication, attestation, NN service, AKA
- :mod:`repro.fleet` — fleet-scale enrollment registry + batch authentication
- :mod:`repro.service` — the supported service boundary: ``AuthService``
  facade, declarative ``FleetConfig``, policies, versioned wire codec
- :mod:`repro.obs` — observability plane: metrics registry, round
  tracing, Prometheus/JSON export, wire-scrapeable via the 1.2
  ``metrics``/``trace`` admin verbs

Quickstart
----------
>>> from repro import AuthService, FleetConfig
>>> service = AuthService.provision(FleetConfig(n_devices=8, seed=42))
>>> service.authenticate_batch().n_accepted
8

(The single-device SoC path is ``provision`` / ``run_session``.)
"""

from repro.fleet import (
    BatchVerifier,
    FaultModel,
    FleetDevice,
    FleetRegistry,
    FleetSimulator,
)
from repro.protocols import provision, run_session
from repro.service import AuthService, FleetConfig
from repro.puf import (
    ArbiterPUF,
    PhotonicStrongPUF,
    PhotonicWeakPUF,
    PUFEnvironment,
    ROPUF,
    SRAMPUF,
)
from repro.system import DeviceSoC, SoCConfig

__version__ = "0.19.0"

__all__ = [
    "provision",
    "run_session",
    "AuthService",
    "FleetConfig",
    "BatchVerifier",
    "FaultModel",
    "FleetDevice",
    "FleetRegistry",
    "FleetSimulator",
    "ArbiterPUF",
    "PhotonicStrongPUF",
    "PhotonicWeakPUF",
    "PUFEnvironment",
    "ROPUF",
    "SRAMPUF",
    "DeviceSoC",
    "SoCConfig",
    "__version__",
]
