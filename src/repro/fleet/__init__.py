"""Fleet-scale enrollment, batch authentication, and lifecycle simulation.

Built on the compiled photonic engine: enrollment harvests CRPs through
``evaluate_batch`` in single vectorized passes, and :class:`BatchVerifier`
serves many mutual-auth-style sessions (or Hamming-threshold spot checks)
per call.  See ``registry`` for the verifier-side state (with npz+JSON
persistence), ``verifier`` for the protocol, ``lifecycle`` for the
fault-injection campaign simulator (:class:`FleetSimulator`), and
``storage`` for the pluggable registry backends (in-memory reference
vs. out-of-core sharded files).
"""

from repro.fleet.lifecycle import (
    Adversary,
    CampaignStats,
    CorruptionAdversary,
    FaultModel,
    FleetSimulator,
    ReplayAdversary,
    RoundOutcome,
    TamperAdversary,
    photonic_device_factory,
)
from repro.fleet.registry import DeviceRecord, FleetRegistry
from repro.fleet.rounds import respond_round, respond_round_staged
from repro.fleet.storage import (
    MemoryBackend,
    RegistryBackend,
    ShardedFileBackend,
    make_backend,
)
from repro.fleet.verifier import (
    AuthResponse,
    BatchAuthReport,
    BatchVerifier,
    CoalescedAuth,
    FleetDevice,
    RoundCoalescer,
    SpotCheckReport,
)

__all__ = [
    "Adversary",
    "AuthResponse",
    "BatchAuthReport",
    "BatchVerifier",
    "CampaignStats",
    "CoalescedAuth",
    "CorruptionAdversary",
    "DeviceRecord",
    "FaultModel",
    "FleetDevice",
    "FleetRegistry",
    "FleetSimulator",
    "MemoryBackend",
    "RegistryBackend",
    "ReplayAdversary",
    "RoundCoalescer",
    "RoundOutcome",
    "ShardedFileBackend",
    "SpotCheckReport",
    "TamperAdversary",
    "make_backend",
    "photonic_device_factory",
    "respond_round",
    "respond_round_staged",
]
