"""Declarative fleet and engine configuration for :mod:`repro.service`.

Every provisioning and execution knob lives in two frozen dataclasses:

* :class:`EngineConfig` — *how* measurements execute: the fleet-stacked
  plane and its compute backend;
* :class:`FleetConfig` — *what* the fleet is and how the service runs
  it: fleet size, seeds, spot pools, PUF design knobs, the coalescer's
  latency budget and batch size (shared by the in-process service and
  the wire server that serves it), the optional fault model for
  lifecycle simulation, and the persistence path.

Both validate on construction and round-trip through
``to_state``/``from_state`` (plain JSON-serializable dicts), so a
service snapshot carries its own configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.fleet.lifecycle import FaultModel
from repro.fleet.storage import BACKEND_NAMES, RegistryBackend, make_backend
from repro.photonics.backend import backend_names as compute_backend_names

CONFIG_FORMAT = "service-fleet-config"
CONFIG_VERSION = 1


def _reject_unknown_keys(state: Mapping[str, Any], allowed, what: str) -> None:
    """Unknown config keys are an error, not silence.

    A silently-ignored key is a misconfiguration that looks healthy
    (``backed: "numba"`` runs on numpy forever); naming the
    unknown and the allowed set makes the failure immediate and clear.
    """
    unknown = sorted(set(state) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


@dataclass(frozen=True)
class EngineConfig:
    """Execution-engine knobs: how photonic measurements run.

    ``stacked`` compiles the whole die family into one fleet-stacked
    execution plane (one tensor pass per round).  ``stacked=False``
    forces the per-die batch-1 path (the provisioning baseline the
    throughput benchmarks pin against).

    ``backend`` names the compute backend the stacked plane runs its
    hot primitives on (see :mod:`repro.photonics.backend`): ``"numpy"``
    (default, the bit-exactness reference) or ``"numba"`` for
    JIT-compiled CPU kernels.  The name must be registered; a
    registered-but-unavailable backend degrades to numpy at first use
    with a recorded ``degraded_reason``.
    """

    stacked: bool = True
    backend: str = "numpy"

    def __post_init__(self) -> None:
        names = compute_backend_names()
        if self.backend not in names:
            raise ValueError(
                f"unknown compute backend {self.backend!r}; registered "
                f"backends: {', '.join(names)}"
            )
        if self.backend != "numpy" and not self.stacked:
            raise ValueError(
                "backend selection requires stacked=True (alternate "
                "backends run on the fleet-stacked plane)"
            )

    def to_state(self) -> Dict[str, Any]:
        return {"stacked": bool(self.stacked),
                "backend": str(self.backend)}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "EngineConfig":
        # Archives written before 0.10.0 carry "shard_workers": their
        # multi-process plane executor computed the same bits, so the
        # key is dropped.
        state = {key: value for key, value in state.items()
                 if key != "shard_workers"}
        _reject_unknown_keys(state, ("stacked", "backend"), "engine config")
        return cls(stacked=bool(state.get("stacked", True)),
                   backend=str(state.get("backend", "numpy")))


@dataclass(frozen=True)
class HAConfig:
    """High-availability knobs for a replicated verifier plane.

    Consumed by :class:`repro.service.ha.ReplicaGroup`: ``n_replicas``
    sizes the group (each replica gets its own residue class of the
    nonce-epoch partition), the lease pair governs failover latency —
    a primary that misses heartbeats for ``lease_timeout_s`` loses the
    lease and the lowest-index live standby is promoted.  ``handoff``
    selects how a promoted replica acquires registry state: ``"shared"``
    serves all replicas from one durable registry object (the in-process
    model of a shared store), ``"attach"`` re-attaches the sharded
    on-disk registry root on promotion (requires
    ``registry_backend='sharded'``; exercises the real crash path —
    checkpoint plus write-ahead journal replay).
    """

    n_replicas: int = 1
    lease_timeout_s: float = 0.5
    heartbeat_interval_s: float = 0.1
    handoff: str = "shared"

    def __post_init__(self) -> None:
        if int(self.n_replicas) < 1:
            raise ValueError(
                f"n_replicas must be >= 1, got {self.n_replicas}"
            )
        if float(self.lease_timeout_s) <= 0.0:
            raise ValueError("lease_timeout_s must be positive")
        if float(self.heartbeat_interval_s) <= 0.0:
            raise ValueError("heartbeat_interval_s must be positive")
        if float(self.heartbeat_interval_s) >= float(self.lease_timeout_s):
            raise ValueError(
                "heartbeat_interval_s must be shorter than lease_timeout_s "
                "(a healthy primary must renew before the lease runs out)"
            )
        if self.handoff not in ("shared", "attach"):
            raise ValueError(
                f"handoff must be 'shared' or 'attach', got {self.handoff!r}"
            )

    def to_state(self) -> Dict[str, Any]:
        return {"n_replicas": int(self.n_replicas),
                "lease_timeout_s": float(self.lease_timeout_s),
                "heartbeat_interval_s": float(self.heartbeat_interval_s),
                "handoff": str(self.handoff)}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "HAConfig":
        _reject_unknown_keys(
            state,
            ("n_replicas", "lease_timeout_s", "heartbeat_interval_s",
             "handoff"),
            "ha config",
        )
        return cls(
            n_replicas=int(state.get("n_replicas", 1)),
            lease_timeout_s=float(state.get("lease_timeout_s", 0.5)),
            heartbeat_interval_s=float(
                state.get("heartbeat_interval_s", 0.1)),
            handoff=str(state.get("handoff", "shared")),
        )


@dataclass(frozen=True)
class FleetConfig:
    """One declarative description of a provisioned, running fleet.

    ``puf`` holds the photonic design knobs forwarded to
    :func:`repro.puf.photonic_strong.photonic_strong_family`
    (``challenge_bits``, ``n_stages``, ``response_bits``, ...); it is
    copied at construction so a config never aliases caller state.
    ``latency_budget_s``/``max_batch`` parameterize the service's
    request coalescer, and the coalescer of any
    :class:`~repro.service.net.AuthServer` serving it; ``fault_model`` seeds lifecycle simulation
    (:meth:`repro.service.AuthService.simulator`); ``snapshot_path`` is
    the default target of :meth:`repro.service.AuthService.save`.

    ``registry_backend`` selects the enrollment registry's storage
    (see :mod:`repro.fleet.storage`): ``"memory"`` (default) keeps the
    fleet in-process, ``"sharded"`` pages it from append-only shard
    files so registry size is disk-bound, with ``storage_root`` naming
    the shard directory (a scratch directory when None) and
    ``resident_records`` capping the materialized-record LRU.
    """

    n_devices: int
    seed: int = 0
    n_spot_crps: int = 0
    clock_tolerance: float = 0.05
    engine: EngineConfig = EngineConfig()
    latency_budget_s: float = 0.005
    max_batch: int = 256
    fault_model: Optional[FaultModel] = None
    snapshot_path: Optional[str] = None
    registry_backend: str = "memory"
    storage_root: Optional[str] = None
    resident_records: Optional[int] = None
    ha: Optional[HAConfig] = None
    puf: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if int(self.n_devices) < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if int(self.n_spot_crps) < 0:
            raise ValueError(
                f"n_spot_crps must be >= 0, got {self.n_spot_crps}"
            )
        if not 0.0 <= float(self.clock_tolerance) < 1.0:
            raise ValueError(
                f"clock_tolerance must lie in [0, 1), got "
                f"{self.clock_tolerance}"
            )
        if float(self.latency_budget_s) < 0.0:
            raise ValueError("latency_budget_s must be non-negative")
        if int(self.max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not isinstance(self.engine, EngineConfig):
            raise TypeError("engine must be an EngineConfig")
        if self.fault_model is not None and not isinstance(self.fault_model,
                                                           FaultModel):
            raise TypeError("fault_model must be a FaultModel or None")
        if self.registry_backend not in BACKEND_NAMES:
            raise ValueError(
                f"registry_backend must be one of {BACKEND_NAMES}, got "
                f"{self.registry_backend!r}"
            )
        if self.registry_backend == "memory":
            if self.storage_root is not None:
                raise ValueError(
                    "storage_root requires registry_backend='sharded'"
                )
            if self.resident_records is not None:
                raise ValueError(
                    "resident_records requires registry_backend='sharded'"
                )
        if self.resident_records is not None \
                and int(self.resident_records) < 1:
            raise ValueError(
                f"resident_records must be >= 1, got {self.resident_records}"
            )
        if self.ha is not None:
            if not isinstance(self.ha, HAConfig):
                raise TypeError("ha must be an HAConfig or None")
            if self.ha.handoff == "attach" \
                    and self.registry_backend != "sharded":
                raise ValueError(
                    "ha handoff='attach' requires registry_backend="
                    "'sharded' (promotion re-attaches the on-disk root)"
                )
        if not all(isinstance(key, str) for key in self.puf):
            raise TypeError("puf design knobs must be keyed by name")
        # Freeze a private copy: the config must not alias a caller dict
        # that later mutates under it.
        object.__setattr__(self, "puf", dict(self.puf))

    def make_registry_backend(self) -> RegistryBackend:
        """Build the registry storage backend this config describes."""
        return make_backend(
            self.registry_backend,
            root=self.storage_root,
            resident_records=self.resident_records,
        )

    def to_state(self) -> Dict[str, Any]:
        """JSON-serializable capture; inverse of :meth:`from_state`."""
        return {
            "format": CONFIG_FORMAT,
            "version": CONFIG_VERSION,
            "n_devices": int(self.n_devices),
            "seed": int(self.seed),
            "n_spot_crps": int(self.n_spot_crps),
            "clock_tolerance": float(self.clock_tolerance),
            "engine": self.engine.to_state(),
            "latency_budget_s": float(self.latency_budget_s),
            "max_batch": int(self.max_batch),
            "fault_model": (None if self.fault_model is None
                            else asdict(self.fault_model)),
            "snapshot_path": self.snapshot_path,
            "registry_backend": self.registry_backend,
            "storage_root": self.storage_root,
            "resident_records": (None if self.resident_records is None
                                 else int(self.resident_records)),
            "ha": None if self.ha is None else self.ha.to_state(),
            "puf": dict(self.puf),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "FleetConfig":
        if state.get("format") != CONFIG_FORMAT:
            raise ValueError(
                f"not a fleet-config state: {state.get('format')!r}"
            )
        if state.get("version") != CONFIG_VERSION:
            raise ValueError(
                f"unsupported fleet-config version {state.get('version')!r}"
            )
        _reject_unknown_keys(
            state,
            ("format", "version", "n_devices", "seed", "n_spot_crps",
             "clock_tolerance", "engine", "latency_budget_s", "max_batch",
             "fault_model", "snapshot_path", "registry_backend",
             "storage_root", "resident_records", "ha", "puf"),
            "fleet config",
        )
        fault_state = state.get("fault_model")
        ha_state = state.get("ha")
        return cls(
            n_devices=int(state["n_devices"]),
            seed=int(state.get("seed", 0)),
            n_spot_crps=int(state.get("n_spot_crps", 0)),
            clock_tolerance=float(state.get("clock_tolerance", 0.05)),
            engine=EngineConfig.from_state(state.get("engine", {})),
            latency_budget_s=float(state.get("latency_budget_s", 0.005)),
            max_batch=int(state.get("max_batch", 256)),
            fault_model=(None if fault_state is None
                         else FaultModel(**fault_state)),
            snapshot_path=state.get("snapshot_path"),
            registry_backend=state.get("registry_backend", "memory"),
            storage_root=state.get("storage_root"),
            resident_records=state.get("resident_records"),
            ha=None if ha_state is None else HAConfig.from_state(ha_state),
            puf=dict(state.get("puf", {})),
        )
