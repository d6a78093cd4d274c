"""Fleet enrollment registry.

The verifier-side state for fleet-scale authentication.  Each enrolled
device contributes one :class:`DeviceRecord` holding

* the rolling CRP of the HSC-IoT scheme (paper Sec. III-A): exactly one
  current response per device, updated atomically after every successful
  session — the storage argument against CRP-database verifiers;
* the device's integrity reference (firmware hash);
* optionally, a pre-harvested spot-check CRP pool: ``n_spot_crps``
  challenge/response pairs measured at enrollment through the compiled
  engine's batch path in a single vectorized pass, burned one index at a
  time by :meth:`~repro.fleet.verifier.BatchVerifier.spot_check`.

The registry itself is a thin façade: every record lives behind a
:class:`~repro.fleet.storage.base.RegistryBackend` (see
:mod:`repro.fleet.storage`).  The default
:class:`~repro.fleet.storage.memory.MemoryBackend` is bit-for-bit the
historical dict-backed behavior; an out-of-core
:class:`~repro.fleet.storage.sharded.ShardedFileBackend` pages CRP
pools from append-only shard files so fleet size is bounded by disk,
not RAM.  The façade owns everything RNG-shaped (pool challenge
derivation, spot-index draws) so the bit-streams are identical on
every backend.

The registry is the *only* verifier-side state that must survive a
restart: :meth:`FleetRegistry.to_state` / :meth:`FleetRegistry.from_state`
capture it as numpy arrays plus a JSON manifest, and
:meth:`FleetRegistry.save` / :meth:`FleetRegistry.load` round-trip that
state through one ``.npz`` archive (see
:func:`repro.utils.serialization.save_state`), so a verifier crash
mid-campaign never strands a device's rolling CRP.  On an out-of-core
backend the capture is an incremental *pointer* snapshot (O(dirty)
flush + a manifest referencing the shard directory); pass
``full=True`` to force the portable monolithic archive.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.fleet.rounds import measure_grouped
from repro.fleet.storage.base import (
    DeviceRecord,
    RegistryBackend,
    make_backend,
)
from repro.fleet.storage.memory import (
    MONOLITHIC_STATE_VERSION,
    POINTER_STATE_VERSION,
    STATE_FORMAT,
    MemoryBackend,
    monolithic_state,
)
from repro.protocols.mutual_auth import AuthenticationFailure, FailureKind
from repro.utils.rng import derive_rng
from repro.utils.serialization import from_hex, load_state, save_state

#: Historical alias: the monolithic capture has always been version 1.
STATE_VERSION = MONOLITHIC_STATE_VERSION

__all__ = [
    "DeviceRecord",
    "FleetRegistry",
    "STATE_FORMAT",
    "STATE_VERSION",
]


class FleetRegistry:
    """Enrollment registry: device_id -> :class:`DeviceRecord`.

    ``backend`` is a :class:`~repro.fleet.storage.base.RegistryBackend`
    instance or a backend name for
    :func:`~repro.fleet.storage.base.make_backend`; the default is the
    in-memory reference backend (the historical behavior).
    """

    def __init__(self, backend: Optional[RegistryBackend] = None) -> None:
        if backend is None:
            backend = MemoryBackend()
        elif isinstance(backend, str):
            backend = make_backend(backend)
        self.backend = backend

    def __len__(self) -> int:
        return len(self.backend)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self.backend

    def device_ids(self) -> List[str]:
        """All device ids as a list (kept for API stability; prefer
        :meth:`iter_device_ids` for fleet-sized iteration)."""
        return list(self.backend.iter_ids())

    def iter_device_ids(self) -> Iterator[str]:
        """Device ids, lazily — no fleet-sized list materialization."""
        return self.backend.iter_ids()

    @staticmethod
    def _pool_challenges(device, n_spot_crps: int, seed: int) -> np.ndarray:
        """The device's spot-pool challenge block (one derived stream)."""
        pool_rng = derive_rng(seed, "fleet-enroll", device.device_id)
        return pool_rng.integers(
            0, 2, size=(n_spot_crps, device.puf.challenge_bits),
            dtype=np.uint8,
        )

    @staticmethod
    def _make_record(device, challenges: np.ndarray,
                     responses: np.ndarray) -> DeviceRecord:
        return DeviceRecord(
            device_id=device.device_id,
            challenge_bits=int(device.puf.challenge_bits),
            current_response=np.asarray(device.current_response, dtype=np.uint8),
            firmware_hash=bytes(device.firmware_hash),
            expected_clock_count=int(device.clock_count),
            crp_challenges=challenges,
            crp_responses=responses,
            crp_used=np.zeros(len(challenges), dtype=bool),
        )

    def _build_record(self, device, challenges: np.ndarray,
                      responses: np.ndarray) -> DeviceRecord:
        if device.device_id in self.backend:
            raise ValueError(f"device {device.device_id!r} already enrolled")
        record = self._make_record(device, challenges, responses)
        self.backend.put(record)
        return record

    def enroll(self, device, n_spot_crps: int = 0, seed: int = 0,
               measurement: int = 0) -> DeviceRecord:
        """Enroll one device (duck-typed: id, PUF, response, firmware hash).

        The spot-check pool is harvested with a single ``evaluate_batch``
        call, which the photonic strong PUF serves through the compiled
        engine — enrollment cost stays flat as ``n_spot_crps`` grows into
        the hundreds.
        """
        if device.device_id in self.backend:
            raise ValueError(f"device {device.device_id!r} already enrolled")
        puf = device.puf
        if n_spot_crps > 0:
            challenges = self._pool_challenges(device, n_spot_crps, seed)
            responses = np.asarray(
                puf.evaluate_batch(challenges, measurement=measurement),
                dtype=np.uint8,
            )
        else:
            challenges = np.zeros((0, puf.challenge_bits), dtype=np.uint8)
            responses = np.zeros((0, puf.response_bits), dtype=np.uint8)
        return self._build_record(device, challenges, responses)

    def enroll_fleet(self, devices: Sequence, n_spot_crps: int = 0,
                     seed: int = 0, measurement: int = 0) -> List[DeviceRecord]:
        """Enroll many devices, harvesting every spot pool in one pass.

        Plane-attached devices (see
        :meth:`repro.fleet.verifier.FleetDevice.attach_plane`) answer all
        ``n_devices x n_spot_crps`` pool challenges through a single
        fleet-stacked tensor pass per plane; the challenge streams, noise
        realisations, and resulting records are identical to calling
        :meth:`enroll` per device.  Records are committed through the
        backend's batch path (one coalesced write per shard on the
        sharded backend).
        """
        devices = list(devices)
        # Validate the whole batch before harvesting anything: a mid-list
        # duplicate must not leave earlier devices committed (nor burn a
        # fleet-sized harvest on a doomed call).
        seen = set()
        for device in devices:
            if device.device_id in self.backend or device.device_id in seen:
                raise ValueError(
                    f"device {device.device_id!r} already enrolled"
                )
            seen.add(device.device_id)
        if n_spot_crps <= 0:
            records = [
                self._make_record(
                    device,
                    np.zeros((0, device.puf.challenge_bits), dtype=np.uint8),
                    np.zeros((0, device.puf.response_bits), dtype=np.uint8),
                )
                for device in devices
            ]
            self.backend.put_many(records)
            return records
        blocks = [self._pool_challenges(device, n_spot_crps, seed)
                  for device in devices]
        harvested = measure_grouped(devices, blocks, measurement)
        records = [self._make_record(device, blocks[position],
                                     harvested[position])
                   for position, device in enumerate(devices)]
        self.backend.put_many(records)
        return records

    def record(self, device_id: str) -> DeviceRecord:
        try:
            return self.backend.get(device_id)
        except KeyError:
            raise AuthenticationFailure(
                f"device {device_id!r} is not enrolled",
                FailureKind.NOT_ENROLLED,
            ) from None

    def revoke(self, device_id: str) -> DeviceRecord:
        """Remove one device from the fleet (decommissioned/compromised)."""
        self.record(device_id)  # uniform not-enrolled failure
        return self.backend.delete(device_id)

    def records(self, device_ids: Iterable[str]) -> List[DeviceRecord]:
        return [self.record(device_id) for device_id in device_ids]

    def iter_records(self) -> Iterator[DeviceRecord]:
        """Records, lazily; on an out-of-core backend each record is
        paged in on demand, so callers must not retain the whole fleet."""
        return self.backend.iter_records()

    def response_matrix(self, device_ids: Iterable[str]) -> np.ndarray:
        """(n_devices, response_bits) stacked current responses."""
        return np.vstack([self.record(d).current_response for d in device_ids])

    def roll(self, device_id: str, new_response: np.ndarray) -> None:
        """Atomically advance one device's rolling CRP."""
        self.record(device_id)  # uniform not-enrolled failure
        self.backend.roll(device_id, new_response)

    def draw_spot_indices(self, device_id: str, k: int,
                          rng: np.random.Generator) -> np.ndarray:
        """Pick ``k`` unused spot-check indices and burn them (anti-replay)."""
        record = self.record(device_id)
        unused = np.flatnonzero(~record.crp_used)
        if unused.size < k:
            raise AuthenticationFailure(
                f"device {device_id!r} has {unused.size} spot CRPs left, "
                f"{k} requested", FailureKind.POOL_EXHAUSTED,
            )
        chosen = rng.choice(unused, size=k, replace=False)
        self.backend.burn_spot_indices(device_id, chosen)
        return np.sort(chosen)

    def transaction(self):
        """Backend group-commit scope (see
        :meth:`~repro.fleet.storage.base.RegistryBackend.transaction`)."""
        return self.backend.transaction()

    @property
    def storage_bytes(self) -> int:
        """Fleet-wide verifier storage — a running total maintained by
        the backend on enroll/roll/revoke, never an O(n) walk."""
        return self.backend.storage_bytes

    def to_state(self, full: bool = False) -> dict:
        """Capture the registry as ``{"manifest": ..., "arrays": ...}``.

        The memory backend always emits the monolithic version-1 capture
        (every array inline — the historical format).  An out-of-core
        backend flushes incrementally and emits a version-2 *pointer*
        manifest referencing its shard directory; ``full=True`` forces
        the monolithic capture on any backend (portable, but O(fleet)).
        """
        if full:
            return monolithic_state(self.backend)
        return self.backend.to_state()

    @classmethod
    def from_state(cls, state: dict,
                   backend: Optional[RegistryBackend] = None,
                   ) -> "FleetRegistry":
        """Rebuild a registry from :meth:`to_state` output.

        Monolithic (version-1) states load into ``backend`` (default: a
        fresh memory backend) — passing a sharded backend here is the
        migration path from a legacy archive to out-of-core storage.
        Pointer (version-2) states re-attach the referenced shard
        directory at its recorded generation; ``backend`` must be None.
        """
        manifest = state["manifest"]
        if manifest.get("format") != STATE_FORMAT:
            raise ValueError(
                f"not a fleet-registry state: {manifest.get('format')!r}"
            )
        version = manifest.get("version")
        if version == MONOLITHIC_STATE_VERSION:
            return cls._from_monolithic(state, backend)
        if version == POINTER_STATE_VERSION:
            if backend is not None:
                raise ValueError(
                    "a pointer state re-attaches its own shard directory; "
                    "it cannot load into a caller-supplied backend"
                )
            return cls._from_pointer(manifest)
        raise ValueError(
            f"unsupported state version {version!r}"
        )

    @classmethod
    def _from_monolithic(cls, state: dict,
                         backend: Optional[RegistryBackend],
                         ) -> "FleetRegistry":
        manifest, arrays = state["manifest"], state["arrays"]
        registry = cls(backend)
        records = []
        for entry in manifest["devices"]:
            key = entry["key"]
            # np.array (not asarray): a registry restored from a snapshot
            # must not alias the snapshot's arrays, or its in-place
            # mutations would corrupt a later restore from the same state.
            records.append(DeviceRecord(
                device_id=entry["device_id"],
                challenge_bits=int(entry["challenge_bits"]),
                current_response=np.array(arrays[f"{key}_response"],
                                          dtype=np.uint8),
                firmware_hash=from_hex(entry["firmware_hash"]),
                expected_clock_count=int(entry["expected_clock_count"]),
                crp_challenges=np.array(arrays[f"{key}_crp_challenges"],
                                        dtype=np.uint8),
                crp_responses=np.array(arrays[f"{key}_crp_responses"],
                                       dtype=np.uint8),
                crp_used=np.array(arrays[f"{key}_crp_used"], dtype=bool),
                sessions=int(entry["sessions"]),
            ))
        registry.backend.put_many(records)
        return registry

    @classmethod
    def _from_pointer(cls, manifest: dict) -> "FleetRegistry":
        from repro.fleet.storage.sharded import ShardedFileBackend

        storage = manifest["storage"]
        if storage.get("backend") != ShardedFileBackend.name:
            raise ValueError(
                f"unknown pointer-state backend {storage.get('backend')!r}"
            )
        return cls(ShardedFileBackend.attach(
            storage["root"], generation=storage.get("generation"),
        ))

    def save(self, path: str, full: bool = False) -> str:
        """Persist to one ``.npz`` archive; returns the path written.

        On the sharded backend this writes the lightweight pointer
        snapshot by default (the bulk stays in the shard directory);
        ``full=True`` writes the portable monolithic archive.
        """
        state = self.to_state(full=full)
        return save_state(path, state["manifest"], state["arrays"])

    @classmethod
    def load(cls, path: str,
             backend: Optional[RegistryBackend] = None) -> "FleetRegistry":
        """Load a registry persisted by :meth:`save`.

        ``backend`` (monolithic archives only) selects the storage the
        fleet loads into — the legacy-npz → out-of-core migration path.
        """
        manifest, arrays = load_state(path)
        return cls.from_state({"manifest": manifest, "arrays": arrays},
                              backend=backend)

    def close(self) -> None:
        """Release backend resources (file handles, scratch dirs)."""
        self.backend.close()
