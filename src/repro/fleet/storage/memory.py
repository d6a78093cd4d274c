"""The in-process reference backend: a dict of records.

Bit-for-bit the historical ``FleetRegistry`` behavior — records are
stored by object identity, mutations happen in place, and
:meth:`MemoryBackend.to_state` emits the exact monolithic manifest +
arrays capture the registry has always produced (sorted device order,
per-device array keys, value copies).  Every other backend is pinned
against this one by the cross-backend equivalence suite.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator

import numpy as np

from repro.fleet.storage.base import DeviceRecord, RegistryBackend
from repro.utils.serialization import to_hex

#: Manifest stamp of a registry state capture (both monolithic and
#: pointer forms carry it).
STATE_FORMAT = "fleet-registry"

#: Monolithic capture: every device's arrays inline in the archive.
MONOLITHIC_STATE_VERSION = 1

#: Pointer capture: a lightweight manifest referencing an out-of-core
#: backend's on-disk shards (see ``ShardedFileBackend``).
POINTER_STATE_VERSION = 2


class MemoryBackend(RegistryBackend):
    """Dict-backed storage; the semantics every backend must match."""

    name = "memory"

    def __init__(self) -> None:
        self._records: Dict[str, DeviceRecord] = {}
        self._storage_bytes = 0

    # -- storage ----------------------------------------------------------

    def get(self, device_id: str) -> DeviceRecord:
        return self._records[device_id]

    def put(self, record: DeviceRecord) -> None:
        if record.device_id in self._records:
            raise ValueError(
                f"device {record.device_id!r} already enrolled"
            )
        self._records[record.device_id] = record
        self._storage_bytes += record.storage_bytes

    def put_many(self, records: Iterable[DeviceRecord]) -> None:
        for record in records:
            self.put(record)

    def delete(self, device_id: str) -> DeviceRecord:
        record = self._records.pop(device_id)
        self._storage_bytes -= record.storage_bytes
        return record

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def iter_ids(self) -> Iterator[str]:
        return iter(self._records)

    def iter_records(self) -> Iterator[DeviceRecord]:
        return iter(self._records.values())

    # -- protocol mutations -----------------------------------------------

    def roll(self, device_id: str, new_response: np.ndarray) -> None:
        record = self._records[device_id]
        old_rolling = math.ceil(record.current_response.size / 8)
        record.current_response = np.asarray(new_response, dtype=np.uint8)
        record.sessions += 1
        self._storage_bytes += \
            math.ceil(record.current_response.size / 8) - old_rolling

    def burn_spot_indices(self, device_id: str,
                          indices: np.ndarray) -> None:
        self._records[device_id].crp_used[indices] = True

    # -- accounting -------------------------------------------------------

    @property
    def storage_bytes(self) -> int:
        return self._storage_bytes

    # -- persistence ------------------------------------------------------

    def to_state(self) -> dict:
        """The monolithic capture (the registry's historical format)."""
        return monolithic_state(self)


def monolithic_state(backend: RegistryBackend) -> dict:
    """The portable version-1 capture of any backend's records.

    The manifest carries the scalar/string state (JSON-serializable);
    the arrays dict holds each record's rolling response, spot pool and
    burn mask under per-device keys listed in the manifest, in sorted
    device order.  Copies, not views: the registry mutates
    ``current_response`` and ``crp_used`` in place, and a snapshot must
    stay a value capture.  The memory backend's :meth:`to_state` and
    ``FleetRegistry.to_state(full=True)`` on every backend emit this.
    """
    manifest = {"format": STATE_FORMAT,
                "version": MONOLITHIC_STATE_VERSION,
                "devices": []}
    arrays: Dict[str, np.ndarray] = {}
    for index, device_id in enumerate(sorted(backend.iter_ids())):
        record = backend.get(device_id)
        key = f"d{index:06d}"
        manifest["devices"].append({
            "device_id": device_id,
            "key": key,
            "challenge_bits": int(record.challenge_bits),
            "firmware_hash": to_hex(record.firmware_hash),
            "expected_clock_count": int(record.expected_clock_count),
            "sessions": int(record.sessions),
        })
        arrays[f"{key}_response"] = record.current_response.copy()
        arrays[f"{key}_crp_challenges"] = record.crp_challenges.copy()
        arrays[f"{key}_crp_responses"] = record.crp_responses.copy()
        arrays[f"{key}_crp_used"] = record.crp_used.copy()
    return {"manifest": manifest, "arrays": arrays}
