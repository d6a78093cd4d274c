"""Canonical message serialization for the security protocols.

Protocol messages are sequences of byte-string fields.  We encode them with
a 4-byte big-endian length prefix per field so that encoding is injective:
no two distinct field sequences produce the same wire bytes, which matters
when the encoded message is MACed.

The module also provides the on-disk state format used by the fleet
registry (:meth:`repro.fleet.registry.FleetRegistry.save`): a single
``.npz`` archive holding the numpy arrays plus a JSON manifest for the
scalar/string state, written by :func:`save_state` and read back by
:func:`load_state`.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

_LENGTH = struct.Struct(">I")
_pack_length = _LENGTH.pack
_unpack_length = _LENGTH.unpack_from

#: Reserved array key carrying the JSON manifest inside a state archive.
MANIFEST_KEY = "manifest_json"

#: Reserved manifest key carrying the archive schema version.
SCHEMA_VERSION_KEY = "schema_version"

#: On-disk state schema version stamped into every manifest by
#: :func:`save_state`.  Bump the *major* when an archive written by the
#: new code can no longer be read by the old rules (``load_state``
#: rejects foreign majors outright); bump the *minor* for additive
#: changes.
#:
#: Minor 1: registry states may be *pointer* manifests — a
#: ``version: 2`` fleet-registry manifest whose ``storage`` entry
#: references an out-of-core shard directory instead of carrying the
#: fleet's arrays inline (see
#: :class:`repro.fleet.storage.sharded.ShardedFileBackend`).  The
#: archive layout itself is unchanged (the arrays dict is simply
#: empty), so the major stays 1; old readers reject the unknown
#: registry-manifest version cleanly.
STATE_SCHEMA_MAJOR = 1
STATE_SCHEMA_MINOR = 1


def encode_fields(fields: Sequence[bytes]) -> bytes:
    """Length-prefix and concatenate a sequence of byte fields."""
    parts = []
    for field in fields:
        if not isinstance(field, (bytes, bytearray)):
            raise TypeError(f"fields must be bytes, got {type(field).__name__}")
        parts += (_pack_length(len(field)), field)
    return b"".join(parts)


def decode_fields(data: bytes) -> List[bytes]:
    """Inverse of :func:`encode_fields`; raises ``ValueError`` on malformed input."""
    return _decode_from(
        data if type(data) is bytes else memoryview(data).tobytes(), 0)


def _decode_from(data: bytes, offset: int) -> List[bytes]:
    """:func:`decode_fields` of ``data[offset:]``, parsed in place."""
    fields = []
    end = len(data)
    while offset < end:
        start = offset + 4
        if start > end:
            raise ValueError("truncated length prefix")
        stop = start + _unpack_length(data, offset)[0]
        if stop > end:
            raise ValueError("truncated field body")
        fields.append(data[start:stop])
        offset = stop
    return fields


def save_state(path: str, manifest: dict,
               arrays: Mapping[str, np.ndarray]) -> str:
    """Write a JSON manifest plus named numpy arrays as one ``.npz`` file.

    ``manifest`` must be JSON-serializable; array keys must be valid
    Python identifiers (``np.savez`` keyword constraint) and must not
    collide with :data:`MANIFEST_KEY`.  The manifest is stamped with
    the current archive schema version under the reserved
    :data:`SCHEMA_VERSION_KEY` (stripped again by :func:`load_state`).
    Returns the path actually written (``np.savez`` appends the
    ``.npz`` suffix when missing).
    """
    if MANIFEST_KEY in arrays:
        raise ValueError(f"array key {MANIFEST_KEY!r} is reserved")
    if SCHEMA_VERSION_KEY in manifest:
        raise ValueError(f"manifest key {SCHEMA_VERSION_KEY!r} is reserved")
    stamped = dict(manifest)
    stamped[SCHEMA_VERSION_KEY] = \
        f"{STATE_SCHEMA_MAJOR}.{STATE_SCHEMA_MINOR}"
    payload: Dict[str, np.ndarray] = {
        MANIFEST_KEY: np.frombuffer(
            json.dumps(stamped, sort_keys=True).encode(), dtype=np.uint8
        ),
    }
    for key, value in arrays.items():
        payload[key] = np.asarray(value)
    np.savez_compressed(path, **payload)
    path = str(path)
    return path if path.endswith(".npz") else path + ".npz"


def _check_schema_version(manifest: dict, path: str) -> None:
    """Strip and validate the archive's schema version stamp.

    Archives written before versioning carry no stamp and are accepted
    as legacy (their layout predates every incompatible change by
    construction).  A stamped archive from an unknown *major* is
    rejected outright — silently best-effort reads of a foreign layout
    corrupt registries — while newer minors within the known major are
    accepted (minor bumps are additive).
    """
    version = manifest.pop(SCHEMA_VERSION_KEY, None)
    if version is None:
        return
    try:
        major = int(str(version).split(".", 1)[0])
    except ValueError:
        raise ValueError(
            f"{path!r} carries unparsable schema version {version!r}"
        ) from None
    if major != STATE_SCHEMA_MAJOR:
        raise ValueError(
            f"{path!r} was written with state schema version {version}; "
            f"this build reads major version {STATE_SCHEMA_MAJOR} only — "
            "migrate the archive or upgrade the reader"
        )


def load_state(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`save_state`: ``(manifest, arrays)``.

    Rejects archives stamped with an unknown schema *major* version
    (see :func:`_check_schema_version`); the version stamp itself is
    stripped from the returned manifest.
    """
    with np.load(path) as archive:
        try:
            manifest = json.loads(bytes(archive[MANIFEST_KEY]).decode())
        except KeyError:
            raise ValueError(
                f"{path!r} is not a state archive (no {MANIFEST_KEY!r} entry)"
            ) from None
        _check_schema_version(manifest, str(path))
        arrays = {key: archive[key] for key in archive.files
                  if key != MANIFEST_KEY}
    return manifest, arrays


def to_hex(data: bytes) -> str:
    """Hex-encode bytes for logging."""
    return data.hex()


def from_hex(text: str) -> bytes:
    """Decode a hex string produced by :func:`to_hex`."""
    return bytes.fromhex(text)
