"""Device-side round flow: every device's Fig. 4 turn per plane pass.

This module owns the *mechanism* of one authentication round's device
turns — grouping plane-attached devices, dispatching the stacked tensor
passes, and framing per-device messages while later shards are still
propagating.  It is internal machinery consumed by
:meth:`repro.fleet.verifier.BatchVerifier.authenticate_fleet` and the
lifecycle simulator; the supported public entry point is
:class:`repro.service.AuthService`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.protocols.mutual_auth import derive_challenge_batch


def respond_round_staged(
    devices: Sequence,
    nonces: Dict[str, bytes],
    tamper_factors: Optional[Dict[str, float]] = None,
) -> Iterator[Tuple[List[int], List]]:
    """Device turns as a pipeline of per-shard stages.

    Yields ``(positions, messages)`` chunks: the challenge-derivation
    stage runs up front per plane group (one batched DRBG expansion),
    the plane pass runs per shard (on the plane's sharded executor when
    one is attached — see
    :meth:`~repro.puf.photonic_strong.PhotonicFleet.shard`), and the
    MAC-framing stage for shard ``i`` runs *while shard ``i + 1`` is
    still propagating* — the consumer (the pipelined
    :meth:`~repro.fleet.verifier.BatchVerifier.authenticate_fleet`)
    likewise overlaps its verification stage with later shards' plane
    passes.

    Unattached devices (heterogeneous hardware, mid-campaign churn
    before re-stacking) fall back to their own batch-1
    :meth:`~repro.fleet.verifier.FleetDevice.respond` and are yielded as
    the first chunk.  Concatenating all chunks by position reproduces
    the flat :func:`respond_round` output exactly.

    Each plane chunk is framed by one
    :func:`~repro.fleet.verifier.assemble_responses` call: two packing
    passes and one batched MAC for all of its devices.
    """
    from repro.fleet.verifier import assemble_responses  # imports us

    tamper_factors = tamper_factors or {}
    fallback: List[int] = []
    groups: Dict[int, List[int]] = {}
    planes: Dict[int, object] = {}
    for position, device in enumerate(devices):
        if (device.plane is None or device.plane_row is None
                or device.current_response is None):
            fallback.append(position)
        else:
            groups.setdefault(id(device.plane), []).append(position)
            planes[id(device.plane)] = device.plane
    # Dispatch every plane group's pass first (an attached executor's
    # workers start immediately), so the fallback devices' batch-1 turns
    # and all per-shard framing below overlap the in-flight passes.
    dispatched: List[tuple] = []
    for key, positions in groups.items():
        plane = planes[key]
        members = [devices[p] for p in positions]
        stored = np.vstack([device.current_response for device in members])
        challenges = derive_challenge_batch(
            stored, members[0].puf.challenge_bits
        )
        rows = [device.plane_row for device in members]
        if hasattr(plane, "evaluate_staged"):
            staged = plane.evaluate_staged(challenges[:, np.newaxis, :],
                                           dies=rows)
        else:  # duck-typed plane without a staged path: one chunk
            staged = iter([(
                np.arange(len(rows)),
                plane.evaluate(challenges[:, np.newaxis, :], dies=rows),
            )])
        dispatched.append((positions, challenges, staged))
    if fallback:
        yield fallback, [
            devices[position].respond(
                nonces[devices[position].device_id],
                tamper_factors.get(devices[position].device_id, 1.0),
            )
            for position in fallback
        ]
    for positions, challenges, staged in dispatched:
        for chunk, fresh in staged:
            local = np.asarray(chunk, dtype=np.intp)
            chunk_positions = [positions[index] for index in local]
            members = [devices[position] for position in chunk_positions]
            yield chunk_positions, assemble_responses(
                members, challenges[local], fresh[:, 0, :],
                [nonces[device.device_id] for device in members],
                [tamper_factors.get(device.device_id, 1.0)
                 for device in members],
            )


def respond_round(
    devices: Sequence,
    nonces: Dict[str, bytes],
    tamper_factors: Optional[Dict[str, float]] = None,
) -> List:
    """Every device's Fig. 4 turn, measured as one tensor pass per plane.

    Devices attached to a stacked execution plane are grouped: their next
    challenges are gathered first (:func:`derive_challenge_batch`), all
    fresh responses come back from the plane's tensor pass — sharded
    across worker cores when an executor is attached — and each chunk's
    messages are framed and MAC'd in one batched pass.  Message order
    matches ``devices``.  (This is the flat view of
    :func:`respond_round_staged`.)
    """
    messages: List = [None] * len(devices)
    for positions, chunk in respond_round_staged(devices, nonces,
                                                 tamper_factors):
        for position, message in zip(positions, chunk):
            messages[position] = message
    return messages
