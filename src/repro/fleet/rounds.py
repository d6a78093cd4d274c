"""Device-side round flow: every device's Fig. 4 turn per plane pass.

This module owns the *mechanism* of one authentication round's device
turns — grouping plane-attached devices, running one stacked tensor
pass per plane, and framing each plane's messages in one batched pass —
and the same grouping for block measurements (:func:`measure_grouped`,
behind spot-pool enrollment and spot checks).  It is internal machinery
consumed by :class:`repro.fleet.verifier.BatchVerifier`,
:class:`repro.fleet.registry.FleetRegistry` and the lifecycle
simulator; the supported public entry point is
:class:`repro.service.AuthService`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.protocols.mutual_auth import derive_challenge_batch


def measure_grouped(devices: Sequence, blocks: Sequence[np.ndarray],
                    measurement: Optional[int] = None) -> List[np.ndarray]:
    """Every device's responses to its own challenge block, per plane.

    ``blocks[i]`` is device ``i``'s ``(k, challenge_bits)`` challenges;
    returns its ``(k, response_bits)`` uint8 responses, in ``devices``
    order.  Plane-attached devices (``plane`` and ``plane_row`` set)
    answer as rows of one
    :meth:`~repro.puf.photonic_strong.PhotonicFleet.evaluate` call per
    plane; the rest call their PUF's ``evaluate_batch``.  Duck-typed:
    a device without plane attributes counts as unattached.
    ``measurement`` is forwarded to both paths (``None`` advances each
    device's own measurement counter), so noise realisations match
    per-device measurement exactly.
    """
    measured: List[Optional[np.ndarray]] = [None] * len(devices)
    groups: Dict[int, List[int]] = {}
    for position, device in enumerate(devices):
        plane = getattr(device, "plane", None)
        if plane is None or getattr(device, "plane_row", None) is None:
            measured[position] = np.asarray(
                device.puf.evaluate_batch(blocks[position],
                                          measurement=measurement),
                dtype=np.uint8,
            )
        else:
            groups.setdefault(id(plane), []).append(position)
    for positions in groups.values():
        bits = devices[positions[0]].plane.evaluate(
            np.stack([blocks[p] for p in positions]),
            measurements=measurement,
            dies=[devices[p].plane_row for p in positions],
        )
        for index, position in enumerate(positions):
            measured[position] = np.asarray(bits[index], dtype=np.uint8)
    return measured


def respond_round_staged(
    devices: Sequence,
    nonces: Dict[str, bytes],
    tamper_factors: Optional[Dict[str, float]] = None,
) -> Iterator[Tuple[List[int], List]]:
    """Device turns in chunks: the unattached devices, then each plane.

    Yields ``(positions, messages)`` chunks.  Unattached devices
    (heterogeneous hardware, mid-campaign churn before re-stacking)
    answer through their own batch-1
    :meth:`~repro.fleet.verifier.FleetDevice.respond` and come first, as
    one chunk.  Each plane group then derives its challenges in one
    batched DRBG expansion, measures them in one
    :meth:`~repro.puf.photonic_strong.PhotonicFleet.evaluate` pass and
    is framed by one :func:`~repro.fleet.verifier.assemble_responses`
    call (two packing passes and one batched MAC), as one chunk.
    Concatenating all chunks by position reproduces the flat
    :func:`respond_round` output exactly.
    """
    from repro.fleet.verifier import assemble_responses  # imports us

    tamper_factors = tamper_factors or {}
    fallback: List[int] = []
    groups: Dict[int, List[int]] = {}
    for position, device in enumerate(devices):
        if (device.plane is None or device.plane_row is None
                or device.current_response is None):
            fallback.append(position)
        else:
            groups.setdefault(id(device.plane), []).append(position)
    if fallback:
        yield fallback, [
            devices[position].respond(
                nonces[devices[position].device_id],
                tamper_factors.get(devices[position].device_id, 1.0),
            )
            for position in fallback
        ]
    for positions in groups.values():
        members = [devices[p] for p in positions]
        stored = np.vstack([device.current_response for device in members])
        challenges = derive_challenge_batch(
            stored, members[0].puf.challenge_bits
        )
        fresh = members[0].plane.evaluate(
            challenges[:, np.newaxis, :],
            dies=[device.plane_row for device in members],
        )
        yield positions, assemble_responses(
            members, challenges, fresh[:, 0, :],
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
    fresh responses come back from the plane's tensor pass, and each
    plane's messages are framed and MAC'd in one batched pass.  Message
    order matches ``devices``.  (This is the flat view of
    :func:`respond_round_staged`.)
    """
    messages: List = [None] * len(devices)
    for positions, chunk in respond_round_staged(devices, nonces,
                                                 tamper_factors):
        for position, message in zip(positions, chunk):
            messages[position] = message
    return messages
