"""Composite PIC + ASIC binding PUF.

Paper Sec. IV: the photonic die (PIC) and its driving ASIC are bound by
generating a *composite* response from the two chips — the ASIC's receive
path (TIA gains, ADC offsets, packaging parasitics) deterministically
modifies the photonic response, and the ASIC's own SRAM PUF contributes a
chip-unique component.  Replacing either chip with a counterfeit changes
the composite response, which is how tampering is detected.

We model the ASIC contribution as a keyed bit mask derived from the ASIC's
SRAM fingerprint and the challenge: a behavioral stand-in for the analog
response-shaping that preserves the security-relevant property (the
composite response is a function of *both* dies).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.puf.base import NOMINAL_ENV, PUFEnvironment, StrongPUF
from repro.puf.photonic_strong import PhotonicStrongPUF
from repro.puf.sram import SRAMPUF
from repro.utils.bits import BitArray, bits_from_bytes


def _asic_mask(fingerprint: BitArray, challenge: BitArray, n_bits: int) -> BitArray:
    """Deterministic ASIC response-shaping mask.

    Hash of (SRAM fingerprint, challenge) expanded to ``n_bits``.  The
    fingerprint is majority-stabilised by the caller, so the mask is a
    frozen property of the ASIC die.
    """
    hasher = hashlib.sha256()
    hasher.update(np.asarray(fingerprint, dtype=np.uint8).tobytes())
    hasher.update(b"|")
    hasher.update(np.asarray(challenge, dtype=np.uint8).tobytes())
    stream = b""
    counter = 0
    while len(stream) * 8 < n_bits:
        stream += hashlib.sha256(hasher.digest() + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bits_from_bytes(stream)[:n_bits]


class CompositePUF(StrongPUF):
    """Strong PUF binding a photonic die to its driving ASIC.

    Parameters
    ----------
    pic:
        The photonic strong PUF on the PIC.
    asic:
        The SRAM PUF on the ASIC; its (noise-averaged) fingerprint shapes
        every composite response.
    mask_measurements:
        Number of SRAM power-ups majority-voted to freeze the fingerprint
        (the analog shaping of a real ASIC has no read noise, so the model
        must suppress SRAM noise here).
    """

    def __init__(
        self,
        pic: PhotonicStrongPUF,
        asic: SRAMPUF,
        mask_measurements: int = 5,
    ):
        super().__init__()
        self.pic = pic
        self.asic = asic
        self.challenge_bits = pic.challenge_bits
        self.response_bits = pic.response_bits
        votes = np.vstack([
            asic.power_up(measurement=1000 + m) for m in range(mask_measurements)
        ])
        self._fingerprint = (votes.sum(axis=0) * 2 >= mask_measurements).astype(np.uint8)

    def _evaluate(
        self, challenge: BitArray, env: PUFEnvironment, measurement: int
    ) -> BitArray:
        photonic = self.pic.evaluate(challenge, env, measurement)
        mask = _asic_mask(self._fingerprint, challenge, self.response_bits)
        return np.bitwise_xor(photonic, mask)

    def evaluate_batch(
        self,
        challenges: np.ndarray,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> np.ndarray:
        """(batch, response_bits) composite responses."""
        challenges = np.atleast_2d(np.asarray(challenges, dtype=np.uint8))
        photonic = self.pic.evaluate_batch(challenges, env, measurement)
        masks = np.vstack([
            _asic_mask(self._fingerprint, c, self.response_bits) for c in challenges
        ])
        return np.bitwise_xor(photonic, masks)
