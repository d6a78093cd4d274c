"""PUF-based remote software attestation (paper Sec. III-B).

The Verifier sends (timestamp t, challenge c1).  The Device:

1. computes ``r_1 = pPUF(c_1)``;
2. seeds an RNG with ``r_1 + t`` to generate a random walk visiting every
   memory chunk: ``m_1, ..., m_n = RNG(r_1 + t)``;
3. chains ``h_1 = HASH(m_1, r_1)``; the response is simultaneously fed
   back as the next challenge, ``r_{i+1} = pPUF(r_i)``, and
   ``h_{i+1} = HASH(m_{i+1}, r_{i+1}, h_i)``;
4. returns the final ``h_n``.

The Verifier holds a copy of the clean memory and a model of the pPUF, so
it computes the expected ``h_n`` independently and checks both the value
and the *elapsed time* against a temporal constraint.  Because the pPUF
runs at >= 5 Gb/s, challenge generation never stalls the walk, so the
time budget is set by the hash/memory path alone — which is what lets the
constraint be strict enough to catch memory-relocation attacks.

The protocol assumes an ideally reliable strong PUF (the paper states
this assumption explicitly); attestation therefore evaluates the PUF in
its noise-free regime.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.crypto.drbg import HmacDrbg, generate_once
from repro.puf.base import PUFEnvironment
from repro.system.cpu import ProcessorModel
from repro.system.memory import DeviceMemory, RelocatingCompromisedMemory
from repro.system.soc import DeviceSoC
from repro.utils.bits import BitArray, bits_from_bytes, bytes_from_bits

_QUIET = PUFEnvironment(noise_scale=0.0)


def _pad_bits(bits: BitArray) -> bytes:
    padded = np.concatenate([
        np.asarray(bits, dtype=np.uint8),
        np.zeros((-len(bits)) % 8, dtype=np.uint8),
    ])
    return bytes_from_bits(padded)


def _walk_order(seed_response: BitArray, timestamp: int, n_chunks: int) -> list:
    """The memory walk m_1..m_n: a DRBG-seeded permutation of all chunks."""
    drbg = HmacDrbg(_pad_bits(seed_response) + timestamp.to_bytes(8, "big"),
                    personalization=b"attestation-walk")
    order = list(range(n_chunks))
    # Fisher-Yates with DRBG randomness: both sides reproduce it exactly.
    for i in range(n_chunks - 1, 0, -1):
        j = drbg.randint_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _response_to_challenge(response: BitArray, challenge_bits: int) -> BitArray:
    """r_i -> next challenge (width adaptation via DRBG expansion)."""
    raw = generate_once(_pad_bits(response), math.ceil(challenge_bits / 8),
                        personalization=b"attestation-chain")
    return bits_from_bytes(raw)[:challenge_bits]


@dataclass(frozen=True)
class AttestationRequest:
    timestamp: int
    challenge: BitArray


@dataclass(frozen=True)
class AttestationReport:
    """What the Device returns: the final hash and its elapsed time."""

    final_hash: bytes
    elapsed_s: float
    n_chunks: int


@dataclass(frozen=True)
class AttestationVerdict:
    accepted: bool
    hash_ok: bool
    time_ok: bool
    expected_time_s: float
    reported_time_s: float


class AttestationDevice:
    """Device-side attestation engine running on the SoC."""

    def __init__(self, soc: DeviceSoC,
                 memory: Optional[DeviceMemory] = None):
        self.soc = soc
        self.memory = memory or soc.memory

    def attest(self, request: AttestationRequest) -> AttestationReport:
        """Run the full chained walk and report h_n with timing."""
        puf = self.soc.strong_puf
        elapsed = 0.0
        response = puf.evaluate(request.challenge, _QUIET, measurement=0)
        elapsed += puf.interrogation_time_s()
        order = _walk_order(response, request.timestamp, self.memory.n_chunks)
        chain = b""
        for chunk_index in order:
            chunk = self.memory.read_chunk(chunk_index)
            if isinstance(self.memory, RelocatingCompromisedMemory):
                elapsed += self.memory.chunk_read_time_for(chunk_index)
            else:
                elapsed += self.memory.chunk_read_time()
            hasher = hashlib.sha256()
            hasher.update(chunk)
            hasher.update(_pad_bits(response))
            hasher.update(chain)
            chain = hasher.digest()
            hash_cost = self.soc.cpu.hash_time(
                len(chunk) + len(chain) + len(_pad_bits(response))
            )
            # The pPUF evaluates the next challenge concurrently with the
            # hash; at >= 5 Gb/s it always finishes first (Sec. III-B), so
            # the step cost is max(hash, puf) = hash.
            puf_cost = puf.interrogation_time_s()
            elapsed += max(hash_cost, puf_cost)
            next_challenge = _response_to_challenge(response, puf.challenge_bits)
            response = puf.evaluate(next_challenge, _QUIET, measurement=0)
        return AttestationReport(final_hash=chain, elapsed_s=elapsed,
                                 n_chunks=self.memory.n_chunks)


class AttestationVerifier:
    """Verifier with a clean memory copy and a model of the device pPUF."""

    def __init__(
        self,
        clean_image: bytes,
        puf_model,
        chunk_size: int = 256,
        soc_model: Optional[DeviceSoC] = None,
        time_slack: float = 0.10,
        seed: int = 0,
    ):
        if len(clean_image) % chunk_size:
            raise ValueError("image must be a multiple of the chunk size")
        self.clean_image = clean_image
        self.chunk_size = chunk_size
        self.puf_model = puf_model
        self.time_slack = time_slack
        self.seed = seed
        self._soc_model = soc_model
        self._request_counter = 0

    @property
    def n_chunks(self) -> int:
        return len(self.clean_image) // self.chunk_size

    def new_request(self, timestamp: int) -> AttestationRequest:
        """Fresh attestation request (timestamp + random challenge)."""
        from repro.utils.rng import derive_rng

        rng = derive_rng(self.seed, "attreq", self._request_counter)
        self._request_counter += 1
        challenge = rng.integers(0, 2, self.puf_model.challenge_bits,
                                 dtype=np.uint8)
        return AttestationRequest(timestamp=timestamp, challenge=challenge)

    def _read_chunk(self, index: int) -> bytes:
        start = index * self.chunk_size
        return self.clean_image[start:start + self.chunk_size]

    def expected(self, request: AttestationRequest) -> tuple:
        """(expected hash, expected honest duration)."""
        puf = self.puf_model
        response = puf.evaluate(request.challenge, _QUIET, measurement=0)
        elapsed = puf.interrogation_time_s()
        order = _walk_order(response, request.timestamp, self.n_chunks)
        chain = b""
        cpu = (self._soc_model.cpu if self._soc_model is not None
               else ProcessorModel())
        chunk_latency = (self._soc_model.memory.chunk_read_time()
                         if self._soc_model is not None else 120e-9)
        for chunk_index in order:
            chunk = self._read_chunk(chunk_index)
            hasher = hashlib.sha256()
            hasher.update(chunk)
            hasher.update(_pad_bits(response))
            hasher.update(chain)
            chain = hasher.digest()
            elapsed += chunk_latency
            elapsed += max(
                cpu.hash_time(len(chunk) + 32 + len(_pad_bits(response))),
                puf.interrogation_time_s(),
            )
            next_challenge = _response_to_challenge(response, puf.challenge_bits)
            response = puf.evaluate(next_challenge, _QUIET, measurement=0)
        return chain, elapsed

    def verify(self, request: AttestationRequest,
               report: AttestationReport) -> AttestationVerdict:
        """Check the hash value and the temporal constraint."""
        expected_hash, expected_time = self.expected(request)
        hash_ok = report.final_hash == expected_hash
        time_ok = report.elapsed_s <= expected_time * (1.0 + self.time_slack)
        return AttestationVerdict(
            accepted=hash_ok and time_ok,
            hash_ok=hash_ok,
            time_ok=time_ok,
            expected_time_s=expected_time,
            reported_time_s=report.elapsed_s,
        )
