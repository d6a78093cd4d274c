"""Core PUF abstractions.

Terminology follows the paper (Sec. II):

* A **weak PUF** has a small, enumerable challenge space (typically cell
  addresses) and is used for key generation after post-processing.
* A **strong PUF** has an exponential challenge space and is used for
  authentication / attestation protocols that consume many CRPs.

Every PUF in the library is deterministic given (device seed, challenge,
environment, measurement index): the measurement index selects the noise
realisation, so repeated measurements model re-evaluating the physical
device, while identical indices reproduce a measurement exactly — which
keeps every experiment in the repository replayable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.bits import BitArray, bits_from_int, int_from_bits

NOMINAL_TEMPERATURE_C = 25.0
NOMINAL_SUPPLY_V = 1.2


@dataclass(frozen=True)
class PUFEnvironment:
    """Operating conditions during one PUF evaluation.

    Attributes
    ----------
    temperature_c:
        Junction / die temperature.
    supply_v:
        Core supply voltage (electronic PUFs).
    age_hours:
        Cumulative operating age; drives slow parameter drift (aging).
    noise_scale:
        Multiplier on all evaluation noise (1.0 = nominal conditions).
    """

    temperature_c: float = NOMINAL_TEMPERATURE_C
    supply_v: float = NOMINAL_SUPPLY_V
    age_hours: float = 0.0
    noise_scale: float = 1.0

    def with_temperature(self, temperature_c: float) -> "PUFEnvironment":
        return replace(self, temperature_c=temperature_c)

    def with_noise_scale(self, noise_scale: float) -> "PUFEnvironment":
        return replace(self, noise_scale=noise_scale)

    def with_age(self, age_hours: float) -> "PUFEnvironment":
        return replace(self, age_hours=age_hours)


NOMINAL_ENV = PUFEnvironment()


@dataclass(frozen=True)
class CRP:
    """A challenge-response pair."""

    challenge: BitArray
    response: BitArray

    def __post_init__(self) -> None:
        object.__setattr__(self, "challenge", np.asarray(self.challenge, dtype=np.uint8))
        object.__setattr__(self, "response", np.asarray(self.response, dtype=np.uint8))


class PUF(abc.ABC):
    """Abstract physical unclonable function.

    Subclasses must set :attr:`challenge_bits` and :attr:`response_bits`
    and implement :meth:`_evaluate`.
    """

    challenge_bits: int
    response_bits: int

    def __init__(self) -> None:
        self._measurement_counter = 0

    @abc.abstractmethod
    def _evaluate(
        self, challenge: BitArray, env: PUFEnvironment, measurement: int
    ) -> BitArray:
        """Produce the response bits for one challenge under one noise draw."""

    def evaluate(
        self,
        challenge: Sequence[int],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> BitArray:
        """Evaluate the PUF on a challenge.

        ``measurement`` selects the noise realisation; when omitted, an
        internal counter supplies a fresh realisation per call, which is
        what a caller re-measuring real hardware would observe.
        """
        challenge = np.asarray(challenge, dtype=np.uint8)
        if challenge.size != self.challenge_bits:
            raise ValueError(
                f"challenge must have {self.challenge_bits} bits, got {challenge.size}"
            )
        if measurement is None:
            measurement = self._measurement_counter
            self._measurement_counter += 1
        response = self._evaluate(challenge, env, measurement)
        if response.size != self.response_bits:
            raise AssertionError(
                f"internal error: response has {response.size} bits, "
                f"expected {self.response_bits}"
            )
        return response

    def evaluate_batch(
        self,
        challenges: np.ndarray,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> np.ndarray:
        """(batch, response_bits) responses for a matrix of challenges.

        Baseline implementation: one :meth:`_evaluate` per row under a
        single noise realisation (``measurement`` pins it; ``None``
        draws one fresh realisation for the whole batch, advancing the
        counter once — batch harvesting is one logical measurement).
        Engine-backed PUFs (the photonic strong PUF) override this with
        a vectorized pass; callers can rely on the method existing on
        *every* PUF, so dataset harvesting never falls back to
        per-challenge ``evaluate`` loops.
        """
        challenges = np.atleast_2d(np.asarray(challenges, dtype=np.uint8))
        if challenges.shape[1] != self.challenge_bits:
            raise ValueError(
                f"challenges must have {self.challenge_bits} bits, "
                f"got {challenges.shape[1]}"
            )
        if measurement is None:
            measurement = self._measurement_counter
            self._measurement_counter += 1
        return np.vstack([
            np.asarray(self._evaluate(challenge, env, measurement),
                       dtype=np.uint8)
            for challenge in challenges
        ])

    def crp(
        self,
        challenge: Sequence[int],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> CRP:
        """Convenience: evaluate and wrap into a :class:`CRP`."""
        challenge = np.asarray(challenge, dtype=np.uint8)
        return CRP(challenge, self.evaluate(challenge, env, measurement))

    def random_challenge(self, rng: np.random.Generator) -> BitArray:
        """Draw a uniform challenge."""
        return rng.integers(0, 2, size=self.challenge_bits, dtype=np.uint8)


class WeakPUF(PUF):
    """PUF with an enumerable challenge space (addresses).

    Challenges are binary-encoded addresses; :meth:`read_all` returns the
    device's full fingerprint bitmap, which is what key-generation flows
    consume.
    """

    @property
    @abc.abstractmethod
    def n_addresses(self) -> int:
        """Number of enumerable challenges."""

    def address_challenge(self, address: int) -> BitArray:
        """Encode an address as a challenge bit vector."""
        if not 0 <= address < self.n_addresses:
            raise ValueError(f"address {address} out of range [0, {self.n_addresses})")
        return bits_from_int(address, self.challenge_bits)

    def address_from_challenge(self, challenge: Sequence[int]) -> int:
        address = int_from_bits(challenge)
        if address >= self.n_addresses:
            raise ValueError(f"challenge encodes invalid address {address}")
        return address

    def read_all(
        self,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> BitArray:
        """Concatenated responses over every address (the fingerprint)."""
        words = [
            self.evaluate(self.address_challenge(addr), env, measurement)
            for addr in range(self.n_addresses)
        ]
        return np.concatenate(words)


class StrongPUF(PUF):
    """PUF with an exponential challenge space."""

    def challenge_space_size(self) -> int:
        return 1 << self.challenge_bits


class AnalogMarginPUF(PUF):
    """Mixin interface for PUFs exposing an analog decision margin.

    The margin is the signed analog quantity whose sign is the response
    bit (RO counter difference, photocurrent difference...).  The
    threshold-filtering technique of [13] (paper Sec. II-B) operates on
    this value.
    """

    @abc.abstractmethod
    def margin(
        self,
        challenge: Sequence[int],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
    ) -> float:
        """Signed analog margin; the response bit is ``margin > 0``."""


class PUFFamily:
    """A population of identically designed devices (one per die).

    ``factory(die_index)`` must return a PUF instance for that die.
    Families are how uniqueness/bit-aliasing statistics are measured.
    """

    def __init__(self, factory, n_devices: int):
        if n_devices < 1:
            raise ValueError("a family needs at least one device")
        self._factory = factory
        self.n_devices = n_devices
        self._instances: Optional[List[PUF]] = None
        self._plane = None
        self._plane_built = False

    def device(self, index: int) -> PUF:
        if not 0 <= index < self.n_devices:
            raise ValueError(f"device index {index} out of range [0, {self.n_devices})")
        return self._factory(index)

    def devices(self) -> Iterator[PUF]:
        for index in range(self.n_devices):
            yield self.device(index)

    def instances(self) -> List[PUF]:
        """Every die of the family, instantiated once and cached.

        Unlike :meth:`devices` (a fresh instance per iteration), the
        cached list preserves per-device state such as measurement
        counters — which is what fleet provisioning and the stacked
        execution plane operate on.
        """
        if self._instances is None:
            self._instances = [self.device(i) for i in range(self.n_devices)]
        return self._instances

    def stack(self):
        """The family's stacked execution plane, or ``None``.

        Devices advertising a ``try_stack`` classmethod (the photonic
        strong PUF returns a
        :class:`~repro.puf.photonic_strong.PhotonicFleet`) are stacked
        into fleet-wide tensors compiled in one pass; families without a
        stacked plane return ``None`` and callers use the per-die path.
        """
        if not self._plane_built:
            devices = self.instances()
            stacker = getattr(type(devices[0]), "try_stack", None)
            # Memoized: the plane carries the compiled-fleet cache, so
            # repeated stacked calls reuse one compilation.
            self._plane = None if stacker is None else stacker(devices)
            self._plane_built = True
        return self._plane

    def response_matrix(
        self,
        challenges: Sequence[Sequence[int]],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = 0,
        batched: bool = True,
        stacked: bool = True,
    ) -> np.ndarray:
        """(n_devices, n_challenges * response_bits) response matrix.

        With ``stacked`` (default), families whose devices stack into a
        fleet plane answer every (die, challenge) pair in one fleet-wide
        tensor pass.  Devices exposing ``evaluate_batch`` (the photonic
        strong PUF routes it through the compiled engine) otherwise answer
        all challenges in one vectorized pass per die; others fall back to
        per-challenge evaluation.  Pass ``batched=False`` to force the
        legacy path, whose noise realisation is shared across challenges
        of one device.
        """
        challenge_matrix = np.vstack([
            np.asarray(c, dtype=np.uint8) for c in challenges
        ])
        if batched and stacked:
            plane = self.stack()
            if plane is not None:
                tiled = np.broadcast_to(
                    challenge_matrix,
                    (self.n_devices, *challenge_matrix.shape),
                )
                responses = plane.evaluate(tiled, env, measurements=measurement)
                return np.asarray(responses, dtype=np.uint8).reshape(
                    self.n_devices, -1
                )
        rows: List[np.ndarray] = []
        for device in self.devices():
            if batched and hasattr(device, "evaluate_batch"):
                responses = device.evaluate_batch(challenge_matrix, env, measurement)
                rows.append(np.asarray(responses, dtype=np.uint8).reshape(-1))
            else:
                rows.append(np.concatenate([
                    device.evaluate(c, env, measurement) for c in challenge_matrix
                ]))
        return np.vstack(rows)
