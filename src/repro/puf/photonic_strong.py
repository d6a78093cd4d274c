"""Photonic strong PUF: time-domain interrogation of the passive scrambler.

Implements the Fig. 2 operation end to end: the challenge bit string
drives the Mach-Zehnder modulator at 25 Gbit/s, the modulated field enters
the passive scrambling architecture (mixing layers + ring memory, per-die
process variation), and the photodiode array detects the per-channel,
per-bit-slot energies.  Response bits come from comparing the energies of
adjacent photodiodes in selected bit slots — a differential readout that
needs no absolute reference.

Because of the ring memory, the energy in slot ``n`` depends on challenge
bits ``.. n-2, n-1, n`` (reservoir-like temporal mixing), which is what
breaks the additive linear structure that makes electronic arbiter PUFs
learnable (paper Sec. IV).

Two execution planes serve interrogations:

* per device, :class:`~repro.photonics.engine.CompiledMesh` via an
  environment-keyed compilation cache (``slot_energies_batch``);
* per fleet, :class:`PhotonicFleet` stacks every die of a family into one
  :class:`~repro.photonics.fleet_engine.CompiledFleet` so a whole fleet's
  interrogations run as a single tensor pass — the engine behind
  ``repro.fleet``'s batch authentication.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.photonics.engine import CompiledMesh, environment_cache_key
from repro.photonics.fleet_engine import CompiledFleet
from repro.photonics.mesh import PassiveScrambler
from repro.photonics.receiver import Photodiode
from repro.photonics.sources import Laser, MachZehnderModulator
from repro.photonics.variation import OpticalEnvironment, VariationModel
from repro.puf.base import NOMINAL_ENV, PUFEnvironment, PUFFamily, StrongPUF
from repro.utils.bits import BitArray
from repro.utils.rng import derive_rng, derive_seed, derived_generators


class PhotonicStrongPUF(StrongPUF):
    """Time-domain scrambling strong PUF.

    Parameters
    ----------
    challenge_bits:
        Length of the modulated challenge word.
    n_channels / n_stages:
        Geometry of the passive scrambler (output photodiode count and
        mixing depth).
    response_bits:
        Number of response bits extracted per interrogation; they are the
        adjacent-channel energy comparisons of the ring-down *guard slots*
        that follow the challenge (after the reservoir has mixed the whole
        word), falling back to the latest challenge slots if more bits are
        requested than the guard region provides.
    guard_slots:
        Dark slots appended after the challenge.  During ring-down the
        detected energy is an interferometric mixture of the trailing
        challenge bits with no dominant single-bit term — the property
        that defeats linear modeling attacks (Sec. IV).
    with_memory:
        Ablation hook: disable the ring memory (DESIGN.md ablation 4).
    """

    def __init__(
        self,
        challenge_bits: int = 64,
        n_channels: int = 8,
        n_stages: int = 12,
        response_bits: int = 32,
        seed: int = 0,
        die_index: int = 0,
        variation_model: Optional[VariationModel] = None,
        laser: Optional[Laser] = None,
        modulator: Optional[MachZehnderModulator] = None,
        with_memory: bool = True,
        noise_mw: float = 5e-4,
        thermal_stabilization: float = 0.995,
        guard_slots: int = 4,
        use_engine: bool = True,
    ):
        super().__init__()
        if challenge_bits < 8:
            raise ValueError("challenge must be at least 8 bits")
        if guard_slots < 0:
            raise ValueError("guard_slots must be non-negative")
        max_bits = (n_channels - 1) * (challenge_bits + guard_slots)
        if not 1 <= response_bits <= max_bits:
            raise ValueError(f"response_bits must be in [1, {max_bits}]")
        self.guard_slots = guard_slots
        self.challenge_bits = challenge_bits
        self.response_bits = response_bits
        self.n_channels = n_channels
        self.seed = seed
        self.die_index = die_index
        self.noise_mw = noise_mw
        self.with_memory = with_memory
        # Fraction of the ambient excursion removed by the on-chip
        # temperature controller the paper plans for interferometric
        # stability (Sec. II-B: "hardware approaches based on the
        # temperature controller").  1.0 = perfect stabilisation.
        if not 0.0 <= thermal_stabilization <= 1.0:
            raise ValueError("thermal_stabilization must lie in [0, 1]")
        self.thermal_stabilization = thermal_stabilization
        self.variation_model = variation_model or VariationModel()
        self._die = self.variation_model.sample_die(seed, die_index)
        self.laser = laser or Laser(power_mw=1.0)
        self.modulator = modulator or MachZehnderModulator(
            bit_rate=25e9, samples_per_bit=4
        )
        self.scrambler = PassiveScrambler(
            n_channels=n_channels,
            n_stages=n_stages,
            design_seed=seed,
            variation=self._die,
            with_memory=with_memory,
        )
        self.photodiode = Photodiode()
        # Compiled-engine routing: each (wavelength, environment) operating
        # point is compiled once into dense operators and reused, so
        # repeated nominal-condition interrogations pay compilation once.
        self.use_engine = use_engine
        self._engine_cache: Dict[Tuple, CompiledMesh] = {}
        # Response bit (slot, adjacent-channel pair) assignments: latest
        # slots first (guard/ring-down region, then trailing challenge
        # slots) so every bit sees a fully mixed reservoir state.
        pairs_per_slot = n_channels - 1
        assignments = []
        slot = challenge_bits + guard_slots - 1
        while len(assignments) < response_bits:
            for pair in range(pairs_per_slot):
                assignments.append((slot, pair))
                if len(assignments) == response_bits:
                    break
            slot -= 1
        self._assignments = assignments
        self._assignment_slots = np.array([s for (s, __) in assignments])
        self._assignment_pairs = np.array([p for (__, p) in assignments])

    @property
    def total_slots(self) -> int:
        """Modulated challenge slots plus dark guard slots."""
        return self.challenge_bits + self.guard_slots

    @property
    def launch_channel(self) -> int:
        """Input channel of the modulated light.

        Launching on the middle channel halves the mixing depth needed to
        reach the outermost photodiodes.
        """
        return self.n_channels // 2

    def _optical_env(self, env: PUFEnvironment) -> OpticalEnvironment:
        residual = (env.temperature_c - 25.0) * (1.0 - self.thermal_stabilization)
        return OpticalEnvironment(
            temperature_c=25.0 + residual,
            laser_power_mw=self.laser.power_mw,
            detection_noise_scale=env.noise_scale,
        )

    def compiled_mesh(self, env: PUFEnvironment = NOMINAL_ENV) -> CompiledMesh:
        """The compiled engine for ``env``, compiling on first use.

        The cache key ignores detection noise (added after propagation), so
        noise-scale sweeps at one temperature reuse a single compilation.
        """
        optical = self._optical_env(env)
        key = environment_cache_key(self.laser.wavelength, optical)
        engine = self._engine_cache.get(key)
        if engine is None:
            engine = CompiledMesh.compile(self.scrambler, self.laser.wavelength,
                                          optical)
            self._engine_cache[key] = engine
        return engine

    def engine_cache_size(self) -> int:
        """Number of operating points currently compiled."""
        return len(self._engine_cache)

    def _next_measurement(self) -> int:
        measurement = self._measurement_counter
        self._measurement_counter += 1
        return measurement

    def _noise_rng(self, measurement: int) -> np.random.Generator:
        return derive_rng(self.seed, "pspuf", self.die_index, "noise",
                          measurement)

    def slot_energies(
        self,
        challenge: Sequence[int],
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
        compiled: Optional[bool] = None,
    ) -> np.ndarray:
        """(n_channels, total_slots) per-slot detected energies (mW)."""
        return self.slot_energies_batch(
            np.asarray(challenge, dtype=np.uint8)[np.newaxis, :], env, measurement,
            compiled=compiled,
        )[0]

    def slot_energies_batch(
        self,
        challenges: np.ndarray,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
        compiled: Optional[bool] = None,
    ) -> np.ndarray:
        """(batch, n_channels, total_slots) energies for many challenges.

        ``compiled`` overrides the instance-level :attr:`use_engine` routing:
        ``True`` forces the compiled vectorized engine, ``False`` forces the
        per-call loop path of :meth:`PassiveScrambler.propagate` (the
        reference the equivalence tests and speedup benchmarks pin against).
        """
        challenges = np.atleast_2d(np.asarray(challenges, dtype=np.uint8))
        if challenges.shape[1] != self.challenge_bits:
            raise ValueError(
                f"challenges must have {self.challenge_bits} bits, "
                f"got {challenges.shape[1]}"
            )
        if compiled is None:
            compiled = self.use_engine
        if measurement is None:
            measurement = self._next_measurement()
        spb = self.modulator.samples_per_bit
        n_samples = self.modulator.n_samples(self.total_slots)
        optical = self._optical_env(env)
        rng = self._noise_rng(measurement)

        carrier = np.full(n_samples, self.laser.field_amplitude(),
                          dtype=np.complex128)
        batch = challenges.shape[0]
        guard = np.zeros((batch, self.guard_slots), dtype=np.uint8)
        words = np.hstack([challenges, guard])
        launch = self.launch_channel
        fields = np.zeros((batch, self.n_channels, n_samples), dtype=np.complex128)
        if compiled:
            fields[:, launch, :] = self.modulator.modulate_batch(carrier, words)
            out = self.compiled_mesh(env).propagate(fields)
        else:
            for b in range(batch):
                fields[b, launch] = self.modulator.modulate(carrier, words[b])
            out = self.scrambler.propagate(fields, self.laser.wavelength, optical)
        power = np.abs(out) ** 2  # mW per sample
        # Integrate per bit slot.
        energies = power.reshape(batch, self.n_channels,
                                 self.total_slots, spb).mean(axis=3)
        # Detection noise: shot + thermal lumped into one equivalent term.
        noise = rng.normal(0.0, self.noise_mw * env.noise_scale, size=energies.shape)
        return energies + noise

    def responses_from_energies(self, energies: np.ndarray) -> np.ndarray:
        """Differential readout: ``(..., n, slots)`` energies to bits.

        One vectorized adjacent-channel comparison over all assignments —
        shared by the per-device and fleet-stacked planes.
        """
        upper = energies[..., self._assignment_pairs, self._assignment_slots]
        lower = energies[..., self._assignment_pairs + 1, self._assignment_slots]
        return (upper > lower).astype(np.uint8)

    def _evaluate(
        self, challenge: BitArray, env: PUFEnvironment, measurement: int
    ) -> BitArray:
        energies = self.slot_energies(challenge, env, measurement)
        return self.responses_from_energies(energies)

    def evaluate_batch(
        self,
        challenges: np.ndarray,
        env: PUFEnvironment = NOMINAL_ENV,
        measurement: Optional[int] = None,
        compiled: Optional[bool] = None,
    ) -> np.ndarray:
        """(batch, response_bits) responses for a matrix of challenges."""
        energies = self.slot_energies_batch(challenges, env, measurement,
                                            compiled=compiled)
        return self.responses_from_energies(energies)

    @classmethod
    def try_stack(cls, pufs: Sequence["PhotonicStrongPUF"]):
        """A :class:`PhotonicFleet` over ``pufs``, or ``None`` if they
        cannot stack (heterogeneous geometry, design, or readout chain).
        """
        try:
            return PhotonicFleet(pufs)
        except (ValueError, TypeError):
            return None

    def interrogation_time_s(self) -> float:
        """Wall-clock duration of one interrogation (incl. guard slots)."""
        return self.total_slots * self.modulator.bit_period

    def response_lifetime_s(self) -> float:
        """Time until the recirculating optical response has decayed.

        The paper claims the response exists only during interrogation and
        for < 100 ns afterwards (Sec. IV); here it is the ring memory decay
        time after the last challenge bit.
        """
        ring = self.scrambler._ring(0, 0)
        samples = ring.memory_decay_samples(threshold=1e-4)
        return samples / self.modulator.sample_rate

    def throughput_bits_per_s(self) -> float:
        """Challenge consumption rate of the interrogation chain."""
        return self.modulator.bit_rate


class PhotonicFleet:
    """Stacked execution plane over a homogeneous family of photonic PUFs.

    Validates at construction that every device shares one interrogation
    chain (challenge/response geometry, modulator, laser, noise model,
    thermal stabilisation) and one scrambler design, then serves whole-
    fleet interrogations through a single
    :class:`~repro.photonics.fleet_engine.CompiledFleet`:

    * :meth:`slot_energies` — full ``(fleet, batch, channels, slots)``
      energy maps via the batched spectral-convolution path;
    * :meth:`evaluate` — response bits only, touching just the bit-slot
      samples the differential readout compares (two real GEMMs for the
      whole fleet).

    Per-device noise streams and measurement counters advance exactly as
    they would under per-device interrogation, so a fleet pass is
    bit-compatible with running each die alone.
    """

    def __init__(self, pufs: Sequence[PhotonicStrongPUF]):
        pufs = list(pufs)
        if not pufs:
            raise ValueError("cannot stack an empty fleet")
        base = pufs[0]
        for puf in pufs[1:]:
            if (puf.challenge_bits != base.challenge_bits
                    or puf.response_bits != base.response_bits
                    or puf.n_channels != base.n_channels
                    or puf.guard_slots != base.guard_slots
                    or puf.seed != base.seed
                    or puf.noise_mw != base.noise_mw
                    or puf.thermal_stabilization != base.thermal_stabilization
                    or puf.modulator != base.modulator
                    or puf.laser != base.laser
                    or puf.with_memory != base.with_memory
                    or puf.scrambler.n_stages != base.scrambler.n_stages
                    or puf.scrambler.ring_delay_samples
                    != base.scrambler.ring_delay_samples):
                raise ValueError(
                    "fleet stacking requires devices sharing one "
                    "interrogation chain and design"
                )
        self.pufs = pufs
        self._fleet_cache: Dict[Tuple, CompiledFleet] = {}
        # One environment for the whole fleet -> its cached plane, so a
        # round does not rebuild the per-die key of every stacked die.
        self._single_env_fleets: Dict[PUFEnvironment, CompiledFleet] = {}

    def __len__(self) -> int:
        return len(self.pufs)

    @property
    def base(self) -> PhotonicStrongPUF:
        return self.pufs[0]

    # -- compilation -------------------------------------------------------

    def _env_list(self, env) -> List[PUFEnvironment]:
        if isinstance(env, PUFEnvironment):
            return [env] * len(self.pufs)
        env = list(env)
        if len(env) != len(self.pufs):
            raise ValueError(
                f"got {len(env)} environments for {len(self.pufs)} dies"
            )
        return env

    def compiled_fleet(self, env=NOMINAL_ENV) -> CompiledFleet:
        """The stacked engine for ``env`` (one or per-die), cached.

        Like the per-die cache, the key ignores detection noise: receiver
        noise is added after propagation.  The cache is keyed per die, so
        a single environment and a per-die list of equal operating points
        share one compilation; single environments are also memoised by
        the environment itself, which keeps the per-die key off the round
        path.
        """
        if isinstance(env, PUFEnvironment):
            fleet = self._single_env_fleets.get(env)
            if fleet is None:
                fleet = self._compile_for(self._env_list(env))
                self._single_env_fleets[env] = fleet
            return fleet
        return self._compile_for(self._env_list(env))

    def _compile_for(self, env_list: List[PUFEnvironment]) -> CompiledFleet:
        """The cached plane for per-die environments, compiling on a miss."""
        wavelength = self.base.laser.wavelength
        opticals = [puf._optical_env(e)
                    for puf, e in zip(self.pufs, env_list)]
        key = tuple(environment_cache_key(wavelength, optical)
                    for optical in opticals)
        fleet = self._fleet_cache.get(key)
        if fleet is None:
            fleet = CompiledFleet.compile(
                [puf.scrambler for puf in self.pufs], wavelength, opticals
            )
            self._fleet_cache[key] = fleet
        return fleet

    def fleet_cache_size(self) -> int:
        return len(self._fleet_cache)

    def memory_footprint_bytes(self) -> int:
        """Stacked operators + response kernels across cached environments."""
        return sum(fleet.memory_footprint_bytes()
                   for fleet in self._fleet_cache.values())

    # -- interrogation -----------------------------------------------------

    def _select(self, dies) -> List[int]:
        if dies is None:
            return list(range(len(self.pufs)))
        return [int(d) for d in dies]

    def _measurement_list(self, measurements, rows: List[int]) -> List[int]:
        if measurements is None:
            return [self.pufs[row]._next_measurement() for row in rows]
        if np.isscalar(measurements):
            return [int(measurements)] * len(rows)
        measurements = [int(m) for m in measurements]
        if len(measurements) != len(rows):
            raise ValueError(
                f"got {len(measurements)} measurement indices for "
                f"{len(rows)} dies"
            )
        return measurements

    def _drive_waves(self, challenges: np.ndarray) -> np.ndarray:
        """(fleet_sel, batch, n_samples) real drive waveforms."""
        base = self.base
        sel, batch, bits = challenges.shape
        if bits != base.challenge_bits:
            raise ValueError(
                f"challenges must have {base.challenge_bits} bits, got {bits}"
            )
        guard = np.zeros((sel * batch, base.guard_slots), dtype=np.uint8)
        words = np.hstack([
            challenges.reshape(sel * batch, bits).astype(np.uint8), guard
        ])
        waves = base.modulator.drive_waveform_batch(words)
        waves *= base.laser.field_amplitude()
        n_samples = base.modulator.n_samples(base.total_slots)
        return waves.reshape(sel, batch, n_samples)

    def _noise(self, rows, measurements, env_list, shape) -> np.ndarray:
        """Per-die detection noise, identical to the per-device streams.

        Seeds are derived per die exactly as
        :meth:`PhotonicStrongPUF._noise_rng` would, but the generator
        states are computed vectorized and injected into one reused bit
        generator (:func:`repro.utils.rng.derived_generators`), so a
        1024-die round does not pay 1024 ``SeedSequence`` constructions.
        """
        base = self.base
        noise = np.empty(shape)
        seeds = [
            derive_seed(self.pufs[row].seed, "pspuf",
                        self.pufs[row].die_index, "noise",
                        measurements[position])
            for position, row in enumerate(rows)
        ]
        for position, rng in enumerate(derived_generators(seeds)):
            noise[position] = rng.normal(
                0.0,
                base.noise_mw * env_list[rows[position]].noise_scale,
                size=shape[1:],
            )
        return noise

    def _interrogation(self, challenges, env, measurements, dies):
        """Validate a fleet interrogation and build its drive.

        Returns ``(challenges, rows, env_list, measurements, fleet,
        waves)``; resolving ``measurements`` advances the selected
        devices' counters exactly as per-device interrogation would.
        """
        challenges = np.asarray(challenges, dtype=np.uint8)
        if challenges.ndim != 3:
            raise ValueError(
                "fleet challenges must be (fleet, batch, challenge_bits)"
            )
        rows = self._select(dies)
        if challenges.shape[0] != len(rows):
            raise ValueError(
                f"challenges stack {challenges.shape[0]} dies, "
                f"selection names {len(rows)}"
            )
        env_list = self._env_list(env)
        measurements = self._measurement_list(measurements, rows)
        fleet = self.compiled_fleet(env)
        waves = self._drive_waves(challenges)
        return challenges, rows, env_list, measurements, fleet, waves

    def slot_energies(
        self,
        challenges: np.ndarray,
        env=NOMINAL_ENV,
        measurements=None,
        dies=None,
    ) -> np.ndarray:
        """(fleet_sel, batch, n_channels, total_slots) energies (mW).

        ``challenges`` is ``(fleet_sel, batch, challenge_bits)``;
        ``measurements`` follows the per-device convention — ``None``
        draws a fresh noise realisation per die (advancing each device's
        counter), a scalar pins one realisation for all, a sequence pins
        one per die.  ``dies`` selects a subset of stacked devices.
        """
        base = self.base
        challenges, rows, env_list, measurements, fleet, waves = \
            self._interrogation(challenges, env, measurements, dies)
        out = fleet.modulated_response(waves, base.launch_channel, dies=rows)
        power = out.real ** 2 + out.imag ** 2
        spb = base.modulator.samples_per_bit
        energies = power.reshape(
            len(rows), challenges.shape[1], base.n_channels,
            base.total_slots, spb,
        ).mean(axis=4)
        energies += self._noise(rows, measurements, env_list, energies.shape)
        return energies

    def evaluate(
        self,
        challenges: np.ndarray,
        env=NOMINAL_ENV,
        measurements=None,
        dies=None,
    ) -> np.ndarray:
        """(fleet_sel, batch, response_bits) responses, bit-slot-trimmed.

        The differential readout only compares energies in the assignment
        slots, so this path evaluates exactly those output samples
        (:meth:`CompiledFleet.response_power_at`) instead of the full
        stream.  Noise streams still consume the full per-die draw, so
        results match :meth:`slot_energies` + readout bit for bit.
        """
        base = self.base
        challenges, rows, env_list, measurements, fleet, waves = \
            self._interrogation(challenges, env, measurements, dies)
        spb = base.modulator.samples_per_bit
        slots = np.unique(base._assignment_slots)
        samples = (slots[:, np.newaxis] * spb + np.arange(spb)).reshape(-1)
        batch = challenges.shape[1]
        power = fleet.response_power_at(
            waves, samples, base.launch_channel, dies=rows
        )
        energies = power.reshape(
            len(rows), batch, base.n_channels, slots.size, spb
        ).mean(axis=4)
        # The noise stream is drawn at full (n, total_slots) resolution —
        # per-device equivalence requires consuming the identical draw —
        # then subset to the compared slots.
        noise = self._noise(
            rows, measurements, env_list,
            (len(rows), batch, base.n_channels, base.total_slots),
        )
        energies += noise[..., slots]
        slot_position = np.searchsorted(slots, base._assignment_slots)
        upper = energies[..., base._assignment_pairs, slot_position]
        lower = energies[..., base._assignment_pairs + 1, slot_position]
        return (upper > lower).astype(np.uint8)

    def evaluate_staged(self, challenges, env=NOMINAL_ENV,
                        measurements=None, dies=None):
        """:meth:`evaluate` as one ``(positions, bits)`` chunk.

        Kept only because ``perfbench/tracer.py`` patches this name;
        nothing in the library calls it.
        """
        bits = self.evaluate(challenges, env, measurements, dies)
        return iter([(np.arange(bits.shape[0]), bits)])


def photonic_strong_family(
    n_devices: int,
    seed: int = 0,
    **kwargs,
) -> PUFFamily:
    """A family of :class:`PhotonicStrongPUF` devices sharing one design."""
    return PUFFamily(
        lambda die: PhotonicStrongPUF(seed=seed, die_index=die, **kwargs),
        n_devices,
    )
