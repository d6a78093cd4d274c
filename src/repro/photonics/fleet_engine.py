"""Fleet-stacked execution plane: every die of a family as one operator.

PR 1's :class:`~repro.photonics.engine.CompiledMesh` made a single die's
CRP batches fast, but fleet authentication still paid the engine once per
device: each ``FleetDevice.respond`` ran a batch-1 propagation, and
provisioning compiled dies one at a time.  :class:`CompiledFleet` lifts
the whole family into ``(fleet, ...)`` tensors at provision time:

* **one compile for the family** — the design draws (mixing angles,
  coupling ratios, ring phases/couplings) depend only on the shared
  design seed and are derived once, while every die's variation draws
  come from one gathered, bit-exact pass per kind over the whole fleet
  (:func:`~repro.utils.rng.gather_standard_normals`) and the stage
  matrices are assembled with fleet-batched 2x2 block updates instead of
  one Python pass per die;
* **one tensor pass per round** — :meth:`propagate` advances
  ``(fleet, batch, n_channels, n_samples)`` field tensors with one
  batched ``matmul`` per mixing stage and one
  :func:`~repro.photonics.engine.stacked_ring_scan` per ring bank (the
  rings axis is the whole ``fleet x channels`` plane), cache-blocked over
  ``fleet x batch`` tiles;
* **one output kernel** — because the scrambler is linear and every
  interrogation launches on one channel, output sample ``t`` depends
  only on the first ``t + 1`` taps of the die's impulse response.
  :meth:`response_power_at` evaluates the detected power at any set of
  output samples as two fleet-batched real GEMMs against those
  time-domain taps (*exact* — no truncation error): the protocol's
  bit-slot readout asks for a few samples, a full energy map for all
  of them.  The plane computes with numpy alone.

Per-die environments are supported (a "ragged" fleet operating at
different temperatures stacks per-die operators compiled at each die's
own operating point).  Heterogeneous *geometry* (channel counts, stage
counts, ring delays) cannot stack — :meth:`CompiledFleet.compile` raises
``ValueError`` and callers fall back to the per-die path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.photonics.constants import DEFAULT_WAVELENGTH, SILICON_DN_DT
from repro.photonics.engine import (
    _TILE_TARGET_BYTES,
    CompiledMesh,
    stacked_ring_scan,
)
from repro.photonics.variation import (
    OpticalEnvironment,
    stacked_coupling_factors,
    stacked_neff_offsets,
)
from repro.utils.rng import derive_rng

_NOMINAL_ENV = OpticalEnvironment()


def _as_env_list(envs, n_dies: int) -> List[OpticalEnvironment]:
    """Normalise a single environment or per-die sequence to a list."""
    if isinstance(envs, OpticalEnvironment):
        return [envs] * n_dies
    envs = list(envs)
    if len(envs) != n_dies:
        raise ValueError(
            f"got {len(envs)} environments for {n_dies} dies"
        )
    return envs


def _check_homogeneous(scramblers) -> None:
    """Stacking requires one shared design and geometry across dies."""
    base = scramblers[0]
    for scrambler in scramblers[1:]:
        if (scrambler.n_channels != base.n_channels
                or scrambler.n_stages != base.n_stages
                or scrambler.design_seed != base.design_seed
                or scrambler.ring_delay_samples != base.ring_delay_samples
                or scrambler.with_memory != base.with_memory):
            raise ValueError(
                "fleet stacking requires dies sharing one design "
                "(n_channels, n_stages, design_seed, ring_delay_samples, "
                "with_memory)"
            )


class _VariationTable:
    """Every per-die variation draw a fleet compile needs, gathered.

    The draws are identical to what :meth:`MixingLayer.matrix` and
    :meth:`PassiveScrambler._ring` pull one component at a time (same
    derived streams); here the whole fleet makes one gathered call per
    kind (:func:`~repro.photonics.variation.stacked_neff_offsets`,
    :func:`~repro.photonics.variation.stacked_coupling_factors`) and the
    compile indexes columns.  Dies without variation keep the nominal
    zero offset and unit coupling.
    """

    def __init__(self, scramblers):
        base = scramblers[0]
        self.neff_labels: List[str] = []
        self.coupling_labels: List[str] = []
        self._ps_col: Dict[tuple, int] = {}
        self._dc_col: Dict[tuple, int] = {}
        self._res_col: Dict[tuple, int] = {}
        self._ring_col: Dict[tuple, int] = {}
        for layer in base.layers:
            for (i, __) in layer._pairs():
                element = f"{layer.label}.{layer.layer_index}.{i}"
                self._dc_col[(layer.layer_index, i)] = len(self.coupling_labels)
                self.coupling_labels.append(f"{element}.dc")
                self._ps_col[(layer.layer_index, i)] = len(self.neff_labels)
                self.neff_labels.append(f"{element}.ps")
            for channel in range(base.n_channels):
                self._res_col[(layer.layer_index, channel)] = \
                    len(self.neff_labels)
                self.neff_labels.append(
                    f"{layer.label}.{layer.layer_index}.res{channel}"
                )
        for stage in range(base.n_stages):
            for channel in range(base.n_channels):
                self._ring_col[(stage, channel)] = len(self.neff_labels)
                self.neff_labels.append(f"scr.ring.{stage}.{channel}")
        varied = [k for k, scrambler in enumerate(scramblers)
                  if scrambler.variation]
        dies = [scramblers[k].variation for k in varied]
        self.offsets = np.zeros((len(scramblers), len(self.neff_labels)))
        self.offsets[varied] = stacked_neff_offsets(dies, self.neff_labels)
        self.couplings = np.ones((len(scramblers), len(self.coupling_labels)))
        self.couplings[varied] = stacked_coupling_factors(
            dies, self.coupling_labels)

    def ps_offset(self, layer_index: int, i: int) -> np.ndarray:
        return self.offsets[:, self._ps_col[(layer_index, i)]]

    def dc_coupling(self, layer_index: int, i: int) -> np.ndarray:
        return self.couplings[:, self._dc_col[(layer_index, i)]]

    def residual_offsets(self, layer_index: int, n: int) -> np.ndarray:
        cols = [self._res_col[(layer_index, ch)] for ch in range(n)]
        return self.offsets[:, cols]

    def ring_offset(self, stage: int, channel: int) -> np.ndarray:
        return self.offsets[:, self._ring_col[(stage, channel)]]


def _stacked_stage_matrices(
    scramblers, wavelength: float, envs: List[OpticalEnvironment],
    table: _VariationTable,
) -> np.ndarray:
    """All dies' mixing-stage matrices in one fleet-batched assembly.

    Mirrors :meth:`MixingLayer.matrix` operation for operation — the same
    design-RNG draws (made once, not once per die), the same per-component
    variation draws, the same 2x2 block application order — but with every
    per-die scalar lifted to a ``(fleet,)`` array, so the Python work per
    stage is per *pair of channels*, not per ``die x pair``.
    """
    base = scramblers[0]
    n = base.n_channels
    n_dies = len(scramblers)
    drift = np.array([SILICON_DN_DT * env.delta_t for env in envs])
    out = np.empty((n_dies, base.n_stages, n, n), dtype=np.complex128)
    for stage, layer in enumerate(base.layers):
        design_rng = derive_rng(layer.design_seed, layer.label,
                                layer.layer_index, "design")
        matrix = np.broadcast_to(
            np.eye(n, dtype=np.complex128), (n_dies, n, n)
        ).copy()
        for (i, j) in layer._pairs():
            theta = float(design_rng.uniform(0.0, 2.0 * math.pi))
            kappa = float(design_rng.uniform(0.2, 0.8))
            kappa_eff = np.clip(
                kappa * table.dc_coupling(layer.layer_index, i),
                1e-6, 1.0 - 1e-6,
            )
            through = np.sqrt(1.0 - kappa_eff)
            cross = np.sqrt(kappa_eff)
            phi = theta + (
                2.0 * math.pi
                * (table.ps_offset(layer.layer_index, i) + drift)
                * layer.scramble_path_length / wavelength
            )
            factor = np.cos(phi) - 1j * np.sin(phi)
            block = np.empty((n_dies, 2, 2), dtype=np.complex128)
            block[:, 0, 0] = through * factor
            block[:, 0, 1] = -1j * cross * factor
            block[:, 1, 0] = -1j * cross
            block[:, 1, 1] = through
            matrix[:, (i, j), :] = np.matmul(block, matrix[:, (i, j), :])
        residual = table.residual_offsets(layer.layer_index, n)
        phi = (2.0 * math.pi * (residual + drift[:, np.newaxis])
               * layer.scramble_path_length / wavelength)
        matrix *= (np.cos(phi) - 1j * np.sin(phi))[:, :, np.newaxis]
        loss = 10.0 ** (-layer.insertion_loss_db / 20.0)
        out[:, stage] = loss * matrix
    return out


def _stacked_ring_coefficients(
    scramblers, table: _VariationTable
) -> Tuple[np.ndarray, np.ndarray]:
    """All dies' ring banks, with the design draws made once per ring.

    Mirrors :meth:`PassiveScrambler._ring` +
    :meth:`DiscreteTimeRing.coefficients`: per (stage, channel) the design
    RNG yields the nominal phase then the coupling, and each die adds its
    own geometry-driven phase spread.  Ring operators are independent of
    wavelength and environment, exactly like the per-die compile path.
    """
    base = scramblers[0]
    n, stages = base.n_channels, base.n_stages
    delay = base.ring_delay_samples
    n_dies = len(scramblers)
    ring_b = np.zeros((n_dies, stages, n, delay + 1), dtype=np.complex128)
    ring_a = np.zeros((n_dies, stages, n, delay + 1), dtype=np.complex128)
    two_pi = 2.0 * math.pi
    for stage in range(stages):
        for channel in range(n):
            design_rng = derive_rng(base.design_seed, "ring", stage, channel)
            phase = float(design_rng.uniform(0.0, two_pi))
            tau = float(design_rng.uniform(0.84, 0.92))
            phases = (phase + two_pi * 50.0
                      * table.ring_offset(stage, channel)) % two_pi
            rot = 0.99 * np.exp(-1j * phases)
            ring_b[:, stage, channel, 0] = tau
            ring_b[:, stage, channel, -1] = -rot
            ring_a[:, stage, channel, 0] = 1.0
            ring_a[:, stage, channel, -1] = -tau * rot
    return ring_b, ring_a


def _check_samples(samples, n_samples: int) -> np.ndarray:
    """Bit-slot sample positions as 1-D ``intp`` in ``[0, n_samples)``.

    Raises ``ValueError`` otherwise: a negative position would read the
    drive through a wrapped index instead of failing.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
    if samples.size == 0:
        return samples.astype(np.intp)
    if samples.dtype.kind not in "iu":
        raise ValueError(f"samples must be integers, got {samples.dtype}")
    low, high = int(samples.min()), int(samples.max())
    if low < 0 or high >= n_samples:
        raise ValueError(
            f"samples must lie in [0, {n_samples}), got [{low}, {high}]"
        )
    return samples.astype(np.intp, copy=False)


@dataclass(frozen=True)
class CompiledFleet:
    """Dense, environment-frozen form of a whole die family.

    Attributes
    ----------
    stage_matrices:
        ``(fleet, n_stages, n, n)`` complex transfer matrices.
    ring_b / ring_a:
        ``(fleet, n_stages, n, delay + 1)`` stacked IIR coefficients.
    static_matrix:
        ``(fleet, n, n)`` product of each die's mixing stages.
    """

    n_dies: int
    n_channels: int
    n_stages: int
    delay_samples: int
    with_memory: bool
    stage_matrices: np.ndarray
    ring_b: np.ndarray
    ring_a: np.ndarray
    static_matrix: np.ndarray
    # (launch, n_samples) -> time-domain kernel (h_real, h_imag), built
    # lazily; mutating the cache dict is compatible with frozen.
    _kernel_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- compilation -------------------------------------------------------

    @classmethod
    def compile(
        cls,
        scramblers: Sequence,
        wavelength: float = DEFAULT_WAVELENGTH,
        envs=_NOMINAL_ENV,
    ) -> "CompiledFleet":
        """Freeze a family of scramblers into stacked dense operators.

        ``envs`` is one :class:`OpticalEnvironment` for the whole fleet or
        a per-die sequence (ragged operating points).  All dies must share
        one design; raises ``ValueError`` otherwise.
        """
        scramblers = list(scramblers)
        if not scramblers:
            raise ValueError("cannot compile an empty fleet")
        _check_homogeneous(scramblers)
        base = scramblers[0]
        env_list = _as_env_list(envs, len(scramblers))
        table = _VariationTable(scramblers)
        matrices = _stacked_stage_matrices(scramblers, wavelength, env_list,
                                           table)
        ring_b, ring_a = _stacked_ring_coefficients(scramblers, table)
        static = np.broadcast_to(
            np.eye(base.n_channels, dtype=np.complex128),
            (len(scramblers), base.n_channels, base.n_channels),
        ).copy()
        for stage in range(base.n_stages):
            static = np.matmul(matrices[:, stage], static)
        return cls(
            n_dies=len(scramblers),
            n_channels=base.n_channels,
            n_stages=base.n_stages,
            delay_samples=base.ring_delay_samples,
            with_memory=base.with_memory,
            stage_matrices=matrices,
            ring_b=ring_b,
            ring_a=ring_a,
            static_matrix=static,
        )

    @classmethod
    def from_meshes(cls, meshes: Sequence[CompiledMesh]) -> "CompiledFleet":
        """Stack per-die compiled meshes (the reference / fallback path)."""
        meshes = list(meshes)
        if not meshes:
            raise ValueError("cannot stack an empty fleet")
        base = meshes[0]
        for mesh in meshes[1:]:
            if (mesh.n_channels != base.n_channels
                    or mesh.n_stages != base.n_stages
                    or mesh.delay_samples != base.delay_samples
                    or mesh.with_memory != base.with_memory):
                raise ValueError("meshes must share one geometry to stack")
        return cls(
            n_dies=len(meshes),
            n_channels=base.n_channels,
            n_stages=base.n_stages,
            delay_samples=base.delay_samples,
            with_memory=base.with_memory,
            stage_matrices=np.stack([m.stage_matrices for m in meshes]),
            ring_b=np.stack([m.ring_b for m in meshes]),
            ring_a=np.stack([m.ring_a for m in meshes]),
            static_matrix=np.stack([m.static_matrix for m in meshes]),
        )

    def mesh(self, die: int) -> CompiledMesh:
        """A per-die :class:`CompiledMesh` view sharing this fleet's arrays."""
        return CompiledMesh(
            n_channels=self.n_channels,
            n_stages=self.n_stages,
            delay_samples=self.delay_samples,
            with_memory=self.with_memory,
            stage_matrices=self.stage_matrices[die],
            ring_b=self.ring_b[die],
            ring_a=self.ring_a[die],
            static_matrix=self.static_matrix[die],
        )

    # -- stacked propagation ----------------------------------------------

    def _die_indices(self, dies) -> np.ndarray:
        if dies is None:
            return np.arange(self.n_dies)
        return np.asarray(dies, dtype=np.intp)

    def propagate(self, fields: np.ndarray, dies=None) -> np.ndarray:
        """Propagate ``(fleet, batch, n_channels, n_samples)`` tensors.

        A 3-D ``(fleet, n_channels, n_samples)`` input is treated as batch
        one and squeezed back.  ``dies`` selects a subset of stacked dies
        (rows of ``fields`` then correspond to those dies in order), which
        is how partial rounds — retries, spot checks of a sample — run
        without re-stacking.  Work is tiled over ``fleet x batch`` so each
        tile's working set stays cache-resident.
        """
        fields = np.asarray(fields, dtype=np.complex128)
        squeeze = fields.ndim == 3
        if squeeze:
            fields = fields[:, np.newaxis]
        indices = self._die_indices(dies)
        n_sel, batch, n, n_samples = fields.shape
        if n_sel != indices.size:
            raise ValueError(
                f"fields stack {n_sel} dies, selection names {indices.size}"
            )
        if n != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channels, got {n}"
            )
        matrices = self.stage_matrices[indices]
        if not self.with_memory:
            out = np.matmul(self.static_matrix[indices][:, np.newaxis], fields)
            return out[:, 0] if squeeze else out
        tau = self.ring_b[indices][..., 0]          # (fleet, stages, n)
        rho = -self.ring_b[indices][..., -1]
        feedback = -self.ring_a[indices][..., -1]
        out = np.empty_like(fields)
        # Cache blocking over fleet x batch: whole-batch slabs of as many
        # dies as fit the budget; if even one die's batch is too large,
        # the batch axis is tiled too.
        per_die = batch * n * n_samples * 16
        die_tile = max(1, _TILE_TARGET_BYTES // max(1, per_die))
        batch_tile = max(1, _TILE_TARGET_BYTES // max(1, n * n_samples * 16))
        for f0 in range(0, n_sel, die_tile):
            f1 = min(f0 + die_tile, n_sel)
            for b0 in range(0, batch, batch_tile):
                b1 = min(b0 + batch_tile, batch)
                current = fields[f0:f1, b0:b1]
                for stage in range(self.n_stages):
                    current = np.matmul(
                        matrices[f0:f1, stage][:, np.newaxis], current
                    )
                    current = stacked_ring_scan(
                        current,
                        tau[f0:f1, stage][:, np.newaxis, :, np.newaxis],
                        rho[f0:f1, stage][:, np.newaxis, :, np.newaxis],
                        feedback[f0:f1, stage][:, np.newaxis, :, np.newaxis],
                        self.delay_samples,
                    )
                out[f0:f1, b0:b1] = current
        return out[:, 0] if squeeze else out

    # -- response kernels --------------------------------------------------

    def impulse_response(self, launch: int, n_samples: int) -> tuple:
        """Per-die time-domain kernels for single-channel launches.

        Returns ``(h_real, h_imag)``: the real and imaginary parts of the
        ``(fleet, n_channels, n_samples)`` impulse response of each die to
        a unit sample on channel ``launch``.  Output sample ``t`` of a
        length-``n_samples`` interrogation depends only on taps ``0..t``
        of ``h``, so convolving against these truncated kernels is
        *exact* for every sample the interrogation observes.

        Built lazily with one stacked :meth:`propagate` pass and cached
        per ``(launch, n_samples)``; this is the only kernel the plane
        builds for :meth:`response_power_at`.
        """
        key = (int(launch), int(n_samples))
        cached = self._kernel_cache.get(key)
        if cached is None:
            impulse = np.zeros(
                (self.n_dies, 1, self.n_channels, n_samples),
                dtype=np.complex128,
            )
            impulse[:, 0, launch, 0] = 1.0
            h = self.propagate(impulse)[:, 0]
            cached = (np.ascontiguousarray(h.real),
                      np.ascontiguousarray(h.imag))
            self._kernel_cache[key] = cached
        return cached

    def response_power_at(
        self,
        waves: np.ndarray,
        samples: np.ndarray,
        launch: int,
        dies=None,
    ) -> np.ndarray:
        """Detected power at selected output samples.

        The protocol compares photodiode energies in a handful of bit
        slots, so the hot paths ask for those samples only; a full energy
        map asks for every sample.  For real drive waveforms this
        evaluates
        ``|sum_k h[k] w[t - k]|^2`` at the requested sample positions
        ``t`` (1-D integers in ``[0, n_samples)``, else ``ValueError``)
        as two fleet-batched real GEMMs (real and imaginary kernel
        parts) — returns ``(fleet_sel, batch, n_channels, len(samples))``
        float64 power, tiled over ``fleet x batch``.
        """
        waves = np.asarray(waves, dtype=np.float64)
        indices = self._die_indices(dies)
        n_sel, batch, n_samples = waves.shape
        samples = _check_samples(samples, n_samples)
        if n_sel != indices.size:
            raise ValueError(
                f"waves stack {n_sel} dies, selection names {indices.size}"
            )
        h_real, h_imag = self.impulse_response(launch, n_samples)
        n_sel_samples = samples.size
        out = np.empty(
            (n_sel, batch, self.n_channels, n_sel_samples), dtype=np.float64
        )
        # A tile's lag operand is written, then read straight back by the
        # GEMM: a quarter of the cache budget keeps it in a core's L2.
        per_die = batch * n_samples * n_sel_samples * 8
        die_tile = max(1, (_TILE_TARGET_BYTES // 4) // max(1, per_die))
        # Column (b, j) of a die's (S, batch*T) lag matrix is drive b
        # reversed around sample t_j (zero before the stream starts): the
        # length-S window of the reversed, zero-padded drive that starts
        # at S - 1 - t_j.  One gather of those window starts from the
        # strided window view is copied straight into the C-contiguous
        # layout the GEMM reads.  One tile-sized drive buffer serves every
        # tile; its zero half is never written.
        reversed_drive = np.zeros(
            (min(die_tile, n_sel), batch, 2 * n_samples - 1)
        )
        windows = sliding_window_view(reversed_drive, n_samples, axis=-1)
        starts = (n_samples - 1) - samples
        for f0 in range(0, n_sel, die_tile):
            f1 = min(f0 + die_tile, n_sel)
            tile = f1 - f0
            reversed_drive[:tile, :, :n_samples] = waves[f0:f1, :, ::-1]
            lag = np.empty((tile, n_samples, batch, n_sel_samples))
            lag[:] = windows[:tile][:, :, starts].transpose(0, 3, 1, 2)
            rows = indices[f0:f1]
            lag = lag.reshape(tile, n_samples, batch * n_sel_samples)
            y_real = np.matmul(h_real[rows], lag)
            y_imag = np.matmul(h_imag[rows], lag)
            power = y_real * y_real + y_imag * y_imag
            out[f0:f1] = power.reshape(
                tile, self.n_channels, batch, n_sel_samples
            ).transpose(0, 2, 1, 3)
        return out

    # -- accounting --------------------------------------------------------

    def memory_footprint_bytes(self) -> int:
        """Frozen operators plus whatever response kernels were built."""
        total = (self.stage_matrices.nbytes + self.ring_b.nbytes
                 + self.ring_a.nbytes + self.static_matrix.nbytes)
        for h_real, h_imag in self._kernel_cache.values():
            total += h_real.nbytes + h_imag.nbytes
        return total

    def per_die_bytes(self) -> int:
        """Memory cost of one enrolled die in the stacked plane."""
        return self.memory_footprint_bytes() // max(1, self.n_dies)
