"""Compiled vectorized propagation engine for the passive scrambler.

:class:`~repro.photonics.mesh.PassiveScrambler.propagate` rebuilds every
mixing-layer matrix and every ring filter from the die-variation RNG on
*each* call, and runs a Python loop over channels for the ring banks.
That is fine for one interrogation but dominates the cost of fleet-scale
workloads (millions of challenge-response pairs).

:class:`CompiledMesh` performs that work exactly once per (die,
wavelength, environment):

* each mixing stage becomes one dense complex ``(n_channels, n_channels)``
  transfer matrix, stacked into a ``(n_stages, n, n)`` tensor;
* each ring bank becomes stacked IIR coefficient arrays
  ``(n_stages, n_channels, delay + 1)`` — the same ``(b, a)`` polynomials
  :meth:`DiscreteTimeRing.coefficients` produces, just laid out so a whole
  bank is applied in one vectorized recurrence.

Propagation then evaluates ``(batch, n_channels, n_samples)`` field
tensors with ``einsum`` for the mixing stages and one stacked scan per
ring bank (:func:`stacked_ring_scan`) — no Python loops over channels or
batch.  The same scan serves the fleet-stacked engine
(:mod:`repro.photonics.fleet_engine`), where the rings axis is the whole
``fleet x channels`` plane and a single call replaces what used to be one
``_ring_bank`` invocation per device per stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.photonics.constants import DEFAULT_WAVELENGTH
from repro.photonics.variation import OpticalEnvironment

_NOMINAL_ENV = OpticalEnvironment()

# Per-tile field-tensor budget for cache blocking in propagate(): a tile
# (plus the scan's temporaries) should fit the last-level cache.
_TILE_TARGET_BYTES = 2_500_000

# Cap on cached (stage, blocks) scan-coefficient entries per mesh: varied
# sample lengths would otherwise grow the cache without bound.  Generous
# enough that a fixed protocol (one blocks value per stage) never evicts.
_SCAN_CACHE_LIMIT = 64


def environment_cache_key(
    wavelength: float, env: OpticalEnvironment
) -> tuple:
    """Hashable identity of the operating point a compilation is valid for.

    ``detection_noise_scale`` is deliberately excluded: receiver noise is
    added after propagation, so SNR sweeps share one compilation.
    """
    return (float(wavelength), float(env.temperature_c), float(env.laser_power_mw))


def stacked_ring_scan(
    fields: np.ndarray,
    tau: np.ndarray,
    rho: np.ndarray,
    feedback: np.ndarray,
    delay: int,
) -> np.ndarray:
    """Apply a whole bank of all-pass rings in one stacked pass.

    ``fields`` is ``(..., n_samples)`` with any leading layout — the rings
    axis (channels, or ``fleet x channels`` for the stacked fleet engine)
    lives among the leading dimensions.  ``tau`` / ``rho`` / ``feedback``
    are the per-ring coefficients, broadcastable against ``fields`` with a
    trailing sample axis of length 1 (e.g. ``(n, 1)`` for a mesh bank,
    ``(fleet, 1, n, 1)`` for a fleet bank).

    Every ring couples samples only at distance ``delay``, so with samples
    grouped into consecutive length-``delay`` blocks the bank is the
    first-order recurrence

        y_k = u_k + A y_{k-1},   u_k = tau x_k - rho x_{k-1},   A = tau rho

    over blocks.  The drive term is written straight into a pre-sized
    block-padded buffer (no zero-pad + ``concatenate`` copy), then the
    recurrence runs block-major: the block axis is moved to the front so
    each step is one contiguous multiply-add over the entire stacked
    rings plane — one scan per bank regardless of how many devices are
    stacked, instead of one Python-level filter per ring.  Agrees with
    the ``scipy.signal.lfilter`` reference to round-off.
    """
    lead = fields.shape[:-1]
    n_samples = fields.shape[-1]
    blocks = -(-n_samples // delay)
    padding = blocks * delay - n_samples
    total = blocks * delay
    u = np.empty((*lead, total),
                 dtype=np.result_type(tau.dtype, fields.dtype))
    np.multiply(tau, fields, out=u[..., :n_samples])
    if padding:
        u[..., n_samples:] = 0.0
    # The drive's own tail is pure padding: total - delay =
    # (blocks - 1) * delay < n_samples, so the lagged slice never
    # reaches into it.
    u[..., delay:] -= rho * fields[..., :total - delay]
    # Block-major layout: step k touches one contiguous slab.
    w = np.ascontiguousarray(
        np.moveaxis(u.reshape(*lead, blocks, delay), -2, 0)
    )
    for k in range(1, blocks):
        w[k] += feedback * w[k - 1]
    out = np.moveaxis(w, 0, -2).reshape(*lead, total)
    return out[..., :n_samples] if padding else out


@dataclass(frozen=True)
class CompiledMesh:
    """Dense, environment-frozen form of a :class:`PassiveScrambler`.

    Attributes
    ----------
    stage_matrices:
        ``(n_stages, n_channels, n_channels)`` complex transfer matrices.
    ring_b / ring_a:
        ``(n_stages, n_channels, delay_samples + 1)`` stacked numerator /
        denominator IIR coefficients of each ring bank.
    static_matrix:
        Product of all mixing stages — the CW (memory-ablated) response,
        used as a single-``einsum`` fast path when ``with_memory`` is off.
    """

    n_channels: int
    n_stages: int
    delay_samples: int
    with_memory: bool
    stage_matrices: np.ndarray
    ring_b: np.ndarray
    ring_a: np.ndarray
    static_matrix: np.ndarray
    # Per-(stage, blocks) scan coefficients, built lazily on first
    # propagation; mutating the cache dict is compatible with frozen.
    # Bounded to _SCAN_CACHE_LIMIT entries, evicting least-recently-used.
    _scan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def compile(
        cls,
        scrambler,
        wavelength: float = DEFAULT_WAVELENGTH,
        env: OpticalEnvironment = _NOMINAL_ENV,
    ) -> "CompiledMesh":
        """Freeze ``scrambler`` at one operating point into dense operators."""
        n = scrambler.n_channels
        stages = scrambler.n_stages
        delay = scrambler.ring_delay_samples
        matrices = np.stack(
            [layer.matrix(wavelength, env) for layer in scrambler.layers]
        )
        ring_b = np.zeros((stages, n, delay + 1), dtype=np.complex128)
        ring_a = np.zeros((stages, n, delay + 1), dtype=np.complex128)
        for stage in range(stages):
            for channel in range(n):
                b, a = scrambler._ring(stage, channel).coefficients()
                ring_b[stage, channel] = b
                ring_a[stage, channel] = a
        static = np.eye(n, dtype=np.complex128)
        for stage in range(stages):
            static = matrices[stage] @ static
        return cls(
            n_channels=n,
            n_stages=stages,
            delay_samples=delay,
            with_memory=scrambler.with_memory,
            stage_matrices=matrices,
            ring_b=ring_b,
            ring_a=ring_a,
            static_matrix=static,
        )

    # -- vectorized ring bank ---------------------------------------------

    def _ring_bank(self, stage: int, fields: np.ndarray) -> np.ndarray:
        """Apply one bank of per-channel rings to ``(batch, n, S)`` fields.

        Uses the rescaled prefix-sum form of the block recurrence (see
        :func:`stacked_ring_scan` for the recurrence itself): with the
        drive pre-scaled by ``A^{-k}``, ``y_k = A^k cumsum(A^{-j} u_j)``
        evaluates the whole bank in a handful of whole-tensor passes with
        cached per-sample coefficient tensors.  For the small per-block
        slabs of a single die this beats the block-major loop (whose
        per-step Python overhead would dominate at ``n_channels x delay``
        elements per block); the fleet engine stacks thousands of rings
        per slab and uses the loop form instead.
        """
        delay = self.delay_samples
        batch, n, n_samples = fields.shape
        blocks = -(-n_samples // delay)
        padding = blocks * delay - n_samples
        if padding:
            fields = np.concatenate(
                [fields, np.zeros((batch, n, padding), dtype=fields.dtype)],
                axis=-1,
            )
        x = fields
        y = np.empty_like(x)
        feedback = -self.ring_a[stage, :, -1][:, np.newaxis]  # (n, 1): tau*rho
        carry = None
        for start, powers, scaled_tau, scaled_rho in self._scan_coefficients(
            stage, blocks
        ):
            stop = start + powers.shape[1]
            # Drive term of the block recurrence, pre-scaled by A^{-k}:
            # A^{-k} u_k = (tau A^{-k}) x_k - (rho A^{-k}) x_{k-1}, laid out
            # at full sample resolution so every pass runs contiguous.
            term = scaled_tau * x[:, :, start:stop]
            if start == 0:
                term[:, :, delay:] -= scaled_rho[:, delay:] * x[:, :, :stop - delay]
            else:
                term -= scaled_rho * x[:, :, start - delay:stop - delay]
                term[:, :, :delay] += feedback * carry
            # z_k = z_{k-1} + A^{-k} u_k is a plain prefix sum over blocks;
            # y_k = A^k z_k.  The rescaling never amplifies error (each
            # term re-multiplies by A^{k-j} <= 1), but |A|^{-k} itself
            # grows, so chunks are bounded and the state carried across.
            blocked = term.reshape(batch, n, -1, delay)
            np.cumsum(blocked, axis=2, out=blocked)
            np.multiply(powers, term, out=y[:, :, start:stop])
            carry = y[:, :, stop - delay:stop]
        return y[:, :, :n_samples] if padding else y

    # Chunk length in blocks of the rescaled prefix-sum scan: |A|^-k stays
    # far from float overflow for the slowest rings (|A| ~ 0.84 * 0.99).
    _SCAN_CHUNK = 512

    def _scan_coefficients(self, stage: int, blocks: int) -> list:
        """Per-chunk ``(start_sample, A^k, tau A^-k, rho A^-k)``, cached.

        Coefficient tensors are ``(n_channels, chunk_samples)`` — the
        per-block exponent repeated over the ``delay`` samples of each
        block — so the scan's elementwise passes broadcast with contiguous
        inner loops over whole sample streams.  Exponents reset at each
        chunk start.
        """
        key = (stage, blocks)
        cached = self._scan_cache.get(key)
        if cached is not None:
            # Refresh recency: dicts iterate in insertion order, so
            # re-inserting moves the entry to the MRU end.
            del self._scan_cache[key]
            self._scan_cache[key] = cached
        else:
            delay = self.delay_samples
            tau = self.ring_b[stage, :, 0][:, np.newaxis]
            rho = -self.ring_b[stage, :, -1][:, np.newaxis]   # a e^{-j phi}
            feedback = -self.ring_a[stage, :, -1][:, np.newaxis]
            cached = []
            for start in range(0, blocks, self._SCAN_CHUNK):
                length = min(self._SCAN_CHUNK, blocks - start)
                exponents = np.repeat(np.arange(length), delay)[np.newaxis, :]
                powers = feedback ** exponents           # (n, length * delay)
                inverse = (1.0 / feedback) ** exponents
                cached.append((
                    start * delay,
                    powers,
                    tau * inverse,
                    rho * inverse,
                ))
            self._scan_cache[key] = cached
            while len(self._scan_cache) > _SCAN_CACHE_LIMIT:
                self._scan_cache.pop(next(iter(self._scan_cache)))
        return cached

    # -- propagation -------------------------------------------------------

    def propagate(self, fields: np.ndarray) -> np.ndarray:
        """Propagate ``(batch, n_channels, n_samples)`` field tensors.

        A 2-D ``(n_channels, n_samples)`` input is treated as a batch of
        one and squeezed back, matching ``PassiveScrambler.propagate``.
        """
        fields = np.asarray(fields, dtype=np.complex128)
        squeeze = fields.ndim == 2
        if squeeze:
            fields = fields[np.newaxis]
        if fields.shape[1] != self.n_channels:
            raise ValueError(
                f"expected {self.n_channels} channels, got {fields.shape[1]}"
            )
        if not self.with_memory:
            out = np.matmul(self.static_matrix, fields)
            return out[0] if squeeze else out
        batch, n, n_samples = fields.shape
        # Cache blocking: the stage pipeline is memory-bandwidth bound, so
        # large batches run as tiles whose working set stays in LLC.  (This
        # iterates over *tiles*, not batch elements — a handful of passes.)
        tile = max(8, _TILE_TARGET_BYTES // max(1, n * n_samples * 16))
        if batch > tile:
            out = np.empty_like(fields)
            for start in range(0, batch, tile):
                out[start:start + tile] = self._propagate_tile(
                    fields[start:start + tile]
                )
        else:
            out = self._propagate_tile(fields)
        return out[0] if squeeze else out

    def _propagate_tile(self, fields: np.ndarray) -> np.ndarray:
        current = fields
        for stage in range(self.n_stages):
            current = np.matmul(self.stage_matrices[stage], current)
            current = self._ring_bank(stage, current)
        return current

    def memory_footprint_bytes(self) -> int:
        """Size of the frozen operators (enrollment-registry accounting)."""
        return (
            self.stage_matrices.nbytes + self.ring_b.nbytes + self.ring_a.nbytes
            + self.static_matrix.nbytes
        )
