"""Pluggable compute backends for the photonic execution plane.

Authentication rounds are dominated by two numerical primitives: the
block-major first-order recurrence of the stacked ring scan
(:func:`~repro.photonics.engine.stacked_ring_scan`) and the
fleet-batched response-kernel GEMMs of
:meth:`~repro.photonics.fleet_engine.CompiledFleet.response_power_at`.
This module puts both — plus the batched spectral convolution of
``modulated_response`` — behind one small :class:`ArrayBackend`
interface so a single config flag (``EngineConfig(backend=...)``) moves
the whole execution plane to a JIT-compiled path:

* :class:`NumpyBackend` — the reference.  Its operations are the exact
  whole-tensor passes the engine has always run, so selecting it (the
  default) changes nothing, bit for bit.
* :class:`NumbaBackend` — JIT-compiles the ring-scan recurrence (drive
  term and block recurrence fused into one pass per ring, parallel over
  the stacked ``fleet x channels`` plane) and the bit-slot GEMM path.
  Registers always; reports :meth:`available` only when ``numba``
  imports.  The CI ``backend-bench`` lane installs it and holds it to
  its speedup floors.

Correctness story
-----------------
numpy stays the bit-exactness reference.  Every alternate backend must
agree with it at rtol 1e-9 on the raw float primitives *and* — because
responses are quantized to bits before any MAC is computed — produce
**bit-identical round transcripts** end to end: float reassociation in
a JIT kernel must never flip a differential-readout comparison.
:meth:`ArrayBackend.self_check` asserts both properties on
representative inputs at first use; :func:`resolve_backend` falls back
to numpy with a recorded ``degraded_reason`` when a backend is
unavailable or fails that check, so callers never need a second code
path (mirroring the sharded executor's degraded mode).  Every backend
accepts and returns host (numpy) arrays.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Type

import numpy as np

__all__ = [
    "ArrayBackend",
    "BackendUnavailable",
    "NumbaBackend",
    "NumpyBackend",
    "available_backend_names",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
]


class BackendUnavailable(RuntimeError):
    """Raised when a compute backend cannot serve (missing dep, bad check)."""


# ---------------------------------------------------------------------------
# JIT kernel bodies (plain Python, compiled by NumbaBackend at first use)
# ---------------------------------------------------------------------------

# Swapped for ``numba.prange`` when the JIT compiles the kernels below;
# as plain Python both behave like ``range``, so the kernel logic is
# testable without the JIT toolchain (tests/photonics/test_backends.py
# runs these bodies interpreted and pins them against NumpyBackend).
prange = range


def _ring_scan_rows(x, tau, rho, feedback, delay, out):
    """All-pass ring recurrence, one contiguous row per ring.

    ``x``/``out`` are ``(rings, n_samples)`` complex128 and ``tau`` /
    ``rho`` / ``feedback`` are ``(rings,)`` per-ring coefficients.  Per
    sample the bank is ``y[j] = tau x[j] - rho x[j - delay]
    + feedback y[j - delay]`` — exactly the block recurrence of the
    numpy reference unrolled per element, with the drive term fused
    into the same pass (no padded copy, no block temporaries).  Each
    row streams its samples once, so the working set per ring is a few
    registers: the cache blocking the numpy path gets from
    ``_TILE_TARGET_BYTES`` tiling falls out of the row-major layout.
    """
    rows, n_samples = x.shape
    head = delay if delay < n_samples else n_samples
    for row in prange(rows):
        t = tau[row]
        r = rho[row]
        f = feedback[row]
        for j in range(head):
            out[row, j] = t * x[row, j]
        for j in range(head, n_samples):
            out[row, j] = (t * x[row, j] - r * x[row, j - delay]) \
                + f * out[row, j - delay]


def _kernel_power_rows(h_real, h_imag, lag, out):
    """Bit-slot response power, one die per parallel iteration.

    ``h_real``/``h_imag`` are ``(fleet, channels, samples)`` kernel
    parts, ``lag`` is the ``(fleet, samples, columns)`` lag matrix and
    ``out`` receives ``|h * w|^2`` as ``(fleet, channels, columns)`` —
    the two real GEMMs of the numpy path with the power fused in.
    """
    fleet = h_real.shape[0]
    for die in prange(fleet):
        y_real = np.dot(h_real[die], lag[die])
        y_imag = np.dot(h_imag[die], lag[die])
        out[die] = y_real * y_real + y_imag * y_imag


# ---------------------------------------------------------------------------
# Backend interface + registry
# ---------------------------------------------------------------------------

class ArrayBackend:
    """One execution backend for the photonic plane's hot primitives.

    Subclasses implement the three primitives (:meth:`ring_scan`,
    :meth:`kernel_gemm`, :meth:`batched_fft_convolve`) over host
    arrays, plus the :meth:`available` probe.  :meth:`ensure_ready` runs
    :meth:`self_check` exactly once per process and caches the verdict;
    :func:`resolve_backend` uses it to gate first use.
    """

    #: Registry key; also what ``EngineConfig.backend`` validates against.
    name: str = "abstract"

    def __init__(self) -> None:
        self._checked: Optional[BaseException] = None
        self._check_ran = False

    # -- availability ------------------------------------------------------

    @classmethod
    def available(cls) -> bool:
        """Whether the backend's toolchain imports in this process."""
        return cls.unavailable_reason() is None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        """Why :meth:`available` is False (``None`` when available)."""
        return None

    # -- primitives --------------------------------------------------------

    def ring_scan(self, fields: np.ndarray, tau: np.ndarray,
                  rho: np.ndarray, feedback: np.ndarray,
                  delay: int) -> np.ndarray:
        """Apply a whole bank of all-pass rings in one stacked pass.

        Same contract as
        :func:`repro.photonics.engine.stacked_ring_scan`: ``fields`` is
        ``(..., n_samples)`` with the rings axis among the leading
        dimensions, the coefficients broadcast against ``fields`` with
        a trailing length-1 sample axis.
        """
        raise NotImplementedError

    def kernel_gemm(self, h_real: np.ndarray, h_imag: np.ndarray,
                    lag: np.ndarray) -> np.ndarray:
        """Response power ``|h * w|^2`` as two fleet-batched real GEMMs.

        ``h_real``/``h_imag`` are ``(fleet, channels, samples)``,
        ``lag`` is ``(fleet, samples, columns)``; returns the
        ``(fleet, channels, columns)`` float64 power.
        """
        raise NotImplementedError

    def batched_fft_convolve(self, spectra: np.ndarray, waves: np.ndarray,
                             length: int, n_samples: int) -> np.ndarray:
        """Convolve drive waveforms against per-die response spectra.

        ``spectra`` is ``(fleet, channels, length)``, ``waves`` is
        ``(fleet, batch, n_samples)`` real; returns the complex
        ``(fleet, batch, channels, n_samples)`` output fields.
        """
        raise NotImplementedError

    # -- self-check gate ---------------------------------------------------

    def self_check(self) -> None:
        """Assert agreement with the numpy reference on small inputs.

        Checks every primitive at rtol 1e-9 *and* asserts that the
        adjacent-channel power comparisons the differential readout
        quantizes are identical — the bit-level half of the contract.
        Raises :class:`BackendUnavailable` on any mismatch.
        """
        reference = get_backend("numpy")
        if reference is self:
            return
        rng = np.random.default_rng(0x5EED)
        delay = 4
        shape = (3, 2, 5, 29)          # (fleet, batch, rings, samples)
        fields = (rng.standard_normal(shape)
                  + 1j * rng.standard_normal(shape))
        tau = rng.uniform(0.84, 0.92, (3, 1, 5, 1)).astype(np.complex128)
        rho = 0.99 * np.exp(-1j * rng.uniform(0, 2 * np.pi, (3, 1, 5, 1)))
        feedback = tau * rho
        mine = self.ring_scan(fields, tau, rho, feedback, delay)
        theirs = reference.ring_scan(fields, tau, rho, feedback, delay)
        if not np.allclose(mine, theirs, rtol=1e-9, atol=1e-12):
            raise BackendUnavailable(
                f"backend {self.name!r} ring_scan disagrees with numpy"
            )
        h_real = rng.standard_normal((4, 6, 16))
        h_imag = rng.standard_normal((4, 6, 16))
        lag = rng.standard_normal((4, 16, 10))
        power = self.kernel_gemm(h_real, h_imag, lag)
        power_ref = reference.kernel_gemm(h_real, h_imag, lag)
        if not np.allclose(power, power_ref, rtol=1e-9, atol=1e-12):
            raise BackendUnavailable(
                f"backend {self.name!r} kernel_gemm disagrees with numpy"
            )
        # The differential readout compares adjacent channels and
        # quantizes: the comparison outcome must be identical, or round
        # transcripts would diverge bit-wise.
        if not np.array_equal(power[:, :-1] > power[:, 1:],
                              power_ref[:, :-1] > power_ref[:, 1:]):
            raise BackendUnavailable(
                f"backend {self.name!r} flips differential-readout "
                "comparisons against the numpy reference"
            )
        waves = rng.standard_normal((3, 2, 24))
        spectra = np.fft.fft(
            rng.standard_normal((3, 5, 24))
            + 1j * rng.standard_normal((3, 5, 24)), n=64, axis=-1,
        )
        conv = self.batched_fft_convolve(spectra, waves, 64, 24)
        conv_ref = reference.batched_fft_convolve(spectra, waves, 64, 24)
        if not np.allclose(conv, conv_ref, rtol=1e-9, atol=1e-12):
            raise BackendUnavailable(
                f"backend {self.name!r} batched_fft_convolve disagrees "
                "with numpy"
            )

    def ensure_ready(self) -> None:
        """Run :meth:`self_check` once; re-raise its cached verdict."""
        if not self._check_ran:
            self._check_ran = True
            try:
                self.self_check()
            except BaseException as exc:
                self._checked = exc
        if self._checked is not None:
            raise self._checked


_REGISTRY: Dict[str, Type[ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(cls: Type[ArrayBackend]) -> Type[ArrayBackend]:
    """Register a backend class under its ``name`` (decorator-friendly).

    Registration is by *name*, not availability: unavailable backends
    stay listed so config validation can tell "unknown backend" (a
    typo — always an error) from "known but unavailable" (a degraded
    fallback at first use).
    """
    if not cls.name or cls.name == "abstract":
        raise ValueError("backend classes must set a concrete name")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"backend name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> Tuple[str, ...]:
    """Every registered backend name (available or not), sorted."""
    return tuple(sorted(_REGISTRY))


def available_backend_names() -> Tuple[str, ...]:
    """Registered backends whose toolchain imports, numpy first."""
    names = [name for name in sorted(_REGISTRY)
             if _REGISTRY[name].available()]
    names.sort(key=lambda name: name != "numpy")
    return tuple(names)


def get_backend(name: str) -> ArrayBackend:
    """The singleton instance of a registered backend.

    Raises ``ValueError`` for unknown names and
    :class:`BackendUnavailable` when the backend's toolchain is
    missing.  Most callers want :func:`resolve_backend`, which falls
    back instead of raising.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        ) from None
    if not cls.available():
        raise BackendUnavailable(
            f"compute backend {name!r} is unavailable: "
            f"{cls.unavailable_reason()}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def resolve_backend(name: str) -> Tuple[ArrayBackend, Optional[str]]:
    """Resolve a backend by name with numpy fallback.

    Returns ``(backend, degraded_reason)``: the requested backend and
    ``None`` when it is available and passes its first-use self-check,
    otherwise the numpy reference and a human-readable reason — the
    same graceful-degradation contract as the sharded executor.
    Unknown names still raise ``ValueError`` (a typo is a config error,
    not a runtime condition).
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown compute backend {name!r}; registered backends: "
            f"{', '.join(backend_names())}"
        )
    if name == "numpy":
        return get_backend("numpy"), None
    cls = _REGISTRY[name]
    if not cls.available():
        return get_backend("numpy"), (
            f"compute backend {name!r} unavailable: "
            f"{cls.unavailable_reason()}"
        )
    backend = get_backend(name)
    try:
        backend.ensure_ready()
    except BaseException as exc:
        return get_backend("numpy"), (
            f"compute backend {name!r} failed its self-check: {exc}"
        )
    return backend, None


# ---------------------------------------------------------------------------
# numpy — the reference
# ---------------------------------------------------------------------------

@register_backend
class NumpyBackend(ArrayBackend):
    """The bit-exactness reference: plain numpy whole-tensor passes."""

    name = "numpy"

    def ring_scan(self, fields: np.ndarray, tau: np.ndarray,
                  rho: np.ndarray, feedback: np.ndarray,
                  delay: int) -> np.ndarray:
        # Every ring couples samples only at distance ``delay``, so with
        # samples grouped into consecutive length-``delay`` blocks the
        # bank is the first-order recurrence
        #
        #     y_k = u_k + A y_{k-1},  u_k = tau x_k - rho x_{k-1},
        #     A = tau rho
        #
        # over blocks.  The drive term is written directly into the
        # block-padded buffer (no zero-pad + concatenate copy: the
        # drive's own tail is pure padding because the last block's
        # lagged samples all fall inside the real stream), then the
        # recurrence runs block-major so each step is one contiguous
        # multiply-add over the entire stacked rings plane.
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
        # total - delay = (blocks - 1) * delay < n_samples, so the
        # lagged slice never reaches into the padding.
        u[..., delay:] -= rho * fields[..., :total - delay]
        # Block-major layout: step k touches one contiguous slab.
        w = np.ascontiguousarray(
            np.moveaxis(u.reshape(*lead, blocks, delay), -2, 0)
        )
        for k in range(1, blocks):
            w[k] += feedback * w[k - 1]
        out = np.moveaxis(w, 0, -2).reshape(*lead, total)
        return out[..., :n_samples] if padding else out

    def kernel_gemm(self, h_real: np.ndarray, h_imag: np.ndarray,
                    lag: np.ndarray) -> np.ndarray:
        y_real = np.matmul(h_real, lag)
        y_imag = np.matmul(h_imag, lag)
        return y_real * y_real + y_imag * y_imag

    def batched_fft_convolve(self, spectra: np.ndarray, waves: np.ndarray,
                             length: int, n_samples: int) -> np.ndarray:
        wave_spectra = np.fft.fft(waves, n=length, axis=-1)
        product = spectra[:, np.newaxis] * wave_spectra[:, :, np.newaxis]
        return np.fft.ifft(product, axis=-1)[..., :n_samples]


# ---------------------------------------------------------------------------
# numba — JIT-compiled CPU kernels
# ---------------------------------------------------------------------------

@register_backend
class NumbaBackend(NumpyBackend):
    """JIT-compiled ring scan + bit-slot GEMMs (numpy FFT path).

    The two round-dominating primitives are compiled at first use:
    :func:`_ring_scan_rows` fuses the drive term into the recurrence
    and runs one contiguous streaming pass per ring, parallel over the
    stacked ``fleet x channels`` plane; :func:`_kernel_power_rows`
    parallelizes the per-die response GEMMs with the power fused in.
    The spectral-convolution path stays on numpy's FFT (numba has
    none) — it is not round-critical.
    """

    name = "numba"
    _jitted = None

    @classmethod
    def unavailable_reason(cls) -> Optional[str]:
        try:
            import numba  # noqa: F401
        except Exception as exc:  # pragma: no cover - depends on env
            return f"numba import failed ({exc})"
        return None

    @classmethod
    def _kernels(cls):
        """Compile (once per process) and return the jitted kernels."""
        if cls._jitted is None:
            import numba

            # The kernel bodies reference the module-global ``prange``;
            # numba resolves it at compile time, so swapping it in here
            # parallelizes the row loops (``numba.prange`` degrades to
            # plain ``range`` for interpreted calls).
            globals()["prange"] = numba.prange
            jit = numba.njit(parallel=True, fastmath=False, cache=False)
            cls._jitted = (jit(_ring_scan_rows), jit(_kernel_power_rows))
        return cls._jitted

    def ring_scan(self, fields: np.ndarray, tau: np.ndarray,
                  rho: np.ndarray, feedback: np.ndarray,
                  delay: int) -> np.ndarray:
        scan_rows, __ = self._kernels()
        lead = fields.shape[:-1]
        n_samples = fields.shape[-1]
        x = np.ascontiguousarray(fields, dtype=np.complex128)
        x = x.reshape(-1, n_samples)
        coeffs = [
            np.ascontiguousarray(
                np.broadcast_to(c[..., 0], lead), dtype=np.complex128
            ).reshape(-1)
            for c in (tau, rho, feedback)
        ]
        out = np.empty_like(x)
        scan_rows(x, coeffs[0], coeffs[1], coeffs[2], int(delay), out)
        return out.reshape(*lead, n_samples)

    def kernel_gemm(self, h_real: np.ndarray, h_imag: np.ndarray,
                    lag: np.ndarray) -> np.ndarray:
        __, power_rows = self._kernels()
        h_real = np.ascontiguousarray(h_real, dtype=np.float64)
        h_imag = np.ascontiguousarray(h_imag, dtype=np.float64)
        lag = np.ascontiguousarray(lag, dtype=np.float64)
        out = np.empty((h_real.shape[0], h_real.shape[1], lag.shape[2]))
        power_rows(h_real, h_imag, lag, out)
        return out

    def self_check(self) -> None:
        try:
            self._kernels()
        except Exception as exc:
            raise BackendUnavailable(
                f"numba JIT compilation failed: {exc}"
            ) from exc
        super().self_check()

