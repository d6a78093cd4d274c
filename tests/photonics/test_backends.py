"""Contract suite for the pluggable compute backends.

Every registered backend must satisfy one contract against the numpy
reference: rtol-1e-9 float equivalence on the three hot primitives
(ring scan, bit-slot GEMM, spectral convolution), *identical*
differential-readout comparison bits (responses are quantized before
MACs, so float reassociation must never flip a bit), byte-identical
round transcripts through the full authentication stack (hostile
campaign, net server), and graceful numpy fallback
with a recorded ``degraded_reason`` when the backend is unavailable or
fails its first-use self-check.  Optional-dependency backends skip
cleanly where their toolchain is absent — the CI optional-deps lane
installs numba and runs the whole suite live.
"""

import numpy as np
import pytest

from repro.fleet import Adversary, FaultModel, ReplayAdversary, TamperAdversary
from repro.photonics import backend as backend_module
from repro.photonics.backend import (
    ArrayBackend,
    BackendUnavailable,
    NumpyBackend,
    _kernel_power_rows,
    _ring_scan_rows,
    available_backend_names,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.photonics.engine import CompiledMesh, stacked_ring_scan
from repro.photonics.fleet_engine import CompiledFleet
from repro.photonics.mesh import PassiveScrambler
from repro.photonics.variation import VariationModel
from repro.service import AuthService, EngineConfig, FleetConfig

RTOL = 1e-9
ATOL = 1e-12
ALL_BACKENDS = backend_names()


def checked_backend(name: str) -> ArrayBackend:
    """The named backend, self-checked; skips when its toolchain is absent."""
    try:
        backend = get_backend(name)
    except BackendUnavailable as exc:
        pytest.skip(str(exc))
    backend.ensure_ready()
    return backend


def ring_inputs(seed=7, shape=(3, 2, 6, 41), delay=5):
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeff_shape = (shape[0], 1, shape[2], 1)
    tau = rng.uniform(0.84, 0.92, coeff_shape).astype(np.complex128)
    rho = 0.99 * np.exp(-1j * rng.uniform(0, 2 * np.pi, coeff_shape))
    return fields, tau, rho, tau * rho, delay


def gemm_inputs(seed=11, fleet=5, channels=8, samples=48, columns=24):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((fleet, channels, samples)),
            rng.standard_normal((fleet, channels, samples)),
            rng.standard_normal((fleet, samples, columns)))


# An always-identical backend: exercises the non-numpy engine code
# paths (backend-routed scans/GEMMs, worker-side resolution by name)
# without needing an optional toolchain.
class _MirrorBackend(NumpyBackend):
    name = "mirror-test"


# A backend whose ring scan is wrong: exercises the
# fail-self-check-then-fall-back path.
class _BrokenBackend(NumpyBackend):
    name = "broken-test"

    def ring_scan(self, fields, tau, rho, feedback, delay):
        return -super().ring_scan(fields, tau, rho, feedback, delay)


@pytest.fixture(scope="module")
def test_backends():
    """Register the two test-only backends for this module's tests.

    The registry and its instance cache are restored on teardown, so
    the test backends never reach another module (the fleet bench
    sweeps every registered backend).
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend_module, "_REGISTRY",
                      dict(backend_module._REGISTRY))
        patch.setattr(backend_module, "_INSTANCES",
                      dict(backend_module._INSTANCES))
        register_backend(_MirrorBackend)
        register_backend(_BrokenBackend)
        yield


class TestRegistry:
    def test_standard_backends_registered(self):
        # Runs before the module fixture registers the test backends.
        assert backend_names() == ("numba", "numpy")

    def test_numpy_always_available_and_first(self):
        names = available_backend_names()
        assert names[0] == "numpy"
        assert NumpyBackend.available()

    def test_get_backend_is_singleton(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="unknown compute backend"):
            resolve_backend("no-such-backend")

    def test_duplicate_registration_raises(self):
        class Clash(NumpyBackend):
            name = "numpy"

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Clash)

    def test_numpy_resolves_to_itself(self):
        backend, reason = resolve_backend("numpy")
        assert backend.name == "numpy"
        assert reason is None

    def test_unavailable_backend_falls_back_with_reason(self):
        unavailable = [name for name in backend_names()
                       if name not in available_backend_names()]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        name = unavailable[0]
        backend, reason = resolve_backend(name)
        assert backend is get_backend("numpy")
        assert reason is not None and name in reason

    @pytest.mark.usefixtures("test_backends")
    def test_failing_self_check_falls_back_with_reason(self):
        backend, reason = resolve_backend("broken-test")
        assert backend is get_backend("numpy")
        assert "self-check" in reason


class TestNumpyReference:
    """The restructured reference is bit-identical to the old algorithm."""

    @staticmethod
    def legacy_ring_scan(fields, tau, rho, feedback, delay):
        # The pre-restructure implementation: zero-pad + concatenate,
        # then the same block-major recurrence.
        lead = fields.shape[:-1]
        n_samples = fields.shape[-1]
        blocks = -(-n_samples // delay)
        padding = blocks * delay - n_samples
        x = fields
        if padding:
            x = np.concatenate(
                [x, np.zeros((*lead, padding), dtype=fields.dtype)], axis=-1
            )
        u = tau * x
        u[..., delay:] -= rho * x[..., :-delay]
        w = np.ascontiguousarray(
            np.moveaxis(u.reshape(*lead, blocks, delay), -2, 0)
        )
        for k in range(1, blocks):
            w[k] += feedback * w[k - 1]
        out = np.moveaxis(w, 0, -2).reshape(*lead, blocks * delay)
        return out[..., :n_samples] if padding else out

    @pytest.mark.parametrize("n_samples", [1, 3, 5, 40, 41, 64, 259])
    def test_bit_identical_to_legacy(self, n_samples):
        fields, tau, rho, feedback, delay = ring_inputs(
            shape=(3, 2, 6, n_samples)
        )
        new = stacked_ring_scan(fields, tau, rho, feedback, delay)
        old = self.legacy_ring_scan(fields, tau, rho, feedback, delay)
        assert np.array_equal(new, old)

    def test_does_not_mutate_input(self):
        fields, tau, rho, feedback, delay = ring_inputs()
        before = fields.copy()
        stacked_ring_scan(fields, tau, rho, feedback, delay)
        assert np.array_equal(fields, before)


class TestNumbaKernelBodies:
    """The JIT kernel bodies, run interpreted, match the reference.

    This binds the kernel *logic* in every environment; the compiled
    form is covered by the parametrized contract tests when numba is
    installed (the CI optional-deps lane).
    """

    def test_ring_scan_rows_matches_reference(self):
        fields, tau, rho, feedback, delay = ring_inputs()
        lead = fields.shape[:-1]
        x = np.ascontiguousarray(fields).reshape(-1, fields.shape[-1])
        flat = [np.broadcast_to(c[..., 0], lead).reshape(-1).astype(complex)
                for c in (tau, rho, feedback)]
        out = np.empty_like(x)
        _ring_scan_rows(x, flat[0], flat[1], flat[2], delay, out)
        reference = get_backend("numpy").ring_scan(
            fields, tau, rho, feedback, delay
        )
        np.testing.assert_allclose(out.reshape(fields.shape), reference,
                                   rtol=RTOL, atol=ATOL)

    def test_ring_scan_rows_short_stream(self):
        # n_samples < delay: the recurrence never fires, only the tau
        # drive term survives.
        fields, tau, rho, feedback, __ = ring_inputs(shape=(2, 1, 4, 3))
        x = np.ascontiguousarray(fields).reshape(-1, 3)
        lead = fields.shape[:-1]
        flat = [np.broadcast_to(c[..., 0], lead).reshape(-1).astype(complex)
                for c in (tau, rho, feedback)]
        out = np.empty_like(x)
        _ring_scan_rows(x, flat[0], flat[1], flat[2], 8, out)
        np.testing.assert_allclose(
            out, (flat[0][:, None] * x), rtol=RTOL, atol=ATOL
        )

    def test_kernel_power_rows_matches_reference(self):
        h_real, h_imag, lag = gemm_inputs()
        out = np.empty((h_real.shape[0], h_real.shape[1], lag.shape[2]))
        _kernel_power_rows(h_real, h_imag, lag, out)
        reference = get_backend("numpy").kernel_gemm(h_real, h_imag, lag)
        np.testing.assert_allclose(out, reference, rtol=RTOL, atol=ATOL)
        assert np.array_equal(out[:, :-1] > out[:, 1:],
                              reference[:, :-1] > reference[:, 1:])


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendContract:
    """Every backend against the numpy reference, on its real toolchain."""

    def test_self_check_passes(self, name):
        checked_backend(name)

    @pytest.mark.parametrize("n_samples", [17, 41, 64])
    def test_ring_scan_equivalence(self, name, n_samples):
        backend = checked_backend(name)
        fields, tau, rho, feedback, delay = ring_inputs(
            shape=(3, 2, 6, n_samples)
        )
        out = backend.ring_scan(fields, tau, rho, feedback, delay)
        reference = get_backend("numpy").ring_scan(
            fields, tau, rho, feedback, delay
        )
        np.testing.assert_allclose(out, reference, rtol=RTOL, atol=ATOL)

    def test_kernel_gemm_equivalence_and_bits(self, name):
        backend = checked_backend(name)
        h_real, h_imag, lag = gemm_inputs()
        out = backend.kernel_gemm(h_real, h_imag, lag)
        reference = get_backend("numpy").kernel_gemm(h_real, h_imag, lag)
        np.testing.assert_allclose(out, reference, rtol=RTOL, atol=ATOL)
        # Differential readout: adjacent-channel comparisons quantize to
        # bits, and they must be identical across backends.
        assert np.array_equal(out[:, :-1] > out[:, 1:],
                              reference[:, :-1] > reference[:, 1:])

    def test_fft_convolve_equivalence(self, name):
        backend = checked_backend(name)
        rng = np.random.default_rng(23)
        spectra = np.fft.fft(
            rng.standard_normal((4, 6, 30))
            + 1j * rng.standard_normal((4, 6, 30)), n=80, axis=-1,
        )
        waves = rng.standard_normal((4, 3, 30))
        out = backend.batched_fft_convolve(spectra, waves, 80, 30)
        reference = get_backend("numpy").batched_fft_convolve(
            spectra, waves, 80, 30
        )
        np.testing.assert_allclose(out, reference, rtol=RTOL, atol=ATOL)


@pytest.fixture(scope="module")
def scramblers():
    variation = VariationModel()
    return [
        PassiveScrambler(n_channels=8, n_stages=4, design_seed=5,
                         variation=variation.sample_die(die, 0))
        for die in range(6)
    ]


@pytest.mark.usefixtures("test_backends")
class TestEngineIntegration:
    """Backend selection threads through the mesh and fleet layers."""

    def test_mesh_backend_route_agrees(self, scramblers):
        reference = CompiledMesh.compile(scramblers[0])
        routed = CompiledMesh.compile(scramblers[0], backend="mirror-test")
        assert routed.compute_backend().name == "mirror-test"
        assert routed.backend_degraded_reason is None
        rng = np.random.default_rng(3)
        fields = (rng.standard_normal((4, 8, 96))
                  + 1j * rng.standard_normal((4, 8, 96)))
        np.testing.assert_allclose(routed.propagate(fields),
                                   reference.propagate(fields),
                                   rtol=RTOL, atol=ATOL)

    def test_fleet_backend_bit_identical(self, scramblers):
        reference = CompiledFleet.compile(scramblers)
        routed = CompiledFleet.compile(scramblers, backend="mirror-test")
        assert routed.compute_backend().name == "mirror-test"
        rng = np.random.default_rng(9)
        waves = rng.standard_normal((6, 2, 64))
        samples = np.arange(4, 64, 8)
        assert np.array_equal(
            routed.response_power_at(waves, samples, launch=0),
            reference.response_power_at(waves, samples, launch=0),
        )
        assert np.array_equal(
            routed.modulated_response(waves, launch=0),
            reference.modulated_response(waves, launch=0),
        )
        fields = (rng.standard_normal((6, 2, 8, 64))
                  + 1j * rng.standard_normal((6, 2, 8, 64)))
        assert np.array_equal(routed.propagate(fields),
                              reference.propagate(fields))

    def test_fleet_unavailable_backend_degrades_bit_identically(
            self, scramblers):
        unavailable = [name for name in backend_names()
                       if name not in available_backend_names()]
        if not unavailable:
            pytest.skip("every registered backend is available here")
        reference = CompiledFleet.compile(scramblers)
        degraded = CompiledFleet.compile(scramblers, backend=unavailable[0])
        assert degraded.compute_backend().name == "numpy"
        assert unavailable[0] in degraded.backend_degraded_reason
        rng = np.random.default_rng(13)
        waves = rng.standard_normal((6, 2, 64))
        samples = np.arange(4, 64, 8)
        assert np.array_equal(
            degraded.response_power_at(waves, samples, launch=0),
            reference.response_power_at(waves, samples, launch=0),
        )

    def test_views_inherit_backend(self, scramblers):
        fleet = CompiledFleet.compile(scramblers, backend="mirror-test")
        assert fleet.mesh(0).backend_name == "mirror-test"


class TestEngineConfigBackend:
    def test_round_trips_backend(self):
        config = EngineConfig(backend="numba")
        assert EngineConfig.from_state(config.to_state()) == config

    def test_default_state_omissions_tolerated(self):
        assert EngineConfig.from_state({}).backend == "numpy"

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown compute backend"):
            EngineConfig(backend="no-such-backend")

    def test_backend_requires_stacked(self):
        with pytest.raises(ValueError, match="requires stacked"):
            EngineConfig(stacked=False, backend="numba")

    def test_from_state_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown engine config"):
            EngineConfig.from_state({"stacked": True, "backened": "numba"})

    def test_fleet_config_rejects_unknown_fields(self):
        state = FleetConfig(n_devices=2).to_state()
        state["n_devcies"] = 4
        with pytest.raises(ValueError, match="unknown fleet config"):
            FleetConfig.from_state(state)

    @pytest.mark.usefixtures("test_backends")
    def test_fleet_config_round_trips_backend(self):
        config = FleetConfig(n_devices=2,
                             engine=EngineConfig(backend="mirror-test"))
        assert FleetConfig.from_state(config.to_state()).engine.backend == \
            "mirror-test"


# ---------------------------------------------------------------------------
# End-to-end transcript equality: the acceptance gate
# ---------------------------------------------------------------------------

FLEET = 64
SEED = 2026
N_ROUNDS = 8
FAST_PUF = dict(challenge_bits=32, n_stages=4, response_bits=16)


class TranscriptRecorder(Adversary):
    """A passive wiretap: records every in-flight message, mutates none."""

    name = "transcript-recorder"

    def __init__(self):
        self.frames = []

    def mutate(self, messages, captured, rng):
        self.frames.extend(
            (message.device_id, bytes(message.body), bytes(message.tag))
            for message in messages
        )
        return messages


def run_hostile_campaign(backend: str):
    """One seeded hostile campaign on the named backend; returns
    ``(frames, stats, snapshot)`` for byte-level comparison."""
    config = FleetConfig(
        n_devices=FLEET, seed=SEED, puf=FAST_PUF,
        engine=EngineConfig(backend=backend),
        fault_model=FaultModel(confirmation_drop=0.2, response_drop=0.05,
                               max_retries=4),
    )
    service = AuthService.provision(config)
    recorder = TranscriptRecorder()
    simulator = service.simulator(adversaries=[
        ReplayAdversary(probability=0.3),
        TamperAdversary(probability=0.02, factor=1.4),
        recorder,
    ])
    stats = simulator.run_campaign(N_ROUNDS)
    snapshot = service.snapshot()
    service.close()
    return recorder.frames, stats.to_json(), snapshot


def assert_campaigns_identical(baseline, other):
    frames, stats, snapshot = baseline
    other_frames, other_stats, other_snapshot = other
    assert frames, "hostile campaign produced no traffic"
    assert frames == other_frames  # bytes, in order
    for volatile in ("elapsed_s", "auths_per_sec"):
        stats = dict(stats)
        other_stats = dict(other_stats)
        stats.pop(volatile, None)
        other_stats.pop(volatile, None)
    assert stats == other_stats
    assert snapshot["arrays"].keys() == other_snapshot["arrays"].keys()
    for key in snapshot["arrays"]:
        assert np.array_equal(snapshot["arrays"][key],
                              other_snapshot["arrays"][key]), key


@pytest.fixture(scope="module")
def numpy_campaign():
    return run_hostile_campaign("numpy")


class TestCampaignTranscriptEquality:
    @pytest.mark.parametrize(
        "name", [name for name in ALL_BACKENDS if name != "numpy"]
    )
    def test_backend_transcripts_bit_identical(self, numpy_campaign, name):
        # Unavailable backends run too: their campaigns must degrade to
        # numpy transparently and still produce identical bytes.
        assert_campaigns_identical(numpy_campaign, run_hostile_campaign(name))

    def test_hostility_exercised(self, numpy_campaign):
        __, stats, __ = numpy_campaign
        assert stats["dropped_confirmations"] > 0
        assert stats["retries"] > 0
        assert stats["adversary_messages"] > 0
