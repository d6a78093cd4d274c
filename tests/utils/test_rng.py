"""Tests for deterministic RNG stream derivation."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import rng as rng_module
from repro.utils.rng import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_context_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_no_concatenation_collision(self):
        # ("ab",) must differ from ("a", "b"): field separation matters.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_64_bit_range(self):
        seed = derive_seed(123, "x")
        assert 0 <= seed < 2**64

    @given(st.integers(0, 2**32), st.text(max_size=10))
    def test_stable_under_repetition(self, root, label):
        assert derive_seed(root, label) == derive_seed(root, label)


class TestDeriveRng:
    def test_streams_reproducible(self):
        a = derive_rng(9, "noise", 0).standard_normal(5)
        b = derive_rng(9, "noise", 0).standard_normal(5)
        assert (a == b).all()

    def test_streams_independent(self):
        a = derive_rng(9, "noise", 0).standard_normal(5)
        b = derive_rng(9, "noise", 1).standard_normal(5)
        assert not (a == b).all()


class TestDeriveBytes:
    def test_deterministic_and_context_bound(self):
        from repro.utils.rng import derive_bytes

        assert derive_bytes(16, 7, "nonce", 0) == derive_bytes(16, 7, "nonce", 0)
        assert derive_bytes(16, 7, "nonce", 0) != derive_bytes(16, 7, "nonce", 1)
        assert len(derive_bytes(5, 7, "x")) == 5

    def test_length_bounds(self):
        import pytest

        from repro.utils.rng import derive_bytes

        with pytest.raises(ValueError):
            derive_bytes(33, 7)
        assert derive_bytes(0, 7) == b""


class TestDeriveStandardNormalsBatch:
    def test_matches_per_stream_draws(self):
        import numpy as np

        from repro.utils.rng import derive_standard_normals

        suffixes = [f"component.{i}" for i in range(64)] + [0, 1, 2, (3, "z")]
        batched = derive_standard_normals(11, ("die", 4, "neff"), suffixes)
        for suffix, value in zip(suffixes, batched):
            expected = derive_rng(11, "die", 4, "neff", suffix).standard_normal()
            assert value == expected, suffix

    def test_covers_narrow_seeds(self):
        # Seeds below 2**32 take the single-entropy-word SeedSequence
        # path; exercise the vectorized equivalent on both partitions.
        from repro.utils.rng import _pcg64_states
        import numpy as np

        probe = [0, 1, 2**16, 2**32 - 1, 2**32, 2**40, 2**64 - 1]
        for seed, state in zip(probe, _pcg64_states(probe)):
            generator = np.random.Generator(np.random.PCG64(0))
            generator.bit_generator.state = state
            assert generator.standard_normal() == \
                np.random.default_rng(seed).standard_normal()


# -- the gathered PCG64 + ziggurat pass -------------------------------------

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _states_emitting(raw_words, inc=0x9e3779b97f4a7c15):
    """PCG64 limbs whose next raw output is each of ``raw_words``."""
    mask64 = (1 << 64) - 1
    inc = (inc << 1) | 1
    states = [((raw - inc) * rng_module._PCG_MULT_INV) & rng_module._MASK128
              for raw in raw_words]
    limbs = ([s >> 64 for s in states], [s & mask64 for s in states],
             [inc >> 64] * len(states), [inc & mask64] * len(states))
    return tuple(np.array(limb, dtype=np.uint64) for limb in limbs)


def _numpy_next_normals(*limbs):
    generator = np.random.Generator(np.random.PCG64(0))
    out = []
    for state in rng_module._state_dicts(*limbs):
        generator.bit_generator.state = state
        out.append(generator.standard_normal())
    return np.array(out)


class TestVectorisedFirstNormals:
    def test_random_seeds_bitwise(self):
        source = np.random.PCG64(20261017)
        wide = source.random_raw(90_000)
        narrow = source.random_raw(10_000) >> np.uint64(32)
        seeds = np.concatenate(
            [np.array(_EDGE_SEEDS, dtype=np.uint64), wide, narrow])
        assert np.count_nonzero(seeds < 2**32) > 9_000
        expected = [np.random.default_rng(int(seed)).standard_normal()
                    for seed in seeds]
        np.testing.assert_array_equal(
            _bits(rng_module._first_normals(seeds)), _bits(expected))

    def test_raw_words_off_the_fast_path(self):
        # Index 1 never takes the fast path (numpy's threshold is 0).
        _, ki = rng_module._ziggurat_tables()
        rng = np.random.default_rng(5)
        raws = []
        for idx in (0, 1, 2, 77, 128, 254, 255):
            for rabs in {max(int(ki[idx]) - 1, 0), int(ki[idx]),
                         int(ki[idx]) + 1, (1 << 52) - 1, 1, 0}:
                rabs = min(rabs, (1 << 52) - 1)
                for sign in (0, 1):
                    raws.append((rabs << 9) | (sign << 8) | idx)
        # The tail (index 0 beyond ki[0]) consumes extra words too.
        raws += [(int(r) << 9) | 0 for r in rng.integers(
            int(ki[0]), 1 << 52, 64, dtype=np.uint64)]
        limbs = _states_emitting(raws)
        np.testing.assert_array_equal(
            _bits(rng_module._state_normals(*limbs)),
            _bits(_numpy_next_normals(*limbs)))


class TestGatheredNormals:
    LABELS = [f"mix.{i}.ps" for i in range(23)] + [0, (3, "z")]

    def _rows(self):
        return [(11, ("die", 0, "neff")), (2**40 + 3, ("die", 7, "neff")),
                (0, ("die", 2, "coupling")), (11, ("die", 0, "coupling"))]

    def test_rows_match_per_lane_streams(self):
        gathered = rng_module.gather_standard_normals(self._rows(), self.LABELS)
        expected = [[derive_rng(root, *prefix, label).standard_normal()
                     for label in self.LABELS]
                    for root, prefix in self._rows()]
        np.testing.assert_array_equal(_bits(gathered), _bits(expected))

    def test_chunk_seams(self, monkeypatch):
        whole = rng_module.gather_standard_normals(self._rows(), self.LABELS)
        monkeypatch.setattr(rng_module, "_NORMALS_CHUNK_LANES", 7)
        chunked = rng_module.gather_standard_normals(self._rows(), self.LABELS)
        np.testing.assert_array_equal(_bits(chunked), _bits(whole))

    def test_empty_shapes(self):
        assert rng_module.gather_standard_normals([], self.LABELS).shape == (0, 25)
        assert rng_module.gather_standard_normals(self._rows(), []).shape == (4, 0)
        assert rng_module.derive_standard_normals(3, ("x",), []).shape == (0,)

    def test_fleet_call_matches_per_die_variation(self):
        from repro.photonics.variation import (
            VariationModel,
            stacked_coupling_factors,
            stacked_neff_offsets,
        )

        models = [VariationModel(),
                  VariationModel(sigma_neff_global=1e-3, sigma_neff_local=2e-3,
                                 sigma_coupling=0.4)]
        dies = [models[k % 2].sample_die(root, die)
                for k, (root, die) in enumerate([(5, 0), (5, 1), (9, 1),
                                                  (2**33, 4), (0, 3)])]
        labels = self.LABELS[:10]
        offsets = stacked_neff_offsets(dies, labels)
        couplings = stacked_coupling_factors(dies, labels)
        for row, die in enumerate(dies):
            for col, label in enumerate(labels):
                draw = derive_rng(die.rng_seed, "die", die.die_index, "neff",
                                  label).standard_normal()
                assert offsets[row, col] == (die.neff_global
                                             + die.model.sigma_neff_local * draw)
                assert offsets[row, col] == die.neff_offset(label)
                assert couplings[row, col] == die.coupling_factor(label)
        assert stacked_neff_offsets([], labels).shape == (0, 10)
        assert stacked_coupling_factors(dies, []).shape == (5, 0)


def _compile_scramblers(n_dies, seed=4):
    from repro.puf.photonic_strong import PhotonicStrongPUF

    return [PhotonicStrongPUF(seed=seed, die_index=die).scrambler
            for die in range(n_dies)]


def _operators(fleet):
    return [fleet.stage_matrices, fleet.ring_b, fleet.ring_a,
            fleet.static_matrix]


class TestSelfCheckAndFallback:
    def test_self_check_passes_on_installed_numpy(self):
        # A failure here means numpy changed PCG64 seeding or its
        # ziggurat: results stay exact through the per-lane fallback, but
        # provisioning runs about four times slower until the batched route
        # in repro.utils.rng is re-derived for that numpy.
        assert rng_module._batched_normals_self_check()
        assert rng_module._batched_route_ok()

    def test_fallback_route_is_bitwise_the_fast_route(self, monkeypatch):
        from repro.photonics.fleet_engine import CompiledFleet

        rows = [(11, ("die", d, "neff")) for d in range(3)]
        labels = [f"c.{i}" for i in range(40)]
        scramblers = _compile_scramblers(16)
        seeds = [rng_module.derive_seed(3, "noise", i) for i in range(8)] + [7]
        fast = (rng_module.derive_standard_normals(11, ("die", 4), labels),
                rng_module.gather_standard_normals(rows, labels),
                _operators(CompiledFleet.compile(scramblers)),
                [g.standard_normal(6) for g in
                 rng_module.derived_generators(seeds)])

        monkeypatch.setattr(rng_module, "_batched_normals_self_check",
                            lambda: False)
        monkeypatch.setattr(rng_module, "_batched_normals_ok", None)
        slow = (rng_module.derive_standard_normals(11, ("die", 4), labels),
                rng_module.gather_standard_normals(rows, labels),
                _operators(CompiledFleet.compile(scramblers)),
                [g.standard_normal(6) for g in
                 rng_module.derived_generators(seeds)])
        assert rng_module._batched_normals_ok is False
        np.testing.assert_array_equal(_bits(slow[0]), _bits(fast[0]))
        np.testing.assert_array_equal(_bits(slow[1]), _bits(fast[1]))
        for got, want in zip(slow[2], fast[2]):
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))
        for got, want in zip(slow[3], fast[3]):
            np.testing.assert_array_equal(_bits(got), _bits(want))


class TestGatheredCompileStructure:
    """Deterministic counts guarding the gathered pass (no timing floor)."""

    def _count(self, monkeypatch, n_dies):
        from repro.photonics.fleet_engine import CompiledFleet, _VariationTable

        scramblers = _compile_scramblers(n_dies)
        layout = _VariationTable(scramblers[:1])  # labels per die
        assert rng_module._batched_route_ok()  # self-check out of the count
        calls, injected = [], []
        first_normals = rng_module._first_normals
        injected_normals = rng_module._injected_normals

        def counting_first(seeds):
            calls.append(seeds.size)
            return first_normals(seeds)

        def counting_injected(*limbs):
            injected.append(len(limbs[0]))
            return injected_normals(*limbs)

        monkeypatch.setattr(rng_module, "_first_normals", counting_first)
        monkeypatch.setattr(rng_module, "_injected_normals", counting_injected)
        CompiledFleet.compile(scramblers)
        monkeypatch.undo()
        per_kind = [n_dies * len(layout.neff_labels),
                    n_dies * len(layout.coupling_labels)]
        return calls, sum(injected), per_kind

    def test_one_core_call_per_kind_per_chunk(self, monkeypatch):
        chunk = rng_module._NORMALS_CHUNK_LANES
        for n_dies in (8, 64):
            calls, injected, per_kind = self._count(monkeypatch, n_dies)
            assert calls == [min(chunk, lanes - start)
                             for lanes in per_kind
                             for start in range(0, lanes, chunk)]
            assert len(calls) == 2  # 64 dies at 64/12/32 fit one chunk each
            # Only lanes off the ziggurat fast path (1.5% expected) are
            # injected one at a time.
            assert 0 < injected <= 0.03 * sum(per_kind), (injected, per_kind)
