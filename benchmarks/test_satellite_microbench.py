"""SAT-MICRO: floor gates for the PR 4 satellite vectorizations.

Each satellite replaced a pure-Python per-bit/per-coefficient loop with
numpy bulk operations while pinning exact outputs (see
``tests/crypto/test_gf2_bch.py`` / ``tests/metrics/test_nist.py``); this
smoke bench keeps them fast by construction: a regression back to loop
speed fails the floor.  The stacked plane's bit-slot readout is held to
a floor over the advanced-index gather it replaced the same way.
Results land in ``BENCH_micro.json``.
"""

import json
import os
import time

import numpy as np

from repro.crypto.bch import BCHCode
from repro.metrics.nist import _longest_runs, longest_run_test

BCH_FLOOR = float(os.environ.get("BCH_SPEEDUP_FLOOR", "5.0"))
NIST_FLOOR = float(os.environ.get("NIST_SPEEDUP_FLOOR", "3.0"))
# Every lane that runs this module holds the readout to this one floor.
# A 2-vCPU Xeon (4 MiB L2) reads about 3x; with die tiles too large for
# any L2 (the original 10 MB budget) it still reads about 2.3x.
BITSLOT_FLOOR = 1.5
MICRO_JSON = "BENCH_micro.json"

_results = {}


def _record(**kwargs) -> None:
    _results.update({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                     for k, v in kwargs.items()})
    with open(MICRO_JSON, "w") as handle:
        json.dump(dict(sorted(_results.items())), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def _time(fn, repeats):
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bch_vectorization_floor(table_printer):
    code = BCHCode(m=7, t=10)
    rng = np.random.default_rng(2)
    messages = rng.integers(0, 2, size=(64, code.k), dtype=np.uint8)
    codewords = [code.encode(message) for message in messages]

    def encode_fast():
        for message in messages:
            code.encode(message)

    def encode_reference():
        for message in messages:
            code.encode_reference(message)

    def syndromes_fast():
        for codeword in codewords:
            code.syndromes(codeword)

    def syndromes_reference():
        for codeword in codewords:
            code.syndromes_reference(codeword)

    fast_enc = _time(encode_fast, 3)
    ref_enc = _time(encode_reference, 3)
    fast_syn = _time(syndromes_fast, 3)
    ref_syn = _time(syndromes_reference, 3)
    encode_speedup = ref_enc / fast_enc
    syndrome_speedup = ref_syn / fast_syn
    table_printer(
        "SAT-MICRO — BCH(127) GF(2) matmul vs polynomial loops (64 words)",
        ["path", "encode", "syndromes"],
        [
            ("loop reference", f"{ref_enc * 1e3:.1f} ms",
             f"{ref_syn * 1e3:.1f} ms"),
            ("vectorized", f"{fast_enc * 1e3:.1f} ms",
             f"{fast_syn * 1e3:.1f} ms"),
            ("speedup", f"{encode_speedup:.1f}x", f"{syndrome_speedup:.1f}x"),
        ],
    )
    _record(bch_encode_speedup=encode_speedup,
            bch_syndrome_speedup=syndrome_speedup)
    assert encode_speedup >= BCH_FLOOR
    assert syndrome_speedup >= BCH_FLOOR


def test_nist_longest_run_floor(table_printer):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=131072, dtype=np.uint8)
    blocks = bits[: (bits.size // 128) * 128].reshape(-1, 128)

    def loop_reference():
        longest = np.empty(blocks.shape[0], dtype=np.int64)
        for index, block in enumerate(blocks):
            best = current = 0
            for bit in block:
                current = current + 1 if bit else 0
                best = max(best, current)
            longest[index] = best
        return longest

    fast_s = _time(lambda: _longest_runs(blocks), 3)
    ref_s = _time(loop_reference, 3)
    assert np.array_equal(_longest_runs(blocks), loop_reference())
    speedup = ref_s / fast_s
    # The public test must agree with itself end to end too.
    result = longest_run_test(bits)
    table_printer(
        "SAT-MICRO — NIST longest-run kernel (1024 blocks x 128 bits)",
        ["path", "time", "speedup"],
        [
            ("per-bit loop", f"{ref_s * 1e3:.1f} ms", "1.0x"),
            ("cumulative ops", f"{fast_s * 1e3:.2f} ms", f"{speedup:.0f}x"),
        ],
    )
    _record(nist_longest_run_speedup=speedup,
            nist_longest_run_p=float(result.p_value))
    assert speedup >= NIST_FLOOR
    assert 0.0 <= result.p_value <= 1.0


def test_bitslot_readout_floor(table_printer):
    """Strided-window bit-slot readout vs the advanced-index gather.

    The round shape of the repo benchmark: 256 random dies of a
    1,024-die 64/12/32 plane, batch 1, the protocol's bit-slot samples.
    The two paths are timed interleaved, best of 50, and must agree bit
    for bit.  The gather is the equivalence suite's reference copy.
    """
    from repro.puf.photonic_strong import photonic_strong_family
    from tests.photonics.test_fleet_engine import reference_power_at

    plane = photonic_strong_family(
        1024, seed=7, challenge_bits=64, n_stages=12, response_bits=32
    ).stack()
    fleet = plane.compiled_fleet()
    base = plane.base
    rng = np.random.default_rng(31)
    dies = rng.choice(1024, size=256, replace=False)
    waves = plane._drive_waves(
        rng.integers(0, 2, size=(256, 1, 64), dtype=np.uint8)
    )
    spb = base.modulator.samples_per_bit
    slots = np.unique(base._assignment_slots)
    samples = (slots[:, np.newaxis] * spb + np.arange(spb)).reshape(-1)
    launch = base.launch_channel

    def strided():
        return fleet.response_power_at(waves, samples, launch, dies=dies)

    def gather():
        return reference_power_at(fleet, waves, samples, launch, dies)

    assert np.array_equal(strided(), gather())
    strided_s = gather_s = float("inf")
    for __ in range(50):
        gather_s = min(gather_s, _time(gather, 1))
        strided_s = min(strided_s, _time(strided, 1))
    speedup = gather_s / strided_s
    table_printer(
        "SAT-MICRO — bit-slot readout, 256 of 1,024 dies (64/12/32, "
        f"{samples.size} samples)",
        ["path", "time", "speedup"],
        [
            ("advanced-index gather", f"{gather_s * 1e3:.2f} ms", "1.0x"),
            ("strided windows", f"{strided_s * 1e3:.2f} ms",
             f"{speedup:.1f}x"),
        ],
    )
    _record(bitslot_gather_s=gather_s, bitslot_strided_s=strided_s,
            bitslot_speedup=speedup)
    assert speedup >= BITSLOT_FLOOR, (
        f"bit-slot readout is only {speedup:.1f}x the gather "
        f"(floor {BITSLOT_FLOOR}x)"
    )
