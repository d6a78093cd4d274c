"""FLEET-THR: fleet-stacked execution plane vs the per-device respond path.

The acceptance bars for the fleet-stacked engine (see README / CI):

* >= 5x authentication-round throughput at 256 devices over the
  per-device respond path (each device running its own batch-1 compiled
  interrogation), with rtol 1e-9 numerical agreement between the two
  paths' slot energies;
* one-shot fleet provisioning (single stacked compile + stacked
  harvests) >= 3x faster than per-die compilation.

The per-device baselines are measured on a smaller slice and scaled —
both the respond path and per-die provisioning are linear in fleet size
by construction (one independent compile/propagate per device).

Results are recorded in ``BENCH_fleet.json`` so CI can gate on the
speedup floor (``FLEET_SPEEDUP_FLOOR`` / ``FLEET_PROVISION_FLOOR``
environment overrides let the CI lane run a noise-tolerant floor).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.service import AuthService, FleetConfig
from tests.fleet.test_stacked_rounds import per_die_service

FLEET = int(os.environ.get("FLEET_BENCH_SIZE", "256"))
BASELINE_SLICE = max(8, FLEET // 4)
ROUND_FLOOR = float(os.environ.get("FLEET_SPEEDUP_FLOOR", "5.0"))
PROVISION_FLOOR = float(os.environ.get("FLEET_PROVISION_FLOOR", "3.0"))
FLEET_JSON = "BENCH_fleet.json"
RTOL = 1e-9

CONFIG = dict(n_spot_crps=64,
              puf=dict(challenge_bits=64, n_stages=12, response_bits=32))

_results = {}


def _record(**kwargs) -> None:
    _results.update({k: (float(f"{v:.4g}") if isinstance(v, float) else v)
                     for k, v in kwargs.items()})
    payload = dict(sorted(_results.items()))
    payload["fleet_size"] = FLEET
    with open(FLEET_JSON, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def stacked_fleet():
    service = AuthService.provision(FleetConfig(n_devices=FLEET, seed=1103, **CONFIG))
    return service.registry, service.device_list, service.verifier


def test_fleet_provisioning_one_shot(table_printer):
    start = time.perf_counter()
    AuthService.provision(FleetConfig(n_devices=FLEET, seed=2207, **CONFIG))
    stacked_s = time.perf_counter() - start
    # Per-die compilation baseline, measured on a slice and scaled (one
    # independent compile + harvest per device through AuthService.enroll;
    # linear by construction).
    start = time.perf_counter()
    per_die_service(FleetConfig(
        n_devices=BASELINE_SLICE, seed=2207, **CONFIG))
    per_die_s = (time.perf_counter() - start) * (FLEET / BASELINE_SLICE)
    ratio = per_die_s / stacked_s
    table_printer(
        f"FLEET-THR — one-shot provisioning ({FLEET} dies, "
        f"{CONFIG['n_spot_crps']} spot CRPs each)",
        ["path", "wall time", "dies/s", "speedup"],
        [
            ("per-die compilation", f"{per_die_s:.2f} s",
             f"{FLEET / per_die_s:.1f}", "1.0x"),
            ("fleet-stacked compile", f"{stacked_s:.2f} s",
             f"{FLEET / stacked_s:.1f}", f"{ratio:.1f}x"),
        ],
    )
    _record(provision_stacked_s=stacked_s, provision_per_die_s=per_die_s,
            provision_speedup=ratio)
    assert ratio >= PROVISION_FLOOR, (
        f"one-shot fleet provisioning is only {ratio:.1f}x faster than "
        f"per-die compilation (floor {PROVISION_FLOOR}x)"
    )


def test_fleet_round_throughput(table_printer, stacked_fleet):
    registry, devices, verifier = stacked_fleet
    verifier.authenticate_fleet(devices)  # warm kernels + MAC states

    def stacked_round():
        report = verifier.authenticate_fleet(devices)
        assert report.n_accepted == FLEET

    stacked_s = _best_of(stacked_round, repeats=3)

    # Per-device respond path: an identically provisioned (but smaller)
    # fleet with the stacked plane detached, scaled to FLEET devices.
    service = AuthService.provision(FleetConfig(n_devices=BASELINE_SLICE, seed=1103, **CONFIG))
    baseline_devices, baseline_verifier = service.device_list, service.verifier
    for device in baseline_devices:
        device.detach_plane()
    baseline_verifier.authenticate_fleet(baseline_devices)  # warm caches

    def per_device_round():
        report = baseline_verifier.authenticate_fleet(baseline_devices)
        assert report.n_accepted == BASELINE_SLICE

    per_device_s = _best_of(per_device_round, repeats=3) \
        * (FLEET / BASELINE_SLICE)
    speedup = per_device_s / stacked_s
    table_printer(
        f"FLEET-THR — authentication rounds ({FLEET} devices)",
        ["path", "round time", "auths/s", "speedup"],
        [
            ("per-device respond", f"{per_device_s * 1e3:.0f} ms",
             f"{FLEET / per_device_s:.0f}", "1.0x"),
            ("fleet-stacked plane", f"{stacked_s * 1e3:.0f} ms",
             f"{FLEET / stacked_s:.0f}", f"{speedup:.1f}x"),
        ],
    )
    _record(round_stacked_s=stacked_s, round_per_device_s=per_device_s,
            round_speedup=speedup,
            auths_per_sec_stacked=FLEET / stacked_s)
    assert speedup >= ROUND_FLOOR, (
        f"fleet-stacked rounds are only {speedup:.1f}x faster than the "
        f"per-device respond path (floor {ROUND_FLOOR}x)"
    )


def test_fleet_stacked_equivalence(table_printer, stacked_fleet):
    """rtol 1e-9 agreement between the stacked and per-device paths."""
    __, devices, __ = stacked_fleet
    plane = devices[0].plane
    sample = list(range(0, FLEET, max(1, FLEET // 16)))
    rng = np.random.default_rng(5)
    challenges = rng.integers(
        0, 2, size=(len(sample), 3, CONFIG["puf"]["challenge_bits"]), dtype=np.uint8
    )
    stacked = plane.slot_energies(challenges, measurements=0, dies=sample)
    worst = 0.0
    for position, die in enumerate(sample):
        per_device = devices[die].puf.slot_energies_batch(
            challenges[position], measurement=0, compiled=True
        )
        np.testing.assert_allclose(stacked[position], per_device,
                                   rtol=RTOL, atol=1e-12)
        scale = np.max(np.abs(per_device))
        worst = max(worst, float(
            np.max(np.abs(stacked[position] - per_device)) / scale
        ))
    # Response bits from the trimmed bit-slot path agree exactly.
    bits = plane.evaluate(challenges, measurements=0, dies=sample)
    for position, die in enumerate(sample):
        per_device = devices[die].puf.evaluate_batch(
            challenges[position], measurement=0, compiled=True
        )
        assert np.array_equal(bits[position], per_device)
    table_printer(
        "FLEET-THR — stacked vs per-device numerical agreement",
        ["check", "value"],
        [
            ("dies sampled", len(sample)),
            ("max relative energy deviation", f"{worst:.2e}"),
            ("response-bit agreement", "exact"),
        ],
    )
    _record(equivalence_max_rel_err=worst)
    assert worst < RTOL
