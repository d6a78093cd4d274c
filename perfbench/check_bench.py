"""The benchmark's own tests (tiny fleets, seconds each).

    python3 -m pytest perfbench/check_bench.py -q

Not named ``test_*.py``, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import run  # noqa: E402

TINY = {
    "gateway_batch": {"n_devices": 32, "group": 8, "setups": 2,
                      "warmup_rounds": 1, "block_rounds": 2},
    "outofcore_churn": {"n_devices": 32, "group": 8, "setups": 2,
                        "warmup_rounds": 1, "resident_records": 8,
                        "churn_rows": 8, "snapshot_every": 3,
                        "block_rounds": 3},
}
SECONDS = 1.6


def _declared(kind: str) -> dict:
    with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_emits_every_metric(workload, trace):
    result = run.run(workload, 7, SECONDS, trace, TINY[workload])
    assert result["correct"], result["record"]["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, unit in declared.items():
        assert metrics[name]["unit"] == unit, name
        assert math.isfinite(metrics[name]["value"]), name
    record = result["record"]
    for key in ("seed", "nproc", "puf", "fleet_size", "blas_threads"):
        assert key in record
    assert record["latency"]["samples"] >= 1
    assert record["stationarity"]["scaled"]["first_third_per_s"] > 0.0
    if trace:
        assert metrics["trace.overhead_ratio"]["value"] > 0.0
        assert 0.0 <= metrics["trace.unattributed_frac"]["value"] <= 1.0
    else:
        assert metrics["auths_per_s"]["value"] > 0.0


def test_blocks_scale_to_the_reference_speed():
    import workloads

    ref = common.CALIBRATION_REF_S
    window = workloads.Window()
    at = cpu = 0.0
    # The host slows down to half speed: the kernel at the five round
    # marks takes 1, 1, 2, 2 and 2 reference times, so the four 10-auth
    # rounds run at slowdowns 1, 1.5, 2 and 2 and take 0.1 s times that.
    for kernel, slow in zip((1.0, 1.0, 2.0, 2.0, 2.0),
                            (1.0, 1.5, 2.0, 2.0, None)):
        window.marks.append({"cpu0": cpu, "cpu1": cpu + 0.01,
                             "kernel_s": ref * kernel})
        cpu += 0.01
        if slow is None:
            break
        window.rounds.append((at, at + 0.1 * slow, 10, 10, at,
                              at + 0.1 * slow, False))
        at += 0.1 * slow
        cpu += 0.05 * slow
    window_blocks = workloads.blocks(window, 2)
    assert [block.slowdowns for block in window_blocks] == [
        pytest.approx([1.0, 1.5]), pytest.approx([2.0, 2.0])]
    steady = workloads.steady_figures(window_blocks)
    assert steady["auths_per_s"] == pytest.approx(100.0)
    assert steady["latency"]["p50_ms"] == pytest.approx(100.0)
    assert steady["latency"]["samples"] == 4
    assert steady["server_cpu_ms_per_auth"] == pytest.approx(5.0)


def test_wait_spans_are_no_cover():
    from tracer import Tracer, as_spans, uncovered_fraction

    tracer = Tracer()
    tracer.record(0, tracer.name_id("service.net.ack", wait=True), 0.0, 1.0,
                  -1, 1)
    tracer.record(1, tracer.name_id("photonics.plane"), 0.25, 0.5, -1, 1)
    assert uncovered_fraction([(0.0, 1.0)], [as_spans(tracer)]) \
        == pytest.approx(0.75)


def _drop_first_rolls(monkeypatch, count: int):
    """Devices silently skip their first ``count`` CRP rolls: they stay
    on the old response while the verifier commits the new one."""
    from repro.fleet.verifier import FleetDevice

    confirm = FleetDevice.confirm
    left = [count]

    def lossy(device, confirmation, nonce):
        if left[0] > 0:
            left[0] -= 1
            device._pending = None
            return None
        return confirm(device, confirmation, nonce)

    monkeypatch.setattr(FleetDevice, "confirm", lossy)


@pytest.mark.parametrize("workload", ["gateway_batch", "outofcore_churn"])
def test_checks_fire_on_forced_desync(workload, monkeypatch):
    common.import_program()
    _drop_first_rolls(monkeypatch, 4)
    result = run.run(workload, 7, SECONDS, False, TINY[workload])
    assert not result["correct"]


def test_digest_separates_a_desynced_device():
    common.import_program()
    from repro.service import AuthService

    spec = {"n_devices": 32, "seed": 7, "registry": "memory",
            "spot_crps": 0}
    with AuthService.provision(common.fleet_config(spec)) as service:
        devices = service.device_list
        service.authenticate_batch(devices)
        rows = list(common.registry_rows(service.registry))
        assert common.fleet_digest(rows) == common.fleet_digest(
            common.device_rows(devices))
        assert common.desynced_devices(service.registry, devices) == []
        devices[3].current_response = 1 - devices[3].current_response
        assert common.fleet_digest(rows) != common.fleet_digest(
            common.device_rows(devices))
        assert common.desynced_devices(service.registry, devices) == [
            devices[3].device_id]


def test_exits_without_result_outside_the_repository():
    bare = os.path.join(common.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(common.REPO_ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(common.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "gateway_batch", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
