"""Shared pieces of the benchmark: process set-up, fleet configs, the
server pipe protocol, statistics and the desync digest.

Nothing here imports numpy or the program at module import, so the entry
points can pin the BLAS thread pool before numpy loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: The one PUF design every workload uses (BENCH_fleet's config).
PUF = {"challenge_bits": 64, "n_stages": 12, "response_bits": 32}

#: Threads per BLAS pool in every process the benchmark starts: two
#: single-threaded processes on a two-core box, never four busy threads.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The run could not measure (missing program, dead server, ...)."""


def pin_threads() -> None:
    """Pin BLAS pools to one thread; call before numpy is imported."""
    for name in _BLAS_VARS:
        os.environ[name] = str(BLAS_THREADS)


def pin_cpu() -> int:
    """Pin this process, and every process it starts, to one CPU.

    The generator and the server take turns within a round.  On two
    vCPUs of a shared host, the short spells in which both ran slowed
    each other by an amount that changed over minutes (kernel runs in
    both at once took from 1.0x to 1.7x their time alone), which no
    kernel run alone sees.  On one CPU the two never overlap, and the
    calibration kernel runs on the CPU both of them use.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program() -> None:
    """Put the program's sources on the path, or fail without a result."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def fleet_config(spec: dict, storage_root: str | None = None):
    """The :class:`FleetConfig` a workload spec describes."""
    from repro.service import FleetConfig

    if spec["registry"] == "sharded":
        return FleetConfig(
            n_devices=spec["n_devices"], seed=spec["seed"], puf=PUF,
            n_spot_crps=spec["spot_crps"], registry_backend="sharded",
            storage_root=storage_root,
            resident_records=spec["resident_records"],
        )
    return FleetConfig(n_devices=spec["n_devices"], seed=spec["seed"],
                       puf=PUF, n_spot_crps=spec["spot_crps"])


def rss_peak_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed ----------------------------------------------------------------
# The shared host's speed swings by up to 2x within a run and drifts by
# 20-30% between runs minutes apart, CPU time included.  A fixed kernel
# (numpy complex GEMMs plus an interpreter loop of hashing and dict
# inserts, the program's two kinds of work) runs between rounds, on the
# one CPU the benchmark uses (``pin_cpu``); the program's round time
# tracks the kernel's (correlation 0.96 over 150-s probes on a 2-vCPU
# VM), so every timed figure is scaled to the speed at which the kernel
# takes ``CALIBRATION_REF_S``.

#: Seconds the calibration kernel takes at the reference host speed.
CALIBRATION_REF_S = 0.010
_KERNEL_GEMMS = 3
_KERNEL_HASHES = 4000
_kernel_operands: list = []


#: Kernel runs on each side of a set-up: a set-up lasts seconds, so the
#: speed around it is sampled over a longer stretch than around a round.
SETUP_KERNEL_RUNS = 10


def calibrate(runs: int = 1) -> float:
    """Mean wall seconds one run of the fixed calibration kernel takes
    now, over ``runs`` runs back to back."""
    import numpy as np

    if not _kernel_operands:
        rng = np.random.default_rng(0)
        _kernel_operands.extend(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((96, 96), (96, 512)))
    left, right = _kernel_operands
    table = {}
    started = now()
    for __ in range(runs):
        for __ in range(_KERNEL_GEMMS):
            product = left @ right
            np.cumsum(product, axis=1)
            np.abs(product)
        for number in range(_KERNEL_HASHES):
            key = hashlib.sha256(number.to_bytes(8, "big")).digest()
            table[key[:4]] = number
    return (now() - started) / runs


def slowdown(*kernel_s: float) -> float:
    """How much slower than the reference the host ran: the mean of the
    kernel times taken around a measurement, over the reference time.
    Divide a time by it, or multiply a rate by it."""
    return sum(kernel_s) / len(kernel_s) / CALIBRATION_REF_S


def timed_setup(raw_s: float, before: float, after: float) -> dict:
    """One set-up's record: its time scaled to the reference speed by
    the kernel times around it, and the raw figures."""
    return {"s": raw_s / slowdown(before, after), "raw_s": raw_s,
            "kernel_s": [before, after]}


# -- the desync digest -------------------------------------------------------

def fleet_digest(rows) -> str:
    """SHA-256 over sorted ``(device id, current response, sessions)``."""
    import numpy as np

    digest = hashlib.sha256()
    for device_id, response, sessions in sorted(rows, key=lambda r: r[0]):
        digest.update(device_id.encode("utf-8"))
        digest.update(np.asarray(response, dtype=np.uint8).tobytes())
        digest.update(int(sessions).to_bytes(8, "big"))
    return digest.hexdigest()


def registry_rows(registry):
    for device_id in registry.iter_device_ids():
        record = registry.record(device_id)
        yield device_id, record.current_response, record.sessions


def device_rows(devices):
    for device in devices:
        yield (device.device_id, device.current_response,
               device.to_state()["session"])


def desynced_devices(registry, devices) -> list:
    """Ids of live devices whose state differs from their record."""
    bad = []
    for device_id, response, sessions in device_rows(devices):
        record = registry.record(device_id)
        if (record.sessions != sessions
                or record.current_response.tobytes()
                != response.astype("uint8").tobytes()):
            bad.append(device_id)
    return bad


# -- statistics ----------------------------------------------------------------

#: Tail percentiles, tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def latency_summary(samples_ms) -> dict:
    """Median and tail, the tail being the highest of
    ``TAIL_PERCENTILES`` with at least ten samples beyond it."""
    import numpy as np

    values = np.asarray(samples_ms, dtype=float)
    if values.size == 0:
        raise BenchError("no latency samples in the timed window")
    tail_pct = next((pct for pct in TAIL_PERCENTILES
                     if values.size * (1.0 - pct / 100.0) >= 10.0), 50.0)
    return {
        "p50_ms": float(np.percentile(values, 50.0)),
        "tail_ms": float(np.percentile(values, tail_pct)),
        "tail_pct": tail_pct,
        "samples": int(values.size),
        "beyond_tail": int(np.sum(values > np.percentile(values, tail_pct))),
    }


def stationarity(block_rates) -> dict:
    """Median auths/s of the first and the last third of the window's
    blocks; the ratio last/first near 1 says the window was steady."""
    import statistics

    third = max(1, len(block_rates) // 3)
    first = statistics.median(block_rates[:third])
    last = statistics.median(block_rates[-third:])
    return {"first_third_per_s": first, "last_third_per_s": last,
            "last_over_first": last / first if first else 0.0}


# -- the server pipe protocol --------------------------------------------------
# The serving process writes one JSON object per line on its stdout
# ("ready", one "mark" reply per mark, then "result"); the generator
# writes one command per line on its stdin: go (start set-up), mark,
# trace-on, trace-off, stop.
# The generator starts the server before building its own fleet, so the
# fork copies a small process and the server's peak RSS is its own.

def send_event(stream, event: dict) -> None:
    stream.write(json.dumps(event) + "\n")
    stream.flush()


def read_event(proc, timeout_s: float) -> dict:
    """Block (no polling loop) until the server's next event line."""
    ready, __, __ = select.select([proc.stdout], [], [], timeout_s)
    if not ready:
        raise BenchError(f"server sent nothing within {timeout_s:.0f} s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"server exited early (code {proc.wait()})")
    return json.loads(line)


#: The clock every span and window reads: CLOCK_MONOTONIC on Linux, so
#: the server's and the generator's timestamps share one timeline.
now = time.perf_counter
