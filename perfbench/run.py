"""The repo benchmark: one workload, one seed, one timed window.

    python3 perfbench/run.py --workload gateway_batch --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Workloads (see ``workloads.py``):
``gateway_batch`` and ``outofcore_churn``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps each layer's entry points in timing spans (``tracer.py``) and
reports the per-layer table instead.  The last line on stdout is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the full run
record (seed, core count, PUF config, fleet size, BLAS threads, latency
sample count and tail percentile, correctness checks, stationarity, the
per-layer span table) goes to stderr and to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_threads()
CPU = common.pin_cpu()

WORKLOADS = ("gateway_batch", "outofcore_churn")


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """One run; ``sizes`` overrides the workload's full-size spec."""
    common.import_program()
    import workloads

    spec = dict(workloads.SIZES[workload], **(sizes or {}))
    spec.update(workload=workload, seed=int(seed), trace=bool(trace))
    os.makedirs(common.OUT_DIR, exist_ok=True)
    spec["server_spans"] = os.path.join(common.OUT_DIR,
                                        f"{workload}-server-spans.npz")
    tracer = None
    if trace:
        from tracer import Tracer, layer_patches

        tracer = Tracer()
        layer_patches(tracer, generator=workload != "outofcore_churn")
    # Fresh storage root per run, removed whatever happens.
    run_dir = tempfile.mkdtemp(prefix=f"run-{workload}-",
                               dir=common.OUT_DIR)
    try:
        if workload == "outofcore_churn":
            result = workloads.outofcore_churn(spec, seconds, tracer,
                                               run_dir=run_dir)
        else:
            result = getattr(workloads, workload)(spec, seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result["record"].update({
        "workload": workload, "seed": int(seed), "seconds": seconds,
        "trace": bool(trace), "nproc": os.cpu_count(), "cpu": CPU,
        "puf": common.PUF,
        "fleet_size": spec["n_devices"], "spec": spec,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": result["correct"],
    })
    mode = "trace" if trace else "e2e"
    with open(os.path.join(common.OUT_DIR, f"{workload}-{mode}-record.json"),
              "w") as handle:
        json.dump(result["record"], handle, indent=1, sort_keys=True)
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so that the server is killed and reaped
    # and the run's storage root removed.
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result["record"], sort_keys=True), file=sys.stderr)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
