"""The two workloads and the metrics each one reports.

``gateway_batch``
    Closed loop over one loopback connection: a gateway runs
    ``AuthClient.authenticate_batch`` on four disjoint 256-device groups
    of a 1,024-device fleet in turn, answering on its stacked plane.
``outofcore_churn``
    Closed loop in one process, no sockets: ``authenticate_batch`` on 256
    random devices of a 1,024-device sharded fleet (128 resident
    records, 16 spot CRPs each), then 4 revocations (out of a fixed set
    of 64 rows) with replacements on the same plane rows, and a snapshot
    every 10 rounds.

On ``gateway_batch`` the server runs in its own process (``serve.py``)
and this process is the load generator.  Every input (group order,
device picks, churn picks) comes from the seed.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import common
from common import BenchError, now

#: Full-size workload specs.  A block is ``block_rounds`` back-to-back
#: rounds: one cycle of the four gateway groups, or one snapshot period
#: of the churn, so every block does the same work.  Churn revokes devices of a fixed
#: ``churn_rows`` set of plane rows, whose engines compile during
#: warm-up: every round then does the same work, instead of compiling
#: fewer new dies as the run goes on.
SIZES = {
    "gateway_batch": {
        "n_devices": 1024, "group": 256, "registry": "memory",
        "spot_crps": 0, "resident_records": None, "setups": 3,
        "warmup_rounds": 8, "block_rounds": 4,
    },
    "outofcore_churn": {
        "n_devices": 1024, "group": 256, "registry": "sharded",
        "spot_crps": 16, "resident_records": 128, "churn": 4,
        "churn_rows": 64, "snapshot_every": 10, "setups": 3,
        "warmup_rounds": 3, "block_rounds": 10,
    },
}

HOST = "127.0.0.1"
READY_TIMEOUT_S = 150.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- the serving process ---------------------------------------------------------

class ServerProcess:
    """The wire workload's server: started, driven over its pipes, and
    always killed and reaped on the way out."""

    def __init__(self, spec: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH_DIR, "serve.py"),
             json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=common.REPO_ROOT)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass

    def ready(self) -> dict:
        """Start the set-up and wait until the fleet is served."""
        self.command("go")
        event = common.read_event(self.proc, READY_TIMEOUT_S)
        if event.get("event") != "ready":
            raise BenchError(f"unexpected server event {event!r}")
        return event

    def command(self, name: str) -> None:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()

    def mark_reply(self) -> dict:
        """The server's answer to ``mark``: its CPU clock."""
        event = common.read_event(self.proc, READY_TIMEOUT_S)
        if event.get("event") != "mark":
            raise BenchError(f"unexpected server event {event!r}")
        return event

    def stop(self) -> dict:
        """End serving; the result comes after the last set-ups."""
        self.command("stop")
        event = common.read_event(self.proc, READY_TIMEOUT_S)
        if self.proc.wait(timeout=60.0) != 0:
            raise BenchError(f"server exited with {self.proc.returncode}")
        return event


# -- closed-loop runner ------------------------------------------------------------

@dataclass
class Window:
    """What one timed window saw."""

    begin: float = 0.0
    end: float = 0.0
    # (t0, t1, attempted, accepted, latency t0, latency t1, traced)
    rounds: list = field(default_factory=list)
    # One per round boundary, the window's start first: this process's
    # CPU clock just before and just after the calibration kernel, the
    # kernel's time, and on wire workloads the server's CPU clock.
    marks: list = field(default_factory=list)
    warmup_attempted: int = 0
    warmup_accepted: int = 0

    @property
    def attempted(self) -> int:
        return sum(r[2] for r in self.rounds)

    @property
    def accepted(self) -> int:
        return sum(r[3] for r in self.rounds)


def _trace_plan(trace: bool, begin: float, seconds: float) -> list:
    """Trace toggles as ``(time, on)``: off, on for the middle half, off
    (so traced and untraced time share the window's drift)."""
    if not trace:
        return []
    return [(begin + seconds / 4.0, True), (begin + 3.0 * seconds / 4.0,
                                            False)]


async def closed_loop(round_fn, seconds: float, spec: dict, trace: bool,
                      hooks) -> Window:
    """Run ``round_fn`` back to back: warm-up rounds first, then blocks
    of ``block_rounds`` rounds until ``seconds`` have passed, with a
    mark (the calibration kernel) before the first round and after
    every round.  ``round_fn(index)`` returns ``(attempted, accepted,
    latency_t0, latency_t1)``."""
    window = Window()
    for index in range(spec["warmup_rounds"]):
        attempted, accepted, __, __ = await round_fn(index)
        window.warmup_attempted += attempted
        window.warmup_accepted += accepted
    window.begin = now()
    plan = _trace_plan(trace, window.begin, seconds)
    traced = False
    index = spec["warmup_rounds"]
    hooks.mark(window)
    while now() - window.begin < seconds:
        for __ in range(spec["block_rounds"]):
            while plan and now() >= plan[0][0]:
                traced = plan.pop(0)[1]
                hooks.trace(traced)
            t0 = now()
            attempted, accepted, lat0, lat1 = await round_fn(index)
            window.rounds.append((t0, now(), attempted, accepted, lat0,
                                  lat1, traced))
            hooks.mark(window)
            index += 1
    if traced:
        hooks.trace(False)
    window.end = now()
    return window


class Hooks:
    """Round marks (here and in the server) plus trace toggles."""

    def __init__(self, server: "ServerProcess | None" = None,
                 tracer=None, on_trace=None):
        self.server = server
        self.tracer = tracer
        self.on_trace = on_trace

    def mark(self, window: Window) -> None:
        """A round boundary: the server reads its CPU clock, then this
        process runs the calibration kernel, reading its own CPU clock
        around it so that rounds exclude it."""
        mark = {}
        if self.server is not None:
            self.server.command("mark")
            mark["server"] = self.server.mark_reply()
        mark["cpu0"] = time.process_time()
        mark["kernel_s"] = common.calibrate()
        mark["cpu1"] = time.process_time()
        window.marks.append(mark)

    def trace(self, on: bool) -> None:
        if self.on_trace is not None:
            self.on_trace(on)
        if self.server is not None:
            self.server.command("trace-on" if on else "trace-off")
        if self.tracer is not None:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()


@dataclass
class Block:
    """``block_rounds`` rounds of equal work, timed at the reference
    host speed."""

    rounds: list
    #: per round, the host's slowdown over it
    slowdowns: list
    accepted: int
    wall: float
    scaled_wall: float
    #: CPU seconds of the process running ``AuthService``, scaled
    server_cpu_s: float
    #: this process's CPU seconds, raw
    own_cpu_s: float

    @property
    def auths_per_s(self) -> float:
        return self.accepted / self.scaled_wall

    @property
    def server_cpu_ms_per_auth(self) -> float:
        return self.server_cpu_s * 1e3 / max(self.accepted, 1)


def blocks(window: Window, size: int) -> list:
    """The window's blocks of ``size`` rounds, every round scaled by the
    host's slowdown over it: the mean kernel time at its two marks over
    the reference time."""
    per_round = []
    for before, after in zip(window.marks, window.marks[1:]):
        slowdown = common.slowdown(before["kernel_s"], after["kernel_s"])
        own_cpu = after["cpu0"] - before["cpu1"]
        server_cpu = (after["server"]["cpu"] - before["server"]["cpu"]
                      if "server" in after else own_cpu)
        per_round.append((slowdown, server_cpu / slowdown, own_cpu))
    out = []
    for at in range(0, len(window.rounds) - size + 1, size):
        rounds = window.rounds[at:at + size]
        marks = per_round[at:at + size]
        out.append(Block(
            rounds=rounds, slowdowns=[mark[0] for mark in marks],
            accepted=sum(r[3] for r in rounds),
            wall=sum(r[1] - r[0] for r in rounds),
            scaled_wall=sum((r[1] - r[0]) / mark[0]
                            for r, mark in zip(rounds, marks)),
            server_cpu_s=sum(mark[1] for mark in marks),
            own_cpu_s=sum(mark[2] for mark in marks)))
    if not out:
        raise BenchError("the timed window holds no complete block")
    return out


def steady_figures(window_blocks: list) -> dict:
    """Throughput, latency and server CPU at the reference host speed:
    the median block's auths/s and CPU per auth, and every round's
    latency divided by its slowdown.

    The host's speed swings by up to 2x within seconds and drifts
    between runs minutes apart; scaled by the kernel run beside each
    round, runs of one code agree within a few percent.
    """
    return {
        "auths_per_s": statistics.median(
            block.auths_per_s for block in window_blocks),
        "server_cpu_ms_per_auth": statistics.median(
            block.server_cpu_ms_per_auth for block in window_blocks),
        "latency": common.latency_summary(
            [(r[5] - r[4]) * 1e3 / slowdown for block in window_blocks
             for r, slowdown in zip(block.rounds, block.slowdowns)]),
    }


def _readout(window: Window, window_blocks: list, setups: list,
             steady: dict, checks: dict) -> dict:
    """The run record's shared part: raw whole-window figures beside
    the scaled ones, every block's, and the stationarity readout."""
    elapsed = window.end - window.begin
    return {
        "setups": setups, "checks": checks, "latency": steady["latency"],
        "scaled": {key: steady[key] for key in
                   ("auths_per_s", "server_cpu_ms_per_auth")},
        "reference_kernel_s": common.CALIBRATION_REF_S,
        "blocks": [{"auths_per_s": round(block.accepted / block.wall, 1),
                    "slowdown": round(block.wall / block.scaled_wall, 3)}
                   for block in window_blocks],
        "kernel_s": [round(mark["kernel_s"], 5) for mark in window.marks],
        "whole_window": {
            "auths_per_s": window.accepted / elapsed,
            "latency": common.latency_summary(
                [(r[5] - r[4]) * 1e3 for r in window.rounds]),
        },
        "stationarity": {
            "raw": common.stationarity(
                [block.accepted / block.wall for block in window_blocks]),
            "scaled": common.stationarity(
                [block.auths_per_s for block in window_blocks]),
        },
        "rounds": len(window.rounds),
    }


def _end_to_end(setups: list, steady: dict, rss_peak_mb: float) -> dict:
    return {
        "setup_s": metric(statistics.median(s["s"] for s in setups), "s"),
        "auths_per_s": metric(steady["auths_per_s"], "1/s"),
        "latency_p50_ms": metric(steady["latency"]["p50_ms"], "ms"),
        "server_cpu_ms_per_auth": metric(steady["server_cpu_ms_per_auth"],
                                         "ms"),
        "rss_peak_mb": metric(rss_peak_mb, "MB"),
    }


def _overhead_ratio(window_blocks: list) -> float:
    """Traced over untraced auths/s, every round's time scaled by its
    slowdown."""
    accepted = {True: 0, False: 0}
    wall = {True: 0.0, False: 0.0}
    for block in window_blocks:
        for r, slowdown in zip(block.rounds, block.slowdowns):
            accepted[r[-1]] += r[3]
            wall[r[-1]] += (r[1] - r[0]) / slowdown
    rate = {traced: accepted[traced] / wall[traced] if wall[traced] else 0.0
            for traced in wall}
    return rate[True] / rate[False] if rate[False] else 0.0


def _traced_rounds(window_blocks: list) -> dict:
    traced = [r for block in window_blocks for r in block.rounds if r[-1]]
    return {"auths": sum(r[3] for r in traced),
            "busy_frac": sum(block.own_cpu_s for block in window_blocks)
            / sum(block.wall for block in window_blocks),
            "coverage_rounds": [(r[4], r[5]) for r in traced],
            "overhead_ratio": _overhead_ratio(window_blocks)}


# -- gateway_batch -------------------------------------------------------------------

def gateway_batch(spec: dict, seconds: float, tracer=None) -> dict:
    from repro.service import AuthService
    from repro.service.net import AuthClient

    rng = np.random.default_rng([spec["seed"], 1])
    with ServerProcess(spec) as server:
        # The gateway's own copy of the hardware: same seeds, so the
        # same enrollment responses as the server's registry, on a
        # stacked plane.
        gateway = AuthService.provision(common.fleet_config(spec))
        devices = gateway.device_list
        order = rng.permutation(len(devices))
        size = spec["group"]
        groups = [[devices[i] for i in order[at:at + size]]
                  for at in range(0, len(devices), size)]
        ready = server.ready()

        async def drive() -> Window:
            client = await AuthClient.connect(HOST, ready["port"])
            try:
                cycle = itertools.cycle(groups)

                async def one_round(index):
                    group = next(cycle)
                    t0 = now()
                    report = await client.authenticate_batch(group)
                    return len(group), report.n_accepted, t0, now()

                return await closed_loop(one_round, seconds, spec,
                                         tracer is not None,
                                         Hooks(server, tracer))
            finally:
                await client.aclose()

        window = asyncio.run(drive())
        served = server.stop()
    gateway_digest = common.fleet_digest(common.device_rows(devices))
    gateway.close()
    # ServerMetrics.auths_accepted counts coalesced rounds only, not
    # explicit gateway rounds; the registry's session total counts both.
    checks = {
        "failed_frac_zero": window.accepted == window.attempted
        and window.warmup_accepted == window.warmup_attempted,
        "server_accepted_matches": served["sessions"]
        == window.accepted + window.warmup_accepted,
        "digest_matches": served["digest"] == gateway_digest,
    }
    window_blocks = blocks(window, spec["block_rounds"])
    steady = steady_figures(window_blocks)
    record = _readout(window, window_blocks, served["setups"], steady,
                      checks)
    record["server_counters"] = served["counters"]
    if tracer is None:
        metrics = _end_to_end(served["setups"], steady,
                              served["rss_peak_mb"])
    else:
        from tracer import as_spans, load

        metrics, record["layers"] = layer_metrics(
            local=as_spans(tracer), server=load(served["spans"]),
            setup_end=ready["setup_end"],
            server_cpu_traced=_server_cpu_traced(served["marks"]),
            **_traced_rounds(window_blocks))
        tracer.dump(os.path.join(common.OUT_DIR,
                                 f"{spec['workload']}-spans.npz"))
    return {"correct": all(checks.values()), "attempted": window.attempted,
            "failed": window.attempted - window.accepted,
            "metrics": metrics, "record": record}


def _server_cpu_traced(marks: dict) -> float:
    """Server CPU seconds while tracing was on."""
    return sum(off[1] - on[1] for on, off in zip(marks.get("trace-on", []),
                                                 marks.get("trace-off", [])))


# -- outofcore_churn -----------------------------------------------------------------

def outofcore_churn(spec: dict, seconds: float, tracer=None,
                    run_dir: str = "") -> dict:
    from repro.fleet.verifier import FleetDevice
    from repro.service import AuthService

    def set_up(number: int):
        root = os.path.join(run_dir, f"store-{number}")
        before = common.calibrate(common.SETUP_KERNEL_RUNS)
        started = now()
        service = AuthService.provision(common.fleet_config(spec, root))
        took = now() - started
        after = common.calibrate(common.SETUP_KERNEL_RUNS)
        return service, root, common.timed_setup(took, before, after)

    if tracer is not None:
        tracer.install()
    service, root, first = set_up(0)
    setup_end = now()
    if tracer is not None:
        tracer.uninstall()
    rng = np.random.default_rng([spec["seed"], 3])
    live = service.device_list
    churn_slots = rng.choice(len(live), spec["churn_rows"], replace=False)
    for slot in churn_slots:
        live[slot].puf.compiled_mesh()
    stats_marks = []
    backend = service.registry.backend

    async def one_round(index):
        if tracer is not None:
            tracer.set_round(f"batch-{index}")
        batch = [live[i] for i in rng.choice(len(live), spec["group"],
                                             replace=False)]
        t0 = now()
        report = service.authenticate_batch(batch)
        t1 = now()
        for slot in rng.choice(churn_slots, spec["churn"], replace=False):
            old = live[slot]
            service.revoke(old.device_id)
            new = FleetDevice(f"rep-{index:06d}-{slot:06d}", old.puf)
            new.provision(spec["seed"])
            # Rolling CRP only, as wire enrollment does.
            service.enroll(new, n_spot_crps=0)
            new.attach_plane(old.plane, old.plane_row)
            live[slot] = new
        if index % spec["snapshot_every"] == spec["snapshot_every"] - 1:
            service.snapshot()
        return len(batch), report.n_accepted, t0, t1

    def on_trace(on: bool) -> None:
        stats_marks.append(dict(backend.stats))

    window = asyncio.run(closed_loop(
        one_round, seconds, spec, tracer is not None,
        Hooks(tracer=tracer, on_trace=on_trace)))
    desynced = common.desynced_devices(service.registry, live)
    checks = {
        "failed_frac_zero": window.accepted == window.attempted
        and window.warmup_accepted == window.warmup_attempted,
        "live_devices_agree": not desynced,
        "registry_holds_live_fleet": len(service.registry) == len(live),
    }
    backend_stats = dict(backend.stats)
    service.close()
    shutil.rmtree(root)
    # As in serve.py: the other set-ups run after the window, and a
    # traced run skips them.  The served fleet goes first, so the peak
    # RSS stays that of one fleet.
    del service, live, backend
    gc.collect()
    setups = [first]
    for number in range(1, spec["setups"] if tracer is None else 1):
        extra, root, timed = set_up(number)
        setups.append(timed)
        extra.close()
        shutil.rmtree(root)
        # Each set-up starts with no other fleet alive, as the first did.
        del extra
        gc.collect()
    window_blocks = blocks(window, spec["block_rounds"])
    steady = steady_figures(window_blocks)
    record = _readout(window, window_blocks, setups, steady, checks)
    record.update(desynced=desynced[:8], backend_stats=backend_stats)
    if tracer is None:
        metrics = _end_to_end(setups, steady, common.rss_peak_mb())
    else:
        from tracer import as_spans

        faults = wal = 0
        for before, after in zip(stats_marks[::2], stats_marks[1::2]):
            faults += after["faults"] - before["faults"]
            wal += after["wal_records"] - before["wal_records"]
        metrics, record["layers"] = layer_metrics(
            local=as_spans(tracer), server=None, setup_end=setup_end,
            storage={"faults": faults, "wal_records": wal},
            **_traced_rounds(window_blocks))
        tracer.dump(os.path.join(common.OUT_DIR,
                                 f"{spec['workload']}-spans.npz"))
    return {"correct": all(checks.values()), "attempted": window.attempted,
            "failed": window.attempted - window.accepted,
            "metrics": metrics, "record": record}


# -- per-layer metrics ---------------------------------------------------------------

#: Every per-layer metric, in output order, with its unit.
LAYER_UNITS = {
    "photonics.plane_us_per_auth": "us",
    "photonics.device_us_per_auth": "us",
    "photonics.compile_s": "s",
    "fleet.rounds.frame_us_per_auth": "us",
    "fleet.verifier.open_us_per_auth": "us",
    "fleet.verifier.verify_us_per_auth": "us",
    "fleet.verifier.finalize_us_per_auth": "us",
    "fleet.verifier.auths_per_round": "count",
    "crypto.mac.us_per_auth": "us",
    "protocols.mutual_auth.derive_us_per_auth": "us",
    "fleet.storage.get_us": "us",
    "fleet.storage.faults_per_get": "count",
    "fleet.storage.gets_per_auth": "count",
    "fleet.storage.roll_us": "us",
    "fleet.storage.wal_records_per_auth": "count",
    "fleet.storage.checkpoint_ms": "ms",
    "fleet.storage.enroll_ms": "ms",
    "fleet.storage.revoke_us": "us",
    "service.facade.wire_us_per_auth": "us",
    "service.facade.snapshot_ms": "ms",
    "service.facade.provision_s": "s",
    "service.codec.encode_us_per_frame": "us",
    "service.codec.decode_us_per_frame": "us",
    "service.codec.frames_per_auth": "count",
    "service.codec.bytes_per_auth": "B",
    "service.net.write_us_per_frame": "us",
    "service.net.drain_wait_us_per_frame": "us",
    "service.net.server_other_us_per_auth": "us",
    "service.net.ack_rtt_us": "us",
    "gen.busy_frac": "fraction",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_ratio": "ratio",
}


class _Sum:
    """Sums over several per-process span tables."""

    def __init__(self, *tables):
        self.tables = [t for t in tables if t is not None]

    def __call__(self, field: str, *names: str) -> float:
        return sum(t.get(field, *names) for t in self.tables)

    def mean(self, field: str, name: str, scale: float) -> float:
        calls = self("calls", name)
        return self(field, name) / calls * scale if calls else 0.0


def layer_metrics(*, local, server, setup_end, auths, busy_frac,
                  coverage_rounds, overhead_ratio, server_cpu_traced=None,
                  storage=None):
    """The per-layer table of one traced run.

    ``local`` holds this process's spans (the generator, or the whole
    workload in process), ``server`` the serving process's; the spans of
    the one traced set-up (before ``setup_end``) feed only the set-up
    figures.
    """
    from tracer import Table, uncovered_fraction

    serving = server if server is not None else local
    setup = Table(serving, end=setup_end)
    if server is not None:
        server_window = Table(server, begin=setup_end)
        window = _Sum(Table(local), server_window)
    else:
        server_window = None
        window = _Sum(Table(local, begin=setup_end))
    per_auth = 1e6 / max(auths, 1)
    storage = storage or {"faults": 0, "wal_records": 0}
    gets = window("calls", "fleet.storage.get")
    other = 0.0
    if server_window is not None and server_cpu_traced is not None:
        other = max(0.0, server_cpu_traced - server_window.root_busy_s) \
            * per_auth
    values = {
        "photonics.plane_us_per_auth":
            window("self_s", "photonics.plane") * per_auth,
        "photonics.device_us_per_auth":
            window("self_s", "photonics.device") * per_auth,
        "photonics.compile_s": setup.get("total", "photonics.compile"),
        "fleet.rounds.frame_us_per_auth":
            window("self_s", "fleet.rounds.frame") * per_auth,
        "fleet.verifier.open_us_per_auth":
            window("self_s", "fleet.verifier.open") * per_auth,
        "fleet.verifier.verify_us_per_auth":
            window("self_s", "fleet.verifier.verify") * per_auth,
        "fleet.verifier.finalize_us_per_auth":
            window("self_s", "fleet.verifier.finalize") * per_auth,
        "fleet.verifier.auths_per_round":
            window.mean("units", "fleet.verifier.open", 1.0),
        "crypto.mac.us_per_auth": window("self_s", "crypto.mac") * per_auth,
        "protocols.mutual_auth.derive_us_per_auth":
            window("self_s", "protocols.mutual_auth.derive") * per_auth,
        "fleet.storage.get_us": window.mean("total", "fleet.storage.get",
                                            1e6),
        "fleet.storage.faults_per_get":
            storage["faults"] / gets if gets else 0.0,
        "fleet.storage.gets_per_auth": gets / max(auths, 1),
        "fleet.storage.roll_us": window.mean("total", "fleet.storage.roll",
                                             1e6),
        "fleet.storage.wal_records_per_auth":
            storage["wal_records"] / max(auths, 1),
        "fleet.storage.checkpoint_ms":
            window.mean("total", "fleet.storage.checkpoint", 1e3),
        "fleet.storage.enroll_ms": window.mean("total",
                                               "fleet.storage.enroll", 1e3),
        "fleet.storage.revoke_us": window.mean("total",
                                               "fleet.storage.revoke", 1e6),
        "service.facade.wire_us_per_auth":
            window("self_s", "service.facade.wire") * per_auth,
        "service.facade.snapshot_ms":
            window.mean("self_s", "service.facade.snapshot", 1e3),
        "service.facade.provision_s":
            setup.get("self_s", "service.facade.provision"),
        "service.codec.encode_us_per_frame":
            window.mean("self_s", "service.codec.encode", 1e6),
        "service.codec.decode_us_per_frame":
            window.mean("self_s", "service.codec.decode", 1e6),
        "service.codec.frames_per_auth":
            window("calls", "service.codec.encode") / max(auths, 1),
        "service.codec.bytes_per_auth":
            window("units", "service.codec.encode") / max(auths, 1),
        "service.net.write_us_per_frame":
            window.mean("total", "service.net.write", 1e6),
        "service.net.drain_wait_us_per_frame":
            window.mean("total", "service.net.drain", 1e6),
        "service.net.server_other_us_per_auth": other,
        "service.net.ack_rtt_us": window.mean("total", "service.net.ack",
                                              1e6),
        "gen.busy_frac": busy_frac,
        "trace.unattributed_frac": uncovered_fraction(
            coverage_rounds,
            [s for s in (local, server) if s is not None]),
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics = {name: metric(values[name], unit)
               for name, unit in LAYER_UNITS.items()}
    if server is not None:
        tables = {"generator": Table(local).rows(),
                  "server_setup": setup.rows(),
                  "server_window": server_window.rows()}
    else:
        tables = {"setup": setup.rows(),
                  "window": Table(local, begin=setup_end).rows()}
    return metrics, tables
