"""Serving process of the wire workload.

Started by ``run.py`` with one argument, the workload spec as JSON.  It
provisions the fleet and serves it on an ephemeral loopback port, timing
``AuthService.provision`` plus ``AuthServer.start``; once the window is
over it times ``spec["setups"] - 1`` more such set-ups.

Protocol (one line each way, see ``common.py``): the process writes
``ready`` (port and set-up end), a ``mark`` reply per round boundary and
later ``result`` (set-ups, trace-toggle CPU marks, peak RSS, server
counters, registry digest) on its stdout; it reads ``mark`` (a round
boundary: reply with the process's CPU clock), ``trace-on``,
``trace-off`` and ``stop`` on its stdin, after a first ``go`` that
starts the set-up.  Anything else the process prints goes to stderr.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_threads()


class Control:
    """Reads generator commands on a thread; stamps each with the
    process's CPU time the moment it arrives.

    A ``mark`` is answered at once with that stamp; the generator then
    runs the calibration kernel on the CPU both processes share."""

    def __init__(self, loop: asyncio.AbstractEventLoop, tracer, events):
        self.loop = loop
        self.tracer = tracer
        self.events = events
        self.marks: dict = {}
        self.stop_asked = False
        self.stopped = asyncio.Event()
        self.thread = threading.Thread(target=self._read, daemon=True)
        self.thread.start()

    def _read(self) -> None:
        for line in sys.stdin:
            command = line.strip()
            self.marks.setdefault(command, []).append(
                (time.perf_counter(), time.process_time()))
            if command == "mark":
                common.send_event(self.events, {
                    "event": "mark", "cpu": self.marks["mark"][-1][1]})
            elif command == "trace-on":
                self.loop.call_soon_threadsafe(self.tracer.install)
            elif command == "trace-off":
                self.loop.call_soon_threadsafe(self.tracer.uninstall)
            elif command == "stop":
                self.stop_asked = True
                break
        # A closed stdin means the generator is gone: stop as well.
        self.loop.call_soon_threadsafe(self.stopped.set)


async def set_up(spec: dict):
    """One timed set-up: provision the fleet and start serving it, with
    the calibration kernel timed just before and just after."""
    from repro.service import AuthService
    from repro.service.net import AuthServer, NetConfig

    before = common.calibrate(common.SETUP_KERNEL_RUNS)
    started = time.perf_counter()
    service = AuthService.provision(common.fleet_config(spec))
    server = await AuthServer(service, NetConfig(port=0)).start()
    took = time.perf_counter() - started
    after = common.calibrate(common.SETUP_KERNEL_RUNS)
    return service, server, common.timed_setup(took, before, after)


async def serve(spec: dict, events) -> None:
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, layer_patches

        tracer = Tracer()
        layer_patches(tracer)
        tracer.install()
    # Provision only once the generator has built its own fleet, so
    # the two never compete for the CPU while set-up is timed.
    if sys.stdin.readline().strip() != "go":
        return
    service, server, first = await set_up(spec)
    setup_end = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    control = Control(asyncio.get_running_loop(), tracer, events)
    try:
        common.send_event(events, {"event": "ready", "port": server.port,
                                   "setup_end": setup_end})
        await control.stopped.wait()
        if tracer is not None:
            tracer.uninstall()
        await server.aclose()
        rows = list(common.registry_rows(service.registry))
    finally:
        service.close()
    if not control.stop_asked:
        return                          # the generator is gone
    counters = server.metrics.to_json()
    # The other set-ups run after the window, not beside it.  A traced
    # run reports no set-up time and skips them.  The served fleet goes
    # first, so the peak RSS stays that of one fleet.
    del service, server
    gc.collect()
    setups = [first]
    for __ in range(spec["setups"] - 1 if tracer is None else 0):
        extra, extra_server, timed = await set_up(spec)
        setups.append(timed)
        await extra_server.aclose()
        extra.close()
        # Each set-up starts with no other fleet alive, as the first did.
        del extra, extra_server
        gc.collect()
    result = {
        "event": "result",
        "setups": setups,
        "marks": control.marks,
        "rss_peak_mb": common.rss_peak_mb(),
        "counters": counters,
        "digest": common.fleet_digest(rows),
        "sessions": sum(int(row[2]) for row in rows),
        "spans": None,
    }
    if tracer is not None:
        result["spans"] = tracer.dump(spec["server_spans"])
    common.send_event(events, result)


def main(argv) -> int:
    spec = json.loads(argv[1])
    common.import_program()
    # Keep the protocol channel private: stray prints go to stderr.
    events = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    asyncio.run(serve(spec, events))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
