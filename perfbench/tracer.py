"""Span tracing for traced runs, recorded from outside the program.

A :class:`Tracer` replaces the public entry points of each layer with
timing wrappers (:func:`layer_patches`) and restores them on
:meth:`Tracer.uninstall`.  Names a module imported *by name* (``from
repro.service.codec import encode_message``) are patched inside every
importing module too, since patching the defining module alone would
miss those callers.

Each span records its name, start, end, parent span and round id.
Synchronous calls nest on a stack, so self time is the span's duration
minus its children's.  Awaited calls (socket drains, a client waiting on
the server) are *wait* spans: they never become a parent, because other
tasks run while they are open.  Spans stay in compact arrays until the
run ends; :class:`Table` sums them per span name for the per-layer
metrics (``workloads.layer_metrics``).
"""

from __future__ import annotations

import contextvars
import functools
import time
from array import array

import numpy as np

#: Index into ``Tracer.rounds`` of the round the current task serves.
ROUND = contextvars.ContextVar("perfbench_round", default=-1)


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.wait_names: set = set()
        self.rounds: list = []
        self._round_ids: dict = {}
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.round = array("q")
        self.count = array("q")
        self._stack: list = []
        self._next = 0
        self._patches: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str, wait: bool = False) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        if wait:
            self.wait_names.add(name)
        return self._name_ids[name]

    def set_round(self, key: str) -> None:
        """Tag the current task's later spans with round ``key``."""
        if key not in self._round_ids:
            self._round_ids[key] = len(self.rounds)
            self.rounds.append(key)
        ROUND.set(self._round_ids[key])

    def record(self, sid, nid, t0, t1, parent, n) -> None:
        self.sid.append(sid)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)
        self.round.append(ROUND.get())
        self.count.append(n)

    def _enter(self):
        sid = self._next
        self._next = sid + 1
        stack = self._stack
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    # -- wrappers --------------------------------------------------------

    def wrap_sync(self, fn, name, count=None):
        """A span around each call; ``count(args, result)`` sizes it."""
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            t0 = clock()
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = count(args, result) if count is not None else 1
                return result
            finally:
                t1 = clock()
                self._stack.pop()
                self.record(sid, nid, t0, t1, parent, n)

        return traced

    def _iterate(self, iterator, nid):
        clock = time.perf_counter
        while True:
            sid, parent = self._enter()
            t0 = clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                t1 = clock()
                self._stack.pop()
                self.record(sid, nid, t0, t1, parent, 0)
            yield item

    def wrap_lazy(self, fn, name, count=None):
        """For calls returning an iterator that does work per ``next``:
        one span for the call, one per step, all under ``name``."""
        call = self.wrap_sync(fn, name, count)
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(iter(call(*args, **kwargs)), nid)

        return traced

    def wrap_wait(self, fn, name):
        """A wait span around each await of coroutine function ``fn``."""
        nid = self.name_id(name, wait=True)
        clock = time.perf_counter

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            t0 = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.record(sid, nid, t0, clock(), -1, 1)

        return traced

    # -- patching --------------------------------------------------------

    def add(self, owner, attr: str, make) -> None:
        """Queue a patch: ``owner.attr = make(original function)``."""
        self._patches.append((owner, attr, make))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, make in self._patches:
            raw = vars(owner).get(attr)
            own = raw is not None
            if raw is None:                    # inherited method
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._saved.append((owner, attr, raw, own))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, own in reversed(self._saved):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved = []

    # -- export ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "round": np.frombuffer(self.round, dtype=np.int64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def dump(self, path: str) -> str:
        """Write every span (and the name/round tables) as one ``.npz``."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            wait_names=np.array(sorted(self.wait_names), dtype=str),
            rounds=np.array(self.rounds, dtype=str), **self.arrays())
        return path


def _n_first(args, result):
    return len(args[1])


def _n_bytes(args, result):
    return len(result)


def layer_patches(tracer: Tracer, *, generator: bool = False) -> None:
    """Queue a wrapper on every layer entry point the table names.

    ``generator`` adds the load generator's own client-side waits.
    """
    import asyncio

    from repro.fleet import registry as registry_mod
    from repro.fleet import rounds as rounds_mod
    from repro.fleet import verifier as verifier_mod
    from repro.fleet.storage.sharded import ShardedFileBackend
    from repro.photonics.engine import CompiledMesh
    from repro.photonics.fleet_engine import CompiledFleet
    from repro.puf.photonic_strong import PhotonicFleet, PhotonicStrongPUF
    from repro.service import codec as codec_mod
    from repro.service import facade as facade_mod
    from repro.service.net import client as client_mod
    from repro.service.net import server as server_mod
    from repro.service.net import stream as stream_mod

    t = tracer

    def sync(name, count=None):
        return lambda fn: t.wrap_sync(fn, name, count)

    def lazy(name, count=None):
        return lambda fn: t.wrap_lazy(fn, name, count)

    def wait(name):
        return lambda fn: t.wrap_wait(fn, name)

    # photonics: the stacked plane, batch-1 dies, engine compiles
    t.add(PhotonicFleet, "evaluate", sync("photonics.plane"))
    t.add(PhotonicFleet, "evaluate_staged", lazy("photonics.plane"))
    t.add(PhotonicStrongPUF, "evaluate", sync("photonics.device"))
    t.add(CompiledFleet, "compile", sync("photonics.compile"))
    t.add(CompiledMesh, "compile", sync("photonics.compile"))
    # fleet.rounds: device turns, framed per plane pass
    respond = sync("fleet.rounds.frame")
    respond_staged = lazy("fleet.rounds.frame")
    t.add(rounds_mod, "respond_round", respond)
    t.add(rounds_mod, "respond_round_staged", respond_staged)
    t.add(verifier_mod, "respond_round_staged", respond_staged)
    t.add(client_mod, "respond_round", respond)
    # fleet.verifier and the crypto/protocol calls it makes
    BatchVerifier = verifier_mod.BatchVerifier
    t.add(BatchVerifier, "open_round", sync("fleet.verifier.open", _n_first))
    t.add(BatchVerifier, "verify_round", sync("fleet.verifier.verify"))
    t.add(BatchVerifier, "authenticate_fleet", sync("fleet.verifier.verify"))
    t.add(BatchVerifier, "finalize", sync("fleet.verifier.finalize"))
    t.add(verifier_mod, "verify_mac_batch", sync("crypto.mac"))
    t.add(verifier_mod, "confirmation_mac_batch", sync("crypto.mac"))
    derive = sync("protocols.mutual_auth.derive")
    t.add(verifier_mod, "derive_challenge_batch", derive)
    t.add(rounds_mod, "derive_challenge_batch", derive)
    # fleet.storage: the registry facade and the sharded backend
    FleetRegistry = registry_mod.FleetRegistry
    t.add(FleetRegistry, "record", sync("fleet.storage.get"))
    t.add(FleetRegistry, "roll", sync("fleet.storage.roll"))
    t.add(FleetRegistry, "enroll", sync("fleet.storage.enroll"))
    t.add(FleetRegistry, "revoke", sync("fleet.storage.revoke"))
    t.add(ShardedFileBackend, "checkpoint", sync("fleet.storage.checkpoint"))
    # service.facade
    AuthService = facade_mod.AuthService
    t.add(AuthService, "open_round_wire", _open_round_wire(t))
    t.add(AuthService, "verify_round_wire", sync("service.facade.wire"))
    t.add(AuthService, "snapshot", sync("service.facade.snapshot"))
    t.add(AuthService, "provision", sync("service.facade.provision"))
    # service.codec, patched where each module imported it by name
    encode = sync("service.codec.encode", _n_bytes)
    decode = sync("service.codec.decode")
    for module in (codec_mod, facade_mod, server_mod, client_mod):
        t.add(module, "encode_message", encode)
        t.add(module, "decode_message", decode)
    # service.net: frame writes, server drains, client waits
    write = sync("service.net.write")
    for module in (stream_mod, server_mod, client_mod):
        t.add(module, "write_frame", write)
    if generator:
        AuthClient = client_mod.AuthClient
        t.add(AuthClient, "finalize", wait("service.net.ack"))
        t.add(AuthClient, "open_round_wire", _client_round_tag(t))
    else:
        t.add(asyncio.StreamWriter, "drain", wait("service.net.drain"))


def _open_round_wire(tracer: Tracer):
    """Facade open-round span that also tags the task with the round id
    (the round's first nonce, which the gateway sees too)."""
    def make(fn):
        traced = tracer.wrap_sync(fn, "service.facade.wire")

        @functools.wraps(fn)
        def open_round_wire(*args, **kwargs):
            nonces, frames = traced(*args, **kwargs)
            if nonces:
                tracer.set_round(next(iter(nonces.values())).hex())
            return nonces, frames
        return open_round_wire
    return make


def _client_round_tag(tracer: Tracer):
    """No span: tags the gateway's later spans with the server's round
    id once the round's nonces arrive."""
    def make(fn):
        @functools.wraps(fn)
        async def open_round_wire(*args, **kwargs):
            nonces = await fn(*args, **kwargs)
            if nonces:
                tracer.set_round(next(iter(nonces.values())).hex())
            return nonces
        return open_round_wire
    return make


# -- analysis ------------------------------------------------------------------

def load(path: str) -> dict:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files}
    spans["names"] = [str(name) for name in spans["names"]]
    spans["wait_names"] = {str(name) for name in spans["wait_names"]}
    return spans


def as_spans(tracer: Tracer) -> dict:
    spans = tracer.arrays()
    spans["names"] = list(tracer.names)
    spans["wait_names"] = set(tracer.wait_names)
    return spans


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its children cover."""
    duration = spans["end"] - spans["start"]
    if duration.size == 0:
        return duration
    row_of = np.full(int(spans["sid"].max()) + 1, -1, dtype=np.int64)
    row_of[spans["sid"]] = np.arange(spans["sid"].size)
    parent = spans["parent"]
    has = parent >= 0
    rows = row_of[parent[has]]
    known = rows >= 0
    child = np.bincount(rows[known], weights=duration[has][known],
                        minlength=duration.size)
    return duration - child


class Table:
    """Per-name sums over one process's spans inside a time window."""

    def __init__(self, spans: dict, begin: float = -np.inf,
                 end: float = np.inf):
        inside = (spans["start"] >= begin) & (spans["start"] < end)
        selfs = self_times(spans)
        names = spans["names"]
        self.calls: dict = {}
        self.total: dict = {}
        self.self_s: dict = {}
        self.units: dict = {}
        for nid, name in enumerate(names):
            mask = inside & (spans["name"] == nid)
            self.calls[name] = int(mask.sum())
            self.total[name] = float(
                (spans["end"][mask] - spans["start"][mask]).sum())
            self.self_s[name] = float(selfs[mask].sum())
            self.units[name] = int(spans["count"][mask].sum())
        wait = np.isin(spans["name"],
                       [names.index(n) for n in spans["wait_names"]
                        if n in names])
        roots = inside & (spans["parent"] < 0) & ~wait
        self.root_busy_s = float(
            (spans["end"][roots] - spans["start"][roots]).sum())

    def get(self, field: str, *names: str) -> float:
        source = getattr(self, field)
        return float(sum(source.get(name, 0) for name in names))

    def rows(self) -> list:
        return [{"span": name, "calls": self.calls[name],
                 "self_s": self.self_s[name], "total_s": self.total[name]}
                for name in sorted(self.calls) if self.calls[name]]


def uncovered_fraction(intervals, spans_list) -> float:
    """Share of the ``(start, end)`` intervals no layer span covers.

    The spans of all processes are merged on the shared monotonic clock.
    Wait spans are no cover: while a client waits on the server, only
    the server's own spans attribute that time to a layer.
    """
    start, end = [], []
    for spans in spans_list:
        wait = np.isin(spans["name"],
                       [spans["names"].index(name)
                        for name in spans["wait_names"]])
        start.append(spans["start"][~wait])
        end.append(spans["end"][~wait])
    start, end = np.concatenate(start), np.concatenate(end)
    total = sum(b - a for a, b in intervals)
    if total <= 0.0:
        return 0.0
    if start.size == 0:
        return 1.0
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    reach = np.maximum.accumulate(end)
    fresh = np.ones(start.size, dtype=bool)
    fresh[1:] = start[1:] > reach[:-1]
    group = np.cumsum(fresh) - 1
    merged_start = start[fresh]
    merged_end = np.zeros(merged_start.size)
    np.maximum.at(merged_end, group, end)
    covered = 0.0
    for a, b in intervals:
        lo = np.searchsorted(merged_end, a, side="right")
        hi = np.searchsorted(merged_start, b, side="left")
        if hi > lo:
            seg_start = np.maximum(merged_start[lo:hi], a)
            seg_end = np.minimum(merged_end[lo:hi], b)
            covered += float(np.clip(seg_end - seg_start, 0.0, None).sum())
    return max(0.0, 1.0 - covered / total)
