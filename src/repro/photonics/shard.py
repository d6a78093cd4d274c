"""Sharded shared-memory execution layer for the fleet plane.

PR 3's :class:`~repro.photonics.fleet_engine.CompiledFleet` made a whole
authentication round one tensor pass — but one pass on one core: round
latency grows linearly with fleet size while every other core idles.
This module partitions the fleet plane into per-core *shards*:

* :class:`ShardLayout` slices the die axis into balanced contiguous
  shards (ragged sizes allowed — 1024 dies over 3 workers is 342/341/341);
* the fleet's frozen operators (stage matrices, ring coefficient banks,
  static matrix) and its response kernels are copied **once** into
  :mod:`multiprocessing.shared_memory` blocks — the kernels' FFT spectra
  only once a full output stream is first asked for; a persistent pool
  of worker processes maps them and never receives an operator byte
  over a pipe again;
* :class:`ShardedFleetExecutor` serves the three ``CompiledFleet`` hot
  calls — :meth:`propagate`, :meth:`modulated_response`,
  :meth:`response_power_at` — by writing the round's drive tensor into a
  shared scratch block, commanding each worker to compute its shard's
  rows, and reading the per-shard outputs back out of a shared output
  block.  Every per-die operation in the engine is independent of how
  the die axis is tiled, so sharded results are **bit-identical** to the
  single-process pass (pinned by ``tests/photonics/test_shard.py``).

The executor degrades gracefully: when worker processes cannot be
started (restricted environments), or a worker dies mid-round, the
affected shards are computed inline in the parent — same arrays, same
math, same bits — and the pool is retired so subsequent calls run the
plain single-process path.

Asynchronous use (the pipelined round scheduler in
:mod:`repro.fleet.verifier`) goes through :meth:`submit_response_power`
/ :meth:`submit_modulated` / :meth:`submit_propagate`: the returned
:class:`ShardSubmission` yields per-shard result chunks as workers
finish, so the parent can run the next protocol stage (MAC framing,
verification) for shard *i - 1* while shard *i* is still propagating.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.photonics.fleet_engine import CompiledFleet, _check_samples

try:  # pragma: no cover - platform probe
    import multiprocessing
    from multiprocessing import shared_memory as _shm
    _MP_AVAILABLE = True
except ImportError:  # pragma: no cover
    multiprocessing = None
    _shm = None
    _MP_AVAILABLE = False


def usable_cores() -> int:
    """CPU cores this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _attach_shared(name: str):
    """Attach an existing shared-memory block owned by the parent.

    Workers share the parent's resource-tracker process (the tracker fd
    is inherited by both fork and spawn children), and its registry is a
    set — the duplicate registration an attach performs is idempotent,
    and the single unregister the parent's unlink sends retires the name
    exactly once.
    """
    return _shm.SharedMemory(name=name)


@dataclass(frozen=True)
class ShardLayout:
    """A contiguous, balanced partition of the die axis.

    ``bounds`` holds ``n_shards + 1`` offsets: shard ``s`` owns dies
    ``bounds[s]:bounds[s + 1]``.  Balanced means sizes differ by at most
    one die (the first ``n_dies % n_shards`` shards take the extra die).
    """

    n_dies: int
    bounds: Tuple[int, ...]

    @classmethod
    def balanced(cls, n_dies: int, n_shards: int) -> "ShardLayout":
        if n_dies < 1:
            raise ValueError("a layout needs at least one die")
        n_shards = max(1, min(int(n_shards), n_dies))
        base, extra = divmod(n_dies, n_shards)
        bounds = [0]
        for shard in range(n_shards):
            bounds.append(bounds[-1] + base + (1 if shard < extra else 0))
        return cls(n_dies=n_dies, bounds=tuple(bounds))

    @property
    def n_shards(self) -> int:
        return len(self.bounds) - 1

    def slices(self) -> List[Tuple[int, int]]:
        return [(self.bounds[s], self.bounds[s + 1])
                for s in range(self.n_shards)]

    def owner(self, die: int) -> int:
        """Shard index owning ``die``."""
        if not 0 <= die < self.n_dies:
            raise ValueError(f"die {die} outside [0, {self.n_dies})")
        return int(np.searchsorted(self.bounds, die, side="right") - 1)

    def split_selection(self, dies: np.ndarray) -> List[tuple]:
        """Group a die selection by owning shard.

        Returns ``(shard, positions, local_rows)`` triples: ``positions``
        indexes into the selection (= the stacked input/output rows) and
        ``local_rows`` are the shard-local die indices.  Only shards that
        own at least one selected die appear.
        """
        dies = np.asarray(dies, dtype=np.intp)
        owners = np.searchsorted(self.bounds, dies, side="right") - 1
        groups = []
        for shard in range(self.n_shards):
            positions = np.flatnonzero(owners == shard)
            if positions.size == 0:
                continue
            local = dies[positions] - self.bounds[shard]
            groups.append((shard, positions, local))
        return groups


class _SharedArray:
    """One numpy array living in one shared-memory block (parent side)."""

    def __init__(self, array: np.ndarray):
        array = np.ascontiguousarray(array)
        self.shape = array.shape
        self.dtype = array.dtype
        self.block = _shm.SharedMemory(create=True, size=max(1, array.nbytes))
        self.array = np.ndarray(self.shape, dtype=self.dtype,
                                buffer=self.block.buf)
        self.array[...] = array

    def spec(self) -> tuple:
        return (self.block.name, self.shape, self.dtype.str)

    def destroy(self) -> None:
        self.array = None
        try:
            self.block.close()
            self.block.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


class _Scratch:
    """A reusable, growable shared block for per-call tensors."""

    def __init__(self):
        self._block = None

    def view(self, shape: tuple, dtype) -> tuple:
        """An ndarray of ``shape``/``dtype`` over the block, plus its spec."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if self._block is None or self._block.size < nbytes:
            capacity = max(1, nbytes)
            if self._block is not None:
                capacity = max(capacity, 2 * self._block.size)
                try:
                    self._block.close()
                    self._block.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
            self._block = _shm.SharedMemory(create=True, size=capacity)
        array = np.ndarray(shape, dtype=dtype, buffer=self._block.buf)
        return array, (self._block.name, tuple(shape), dtype.str)

    def destroy(self) -> None:
        if self._block is not None:
            try:
                self._block.close()
                self._block.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self._block = None


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _WorkerState:
    """Everything a worker holds: its shard fleet + attached blocks."""

    _CACHE_MAX = 8  # scratch blocks kept attached (old names after growth)

    def __init__(self, spec: dict):
        from collections import OrderedDict

        self._attached: "OrderedDict[str, object]" = OrderedDict()
        self._pinned: Dict[str, object] = {}
        start, stop = spec["rows"]
        operators = {
            key: self._pin(*block_spec)
            for key, block_spec in spec["operators"].items()
        }
        full = CompiledFleet(
            n_dies=spec["n_dies"],
            n_channels=spec["n_channels"],
            n_stages=spec["n_stages"],
            delay_samples=spec["delay_samples"],
            with_memory=spec["with_memory"],
            stage_matrices=operators["stage_matrices"],
            ring_b=operators["ring_b"],
            ring_a=operators["ring_a"],
            static_matrix=operators["static_matrix"],
            # Backends travel by *name*: each worker process resolves
            # (and self-checks) its own instance lazily at first use,
            # with the same fall-back-to-numpy semantics as the parent.
            backend_name=spec.get("backend", "numpy"),
        )
        self.fleet = full.shard_view(start, stop)
        self.start = start
        self.stop = stop

    def _pin(self, name: str, shape, dtype) -> np.ndarray:
        """Attach a long-lived block (operators, kernels); never evicted."""
        block = self._pinned.get(name)
        if block is None:
            block = _attach_shared(name)
            self._pinned[name] = block
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=block.buf)

    def views(self, specs) -> List[np.ndarray]:
        """Attach (LRU-cached) scratch blocks and view them with shapes.

        All of a command's blocks are resolved in one call: each name is
        attached or refreshed to most-recently-used *before* eviction
        runs, so growing scratch blocks can age stale names out without
        ever closing a block the current command still views (a closed
        block under a live ndarray is a segfault, not an exception).
        """
        arrays = []
        needed = {spec[0] for spec in specs}
        for name, shape, dtype in specs:
            block = self._attached.get(name)
            if block is None:
                block = _attach_shared(name)
                self._attached[name] = block
            else:
                self._attached.move_to_end(name)
            arrays.append(np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                                     buffer=block.buf))
        while len(self._attached) > self._CACHE_MAX:
            stale_name = next(iter(self._attached))
            if stale_name in needed:  # only current blocks left: keep all
                break
            self._attached.pop(stale_name).close()
        return arrays

    def adopt(self, cmd: dict) -> None:
        """Adopt this shard's rows of a kernel part the parent shared."""
        rows = [self._pin(*spec)[self.start:self.stop]
                for spec in cmd["arrays"]]
        if cmd["op"] == "kernel":
            self.fleet.adopt_kernel(cmd["launch"], cmd["n_samples"], *rows)
        else:
            self.fleet.adopt_spectra(cmd["launch"], cmd["n_samples"], *rows,
                                     cmd["fft_length"])


def _shard_worker_main(conn, spec: dict) -> None:
    """Persistent worker loop: map shared blocks once, serve commands."""
    try:
        state = _WorkerState(spec)
    except Exception:  # pragma: no cover - setup failure path
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):  # parent died
            break
        op = cmd.get("op")
        if op == "stop":
            conn.send(("ok", "stop"))
            break
        try:
            if op in ("kernel", "spectra"):
                state.adopt(cmd)
                conn.send(("ok", op))
                continue
            source, out = state.views([cmd["in"], cmd["out"]])
            positions = np.asarray(cmd["positions"], dtype=np.intp)
            rows = np.asarray(cmd["rows"], dtype=np.intp)
            chunk = source[positions]
            if op == "power":
                result = state.fleet.response_power_at(
                    chunk, np.asarray(cmd["samples"], dtype=np.intp),
                    cmd["launch"], dies=rows,
                )
            elif op == "modulated":
                result = state.fleet.modulated_response(
                    chunk, cmd["launch"], dies=rows,
                )
            elif op == "propagate":
                result = state.fleet.propagate(chunk, dies=rows)
            else:
                raise ValueError(f"unknown op {op!r}")
            out[positions] = result
            conn.send(("ok", op))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    conn.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class ShardSubmission:
    """An in-flight sharded plane pass.

    Iterating yields ``(positions, chunk)`` pairs in shard order as each
    worker acknowledges — ``positions`` indexes the selection (= rows of
    the stacked output) and ``chunk`` is that shard's slice of the
    result, copied out of the shared output block.  :meth:`result`
    drains the iterator into the full stacked array.

    A shard whose worker died is transparently recomputed inline by the
    parent (bit-identical — same arrays, same per-die math) and the
    executor degrades to single-process mode for subsequent rounds.
    """

    def __init__(self, executor: "ShardedFleetExecutor", op: str,
                 out_view: np.ndarray, out_shape: tuple,
                 groups: List[list], inline_fallback):
        self._executor = executor
        self._op = op
        self._out_view = out_view
        self.shape = out_shape
        self._groups = groups          # [shard, positions, sent_ok, collected]
        self._inline = inline_fallback  # positions -> chunk (parent compute)
        self._consumed = False

    def __iter__(self) -> Iterator[tuple]:
        if self._consumed:
            raise RuntimeError("a ShardSubmission can only be consumed once")
        self._consumed = True
        for group in self._groups:
            shard, positions, sent, __ = group
            chunk = None
            if sent:
                reply = self._executor._collect(shard)
                group[3] = True
                if reply is not None and reply[0] == "ok":
                    chunk = self._out_view[positions].copy()
                elif reply is not None and reply[0] == "error":
                    raise RuntimeError(
                        f"shard worker {shard} failed:\n{reply[1]}"
                    )
            if chunk is None:  # send failed or worker died: inline redo
                self._executor._retire(f"worker {shard} unavailable")
                chunk = self._inline(positions)
            yield positions, chunk

    def _drain(self) -> None:
        """Collect leftover worker acks so the pipes stay in lockstep."""
        for group in self._groups:
            shard, __, sent, collected = group
            if sent and not collected:
                self._executor._collect(shard)
                group[3] = True
        self._consumed = True

    def result(self) -> np.ndarray:
        """The full stacked result (drains the shard iterator)."""
        out = np.empty(self.shape, dtype=self._out_view.dtype)
        for positions, chunk in self:
            out[positions] = chunk
        return out


class _InlineSubmission:
    """Submission facade for the single-process path (no workers)."""

    def __init__(self, n_sel: int, compute):
        self._positions = np.arange(n_sel)
        self._compute = compute

    def __iter__(self):
        yield self._positions, self._compute()

    def result(self) -> np.ndarray:
        return self._compute()


class ShardedFleetExecutor:
    """Multi-core front-end of one :class:`CompiledFleet`.

    Parameters
    ----------
    fleet:
        The compiled plane to shard.  Its operator tensors are copied
        into shared memory once at construction.
    n_workers:
        Worker process count (defaults to ``min(usable_cores(), n_dies)``).
        ``1`` still runs the full shared-memory path with a single
        worker — the configuration CI exercises.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (cheap startup, operators already warm) and ``spawn``
        elsewhere.

    The executor mirrors the ``CompiledFleet`` call surface
    (:meth:`propagate` / :meth:`modulated_response` /
    :meth:`response_power_at`) plus asynchronous ``submit_*`` variants
    whose :class:`ShardSubmission` yields per-shard chunks for the
    pipelined round scheduler.  When no worker pool could be started —
    or after a worker death retired it — every call computes inline on
    the wrapped fleet, so callers never need a second code path.
    """

    def __init__(self, fleet: CompiledFleet, n_workers: Optional[int] = None,
                 start_method: Optional[str] = None):
        self.fleet = fleet
        if n_workers is None:
            n_workers = usable_cores()
        self.layout = ShardLayout.balanced(fleet.n_dies, n_workers)
        self._workers: List = []
        self._conns: List = []
        self._blocks: List[_SharedArray] = []
        self._shared_kernels: set = set()    # ("kernel"|"spectra", key)
        self._scratch_in = _Scratch()
        self._scratch_out = _Scratch()
        self._current: Optional[ShardSubmission] = None
        self._degraded_reason: Optional[str] = None
        if not _MP_AVAILABLE:
            self._degraded_reason = "multiprocessing unavailable"
            return
        try:
            self._start_pool(start_method)
        except Exception as exc:  # workers unavailable: inline fallback
            self._teardown_pool()
            self._degraded_reason = f"worker pool unavailable: {exc}"

    # -- pool lifecycle ----------------------------------------------------

    def _start_pool(self, start_method: Optional[str]) -> None:
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        operators = {}
        for key in ("stage_matrices", "ring_b", "ring_a", "static_matrix"):
            shared = _SharedArray(getattr(self.fleet, key))
            self._blocks.append(shared)
            operators[key] = shared.spec()
        for shard, (start, stop) in enumerate(self.layout.slices()):
            spec = {
                "rows": (start, stop),
                "operators": operators,
                "n_dies": self.fleet.n_dies,
                "n_channels": self.fleet.n_channels,
                "n_stages": self.fleet.n_stages,
                "delay_samples": self.fleet.delay_samples,
                "with_memory": self.fleet.with_memory,
                "backend": self.fleet.backend_name,
            }
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker_main, args=(child_conn, spec),
                daemon=True, name=f"fleet-shard-{shard}",
            )
            process.start()
            child_conn.close()
            self._workers.append(process)
            self._conns.append(parent_conn)
        for shard in range(len(self._conns)):
            reply = self._conns[shard].recv()
            if reply[0] != "ready":
                raise RuntimeError(f"shard worker {shard} failed to start")

    def _teardown_pool(self) -> None:
        try:
            self._settle()
        except Exception:  # pragma: no cover - teardown is best effort
            pass
        for conn in self._conns:
            try:
                conn.send({"op": "stop"})
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (EOFError, OSError):
                pass
            conn.close()
        for process in self._workers:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []
        self._conns = []

    def close(self) -> None:
        """Stop workers and release every shared-memory block."""
        self._teardown_pool()
        for shared in self._blocks:
            shared.destroy()
        self._blocks = []
        self._scratch_in.destroy()
        self._scratch_out.destroy()

    def __enter__(self) -> "ShardedFleetExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- state -------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while the worker pool serves calls (not degraded)."""
        return bool(self._workers) and self._degraded_reason is None

    @property
    def n_workers(self) -> int:
        return self.layout.n_shards

    @property
    def degraded_reason(self) -> Optional[str]:
        """Why the executor fell back to single-process, if it did."""
        return self._degraded_reason

    def memory_footprint_bytes(self) -> int:
        """Bytes of shared memory holding operators + kernels."""
        return sum(shared.block.size for shared in self._blocks)

    def _retire(self, reason: str) -> None:
        """Degrade to inline mode (worker death / send failure)."""
        if self._degraded_reason is None:
            self._degraded_reason = reason

    def _collect(self, shard: int):
        """Receive one worker's acknowledgement, or None if it died."""
        try:
            return self._conns[shard].recv()
        except (EOFError, OSError):
            return None

    def _send(self, shard: int, cmd: dict) -> bool:
        try:
            self._conns[shard].send(cmd)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False

    # -- kernels -----------------------------------------------------------

    def _ensure_shared(self, part: str, launch: int, n_samples: int) -> None:
        """Build + broadcast one response-kernel part into shared memory.

        ``part`` is ``"kernel"`` (the time-domain taps every bit-slot
        readout needs) or ``"spectra"`` (their FFT, needed only by full
        output streams).  The parent computes it once (exactly as the
        single-process path would), copies it into shared blocks, and
        every worker adopts its shard's row slice — workers never burn
        cycles rebuilding fleet-wide kernels.
        """
        key = (part, int(launch), int(n_samples))
        if key in self._shared_kernels or not self.active:
            return
        self._settle()
        cmd = {"op": part, "launch": int(launch), "n_samples": int(n_samples)}
        if part == "kernel":
            arrays = self.fleet.impulse_response(launch, n_samples)
        else:
            __, __, spectra, cmd["fft_length"] = self.fleet.response_kernel(
                launch, n_samples
            )
            arrays = (spectra,)
        blocks = [_SharedArray(array) for array in arrays]
        self._blocks.extend(blocks)
        cmd["arrays"] = [block.spec() for block in blocks]
        for shard in range(self.n_workers):
            if not self._send(shard, cmd):
                self._retire(f"worker {shard} unavailable")
                return
        for shard in range(self.n_workers):
            reply = self._collect(shard)
            if reply is None:
                self._retire(f"worker {shard} unavailable")
                return
            if reply[0] != "ok":
                raise RuntimeError(
                    f"shard worker {shard} failed to adopt {part}:\n"
                    f"{reply[1]}"
                )
        self._shared_kernels.add(key)

    # -- submission core ---------------------------------------------------

    def _die_indices(self, dies) -> np.ndarray:
        if dies is None:
            return np.arange(self.fleet.n_dies)
        return np.asarray(dies, dtype=np.intp)

    def _settle(self) -> None:
        """Drain any unconsumed prior submission (pipes stay in lockstep)."""
        if self._current is not None:
            self._current._drain()
            self._current = None

    def _submit(self, op: str, source: np.ndarray, out_shape: tuple,
                out_dtype, dies: np.ndarray, extra: dict, inline_full,
                inline_chunk):
        if not self.active:
            return _InlineSubmission(out_shape[0], inline_full)
        self._settle()
        in_view, in_spec = self._scratch_in.view(source.shape, source.dtype)
        in_view[...] = source
        out_view, out_spec = self._scratch_out.view(out_shape, out_dtype)
        groups = []
        for shard, positions, local_rows in self.layout.split_selection(dies):
            cmd = {
                "op": op,
                "in": in_spec,
                "out": out_spec,
                "positions": positions,
                "rows": local_rows,
                **extra,
            }
            sent = self._send(shard, cmd)
            groups.append([shard, positions, sent, False])
        submission = ShardSubmission(self, op, out_view, out_shape, groups,
                                     inline_chunk)
        self._current = submission
        return submission

    # -- CompiledFleet call surface ---------------------------------------

    def submit_response_power(self, waves: np.ndarray, samples: np.ndarray,
                              launch: int, dies=None) -> "ShardSubmission":
        """Asynchronous :meth:`CompiledFleet.response_power_at`."""
        waves = np.asarray(waves, dtype=np.float64)
        indices = self._die_indices(dies)
        n_sel, batch, n_samples = waves.shape
        samples = _check_samples(samples, n_samples)
        self._ensure_shared("kernel", launch, n_samples)
        out_shape = (n_sel, batch, self.fleet.n_channels, samples.size)
        return self._submit(
            "power", waves, out_shape, np.float64, indices,
            {"samples": samples, "launch": int(launch)},
            inline_full=lambda: self.fleet.response_power_at(
                waves, samples, launch, dies=indices),
            inline_chunk=lambda positions: self.fleet.response_power_at(
                waves[positions], samples, launch, dies=indices[positions]),
        )

    def response_power_at(self, waves, samples, launch, dies=None):
        return self.submit_response_power(waves, samples, launch,
                                          dies=dies).result()

    def submit_modulated(self, waves: np.ndarray, launch: int,
                         dies=None) -> "ShardSubmission":
        """Asynchronous :meth:`CompiledFleet.modulated_response`."""
        waves = np.asarray(waves)
        indices = self._die_indices(dies)
        n_sel, batch, n_samples = waves.shape
        self._ensure_shared("kernel", launch, n_samples)
        self._ensure_shared("spectra", launch, n_samples)
        out_shape = (n_sel, batch, self.fleet.n_channels, n_samples)
        return self._submit(
            "modulated", waves, out_shape, np.complex128, indices,
            {"launch": int(launch)},
            inline_full=lambda: self.fleet.modulated_response(
                waves, launch, dies=indices),
            inline_chunk=lambda positions: self.fleet.modulated_response(
                waves[positions], launch, dies=indices[positions]),
        )

    def modulated_response(self, waves, launch, dies=None):
        return self.submit_modulated(waves, launch, dies=dies).result()

    def submit_propagate(self, fields: np.ndarray,
                         dies=None) -> "ShardSubmission":
        """Asynchronous :meth:`CompiledFleet.propagate` (4-D input)."""
        fields = np.asarray(fields, dtype=np.complex128)
        if fields.ndim != 4:
            raise ValueError(
                "sharded propagate expects (fleet, batch, channels, samples)"
            )
        indices = self._die_indices(dies)
        return self._submit(
            "propagate", fields, fields.shape, np.complex128, indices, {},
            inline_full=lambda: self.fleet.propagate(fields, dies=indices),
            inline_chunk=lambda positions: self.fleet.propagate(
                fields[positions], dies=indices[positions]),
        )

    def propagate(self, fields, dies=None):
        fields = np.asarray(fields, dtype=np.complex128)
        squeeze = fields.ndim == 3
        if squeeze:
            fields = fields[:, np.newaxis]
        out = self.submit_propagate(fields, dies=dies).result()
        return out[:, 0] if squeeze else out


def shard_fleet(fleet: CompiledFleet, n_workers: Optional[int] = None,
                start_method: Optional[str] = None) -> ShardedFleetExecutor:
    """Convenience constructor mirroring :meth:`CompiledFleet.compile`."""
    return ShardedFleetExecutor(fleet, n_workers=n_workers,
                                start_method=start_method)
