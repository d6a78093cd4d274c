"""Frame transport: length-prefixed codec frames over asyncio streams.

The outer transport envelope is deliberately minimal — a 4-byte
big-endian length prefix followed by exactly that many bytes of codec
frame (:mod:`repro.service.codec` owns everything inside).  The reader
enforces the two transport-level failure modes the codec cannot see:

* **oversize** — a length prefix beyond ``max_bytes`` is rejected
  before a single payload byte is buffered, so a hostile peer cannot
  make the server allocate unbounded memory;
* **slow loris** — once the first byte of a frame has arrived, the
  rest must follow within ``frame_timeout``; a peer that trickles one
  byte per epoch times out (:class:`asyncio.TimeoutError`) instead of
  pinning a connection handler forever.

A clean EOF *between* frames returns ``None`` (orderly disconnect); an
EOF *inside* a frame raises :class:`~repro.service.codec.CodecError`
with the shared ``malformed`` taxonomy kind, exactly like a truncated
codec payload.

:func:`read_frame` reads one frame and leaves every later byte on the
stream (handshakes read it before handing the socket to a verb loop).
A verb loop reads in bulk instead: :func:`_read_frames` returns every
complete frame the socket has delivered, under the same guards, and
:func:`write_frame` writes any number of frames in one socket write.
"""

from __future__ import annotations

import asyncio
import struct
from typing import List, Optional

from repro.service.codec import CodecError

#: Default per-frame ceiling. Generous for this protocol: the largest
#: legitimate frame is a REPORT for a max_batch round, well under 1 MiB.
MAX_FRAME_BYTES = 1 << 20

_LENGTH = struct.Struct(">I")

#: Bytes a bulk read takes off the stream at a time.
_CHUNK = 1 << 16


async def _within(coro, timeout: Optional[float]):
    if timeout is None:
        return await coro
    return await asyncio.wait_for(coro, timeout)


def _split(buffer: bytearray, max_bytes: int) -> List[bytes]:
    """Cut every complete frame off the front of ``buffer``.

    An oversized length prefix raises once it reaches the front, so the
    complete frames ahead of it are still returned first.
    """
    frames: List[bytes] = []
    at, size = 0, len(buffer)
    while size - at >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer, at)
        if length > max_bytes:
            if frames:
                break
            raise CodecError(f"frame of {length} bytes exceeds the "
                             f"{max_bytes}-byte transport ceiling")
        end = at + _LENGTH.size + length
        if end > size:
            break
        frames.append(bytes(buffer[at + _LENGTH.size:end]))
        at = end
    del buffer[:at]
    return frames


def _missing(buffer: bytearray) -> int:
    """Bytes the (incomplete) frame at the front of ``buffer`` lacks."""
    if len(buffer) < _LENGTH.size:
        return _LENGTH.size - len(buffer)
    (length,) = _LENGTH.unpack_from(buffer)
    return _LENGTH.size + length - len(buffer)


async def _read_frames(reader: asyncio.StreamReader, buffer: bytearray, *,
                       max_bytes: int = MAX_FRAME_BYTES,
                       idle_timeout: Optional[float] = None,
                       frame_timeout: Optional[float] = None,
                       chunk: int = _CHUNK) -> Optional[List[bytes]]:
    """Every complete frame the stream has delivered, at least one;
    ``None`` on clean EOF.

    ``buffer`` holds the bytes read past the last complete frame and
    must be passed back on the next call.  ``chunk=0`` reads only the
    bytes the first frame lacks, so nothing past it leaves the stream.
    ``idle_timeout`` bounds the wait for a frame to start;
    ``frame_timeout`` bounds the rest of a frame once its first byte
    is in ``buffer``, from the moment this call finds it there.
    """
    if not buffer:
        data = await _within(reader.read(chunk or _LENGTH.size),
                             idle_timeout)
        if not data:
            return None
        buffer.extend(data)
    frames = _split(buffer, max_bytes)
    if frames:
        return frames

    async def _rest() -> List[bytes]:
        while True:
            missing = _missing(buffer)
            data = await reader.read(max(missing, chunk))
            if not data:
                raise CodecError(
                    "connection closed mid-frame "
                    f"({len(buffer)} of {len(buffer) + missing} bytes)")
            buffer.extend(data)
            frames = _split(buffer, max_bytes)
            if frames:
                return frames

    return await _within(_rest(), frame_timeout)


async def read_frame(reader: asyncio.StreamReader, *,
                     max_bytes: int = MAX_FRAME_BYTES,
                     idle_timeout: Optional[float] = None,
                     frame_timeout: Optional[float] = None,
                     ) -> Optional[bytes]:
    """Read one length-prefixed codec frame; ``None`` on clean EOF.

    ``idle_timeout`` bounds the wait for a frame to *start* (no bytes
    in flight yet); ``frame_timeout`` bounds the arrival of the rest of
    the frame once its first byte landed — the slow-loris guard.  Both
    raise :class:`asyncio.TimeoutError`.  Truncation mid-frame and
    oversized prefixes raise :class:`CodecError` (``malformed``).
    """
    frames = await _read_frames(reader, bytearray(), max_bytes=max_bytes,
                                idle_timeout=idle_timeout,
                                frame_timeout=frame_timeout, chunk=0)
    return None if frames is None else frames[0]


def write_frame(writer: asyncio.StreamWriter, *frames: bytes) -> None:
    """Queue frames on the writer in one write (callers ``await
    writer.drain()``)."""
    writer.write(b"".join([part for frame in frames
                           for part in (_LENGTH.pack(len(frame)), frame)]))
