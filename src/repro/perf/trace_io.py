"""Trace record / replay.

A simulator library needs reproducible inputs: this module records a
workload's op stream to a compact binary file and replays it later —
decoupling trace *generation* (workload + runtime model) from trace
*consumption* (microarchitecture studies), exactly how trace-driven
simulators are used in practice.

Format (version 2): little-endian, a 16-byte header
(``b"RPRTRACE"``, u32 version, u32 reserved) followed by chunk records,
one per :class:`repro.trace.TraceBuffer`:

=====  ==================================================================
field  contents
=====  ==================================================================
tag    u8 ``0x10``
n_ops  u32 op count
n_ins  u64 instruction count of the chunk
ev_len u32 byte length of the pickled event side-table
kinds  ``n_ops`` bytes (opcode column)
a0-a2  3 × ``n_ops`` int64 arrays (raw column dumps)
events ``ev_len`` bytes: pickled ``[(kind, payload), ...]``
=====  ==================================================================

Storing the SoA columns verbatim makes decode nearly free: the reader
exposes each column as a zero-copy ``memoryview`` slice of the file
bytes (``.cast("q")`` for the int64 columns), so no per-op boxing or
list materialization happens at all.  Indexing a memoryview yields a
native Python ``int`` — exactly what the list-backed columns held — so
the consume loops are bit-identical either way.  Event payloads survive
the round trip (pickled side-table), which matters for bit-identity:
JIT metadata events carry ``(base, size)`` payloads the pipeline
consumes.

By default the file is opened via ``mmap`` and chunks are decoded
lazily while the map's already-consumed pages are released with
``MADV_DONTNEED``, so peak RSS stays bounded by roughly one chunk
regardless of trace length (set ``REPRO_TRACE_MMAP=0`` to read the
whole file into memory instead — decode is still zero-copy over that
one buffer).

Version-1 files (fixed-width per-op records, payload-less events) are
still readable; see the tag table in :func:`_replay_v1`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs

from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         BLOCK_KERNEL_SHIFT, RUNTIME_EVENT_KINDS,
                         TraceBuffer)

MAGIC = b"RPRTRACE"
VERSION = 2

_HEADER = struct.Struct("<8sII")
_CHUNK = struct.Struct("<IQI")
_CHUNK_TAG = 0x10

# -- version-1 record structs (read-compatibility) -----------------------
_BLOCK = struct.Struct("<QHHB")
_BRANCH = struct.Struct("<QQB")
_ADDR = struct.Struct("<Q")
_EVENT = struct.Struct("<B")

_KIND_TO_IDX = {k: i for i, k in enumerate(RUNTIME_EVENT_KINDS)}
_OTHER_KIND = 0xFF

#: ops per chunk when recording from a plain op iterator
_RECORD_CHUNK_INSTRUCTIONS = 65536


class TraceWriteError(ValueError):
    """An op could not be encoded."""


class TraceFormatError(ValueError):
    """The file is not a valid trace."""


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------

def _write_chunk(fh, buf: TraceBuffer) -> None:
    n_ops = len(buf.kinds)
    try:
        kinds = np.asarray(buf.kinds, dtype=np.int64)
        a0 = np.asarray(buf.a0, dtype=np.int64)
        a1 = np.asarray(buf.a1, dtype=np.int64)
        a2 = np.asarray(buf.a2, dtype=np.int64)
    except (OverflowError, ValueError) as exc:
        raise TraceWriteError(f"op column not encodable: {exc}") from exc
    # Narrow the opcodes to one byte each, checked: casting an int64
    # column wraps silently where a list of ints would overflow.
    if n_ops and (int(kinds.min()) < OP_BLOCK or int(kinds.max()) > OP_EVENT):
        raise TraceWriteError("op kind out of range")
    kinds = kinds.astype(np.uint8)
    blocks = kinds == OP_BLOCK
    if blocks.any() and int(a1[blocks].max()) >= 1 << 16:
        raise TraceWriteError("block n_instr out of range")
    ev_blob = pickle.dumps(buf.events, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(bytes((_CHUNK_TAG,)))
    fh.write(_CHUNK.pack(n_ops, buf.n_instructions, len(ev_blob)))
    fh.write(kinds.tobytes())
    fh.write(a0.tobytes())
    fh.write(a1.tobytes())
    fh.write(a2.tobytes())
    fh.write(ev_blob)


def record_buffers(buffers, path) -> int:
    """Write an iterable of :class:`TraceBuffer` chunks to ``path``.

    Returns the total instruction count written.  The chunk structure is
    preserved, so ``replay_buffers`` hands back the same chunking.
    """
    n_instr = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0))
        for buf in buffers:
            if not buf.kinds:
                continue
            _write_chunk(fh, buf)
            n_instr += buf.n_instructions
    return n_instr


def record(ops, path, max_instructions: int | None = None) -> int:
    """Write ``ops`` to ``path``; returns the instruction count recorded.

    ``max_instructions`` bounds recording the same way
    :meth:`TraceBuffer.fill_from` bounds buffering: the trace ends after
    the op that crosses the limit, never mid-op.
    """
    def chunks():
        remaining = max_instructions
        ops_iter = iter(ops)
        while True:
            take = _RECORD_CHUNK_INSTRUCTIONS
            if remaining is not None:
                take = min(take, remaining)
            buf = TraceBuffer()
            try:
                done = buf.fill_from(ops_iter, take)
            except (OverflowError, ValueError) as exc:
                raise TraceWriteError(str(exc)) from exc
            if buf.kinds:
                yield buf
            if done:
                return
            if remaining is not None:
                remaining -= buf.n_instructions
                if remaining <= 0:
                    return

    return record_buffers(chunks(), path)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------

def _read_header(fh) -> int:
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise TraceFormatError("truncated header")
    magic, version, _ = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version not in (1, VERSION):
        raise TraceFormatError(f"unsupported version {version}")
    return version


#: memoryview.cast("q") reinterprets little-endian bytes only on a
#: little-endian host; big-endian falls back to a copying np.frombuffer
#: decode (same values, still no .tolist()).
_NATIVE_LE = sys.byteorder == "little"

_PAGE = mmap.PAGESIZE
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def _use_mmap_default() -> bool:
    return os.environ.get("REPRO_TRACE_MMAP", "1") not in ("0", "false", "")


def _decode_chunks_v2(data, mm=None):
    """Yield sealed buffers with zero-copy columns over ``data``.

    ``data`` is anything exposing the buffer protocol (bytes or an
    ``mmap.mmap``).  When ``mm`` is the backing mmap, pages of fully
    consumed chunks are dropped with ``MADV_DONTNEED`` each time the
    consumer asks for the next chunk — the map is file-backed and
    read-only, so a late re-access simply refaults from the page cache.
    """
    view = memoryview(data)
    end = len(view)
    pos = _HEADER.size
    dropped = 0                     # map offset below which pages are gone
    while pos < end:
        _t0 = time.perf_counter() if obs.enabled() else None
        tag = view[pos]
        pos += 1
        if tag != _CHUNK_TAG:
            raise TraceFormatError(f"unknown record tag {tag:#x} at "
                                   f"offset {pos - 1}")
        if pos + _CHUNK.size > end:
            raise TraceFormatError("truncated chunk header")
        n_ops, n_instr, ev_len = _CHUNK.unpack_from(view, pos)
        pos += _CHUNK.size
        need = n_ops * 25 + ev_len       # 1 + 3*8 bytes per op
        if pos + need > end:
            raise TraceFormatError("truncated chunk body")
        kinds = view[pos:pos + n_ops]
        pos += n_ops
        cols = []
        for _ in range(3):
            raw = view[pos:pos + n_ops * 8]
            if _NATIVE_LE:
                cols.append(raw.cast("q"))
            else:
                cols.append(memoryview(np.ascontiguousarray(
                    np.frombuffer(raw, dtype="<i8").astype(np.int64))))
            pos += n_ops * 8
        try:
            events = pickle.loads(view[pos:pos + ev_len])
        except Exception as exc:
            raise TraceFormatError(
                f"corrupt event table: {exc}") from exc
        pos += ev_len
        buf = TraceBuffer.from_columns(kinds, *cols, events, n_instr).seal()
        if _t0 is not None:
            obs.observe("sim.trace_decode_seconds",
                        time.perf_counter() - _t0)
        yield buf
        if mm is not None and _MADV_DONTNEED is not None:
            # The consumer resumed us, so the chunk we just yielded is
            # finished: release every whole page strictly before the
            # next chunk (the boundary page stays resident).
            keep = (pos // _PAGE) * _PAGE
            if keep > dropped:
                try:
                    mm.madvise(_MADV_DONTNEED, dropped, keep - dropped)
                except OSError:
                    pass             # advisory only; RSS stays higher
                dropped = keep


def replay_buffers(path, *, use_mmap: bool | None = None):
    """Yield sealed :class:`TraceBuffer` chunks from a recorded trace.

    The fast replay path: feeds
    :meth:`repro.uarch.pipeline.Core.consume_stream` directly via
    ``TraceBufferStream(buffers=replay_buffers(path))`` with no per-op
    decode.  Chunk columns are zero-copy memoryviews over the file
    bytes; by default (``use_mmap`` unset and ``REPRO_TRACE_MMAP`` not
    ``0``) the file is memory-mapped and streamed so peak RSS is
    bounded by one chunk.  Version-1 traces are up-converted chunk by
    chunk.
    """
    if use_mmap is None:
        use_mmap = _use_mmap_default()
    with open(path, "rb") as fh:
        version = _read_header(fh)
        if version == 1:
            data = fh.read()
        elif use_mmap:
            try:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError) as exc:
                raise TraceFormatError(f"cannot map trace: {exc}") from exc
        else:
            fh.seek(0)
            data = fh.read()         # whole file, header included
    # The fd is closed here in every branch; an mmap holds its own
    # reference to the file.  The map itself is never closed explicitly:
    # yielded column views may outlive this generator, and refcounting
    # reclaims the map once the last view is dropped.
    if version == 1:
        ops = _replay_v1(data)
        while True:
            buf = TraceBuffer()
            done = buf.fill_from(ops, _RECORD_CHUNK_INSTRUCTIONS)
            if buf.kinds:
                yield buf.seal()
            if done:
                return
    elif use_mmap:
        yield from _decode_chunks_v2(mm, mm=mm)
    else:
        yield from _decode_chunks_v2(data)


def replay(path):
    """Yield ops from a recorded trace as plain tuples (generator).

    Version-1 event records come back as ``(OP_EVENT, kind, None)`` (v1
    stored no payloads); version-2 events round-trip exactly.
    """
    for buf in replay_buffers(path):
        yield from buf.iter_ops()


def _replay_v1(data):
    """Decode version-1 fixed-width records."""
    pos = 0
    end = len(data)
    try:
        while pos < end:
            tag = data[pos]
            pos += 1
            if tag == 0x03:
                (addr,) = _ADDR.unpack_from(data, pos)
                pos += _ADDR.size
                yield (OP_LOAD, addr)
            elif tag == 0x04:
                (addr,) = _ADDR.unpack_from(data, pos)
                pos += _ADDR.size
                yield (OP_STORE, addr)
            elif tag == 0x01:
                pc, n_instr, n_bytes, kernel = _BLOCK.unpack_from(data, pos)
                pos += _BLOCK.size
                yield (OP_BLOCK, pc, n_instr, n_bytes, bool(kernel))
            elif tag == 0x02:
                pc, target, taken = _BRANCH.unpack_from(data, pos)
                pos += _BRANCH.size
                yield (OP_BRANCH, pc, target, bool(taken))
            elif tag == 0x05:
                (idx,) = _EVENT.unpack_from(data, pos)
                pos += _EVENT.size
                kind = (RUNTIME_EVENT_KINDS[idx]
                        if idx < len(RUNTIME_EVENT_KINDS) else "other")
                yield (OP_EVENT, kind, None)
            else:
                raise TraceFormatError(f"unknown record tag {tag:#x} at "
                                       f"offset {pos - 1}")
    except struct.error as exc:
        raise TraceFormatError(f"truncated record: {exc}") from exc


def trace_info(path) -> dict:
    """Summary statistics of a trace file (no full materialization)."""
    counts = {"blocks": 0, "branches": 0, "loads": 0, "stores": 0,
              "events": 0, "instructions": 0, "kernel_instructions": 0}
    for buf in replay_buffers(path):
        kinds = np.asarray(buf.kinds, dtype=np.uint8)
        counts["blocks"] += int(np.count_nonzero(kinds == OP_BLOCK))
        counts["branches"] += int(np.count_nonzero(kinds == OP_BRANCH))
        counts["loads"] += int(np.count_nonzero(kinds == OP_LOAD))
        counts["stores"] += int(np.count_nonzero(kinds == OP_STORE))
        counts["events"] += int(np.count_nonzero(kinds == OP_EVENT))
        counts["instructions"] += buf.n_instructions
        a1 = np.asarray(buf.a1, dtype=np.int64)
        a2 = np.asarray(buf.a2, dtype=np.int64)
        kernel_blocks = (kinds == OP_BLOCK) & (a2 >> BLOCK_KERNEL_SHIFT > 0)
        if kernel_blocks.any():
            counts["kernel_instructions"] += int(a1[kernel_blocks].sum())
    counts["bytes"] = Path(path).stat().st_size
    return counts
