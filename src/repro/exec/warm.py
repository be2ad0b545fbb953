"""Per-worker warm state reused across jobs (models + decoded traces).

A pool worker runs many jobs back to back, and campaign batches repeat
the same machine configs and the same recorded traces (multi-machine
suites, GC/heap sweeps over one workload set).  Two kinds of state are
safely reusable across jobs *within one worker process*:

* **pristine model snapshots** — a freshly constructed
  ``(VirtualMemory, Core)`` pair for a given
  :class:`~repro.uarch.machine.MachineConfig`, captured by pickling it
  *before* any op is consumed.  Rehydrating the snapshot yields state
  bit-identical to constructing from scratch (the equivalence suite
  enforces this), so reuse is purely a wall-clock optimization.
* **decoded trace buffers** — chunks of a
  :class:`~repro.exec.traces.TraceStore` entry plus its sidecar
  metadata, keyed by the trace content key and checked against the
  identity of the files they were read from.  Neither engine mutates
  buffer columns and single-core replay applies no transform, so the
  same chunks can feed any number of machine configs.  Only traces
  below an op cap are cached; longer ones keep the mmap streaming path
  so peak RSS stays bounded.

Failure hygiene: a job that *fails* may have died mid-consume with
arbitrary shared state — the worker calls :func:`evict_all` before
reporting the failure, so a retry (or the next job) can never see
poisoned warm state.  This preserves the PR-3 chaos/retry semantics:
a crashed worker loses its cache with the process, a flaky in-process
failure drops it explicitly.

Disable with ``REPRO_WARM_MODELS=0``; cap the trace cache with
``REPRO_WARM_CACHE_OPS`` (total buffered ops across entries).
"""

from __future__ import annotations

import os
import pickle
from array import array
from collections import OrderedDict

from repro import obs

#: max pristine model snapshots kept (pickle blobs are ~10-20 KB)
_MAX_MODELS = 8

#: default total ops across cached trace entries (~25 B/op on disk;
#: decoded views pin the backing pages, so this bounds added RSS)
_DEFAULT_CACHE_OPS = 4_000_000


def enabled() -> bool:
    return os.environ.get("REPRO_WARM_MODELS", "1") not in ("0", "false", "")


def file_identity(path) -> tuple | None:
    """Inode/size/mtime triple identifying a file's current contents."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _owned_column(col):
    """``col`` if it owns its memory, else a byte-for-byte copy.

    Array and list columns own theirs.  Zero-copy replay columns are
    memoryviews over a trace file (one byte per op for the opcodes,
    int64 for the rest); the copy keeps the view's format, so indexing
    still yields the same native Python ints.
    """
    if isinstance(col, (array, list)):
        return col
    owned = memoryview(bytes(col))
    return owned if col.format == "B" else owned.cast(col.format)


def _owned_copy(buf):
    """A buffer whose columns own their memory."""
    from repro.trace import TraceBuffer
    cols = (buf.kinds, buf.a0, buf.a1, buf.a2)
    owned = tuple(map(_owned_column, cols))
    if all(o is c for o, c in zip(owned, cols)):
        return buf
    return TraceBuffer.from_columns(*owned, buf.events, buf.n_instructions)


def _cache_ops_cap() -> int:
    try:
        return int(os.environ.get("REPRO_WARM_CACHE_OPS",
                                  _DEFAULT_CACHE_OPS))
    except ValueError:
        return _DEFAULT_CACHE_OPS


class WarmCache:
    """LRU of pristine model snapshots and decoded trace chunks."""

    def __init__(self, max_models: int = _MAX_MODELS,
                 max_buffer_ops: int | None = None):
        self.max_models = max_models
        self.max_buffer_ops = (max_buffer_ops if max_buffer_ops is not None
                               else _cache_ops_cap())
        self._models: OrderedDict[bytes, bytes] = OrderedDict()
        self._buffers: OrderedDict[str, tuple] = OrderedDict()
        self._buffer_ops = 0
        self.model_hits = 0
        self.model_misses = 0
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.evictions = 0

    # -- pristine model snapshots ---------------------------------------

    @staticmethod
    def _model_key(machine) -> bytes:
        # Lazy import: jobs -> harness.runner -> (here) would otherwise
        # form an import cycle through the package __init__.
        from repro.exec.jobs import canonical_encode
        return canonical_encode(machine)

    def model(self, machine):
        """A fresh ``(vm, core)`` pair rehydrated from the snapshot, or
        ``None`` when this config was never snapshotted."""
        key = self._model_key(machine)
        blob = self._models.get(key)
        if blob is None:
            self.model_misses += 1
            obs.add("warm.model_misses")
            return None
        self._models.move_to_end(key)
        self.model_hits += 1
        obs.add("warm.model_hits")
        return pickle.loads(blob)

    def put_model(self, machine, vm, core) -> None:
        """Snapshot a *pristine* (never-consumed) model pair."""
        key = self._model_key(machine)
        if key in self._models:
            return
        try:
            blob = pickle.dumps((vm, core),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return                    # unpicklable hook etc.: skip cache
        self._models[key] = blob
        while len(self._models) > self.max_models:
            self._models.popitem(last=False)
            self.evictions += 1
            obs.add("warm.evictions")

    # -- decoded trace chunks -------------------------------------------

    def buffers(self, trace_key: str, identity=None):
        """``(chunks, meta)`` cached for ``trace_key``, or ``None``.

        ``identity`` (see :func:`file_identity`) must match the value
        recorded when the entry was cached; a mismatch — the trace file
        was replaced, truncated, or regenerated — drops the entry and
        misses, so the caller re-reads (and re-validates) the file.
        """
        entry = self._buffers.get(trace_key)
        if entry is None:
            self.buffer_misses += 1
            obs.add("warm.buffer_misses")
            return None
        bufs, n_ops, cached_identity, meta = entry
        if identity != cached_identity:
            del self._buffers[trace_key]
            self._buffer_ops -= n_ops
            self.evictions += 1
            self.buffer_misses += 1
            obs.add("warm.evictions")
            obs.add("warm.buffer_misses")
            return None
        self._buffers.move_to_end(trace_key)
        self.buffer_hits += 1
        obs.add("warm.buffer_hits")
        return bufs, meta

    def put_buffers(self, trace_key: str, bufs: list,
                    identity=None, meta=None) -> None:
        """Cache decoded chunks, copied into process-owned memory, with
        the entry's sidecar ``meta``; replaces an entry already there.

        Chunks decoded zero-copy hold views into an mmap of the trace
        file; caching those would pin the map and — worse — SIGBUS if
        the file were ever truncated in place.  The copy detaches the
        cache from the filesystem entirely.
        """
        old = self._buffers.pop(trace_key, None)
        if old is not None:
            self._buffer_ops -= old[1]
        n_ops = sum(len(b) for b in bufs)
        if n_ops > self.max_buffer_ops:
            return                    # too long: keep streaming it
        bufs = [_owned_copy(b) for b in bufs]
        self._buffers[trace_key] = (bufs, n_ops, identity, meta)
        self._buffer_ops += n_ops
        while (self._buffer_ops > self.max_buffer_ops
               and len(self._buffers) > 1):
            _, (_, dropped, _, _) = self._buffers.popitem(last=False)
            self._buffer_ops -= dropped
            self.evictions += 1
            obs.add("warm.evictions")

    # -- failure hygiene -------------------------------------------------

    def evict_all(self) -> None:
        """Drop everything (called by the worker on any job failure)."""
        if self._models or self._buffers:
            dropped = len(self._models) + len(self._buffers)
            self.evictions += dropped
            obs.add("warm.evictions", float(dropped))
        self._models.clear()
        self._buffers.clear()
        self._buffer_ops = 0

    def __len__(self) -> int:
        return len(self._models) + len(self._buffers)


_CACHE: WarmCache | None = None


def get_cache() -> WarmCache | None:
    """The process-global cache, or ``None`` when disabled."""
    global _CACHE
    if not enabled():
        return None
    if _CACHE is None:
        _CACHE = WarmCache()
    return _CACHE


def evict_all() -> None:
    """Module-level eviction hook for the pool's failure paths."""
    if _CACHE is not None:
        _CACHE.evict_all()
