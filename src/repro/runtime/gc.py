"""Garbage collector model: workstation and server flavors (§VII-B).

Both flavors are generational mark-compact collectors; they differ the way
the paper describes:

* **workstation GC** runs on the user thread with a larger gen0 budget —
  collections are rarer, all GC work lands on the measured instruction
  stream, and fragmentation accumulates longer between collections;
* **server GC** runs on several dedicated high-priority threads with a
  smaller per-trigger budget — it is "more aggressive": the paper measures
  it triggering **6.18x more often**, with a **0.59x** LLC-MPKI and a
  **1.14x** speedup for most workloads (Fig 14).

The cache benefit is not injected: it follows from compaction packing the
long-lived set (see :class:`repro.runtime.heap.LongLivedSet`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.codegen import CodeRegion
from repro.runtime.heap import ManagedHeap, LongLivedSet
from repro.trace import EV_GC_TRIGGERED, EV_GC_COMPLETED, pulled

WORKSTATION = "workstation"
SERVER = "server"


@dataclass(frozen=True)
class GcConfig:
    """GC flavor + sizing, mirroring the paper's Fig 14 sweep axes."""

    flavor: str = WORKSTATION
    max_heap_bytes: int = 2_000 * 1024 * 1024
    #: dedicated GC threads (server flavor only)
    server_threads: int = 4
    #: server GC triggers this much more eagerly than workstation
    server_budget_divisor: float = 6.0
    #: §VIII extension: offload tracing/compaction to a hardware engine
    #: ("even limited GC acceleration in hardware can potentially reap
    #: the benefits of greater locality as it does not incur the overhead
    #: of frequent GC events").  The collection's address remapping (and
    #: with it the locality benefit) is unchanged; the instruction
    #: overhead on the application core largely disappears.
    hw_accelerated: bool = False

    def gen0_budget(self) -> int:
        """Gen0 budget derived from flavor and max heap size.

        The budget scales with the heap so that the 200 MiB / 2,000 MiB /
        20,000 MiB sweep of Fig 14 changes GC frequency, and server GC
        divides it per §VII-B ("more aggressive": 6.18x more triggers).

        Scale note: budgets are divided by ~16K relative to real .NET so
        that collections occur within simulated instruction budgets of
        10^5-10^6 (real gen0 budgets amortize over billions of
        instructions); the *ratios* across flavors and heap sizes — which
        are what Fig 14 reports — are preserved.
        """
        base = min(2 * 1024 * 1024,
                   max(3 * 1024, self.max_heap_bytes // 65536))
        if self.flavor == SERVER:
            return max(1024, int(base / self.server_budget_divisor))
        return base

    def min_heap_required(self, long_lived_bytes: int) -> int:
        """Minimum heap the flavor can run with (§VII-B: some categories
        cannot run server GC / 200 MiB)."""
        overhead = 4.0 if self.flavor == SERVER else 2.0
        return int(long_lived_bytes * overhead) + self.gen0_budget()


@dataclass
class GcStats:
    triggered: int = 0
    gen2_collections: int = 0
    bytes_moved: int = 0
    gc_instructions: int = 0

    def snapshot(self) -> "GcStats":
        return GcStats(self.triggered, self.gen2_collections,
                       self.bytes_moved, self.gc_instructions)


class OutOfManagedMemory(RuntimeError):
    """Raised when the live set cannot fit the configured max heap.

    Mirrors the paper's observation that System.Collections fails with
    workstation GC at a 200 MiB cap, and several categories fail with
    server GC at 200 MiB (server GC needs a larger minimum).
    """


class GarbageCollector:
    """Mark-compact collector emitting its own instruction stream.

    ``collect_into`` pushes the collection's trace ops (``collect`` yields
    them as tuples): the mark phase loads a sample
    of live-object headers, the compact phase moves surviving bytes, and
    bulk instruction counts are accounted with coarse blocks at the GC's
    code addresses so that I-side structures see GC code.
    """

    #: instructions of GC code per live object marked
    MARK_INSTR_PER_OBJECT = 10
    #: instructions per 64B line moved during compaction
    COMPACT_INSTR_PER_LINE = 6
    #: every Nth collection is a full (gen2) collection; the others are
    #: ephemeral (gen0/gen1): only nursery survivors are traced and moved
    FULL_GC_PERIOD = 8
    #: cap on per-collection *emitted* memory touches (work beyond the cap
    #: is accounted as instruction blocks only, to bound event volume)
    MAX_EMITTED_TOUCHES = 1500

    def __init__(self, config: GcConfig, gc_code: CodeRegion,
                 seed: int = 0) -> None:
        self.config = config
        self.code = gc_code
        self.rng = random.Random(seed)
        self.stats = GcStats()

    # ------------------------------------------------------------------
    def check_heap_fits(self, long_lived_bytes: int) -> None:
        if self.config.min_heap_required(long_lived_bytes) \
                > self.config.max_heap_bytes:
            raise OutOfManagedMemory(
                f"{self.config.flavor} GC needs "
                f"{self.config.min_heap_required(long_lived_bytes)} bytes "
                f"for a {long_lived_bytes}-byte live set but max heap is "
                f"{self.config.max_heap_bytes}")

    def collect(self, heap: ManagedHeap, live_set: LongLivedSet,
                compact: bool = True):
        """Run one collection; yields trace ops and compacts ``live_set``.

        The pull form of :meth:`collect_into` (see
        :func:`repro.trace.pulled`).
        """
        return pulled(self.collect_into, heap, live_set, compact)

    def collect_into(self, buf, heap: ManagedHeap, live_set: LongLivedSet,
                     compact: bool = True) -> None:
        """Run one collection; pushes its ops and compacts ``live_set``.

        ``compact=False`` is the ablation mode: mark-sweep without moving
        objects — all the GC instruction overhead, none of the locality
        benefit (used by ``bench_ablation_gc_compaction``).
        """
        st = self.stats
        st.triggered += 1
        buf.event(EV_GC_TRIGGERED, st.triggered)
        code = self.code
        n_live = live_set.count
        slot = live_set.slot_bytes
        full = (st.triggered % self.FULL_GC_PERIOD == 0)
        if full:
            st.gen2_collections += 1
        # Server GC spreads its work across dedicated threads; the measured
        # (application) core sees 1/threads of it plus coordination
        # overhead.  Workstation GC runs entirely on the measured thread.
        # A hardware GC engine (§VIII extension) takes almost all of it
        # off the core — only the safe-point handshake remains.
        if self.config.hw_accelerated:
            work_scale = 0.04
        elif self.config.flavor == SERVER:
            work_scale = 1.25 / self.config.server_threads
        else:
            work_scale = 1.0

        scattered = live_set.scattered_indices(heap.gen0_base)
        # --- mark phase -------------------------------------------------
        # Ephemeral collections trace the nursery (allocated bytes +
        # survivors + card-table scan); full collections trace everything.
        if full:
            marked = n_live
            mark_idxs = range(0, n_live,
                              max(1, n_live // self.MAX_EMITTED_TOUCHES))
        else:
            marked = min(n_live, 60 + 2 * len(scattered)
                         + heap.gen0_allocated // 256)
            mark_idxs = scattered[:self.MAX_EMITTED_TOUCHES]
        mark_instr = int(marked * self.MARK_INSTR_PER_OBJECT * work_scale)
        addrs = live_set.addrs
        mark_pc = code.base + 128
        emitted_instr = 0
        for k, i in enumerate(mark_idxs):
            buf.load(addrs[i])
            buf.block(mark_pc, 3, 24)
            emitted_instr += 4
            if k % 8 == 0:
                buf.branch(mark_pc + 20, mark_pc, True)
                emitted_instr += 1
        # Account the un-emitted remainder of the mark work.
        remainder = max(0, mark_instr - emitted_instr)
        if remainder:
            buf.block(mark_pc + 256, remainder, 2048)

        # --- compact phase ----------------------------------------------
        # Ephemeral: promote nursery survivors into packed gen2 space.
        # Full: sliding compaction of gen2 back onto its packed base —
        # in-place, so resident cache lines stay warm (real .NET slides
        # objects; it does not relocate the whole heap).
        if full:
            moves = live_set.compact(live_set.packed_base) if compact \
                else []
        else:
            # Survivors must leave the nursery either way; only the
            # placement density differs between compacting and sweep GC.
            moves = live_set.compact_scattered(
                heap.gen0_base, heap.gen2_alloc,
                stride_slots=1 if compact else 2)
        moved_bytes = len(moves) * slot
        st.bytes_moved += moved_bytes
        lines_moved = max(1, moved_bytes // 64)
        compact_instr = int(lines_moved * self.COMPACT_INSTR_PER_LINE
                            * work_scale)
        emit_moves = moves[:min(self.MAX_EMITTED_TOUCHES,
                                max(1, int(len(moves) * work_scale)))]
        copy_pc = code.base + 4096
        for old, new in emit_moves:
            buf.load(old)
            buf.store(new)
            buf.block(copy_pc, 2, 16)
        remainder = max(0, compact_instr - 4 * len(emit_moves))
        if remainder:
            buf.block(copy_pc + 256, remainder, 2048)

        st.gc_instructions += mark_instr + compact_instr
        heap.reset_nursery()
        buf.event(EV_GC_COMPLETED, moved_bytes)
