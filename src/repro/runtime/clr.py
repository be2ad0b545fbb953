"""The CLR facade: ties heap, GC, JIT, exceptions and contention together.

Workload programs (:mod:`repro.workloads.program`) drive execution through
this class: method calls, allocation batches, exception throws and lock
contention all flow through here, which is where runtime events are
injected into the op stream and where collections/tiering interpose —
exactly the "managed runtime intercedes the regular course of execution"
behavior the paper characterizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.codegen import (CodeRegion, ConstAddress, MixProfile,
                           StackAddress)
from repro.kernel.syscalls import SyscallModel, SyscallKind
from repro.runtime.gc import GarbageCollector, GcConfig
from repro.seeding import stable_seed
from repro.runtime.heap import HeapConfig, LongLivedSet, ManagedHeap
from repro.runtime.jit import JitCompiler, Method
from repro.trace import (EV_GC_ALLOCATION_TICK, EV_EXCEPTION, EV_CONTENTION,
                         REGION_CLR_CODE_BASE, REGION_STACK_BASE)

#: The CLR's own precompiled code: large and branchy.  These footprints are
#: what gives .NET its "large CLR code footprint" frontend profile (§V-E).
_CLR_SUBSYSTEMS: tuple[tuple[str, int], ...] = (
    ("alloc", 48 * 1024),
    ("gc", 224 * 1024),
    ("jit", 640 * 1024),
    ("typesystem", 288 * 1024),
    ("exception", 112 * 1024),
    ("threading", 96 * 1024),
    ("interop", 160 * 1024),
)

_CLR_MIX = MixProfile(branch_frac=0.18, load_frac=0.29, store_frac=0.13,
                      taken_bias=0.44, bias_spread=0.22, loop_frac=0.10,
                      avg_loop_trips=5.0)


_IMAGE_CACHE: dict[tuple[int, float], "ClrImage"] = {}


def shared_clr_image(seed: int = 7, code_bloat: float = 1.0) -> "ClrImage":
    """Process-wide CLR image cache.

    The image is immutable after construction (regions hold no execution
    state), and in reality every .NET process maps the same runtime
    binaries — sharing also avoids rebuilding large code regions per
    workload.
    """
    key = (seed, round(code_bloat, 4))
    image = _IMAGE_CACHE.get(key)
    if image is None:
        image = _IMAGE_CACHE[key] = ClrImage(seed, code_bloat)
    return image


class ClrImage:
    """Code regions of the runtime itself (shared across all programs)."""

    def __init__(self, seed: int = 7, code_bloat: float = 1.0) -> None:
        self.regions: dict[str, CodeRegion] = {}
        base = REGION_CLR_CODE_BASE
        for name, size in _CLR_SUBSYSTEMS:
            size = int(size * code_bloat)
            self.regions[name] = CodeRegion(
                base, size, seed=stable_seed(seed, "clr", name),
                mix=_CLR_MIX)
            base += size + 4096
        self.text_bytes = base - REGION_CLR_CODE_BASE
        #: metadata segment (method tables, IL, type info)
        self.metadata_base = base + (1 << 20)
        self.metadata_bytes = 3 * 1024 * 1024


@dataclass
class ClrStats:
    method_calls: int = 0
    allocations: int = 0
    exceptions_thrown: int = 0
    contentions: int = 0


class Clr:
    """One managed-runtime instance executing one program.

    Parameters
    ----------
    heap_config / gc_config:
        Sizing (Fig 14 sweeps these).
    long_lived_count / long_lived_slot:
        The persistent working set the program will index.
    churn_per_call:
        Long-lived objects re-allocated per method call — the
        fragmentation engine (see :mod:`repro.runtime.gc`).
    """

    #: allocator fast path cost (bump + type check)
    ALLOC_FASTPATH_INSTR = 9

    def __init__(self, image: ClrImage, heap_config: HeapConfig,
                 gc_config: GcConfig, *,
                 long_lived_count: int = 4096,
                 long_lived_slot: int = 64,
                 cold_live_bytes: int = 0,
                 churn_per_call: float = 0.0,
                 tiering: bool = True,
                 reuse_code_pages: bool = False,
                 compaction_enabled: bool = True,
                 code_bloat: float = 1.0,
                 syscalls: SyscallModel | None = None,
                 seed: int = 0) -> None:
        self.image = image
        self.rng = random.Random(seed)
        self.heap = ManagedHeap(heap_config, seed=seed ^ 0x5EED)
        self.gc = GarbageCollector(gc_config, image.regions["gc"],
                                   seed=seed ^ 0x6C)
        self.jit = JitCompiler(image.regions["jit"], image.metadata_base,
                               image.metadata_bytes, tiering=tiering,
                               reuse_code_pages=reuse_code_pages,
                               code_bloat=code_bloat, seed=seed ^ 0x71)
        self.compaction_enabled = compaction_enabled
        self.syscalls = syscalls
        self.stats = ClrStats()
        self._methods: dict[int, Method] = {}
        self._churn_accum = 0.0
        self.churn_per_call = churn_per_call
        base = self.heap.gen2_alloc(long_lived_count * long_lived_slot)
        self.live_set = LongLivedSet(long_lived_count, long_lived_slot, base)
        self.gc.check_heap_fits(long_lived_count * long_lived_slot
                                + cold_live_bytes)
        self._stack_ptr = REGION_STACK_BASE
        #: (addr, size) of the most recent alloc_large_into (push
        #: emitters return nothing)
        self._last_loh: tuple[int, int] = (0, 0)

    # -- method management ----------------------------------------------
    def register_method(self, method: Method) -> None:
        self._methods[method.id] = method

    def get_method(self, method_id: int) -> Method:
        return self._methods[method_id]

    @property
    def methods(self) -> dict[int, Method]:
        return self._methods

    def ensure_jitted_into(self, buf, method: Method) -> None:
        """Push JIT ops if the method needs (re)compilation."""
        if method.region is None:
            if method.prejit_base is not None:
                method.materialize()        # R2R code: no JIT event
            else:
                self.jit.compile_into(buf, method, tier=0)
        elif self.jit.needs_tiering(method):
            self.jit.compile_into(buf, method, tier=1)

    def enter_method_into(self, buf, method: Method) -> None:
        """Call prologue: JIT if needed, account the call, apply churn."""
        method.call_count += 1
        self.stats.method_calls += 1
        self.ensure_jitted_into(buf, method)
        if self.churn_per_call > 0:
            self._churn_accum += self.churn_per_call
            n = int(self._churn_accum)
            if n:
                self._churn_accum -= n
                self._churn_live_set(n)

    def _churn_live_set(self, n: int) -> None:
        """Replace ``n`` long-lived objects with freshly allocated ones.

        The replacements land at gen0 bump positions — i.e. scattered far
        from the packed gen2 block — degrading locality until the next
        compaction.
        """
        rng = self.rng
        ls = self.live_set
        indices = [int(rng.random() * ls.count) for _ in range(n)]
        # Replacements are interleaved with short-lived garbage in gen0
        # (the generational hypothesis): one live object per ~3 slots, so
        # scattered objects occupy roughly one cache line each — packing
        # them back at 2-per-line is the compaction win.
        new_addrs = [self.heap.allocate(ls.slot_bytes * 3) + ls.slot_bytes
                     for _ in indices]
        ls.scatter(indices, new_addrs)

    # -- allocation -------------------------------------------------------
    def allocate_batch_into(self, buf, n: int,
                            mean_size: int | None = None) -> None:
        """Allocate ``n`` short-lived objects; pushes allocator + init ops.

        Checks the GC trigger afterwards (allocation is the safe point).
        """
        heap = self.heap
        rng = self.rng
        mean_size = mean_size or heap.config.object_size_mean
        alloc_pc = self.image.regions["alloc"].base
        loh_threshold = heap.config.loh_threshold_bytes
        for _ in range(n):
            size = max(16, int(rng.expovariate(1.0 / mean_size)))
            if size >= loh_threshold:
                self.alloc_large_into(buf, size)
                continue
            addr = heap.allocate(size)
            buf.block(alloc_pc, self.ALLOC_FASTPATH_INSTR, 64)
            # Object initialization: header + field stores.
            for off in range(0, min(size, 256), 64):
                buf.store(addr + off)
        self.stats.allocations += n
        for _ in range(heap.take_allocation_ticks()):
            buf.event(EV_GC_ALLOCATION_TICK, None)
        if heap.needs_collection:
            self.maybe_collect_into(buf)

    def alloc_large_into(self, buf, size: int, zero: bool = True) -> None:
        """Allocate on the Large Object Heap (big arrays/buffers).

        The LOH allocator path is slower (free-list search, no bump fast
        path) and large objects are zero-initialized: a sequential store
        sweep that — for recycled segments — hits warm lines, the reason
        buffer pooling matters so much to real ASP.NET.
        """
        addr = self.heap.loh_alloc(size)
        alloc_pc = self.image.regions["alloc"].base + 2048
        buf.block(alloc_pc, self.ALLOC_FASTPATH_INSTR * 4, 256)
        if zero:
            step = 64
            for off in range(0, min(size, 16 * 1024), step):
                buf.store(addr + off)
        self.stats.allocations += 1
        self._last_loh = (addr, size)

    def free_large(self, addr: int, size: int) -> None:
        """Release a large object's segment for reuse."""
        self.heap.loh_free(addr, size)

    def maybe_collect_into(self, buf) -> None:
        """Run a collection if the heap has requested one."""
        if self.heap.needs_collection:
            self.gc.collect_into(buf, self.heap, self.live_set,
                                 compact=self.compaction_enabled)

    # -- exceptional control flow ------------------------------------------
    def throw_exception_into(self, buf) -> None:
        """First-chance exception: unwinder walk through CLR code."""
        self.stats.exceptions_thrown += 1
        buf.event(EV_EXCEPTION, None)
        rng = self.rng
        self.image.regions["exception"].walk_into(
            buf, rng, 2200, model=StackAddress(rng, self._stack_ptr))

    def contend_lock_into(self, buf) -> None:
        """Contended monitor enter: spin, then futex into the kernel."""
        self.stats.contentions += 1
        buf.event(EV_CONTENTION, None)
        rng = self.rng
        self.image.regions["threading"].walk_into(
            buf, rng, 600, model=ConstAddress(REGION_STACK_BASE + 0x10000))
        if self.syscalls is not None:
            self.syscalls.emit_into(buf, SyscallKind.FUTEX, rng)
