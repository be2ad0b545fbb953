"""Generational managed heap: bump allocation, promotion, fragmentation.

The model tracks two populations:

* **gen0** — a bump-pointer nursery.  Allocations are sequential stores;
  most objects die before the next collection (generational hypothesis).
* **the long-lived set** — the application's persistent working set
  (caches, session state, static graphs).  Its *addresses* are what the
  data-locality model reads: packed after a compacting GC, increasingly
  scattered as churned objects are re-allocated at bump-pointer positions
  between collections.  This address churn is the entire cache story of
  Fig 13b / Fig 14.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from repro.trace import REGION_HEAP_BASE


@dataclass(frozen=True)
class HeapConfig:
    """Sizing knobs for one managed heap."""

    max_heap_bytes: int = 2_000 * 1024 * 1024
    gen0_budget_bytes: int = 128 * 1024
    #: allocations at or above this size go to the Large Object Heap
    #: (real .NET: 85,000 bytes; scaled with the capacity regime)
    loh_threshold_bytes: int = 4096
    object_size_mean: int = 56          # .NET objects are small
    #: EventPipe AllocationTick cadence (real .NET: 100 KiB; scaled down
    #: with the same factor as the gen0 budget so ticks stay observable
    #: within simulated instruction budgets)
    allocation_tick_bytes: int = 8 * 1024


@dataclass
class HeapStats:
    allocated_bytes: int = 0
    allocations: int = 0
    promoted_bytes: int = 0
    collections_requested: int = 0
    loh_allocations: int = 0
    loh_bytes: int = 0
    loh_reuses: int = 0

    def snapshot(self) -> "HeapStats":
        return HeapStats(self.allocated_bytes, self.allocations,
                         self.promoted_bytes, self.collections_requested)


class LongLivedSet:
    """Addresses of the persistent object working set.

    ``addrs[i]`` is the current address of logical object ``i``; the
    access-pattern layer indexes it with a Zipf-like distribution.  It is
    an int64 ``array`` of fixed length, mutated only by item assignment,
    so the native trace walker reads it in place.
    ``spread_span`` reports how many bytes of address space the set covers
    — packed it equals ``count * slot``, fragmented it can be many times
    larger.
    """

    def __init__(self, count: int, slot_bytes: int, base: int) -> None:
        self.count = count
        self.slot_bytes = slot_bytes
        self.addrs = array("q", [base + i * slot_bytes
                                 for i in range(count)])
        self.packed_base = base

    def compact(self, new_base: int) -> list[tuple[int, int]]:
        """Pack all objects contiguously at ``new_base`` (full GC).

        Returns ``(old_addr, new_addr)`` move pairs (used by the GC to
        model copy traffic).
        """
        moves = []
        for i in range(self.count):
            new_addr = new_base + i * self.slot_bytes
            if self.addrs[i] != new_addr:
                moves.append((self.addrs[i], new_addr))
            self.addrs[i] = new_addr
        self.packed_base = new_base
        return moves

    def scattered_indices(self, gen0_base: int) -> list[int]:
        """Objects currently living outside gen2 (churned -> in gen0)."""
        return [i for i, a in enumerate(self.addrs) if a >= gen0_base]

    def compact_scattered(self, gen0_base: int, alloc,
                          stride_slots: int = 1) -> list[tuple[int, int]]:
        """Ephemeral (gen0/gen1) collection: promote nursery survivors.

        Only objects whose current address lies in the nursery move; they
        are placed at fresh gen2 space obtained from ``alloc``.  A
        compacting collector packs them densely (``stride_slots=1``); a
        non-compacting (mark-sweep) collector re-homes them into free-list
        holes, which stay interleaved with other allocations
        (``stride_slots=2``) — same copy work, no density gain.
        """
        moves = []
        idxs = self.scattered_indices(gen0_base)
        if not idxs:
            return moves
        step = self.slot_bytes * stride_slots
        base = alloc(len(idxs) * step)
        for k, i in enumerate(idxs):
            new_addr = base + k * step
            moves.append((self.addrs[i], new_addr))
            self.addrs[i] = new_addr
        return moves

    def scatter(self, indices: list[int], new_addrs: list[int]) -> None:
        """Replace objects at ``indices`` with re-allocated ones (churn)."""
        for i, addr in zip(indices, new_addrs):
            self.addrs[i] = addr

    @property
    def spread_span(self) -> int:
        lo = min(self.addrs)
        hi = max(self.addrs)
        return hi - lo + self.slot_bytes

    @property
    def packed_span(self) -> int:
        return self.count * self.slot_bytes

    @property
    def fragmentation(self) -> float:
        """Cache-line density loss: occupied lines / minimum lines.

        1.0 means the set is as line-dense as physically possible (e.g.
        two 32-byte objects per 64-byte line); scattered sets approach
        one line per object.  This is the quantity compaction improves.
        """
        ideal = max(1, (self.count * self.slot_bytes + 63) // 64)
        actual = len({a >> 6 for a in self.addrs})
        return actual / ideal


class ManagedHeap:
    """One generational heap instance.

    Address layout (within :data:`REGION_HEAP_BASE`)::

        [ gen2 segment ............ ][ gen0/gen1 nursery .......... ]

    gen2 grows by compaction epochs: each compaction packs the long-lived
    set at a fresh gen2 frontier (real .NET compacts in place; using a
    fresh frontier keeps the model simple and only consumes virtual — not
    simulated-physical — space; the page-fault cost of touching the new
    frontier is real and is charged).
    """

    GEN2_SPAN = 512 * 1024 * 1024
    LOH_SPAN = 256 * 1024 * 1024

    def __init__(self, config: HeapConfig, seed: int = 0) -> None:
        self.config = config
        self.rng = random.Random(seed)
        self.gen2_base = REGION_HEAP_BASE
        self.gen2_ptr = self.gen2_base
        self.gen0_base = REGION_HEAP_BASE + self.GEN2_SPAN
        self.gen0_ptr = self.gen0_base
        self.gen0_allocated = 0
        self.loh_base = self.gen0_base + self.GEN2_SPAN
        self.loh_ptr = self.loh_base
        # The LOH is never compacted; freed segments go to a free list
        # keyed by size class and are reused — the source of its famous
        # fragmentation behavior (and of its cache friendliness for
        # repeated big-buffer workloads like the 2 MB ASP.NET responses).
        self._loh_free: dict[int, list[int]] = {}
        self.stats = HeapStats()
        self._tick_accum = 0
        self.needs_collection = False

    # -- allocation ----------------------------------------------------
    def allocate(self, size: int) -> int:
        """Bump-allocate ``size`` bytes in gen0; returns the address.

        Sets :attr:`needs_collection` when the gen0 budget is exhausted —
        the CLR facade checks it and runs a collection at a safe point.
        """
        size = (size + 7) & ~7
        addr = self.gen0_ptr
        self.gen0_ptr += size
        self.gen0_allocated += size
        st = self.stats
        st.allocated_bytes += size
        st.allocations += 1
        self._tick_accum += size
        if self.gen0_allocated >= self.config.gen0_budget_bytes:
            if not self.needs_collection:
                st.collections_requested += 1
            self.needs_collection = True
        return addr

    def take_allocation_ticks(self) -> int:
        """Number of AllocationTick events accumulated since last call."""
        ticks = self._tick_accum // self.config.allocation_tick_bytes
        self._tick_accum -= ticks * self.config.allocation_tick_bytes
        return ticks

    # -- collection support ---------------------------------------------
    def reset_nursery(self) -> None:
        """Called by the GC after a collection: reuse the nursery space."""
        self.gen0_ptr = self.gen0_base
        self.gen0_allocated = 0
        self.needs_collection = False

    def gen2_alloc(self, size: int) -> int:
        """Reserve gen2 space (promotion / compaction target)."""
        size = (size + 7) & ~7
        addr = self.gen2_ptr
        self.gen2_ptr += size
        self.stats.promoted_bytes += size
        return addr

    # -- large object heap -------------------------------------------------
    @staticmethod
    def _loh_size_class(size: int) -> int:
        """Round up to a power-of-two size class (free-list key)."""
        return 1 << max(12, (size - 1).bit_length())

    def loh_alloc(self, size: int) -> int:
        """Allocate a large object; reuses freed segments when possible."""
        cls = self._loh_size_class(size)
        free = self._loh_free.get(cls)
        st = self.stats
        st.loh_allocations += 1
        st.loh_bytes += cls
        if free:
            st.loh_reuses += 1
            return free.pop()
        addr = self.loh_ptr
        self.loh_ptr += cls
        return addr

    def loh_free(self, addr: int, size: int) -> None:
        """Return a large object's segment to the free list."""
        cls = self._loh_size_class(size)
        self._loh_free.setdefault(cls, []).append(addr)

    @property
    def loh_used(self) -> int:
        return self.loh_ptr - self.loh_base

    @property
    def gen0_used(self) -> int:
        return self.gen0_ptr - self.gen0_base

    @property
    def total_committed(self) -> int:
        return (self.gen2_ptr - self.gen2_base) + self.gen0_used
