"""Virtual memory model: demand paging and page-fault accounting.

Pages become *mapped* the first time they are touched (demand paging).
Because a first touch always implies a TLB walk, the pipeline only needs to
consult :meth:`VirtualMemory.touch` on TLB-walk paths, keeping the fault
check off the hot path.

Page faults feed Table I metric 18 (page faults PKI).  JITed code pages and
ever-growing gen0 allocation frontiers both generate first-touch faults,
which is how the paper's "ASP.NET has ~300x the page faults of SPEC"
observation arises in this model.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.trace import PAGE_SIZE


@dataclass
class VmStats:
    minor_faults: int = 0
    major_faults: int = 0
    mapped_pages: int = 0
    unmapped_pages: int = 0       # pages released (e.g. decommitted heap)

    @property
    def faults(self) -> int:
        return self.minor_faults + self.major_faults

    def snapshot(self) -> "VmStats":
        return VmStats(self.minor_faults, self.major_faults,
                       self.mapped_pages, self.unmapped_pages)


class VirtualMemory:
    """Tracks which virtual pages of one address space are mapped.

    Mapped pages live in two disjoint stores:

    * premapped memory as a sorted list of disjoint, merged page ranges
      (``_starts[i] <= vpn < _ends[i]``) — SPEC's static working set is
      one range of ~10^5-10^6 pages, so it costs two ints instead of a
      set entry per page;
    * demand-faulted pages in ``_demand``, a set that never holds a page
      inside a range (a premap over faulted pages absorbs them).

    ``major_fault_fraction`` models the small fraction of faults that hit
    backing storage (file-backed code pages on first load).
    """

    #: cycles charged for servicing a fault (handler runs in kernel mode).
    #: Scaled below the real ~1-4k/60k+ cycle costs because fault *rates*
    #: are inflated in short simulated windows (first-touch transients
    #: that would amortize over billions of instructions) — same scale
    #: treatment as the GC budgets.
    MINOR_FAULT_CYCLES = 250
    MAJOR_FAULT_CYCLES = 20_000

    def __init__(self, page_size: int = PAGE_SIZE,
                 major_fault_fraction: float = 0.002) -> None:
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._demand: set[int] = set()
        self.major_fault_fraction = major_fault_fraction
        self.stats = VmStats()
        self._fault_seq = 0
        # Bumped on every premap/unmap.  With len(_demand) it forms the
        # key repro.uarch.native caches its exported page table on:
        # touches only ever grow the demand set, so any other change to
        # the mapping goes through a premap or unmap and bumps this.
        self._map_epoch = 0

    def _in_ranges(self, vpn: int) -> bool:
        i = bisect_right(self._starts, vpn) - 1
        return i >= 0 and vpn < self._ends[i]

    def _pages(self, start: int, length: int) -> tuple[int, int]:
        """Half-open page span ``[lo, hi)`` covering the byte range."""
        lo = start >> self._page_shift
        return lo, ((start + max(length, 1) - 1) >> self._page_shift) + 1

    def _take_demand(self, lo: int, hi: int) -> int:
        """Drop demand pages in ``[lo, hi)``; return how many there were."""
        demand = self._demand
        if hi - lo <= len(demand):
            hits = demand.intersection(range(lo, hi))
        else:
            hits = {v for v in demand if lo <= v < hi}
        demand.difference_update(hits)
        return len(hits)

    def touch(self, addr: int) -> int:
        """Record an access to ``addr``.

        Returns the fault-handling cost in cycles (0 if the page was
        already mapped).
        """
        vpn = addr >> self._page_shift
        if vpn in self._demand or self._in_ranges(vpn):
            return 0
        self._demand.add(vpn)
        self.stats.mapped_pages += 1
        self._fault_seq += 1
        # Deterministic "every Nth fault is major" approximation.
        if (self.major_fault_fraction > 0
                and self._fault_seq % max(1, round(1 / self.major_fault_fraction)) == 0):
            self.stats.major_faults += 1
            return self.MAJOR_FAULT_CYCLES
        self.stats.minor_faults += 1
        return self.MINOR_FAULT_CYCLES

    def is_mapped(self, addr: int) -> bool:
        vpn = addr >> self._page_shift
        return vpn in self._demand or self._in_ranges(vpn)

    def premap_range(self, start: int, length: int) -> None:
        """Map ``[start, start+length)`` without faulting.

        Used for warm regions measurement should not see faults for (e.g.
        SPEC's statically initialized working set, the kernel image).
        """
        lo, hi = self._pages(start, length)
        starts, ends = self._starts, self._ends
        # Ranges i..j-1 overlap or abut [lo, hi); they merge into one.
        i = bisect_left(ends, lo)
        j = bisect_right(starts, hi)
        covered = sum(max(0, min(e, hi) - max(s, lo))
                      for s, e in zip(starts[i:j], ends[i:j]))
        fresh = hi - lo - covered - self._take_demand(lo, hi)
        if i < j:
            lo, hi = min(lo, starts[i]), max(hi, ends[j - 1])
        starts[i:j] = [lo]
        ends[i:j] = [hi]
        self.stats.mapped_pages += fresh
        self._map_epoch += 1

    def unmap_range(self, start: int, length: int) -> None:
        """Decommit pages (heap shrink after GC); future touches fault again."""
        lo, hi = self._pages(start, length)
        starts, ends = self._starts, self._ends
        # Ranges i..j-1 overlap [lo, hi); the parts outside it survive,
        # so a range straddling both edges splits in two.
        i = bisect_right(ends, lo)
        j = bisect_left(starts, hi)
        removed = self._take_demand(lo, hi)
        if i < j:
            removed += sum(min(e, hi) - max(s, lo)
                           for s, e in zip(starts[i:j], ends[i:j]))
            keep = [(s, e) for s, e in ((starts[i], lo), (hi, ends[j - 1]))
                    if s < e]
            starts[i:j] = [s for s, _ in keep]
            ends[i:j] = [e for _, e in keep]
        self.stats.unmapped_pages += removed
        self._map_epoch += 1

    @property
    def resident_bytes(self) -> int:
        ranged = sum(e - s for s, e in zip(self._starts, self._ends))
        return (ranged + len(self._demand)) * self.page_size

    def reset_stats(self) -> None:
        self.stats = VmStats()
