"""TLB models: first-level I/D TLBs plus a shared second-level (S)TLB.

The paper's frontend findings (high I-TLB MPKI for .NET/ASP.NET, an order
of magnitude worse on Arm) come straight out of these structures: JITed
code pages occupy fresh virtual pages, so every newly emitted method costs
compulsory I-TLB misses, and small TLBs (the Arm preset) thrash on the
large CLR code footprint.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TlbStats:
    accesses: int = 0
    misses: int = 0          # misses in this TLB (may hit in the STLB)
    walks: int = 0           # misses that required a page walk

    def snapshot(self) -> "TlbStats":
        return TlbStats(self.accesses, self.misses, self.walks)


class Tlb:
    """Set-associative TLB with LRU replacement.

    ``entries`` is the total number of entries; ``ways`` the associativity
    (``ways == entries`` gives a fully-associative TLB, common for first
    level I-TLBs).
    """

    __slots__ = ("name", "entries", "ways", "page_shift", "n_sets",
                 "_index_mask", "_sets", "stats", "_resident")

    def __init__(self, name: str, entries: int, ways: int | None = None,
                 page_size: int = 4096) -> None:
        if ways is None or ways >= entries:
            ways = entries
        if entries % ways != 0:
            raise ValueError(f"{name}: entries {entries} not divisible by "
                             f"ways {ways}")
        n_sets = entries // ways
        if n_sets & (n_sets - 1):
            raise ValueError(f"{name}: set count {n_sets} must be a power "
                             f"of two")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.page_shift = page_size.bit_length() - 1
        self.n_sets = n_sets
        self._index_mask = n_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(n_sets)]
        # All resident VPNs (a VPN maps to exactly one set): O(1) miss
        # detection, which matters for the wide fully-associative first
        # levels where a miss otherwise scans every entry.
        self._resident: set[int] = set()
        self.stats = TlbStats()

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns ``True`` on hit."""
        self.stats.accesses += 1
        vpn = addr >> self.page_shift
        if vpn not in self._resident:
            self.stats.misses += 1
            return False
        bucket = self._sets[vpn & self._index_mask]
        if bucket[-1] != vpn:              # resident but not at MRU
            for i in range(len(bucket) - 2, -1, -1):
                if bucket[i] == vpn:
                    bucket.append(bucket.pop(i))
                    break
        return True

    def fill(self, addr: int) -> None:
        vpn = addr >> self.page_shift
        if vpn in self._resident:
            return
        bucket = self._sets[vpn & self._index_mask]
        if len(bucket) >= self.ways:
            self._resident.discard(bucket.pop(0))
        self._resident.add(vpn)
        bucket.append(vpn)

    def resident_vpns(self):
        """Sorted ``int64`` array of all resident VPNs (non-mutating)."""
        import numpy as np
        n = len(self._resident)
        out = np.fromiter(self._resident, dtype=np.int64, count=n)
        out.sort()
        return out

    def reset_stats(self) -> None:
        self.stats = TlbStats()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Tlb({self.name}, {self.entries} entries, {self.ways}-way)"


#: Translation service levels returned by :meth:`TlbHierarchy.access`.
TLB_L1 = 1
TLB_STLB = 2
TLB_WALK = 3


class TlbHierarchy:
    """A first-level TLB backed by an optional shared second-level TLB.

    Returns where the translation was found; a ``TLB_WALK`` result means a
    page walk was needed, whose latency the pipeline charges to the
    frontend (I-side) or backend (D-side).
    """

    def __init__(self, l1: Tlb, stlb: Tlb | None = None) -> None:
        self.l1 = l1
        self.stlb = stlb

    def access(self, addr: int) -> int:
        if self.l1.access(addr):
            return TLB_L1
        if self.stlb is not None and self.stlb.access(addr):
            self.l1.fill(addr)
            return TLB_STLB
        self.l1.stats.walks += 1
        if self.stlb is not None:
            self.stlb.fill(addr)
        self.l1.fill(addr)
        return TLB_WALK
