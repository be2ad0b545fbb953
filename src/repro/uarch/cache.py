"""Set-associative cache model with LRU replacement.

The cache is the basic building block of the memory hierarchy used by the
pipeline model (:mod:`repro.uarch.pipeline`).  It is trace-driven: callers
invoke :meth:`Cache.access` per memory reference (or per fetch packet for
instruction caches) and the cache records hit/miss statistics that later
surface as the MPKI metrics of Table I of the paper.

Lines inserted by the prefetcher are tagged so that *useless prefetches*
(prefetched lines evicted before their first demand hit) can be counted —
the paper uses this counter in the JIT correlation study (Fig 13a).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Aggregate statistics for one cache instance."""

    accesses: int = 0
    misses: int = 0
    demand_accesses: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    useful_prefetches: int = 0
    useless_prefetches: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Demand miss rate in [0, 1]; zero when the cache was never used."""
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def snapshot(self) -> "CacheStats":
        """Return a copy; used by the sampling layer to compute deltas."""
        return CacheStats(
            accesses=self.accesses,
            misses=self.misses,
            demand_accesses=self.demand_accesses,
            demand_misses=self.demand_misses,
            prefetch_fills=self.prefetch_fills,
            useful_prefetches=self.useful_prefetches,
            useless_prefetches=self.useless_prefetches,
            evictions=self.evictions,
            writebacks=self.writebacks,
        )


class ReplacementPolicy:
    """Supported replacement policies (see :class:`Cache`)."""

    LRU = "lru"          # true LRU (move-to-MRU on hit)
    FIFO = "fifo"        # insertion order, hits don't promote
    RANDOM = "random"    # uniform random victim (deterministic LCG)
    ALL = (LRU, FIFO, RANDOM)


class Cache:
    """A single level of set-associative cache.

    Parameters
    ----------
    name:
        Human-readable identifier (``"L1d"``, ``"LLC"``, ...).
    size_bytes:
        Total capacity.  Must be ``ways * line_size * n_sets`` with a
        power-of-two number of sets.
    line_size:
        Line size in bytes (64 for every machine in Table II).
    ways:
        Associativity.
    policy:
        Replacement policy (:class:`ReplacementPolicy`); true LRU by
        default, matching the Table II machines closely enough for
        characterization (the ablation bench quantifies the difference).
    """

    __slots__ = ("name", "size_bytes", "line_size", "ways", "n_sets",
                 "_index_mask", "_line_shift", "_sets", "stats",
                 "policy", "_lru", "_evict_head", "_rand_state", "_lines")

    def __init__(self, name: str, size_bytes: int, line_size: int = 64,
                 ways: int = 8,
                 policy: str = ReplacementPolicy.LRU) -> None:
        if size_bytes % (line_size * ways) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line_size*ways={line_size * ways}")
        n_sets = size_bytes // (line_size * ways)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{name}: number of sets {n_sets} must be a "
                             f"power of two")
        if policy not in ReplacementPolicy.ALL:
            raise ValueError(f"{name}: unknown replacement policy "
                             f"{policy!r}")
        self.name = name
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.ways = ways
        self.n_sets = n_sets
        self._index_mask = n_sets - 1
        self._line_shift = line_size.bit_length() - 1
        # Each set is a list of [tag, is_prefetch, was_used, dirty].
        # Under LRU the list is ordered LRU -> MRU; under FIFO it is
        # insertion-ordered.  Associativities are small (<= 20 in the
        # Table II machines) so linear scans beat fancier structures.
        self._sets: list[list[list]] = [[] for _ in range(n_sets)]
        self.stats = CacheStats()
        self.policy = policy
        self._lru = policy == ReplacementPolicy.LRU
        self._evict_head = policy != ReplacementPolicy.RANDOM
        self._rand_state = 0x9E3779B9      # deterministic LCG for RANDOM
        # All resident line numbers.  A line maps to exactly one set, so
        # membership here mirrors membership in `_sets`; it gives O(1)
        # miss detection / `contains` / `occupancy` while the per-set
        # lists keep carrying the replacement order and line flags.
        self._lines: set[int] = set()

    # ------------------------------------------------------------------
    def access(self, addr: int, is_write: bool = False) -> bool:
        """Demand access.  Returns ``True`` on hit.

        On a miss the line is *not* filled automatically — the hierarchy
        decides where fills happen (see :class:`CacheHierarchy`), which keeps
        inclusive/exclusive policy decisions out of this class.
        """
        st = self.stats
        st.accesses += 1
        st.demand_accesses += 1
        line = addr >> self._line_shift
        if line not in self._lines:
            st.misses += 1
            st.demand_misses += 1
            return False
        bucket = self._sets[line & self._index_mask]
        entry = bucket[-1]
        if entry[0] != line:               # resident but not at MRU
            for i in range(len(bucket) - 2, -1, -1):
                if bucket[i][0] == line:
                    entry = bucket[i]
                    if self._lru:
                        bucket.append(bucket.pop(i))
                    break
        if entry[1] and not entry[2]:
            st.useful_prefetches += 1
        entry[2] = True
        if is_write:
            entry[3] = True
        return True

    def _victim_index(self, bucket) -> int:
        if self.policy == ReplacementPolicy.RANDOM:
            self._rand_state = (self._rand_state * 1103515245
                                + 12345) & 0x7FFFFFFF
            return self._rand_state % len(bucket)
        return 0                            # LRU and FIFO both evict head

    def fill(self, addr: int, prefetch: bool = False,
             dirty: bool = False) -> None:
        """Insert the line containing ``addr``."""
        line = addr >> self._line_shift
        lines = self._lines
        bucket = self._sets[line & self._index_mask]
        if line in lines:                 # already present (e.g. prefetch race)
            for i, entry in enumerate(bucket):
                if entry[0] == line:
                    entry[2] = entry[2] or not prefetch
                    entry[3] = entry[3] or dirty
                    if self._lru and i != len(bucket) - 1:
                        bucket.append(bucket.pop(i))
                    return
        st = self.stats
        if prefetch:
            st.prefetch_fills += 1
        if len(bucket) >= self.ways:
            victim = bucket.pop(0) if self._evict_head \
                else bucket.pop(self._victim_index(bucket))
            lines.discard(victim[0])
            st.evictions += 1
            if victim[1] and not victim[2]:
                st.useless_prefetches += 1
            if victim[3]:
                st.writebacks += 1
        lines.add(line)
        bucket.append([line, prefetch, not prefetch, dirty])

    def contains(self, addr: int) -> bool:
        """Non-destructive lookup (does not update LRU or stats)."""
        return (addr >> self._line_shift) in self._lines

    def invalidate_range(self, start: int, length: int) -> int:
        """Invalidate all lines overlapping ``[start, start+length)``.

        Returns the number of lines invalidated.  Used when code pages are
        re-JITed in place (the ablation path) and by tests.
        """
        first = start >> self._line_shift
        last = (start + max(length, 1) - 1) >> self._line_shift
        invalidated = 0
        lines = self._lines
        for line in range(first, last + 1):
            if line not in lines:
                continue
            bucket = self._sets[line & self._index_mask]
            for i, entry in enumerate(bucket):
                if entry[0] == line:
                    bucket.pop(i)
                    lines.discard(line)
                    invalidated += 1
                    break
        return invalidated

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident.

        Maintained incrementally by :meth:`fill` / :meth:`invalidate_range`
        (the ``_lines`` membership set) — the sampler polls this per
        bucket, and summing thousands of sets per poll showed up in
        profiles.
        """
        return len(self._lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Cache({self.name}, {self.size_bytes >> 10}KiB, "
                f"{self.ways}-way, {self.n_sets} sets)")


#: Service levels returned by :meth:`CacheHierarchy.access`.
L1 = 1
L2 = 2
L3 = 3
DRAM = 4


class CacheHierarchy:
    """Three-level cache hierarchy (L1 -> L2 -> LLC -> DRAM).

    ``access`` walks the levels, fills on the way back (allocate-on-miss at
    every level, a reasonable model of the mostly-inclusive Intel hierarchies
    in Table II) and returns the level that serviced the request.
    """

    def __init__(self, l1: Cache, l2: Cache, llc: Cache | None) -> None:
        self.l1 = l1
        self.l2 = l2
        self.llc = llc

    def access(self, addr: int, is_write: bool = False) -> int:
        if self.l1.access(addr, is_write):
            return L1
        if self.l2.access(addr, is_write):
            self.l1.fill(addr, dirty=is_write)
            return L2
        if self.llc is not None:
            if self.llc.access(addr, is_write):
                self.l2.fill(addr)
                self.l1.fill(addr, dirty=is_write)
                return L3
            self.llc.fill(addr)
        self.l2.fill(addr)
        self.l1.fill(addr, dirty=is_write)
        return DRAM if self.llc is not None else L3

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.l2.reset_stats()
        if self.llc is not None:
            self.llc.reset_stats()
