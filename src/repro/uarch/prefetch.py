"""Hardware prefetcher models.

The stream prefetcher tracks sequential line streams and prefetches a few
lines ahead — but, like the hardware the paper measured, it **never crosses
a 4 KiB page boundary**.  That single constraint produces the paper's JIT
finding: freshly JITed code pages always cold-miss because "traditional
prefetchers do not issue requests beyond the page boundary" (§VII-A1),
while *within* a JITed page data is prefetchable (the observed negative
correlation between JIT events and useless prefetches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.cache import Cache


@dataclass
class PrefetchStats:
    issued: int = 0
    page_bounded: int = 0        # prefetches suppressed at a page boundary

    def snapshot(self) -> "PrefetchStats":
        return PrefetchStats(self.issued, self.page_bounded)


class StreamPrefetcher:
    """Next-N-lines stream prefetcher bounded by the page size.

    A stream is recognised after two consecutive-line accesses in the same
    direction; once trained, each access prefetches ``degree`` lines ahead
    into ``target`` (tagged as prefetched so the cache can attribute
    useful/useless prefetches).
    """

    __slots__ = ("target", "degree", "line_size", "page_size", "_streams",
                 "max_streams", "stats", "fetch")

    def __init__(self, target: Cache, degree: int = 2,
                 page_size: int = 4096, max_streams: int = 16,
                 fetch=None) -> None:
        self.target = target
        self.degree = degree
        self.line_size = target.line_size
        self.page_size = page_size
        # stream table: page -> last line index within page
        self._streams: dict[int, int] = {}
        self.max_streams = max_streams
        self.stats = PrefetchStats()
        #: optional backing-fetch callback: called with the prefetch
        #: address before filling, so lower levels (LLC/DRAM) see the
        #: traffic and bandwidth is accounted
        self.fetch = fetch

    def observe(self, addr: int) -> None:
        """Feed a demand access; may issue prefetch fills into the cache."""
        line = addr // self.line_size
        page = addr // self.page_size
        last = self._streams.get(page)
        if last is not None and line in (last + 1, last + 2):
            # Trained stream: prefetch ahead, clamped to this page.
            page_last_line = ((page + 1) * self.page_size - 1) \
                // self.line_size
            for d in range(1, self.degree + 1):
                pf_line = line + d
                if pf_line > page_last_line:
                    self.stats.page_bounded += 1
                    break
                pf_addr = pf_line * self.line_size
                if not self.target.contains(pf_addr):
                    if self.fetch is not None:
                        self.fetch(pf_addr)
                    self.target.fill(pf_addr, prefetch=True)
                    self.stats.issued += 1
        if last is None and len(self._streams) >= self.max_streams:
            # Evict an arbitrary (oldest-inserted) stream.
            self._streams.pop(next(iter(self._streams)))
        self._streams[page] = line

    def reset_stats(self) -> None:
        self.stats = PrefetchStats()


class NextLinePrefetcher:
    """Next-line prefetcher (L1i fetch-ahead, L1d DCU prefetcher)."""

    __slots__ = ("target", "line_size", "page_size", "stats", "fetch",
                 "_last_line", "_line_shift", "_page_shift")

    def __init__(self, target: Cache, page_size: int = 4096,
                 fetch=None) -> None:
        self.target = target
        self.line_size = target.line_size
        self.page_size = page_size
        self.stats = PrefetchStats()
        self.fetch = fetch
        self._last_line = -1
        # line_size and page_size are powers of two on every Table II
        # machine; shifts replace the divisions in the per-access path.
        self._line_shift = self.line_size.bit_length() - 1
        self._page_shift = page_size.bit_length() - 1

    def observe(self, addr: int) -> None:
        line = addr >> self._line_shift
        if line == self._last_line:     # burst on one line: nothing new
            return
        self._last_line = line
        next_line = line + 1
        if (next_line << self._line_shift) >> self._page_shift \
                != addr >> self._page_shift:
            self.stats.page_bounded += 1
            return
        next_addr = next_line << self._line_shift
        if not self.target.contains(next_addr):
            if self.fetch is not None:
                self.fetch(next_addr)
            self.target.fill(next_addr, prefetch=True)
            self.stats.issued += 1

    def reset_stats(self) -> None:
        self.stats = PrefetchStats()
