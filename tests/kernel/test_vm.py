"""Tests for virtual memory / demand paging."""

from hypothesis import given, settings, strategies as st

from repro.kernel.vm import VirtualMemory, VmStats


class TestDemandPaging:
    def test_first_touch_faults(self):
        vm = VirtualMemory()
        cost = vm.touch(0x1000)
        assert cost > 0
        assert vm.stats.faults == 1

    def test_second_touch_free(self):
        vm = VirtualMemory()
        vm.touch(0x1000)
        assert vm.touch(0x1234) == 0         # same page
        assert vm.stats.faults == 1

    def test_distinct_pages_fault_separately(self):
        vm = VirtualMemory()
        vm.touch(0x0)
        vm.touch(0x1000)
        vm.touch(0x2000)
        assert vm.stats.faults == 3

    def test_major_fault_cadence(self):
        vm = VirtualMemory(major_fault_fraction=0.5)
        vm.touch(0x0000)
        vm.touch(0x1000)
        vm.touch(0x2000)
        vm.touch(0x3000)
        assert vm.stats.major_faults == 2
        assert vm.stats.minor_faults == 2

    def test_major_faults_cost_more(self):
        assert VirtualMemory.MAJOR_FAULT_CYCLES \
            > VirtualMemory.MINOR_FAULT_CYCLES


class TestPremapUnmap:
    def test_premap_prevents_faults(self):
        vm = VirtualMemory()
        vm.premap_range(0x10000, 8192)
        assert vm.touch(0x10000) == 0
        assert vm.touch(0x11000) == 0
        assert vm.stats.faults == 0

    def test_premap_covers_partial_pages(self):
        vm = VirtualMemory()
        vm.premap_range(0x10FFF, 2)          # straddles two pages
        assert vm.is_mapped(0x10000)
        assert vm.is_mapped(0x11000)

    def test_unmap_causes_refault(self):
        vm = VirtualMemory()
        vm.touch(0x10000)
        vm.unmap_range(0x10000, 4096)
        assert vm.stats.unmapped_pages == 1
        assert vm.touch(0x10000) > 0

    def test_resident_bytes(self):
        vm = VirtualMemory()
        vm.premap_range(0, 3 * 4096)
        assert vm.resident_bytes == 3 * 4096

    def test_reset_stats_keeps_mappings(self):
        vm = VirtualMemory()
        vm.touch(0x5000)
        vm.reset_stats()
        assert vm.stats.faults == 0
        assert vm.touch(0x5000) == 0


@given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1,
                max_size=200))
@settings(max_examples=50, deadline=None)
def test_property_fault_count_equals_distinct_pages(addrs):
    vm = VirtualMemory(major_fault_fraction=0.0)
    for a in addrs:
        vm.touch(a)
    assert vm.stats.faults == len({a >> 12 for a in addrs})
    assert vm.stats.mapped_pages == vm.stats.faults


# ---------------------------------------------------------------------------
# Differential test: the range table against a plain-set reference model.

PAGE = 4096
WINDOW = 48          # pages the generated operations land in


class _SetVm:
    """Reference page table: one ``set`` of mapped page numbers.

    The semantics :class:`VirtualMemory` must keep, written the obvious
    way: premap/unmap add/remove every page of the byte range, a touch
    of an unmapped page faults, and every Nth fault is major.
    """

    def __init__(self, major_fault_fraction: float) -> None:
        self.mapped: set[int] = set()
        self.stats = VmStats()
        self.seq = 0
        self.period = (max(1, round(1 / major_fault_fraction))
                       if major_fault_fraction > 0 else 0)

    @staticmethod
    def _pages(start: int, length: int) -> range:
        return range(start // PAGE, (start + max(length, 1) - 1) // PAGE + 1)

    def touch(self, addr: int) -> int:
        vpn = addr // PAGE
        if vpn in self.mapped:
            return 0
        self.mapped.add(vpn)
        self.stats.mapped_pages += 1
        self.seq += 1
        if self.period and self.seq % self.period == 0:
            self.stats.major_faults += 1
            return VirtualMemory.MAJOR_FAULT_CYCLES
        self.stats.minor_faults += 1
        return VirtualMemory.MINOR_FAULT_CYCLES

    def premap_range(self, start: int, length: int) -> None:
        pages = set(self._pages(start, length))
        self.stats.mapped_pages += len(pages - self.mapped)
        self.mapped |= pages

    def unmap_range(self, start: int, length: int) -> None:
        pages = set(self._pages(start, length))
        self.stats.unmapped_pages += len(pages & self.mapped)
        self.mapped -= pages


def _assert_invariants(vm: VirtualMemory) -> None:
    """Ranges sorted, disjoint and merged; no demand page inside one."""
    spans = list(zip(vm._starts, vm._ends))
    assert all(s < e for s, e in spans)
    assert all(e0 < s1 for (_, e0), (s1, _) in zip(spans, spans[1:]))
    assert not any(s <= v < e for v in vm._demand for s, e in spans)


_addr = st.integers(min_value=0, max_value=WINDOW * PAGE - 1)
# Lengths from sub-page (page-straddling when the start is unaligned) to
# wider than the window; 0 maps the start's page, like a 1-byte range.
_length = st.one_of(st.integers(min_value=0, max_value=2 * PAGE),
                    st.integers(min_value=0, max_value=20).map(
                        lambda n: n * PAGE),
                    st.integers(min_value=0, max_value=WINDOW * PAGE))
_op = st.one_of(st.tuples(st.just("premap"), _addr, _length),
                st.tuples(st.just("unmap"), _addr, _length),
                st.tuples(st.just("touch"), _addr))


@given(st.lists(_op, min_size=1, max_size=60),
       st.sampled_from([0.0, 0.25, 0.002]))
@settings(max_examples=300, deadline=None)
def test_property_ranges_match_set_model(ops, frac):
    """Random premap/unmap/touch sequences: overlapping premaps, premaps
    over faulted pages, unmaps that split a range.  Every observable
    matches the set model after every step."""
    vm = VirtualMemory(major_fault_fraction=frac)
    ref = _SetVm(frac)
    for op in ops:
        if op[0] == "touch":
            assert vm.touch(op[1]) == ref.touch(op[1])
        elif op[0] == "premap":
            vm.premap_range(op[1], op[2])
            ref.premap_range(op[1], op[2])
        else:
            vm.unmap_range(op[1], op[2])
            ref.unmap_range(op[1], op[2])
        _assert_invariants(vm)
        assert vm.stats == ref.stats
        assert vm.stats.faults == ref.stats.faults
        assert vm.resident_bytes == len(ref.mapped) * PAGE
        for vpn in range(-1, 2 * WINDOW + 2):
            assert vm.is_mapped(vpn * PAGE + 7) == (vpn in ref.mapped)


def test_premap_absorbs_faulted_pages_and_merges():
    vm = VirtualMemory()
    vm.touch(5 * PAGE)
    vm.touch(9 * PAGE)
    vm.premap_range(4 * PAGE, 3 * PAGE)       # pages 4-6, absorbs 5
    vm.premap_range(7 * PAGE, PAGE)           # abuts: merges to 4-7
    assert list(zip(vm._starts, vm._ends)) == [(4, 8)]
    assert vm._demand == {9}
    assert vm.stats.mapped_pages == 2 + 2 + 1   # page 5 was mapped
    vm.unmap_range(5 * PAGE + 100, 10)        # splits 4-7 around page 5
    assert list(zip(vm._starts, vm._ends)) == [(4, 5), (6, 8)]
    assert vm.stats.unmapped_pages == 1
    assert vm.resident_bytes == 4 * PAGE
