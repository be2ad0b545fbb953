"""The core pipeline model: consumes trace ops, produces counters + Top-Down.

This is a *slot-accounting* model rather than a cycle-accurate OoO
simulator: every stall source deposits stall cycles into a leaf bucket of
the Top-Down hierarchy as it happens (Yasin's methodology computes the
same attribution post-hoc from PMU counters; we have the luxury of doing
it inline).  Total cycles are::

    cycles = uops / width  (ideal issue)  +  sum(all stall buckets)

so Top-Down percentages sum to 100% by construction.

The frontend is simulated per 64 B code line (I-TLB on page change, L1i +
DSB per line), the backend per memory op — about one structure access per
simulated instruction.  :meth:`Core.consume_buffer` is the readable
Python engine; the native kernel (:mod:`repro.uarch.native`) runs the
same model and is pinned bit-identical to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.trace import (BLOCK_KERNEL_SHIFT, BLOCK_NBYTES_MASK,
                         EV_JIT_CODE_EMITTED, EV_JIT_CODE_MOVED)
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import Cache, L2, L3, DRAM
from repro.uarch.machine import MachineConfig
from repro.uarch.memory import DramModel
from repro.uarch.prefetch import NextLinePrefetcher, StreamPrefetcher
from repro.uarch.tlb import Tlb, TlbHierarchy, TLB_WALK

# Top-Down leaf bucket names (stall-cycle accumulators).
FE_ICACHE = "fe_icache"
FE_ITLB = "fe_itlb"
FE_RESTEER = "fe_resteer"
FE_MS = "fe_ms_switches"
FE_IFAULT = "fe_ifault"
FE_DSB_BW = "fe_dsb_bandwidth"
FE_MITE_BW = "fe_mite_bandwidth"
BAD_SPEC = "bad_speculation"
BE_L1 = "be_l1_bound"
BE_L2 = "be_l2_bound"
BE_L3 = "be_l3_bound"
BE_DRAM = "be_dram_bound"
BE_DTLB = "be_dtlb_bound"
BE_STORE = "be_store_bound"
BE_DFAULT = "be_dfault"
BE_DIV = "be_divider"
BE_PORTS = "be_ports_utilization"

ALL_BUCKETS = (FE_ICACHE, FE_ITLB, FE_RESTEER, FE_MS, FE_IFAULT,
               FE_DSB_BW, FE_MITE_BW, BAD_SPEC,
               BE_L1, BE_L2, BE_L3, BE_DRAM, BE_DTLB, BE_STORE, BE_DFAULT,
               BE_DIV, BE_PORTS)

FRONTEND_LATENCY = (FE_ICACHE, FE_ITLB, FE_RESTEER, FE_MS, FE_IFAULT)
FRONTEND_BANDWIDTH = (FE_DSB_BW, FE_MITE_BW)
BACKEND_MEMORY = (BE_L1, BE_L2, BE_L3, BE_DRAM, BE_DTLB, BE_STORE, BE_DFAULT)
BACKEND_CORE = (BE_DIV, BE_PORTS)


@dataclass
class WorkloadHints:
    """Per-workload execution-shape hints the trace doesn't carry.

    These describe properties of the *code* being simulated (its intrinsic
    ILP, pointer-chasing-ness, microcode usage), not of the machine.
    """

    ilp: float = 2.6               # intrinsic instruction-level parallelism
    mlp: float = 3.0               # overlapping demand misses
    uop_factor: float = 1.12       # uops per instruction
    microcode_frac: float = 0.004  # instrs needing the MS-ROM
    div_frac: float = 0.002        # divide instructions
    cpu_utilization: float = 1.0   # fraction of one logical CPU used


def _pick_ways(entries: int, preferred: int = 8) -> int:
    """Largest ways <= preferred such that entries/ways is a power of two."""
    for ways in range(min(preferred, entries), 0, -1):
        if entries % ways == 0:
            sets = entries // ways
            if sets & (sets - 1) == 0:
                return ways
    return 1


@dataclass
class CoreCounts:
    """Raw architectural event counts (the 'perf stat' view)."""

    instructions: int = 0
    kernel_instructions: int = 0
    branches: int = 0
    loads: int = 0
    stores: int = 0
    dtlb_load_walks: int = 0
    dtlb_store_walks: int = 0
    itlb_walks: int = 0
    uops: float = 0.0

    def snapshot(self) -> "CoreCounts":
        return CoreCounts(self.instructions, self.kernel_instructions,
                          self.branches, self.loads, self.stores,
                          self.dtlb_load_walks, self.dtlb_store_walks,
                          self.itlb_walks, self.uops)


class Core:
    """One simulated core: frontend + backend structures + slot accounting.

    Parameters
    ----------
    machine:
        Hardware configuration (Table II preset).
    vm:
        The process's virtual-memory map (page-fault source).
    shared_llc:
        Optional shared LLC (multicore runs); ``None`` gives the core a
        private LLC, appropriate for single-process characterization.
    """

    # Fractions of miss latency that OoO execution hides.
    ICACHE_OVERLAP = 0.35
    ITLB_OVERLAP = 0.30
    DATA_OVERLAP = 0.15
    L1_VISIBLE = 0.055             # visible fraction of an L1 hit's latency
    DIV_PENALTY = 9.0
    STORE_MISS_PENALTY = 2.0
    TAKEN_BRANCH_BUBBLE = 0.45     # packet-break cycles per taken branch
    MITE_EFFICIENCY = 0.70

    def __init__(self, machine: MachineConfig, vm: VirtualMemory,
                 shared_llc=None, core_id: int = 0) -> None:
        self.machine = machine
        self.vm = vm
        self.core_id = core_id
        m = machine
        l1i = m.sim_cache(m.l1i, small=True)
        l1d = m.sim_cache(m.l1d, small=True)
        l2 = m.sim_cache(m.l2)
        llc = m.sim_cache(m.llc)
        itlb = m.sim_tlb(m.itlb)
        dtlb = m.sim_tlb(m.dtlb)
        stlb = m.sim_tlb(m.stlb)
        self.l1i = Cache(f"L1i{core_id}", l1i.size_bytes, l1i.line_size,
                         l1i.ways)
        self.l1d = Cache(f"L1d{core_id}", l1d.size_bytes, l1d.line_size,
                         l1d.ways)
        self.l2 = Cache(f"L2-{core_id}", l2.size_bytes, l2.line_size,
                        l2.ways)
        self.shared_llc = shared_llc
        if shared_llc is None:
            self.llc = Cache("LLC", llc.size_bytes, llc.line_size, llc.ways)
        else:
            self.llc = shared_llc.cache
        # The second-level TLB is unified: instruction and data
        # translations compete for it (as on real Intel and Arm cores) —
        # this is what exposes large code footprints to D-side pressure.
        shared_stlb = Tlb(f"STLB{core_id}", stlb.entries, stlb.ways,
                          m.page_size)
        self.itlb = TlbHierarchy(
            Tlb(f"iTLB{core_id}", itlb.entries, itlb.ways, m.page_size),
            shared_stlb)
        self.dtlb = TlbHierarchy(
            Tlb(f"dTLB{core_id}", dtlb.entries, dtlb.ways, m.page_size),
            shared_stlb)
        self.branch_unit = BranchUnit(m.sim_bp_table_bits, m.bp_history_bits,
                                      m.sim_btb_entries, m.btb_ways)
        dsb_bytes = m.sim_dsb_entries * 16
        dsb_ways = _pick_ways(dsb_bytes // 64, 8)
        self.dsb = Cache(f"DSB{core_id}", dsb_bytes, 64, dsb_ways)
        self.l2_prefetcher = StreamPrefetcher(self.l2, degree=2,
                                              page_size=m.page_size,
                                              fetch=self._prefetch_backing)
        self.l1i_prefetcher = NextLinePrefetcher(self.l1i, m.page_size)
        self.l1d_prefetcher = NextLinePrefetcher(
            self.l1d, m.page_size, fetch=self._l1_prefetch_backing)
        self.dram = DramModel(m.dram_banks, base_latency=m.dram_latency,
                              row_miss_extra=m.dram_row_miss_extra)
        self.counts = CoreCounts()
        self.stalls: dict[str, float] = {b: 0.0 for b in ALL_BUCKETS}
        self.hints = WorkloadHints()
        self._last_code_line = -1
        self._last_code_page = -1
        self._last_data_vpn = -1        # 1-entry micro-TLB (AGU filter)
        self._kernel_mode = False
        # Periodic callback support (sampling).
        self.cycle_hook = None           # callable(core) -> None
        self.cycle_hook_interval = 0.0   # in cycles; 0 disables
        self._next_hook_cycles = float("inf")
        self.event_hook = None           # callable(kind, payload, cycles)
        self._ideal_cycles = 0.0
        #: engine the latest consume call actually ran ("batched" or
        #: "vector"); None before the first call
        self.last_engine = None
        #: the native image holding this core's structures between
        #: vector consume calls (see :meth:`sync_native`), or None
        self._native_image = None

    def __getstate__(self) -> dict:
        self.sync_native()          # never pickle structures left in C
        return self.__dict__

    def sync_native(self) -> None:
        """Bring structures resident in the native kernel back to Python.

        The vector engine keeps caches, TLBs, predictors, prefetcher
        streams and DRAM rows in the core's native image from the first
        vector consume on; while it is attached their Python containers
        are ``None``.  Counters, stalls and every ``.stats`` object are
        always current after a consume call returns.  Call this before
        reading structure state (cache contents, predictor tables);
        every Python engine entry and pickling call it implicitly.  For
        cores sharing an LLC it syncs all of them, also when this core
        has no image of its own but the LLC's arrays live in another
        core's.  A no-op when nothing is attached.  Sync before swapping
        a structure object (a cache, TLB, predictor, prefetcher, DRAM
        model or VM) on a core that has run on the vector engine.
        """
        img = self._native_image
        if img is None and self.shared_llc is not None:
            group = self.shared_llc._native_group
            img = group[0] if group else None
        if img is not None:
            img.writeback(sync=True)

    # ------------------------------------------------------------------
    def set_hints(self, hints: WorkloadHints) -> None:
        self.hints = hints

    def set_cycle_hook(self, hook, interval_cycles: float) -> None:
        """Call ``hook(core)`` every ``interval_cycles`` simulated cycles.

        On the vector engine the hook runs at a kernel exit that has
        published counters, stalls and every ``.stats`` object, and
        anything it changes among those is reloaded when the kernel
        re-enters.  Structures stay resident in the native image: a hook
        that reads cache or predictor contents must call
        :meth:`sync_native` first.
        """
        self.cycle_hook = hook
        self.cycle_hook_interval = interval_cycles
        self._next_hook_cycles = self.cycles + interval_cycles

    @property
    def stall_cycles(self) -> float:
        return sum(self.stalls.values())

    @property
    def cycles(self) -> float:
        return self._ideal_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        c = self.cycles
        return self.counts.instructions / c if c else 0.0

    @property
    def cpi(self) -> float:
        n = self.counts.instructions
        return self.cycles / n if n else 0.0

    def seconds(self, use_max_freq: bool = True) -> float:
        freq = (self.machine.max_freq_hz if use_max_freq
                else self.machine.nominal_freq_hz)
        return self.cycles / freq

    # ------------------------------------------------------------------
    def _fetch(self, pc: int, n_bytes: int, uops: float) -> None:
        """Fetch the code range; charges FE latency + bandwidth stalls."""
        m = self.machine
        stalls = self.stalls
        first_line = pc >> 6
        last_line = (pc + n_bytes - 1) >> 6
        dsb_hit_lines = 0
        n_lines = last_line - first_line + 1
        for line in range(first_line, last_line + 1):
            if line == self._last_code_line:
                dsb_hit_lines += 1
                continue
            self._last_code_line = line
            addr = line << 6
            page = addr >> 12
            if page != self._last_code_page:
                self._last_code_page = page
                if self.itlb.access(addr) == TLB_WALK:
                    self.counts.itlb_walks += 1
                    stalls[FE_ITLB] += m.page_walk_latency \
                        * (1 - self.ITLB_OVERLAP)
                    fault = self.vm.touch(addr)
                    if fault:
                        stalls[FE_IFAULT] += fault
            if self.l1i.access(addr):
                self.l1i_prefetcher.observe(addr)
            else:
                level = self._fill_from_l2(addr, is_code=True)
                if level == L2:
                    lat = m.l2.latency
                elif level == L3:
                    lat = m.llc.latency + self._llc_extra()
                else:
                    lat = m.dram_latency
                self.l1i.fill(addr)
                stalls[FE_ICACHE] += lat * (1 - self.ICACHE_OVERLAP)
                self.l1i_prefetcher.observe(addr)
            if self.dsb.access(addr):
                dsb_hit_lines += 1
            else:
                self.dsb.fill(addr)
        # Bandwidth: DSB delivers >= pipeline width; MITE decodes slower.
        if n_lines and dsb_hit_lines < n_lines:
            mite_frac = 1.0 - dsb_hit_lines / n_lines
            mite_rate = m.decode_width * self.MITE_EFFICIENCY
            deficit = uops * mite_frac * (1.0 / mite_rate
                                          - 1.0 / m.pipeline_width)
            if deficit > 0:
                stalls[FE_MITE_BW] += deficit

    def _fill_from_l2(self, addr: int, is_code: bool = False,
                      is_write: bool = False) -> int:
        """L2 -> LLC -> DRAM walk with fills; returns service level."""
        if self.l2.access(addr, is_write):
            return L2
        if not is_code:
            self.l2_prefetcher.observe(addr)
        if self.shared_llc is not None:
            hit = self.shared_llc.access(addr, self.core_id, is_write)
        else:
            hit = self.llc.access(addr, is_write)
        if hit:
            self.l2.fill(addr)
            return L3
        self.llc.fill(addr)
        self.l2.fill(addr)
        self.dram.access(addr, is_write)
        return DRAM

    def _llc_extra(self) -> float:
        if self.shared_llc is not None:
            return self.shared_llc.extra_latency
        return 0.0

    def _prefetch_backing(self, addr: int) -> None:
        """Backing fetch for prefetches: LLC lookup, DRAM on miss.

        Does not disturb demand-miss statistics (uses contains/fill), but
        DRAM traffic is real — prefetched streams consume bandwidth, and a
        fraction of the DRAM latency remains visible (finite bandwidth:
        the prefetcher cannot run arbitrarily far ahead), which keeps
        streaming SPEC FP workloads DRAM-bound as the paper observes.
        """
        if self.llc.contains(addr):
            return
        self.llc.fill(addr, prefetch=True)
        self.dram.access(addr)
        self.stalls[BE_DRAM] += (self.machine.dram_latency * 0.22
                                 / self.hints.mlp)

    def _l1_prefetch_backing(self, addr: int) -> None:
        """Backing for the L1d DCU prefetcher: pull through L2 then LLC."""
        if self.l2.contains(addr):
            return
        self._prefetch_backing(addr)
        self.l2.fill(addr, prefetch=True)

    # -- §VIII extension hardware --------------------------------------
    def _on_jit_metadata(self, kind: str, payload) -> None:
        """React to JIT code-page metadata (ISA-hook proposals, §VIII).

        With ``machine.jit_code_prefetch``: an engine walks the freshly
        emitted range, pulling its lines into L2 (through the LLC, so
        DRAM traffic is accounted) and pre-installing I-TLB entries —
        "aggressive prefetching ... for these pages".

        With ``machine.jit_state_transform`` (moves only): PC-indexed
        predictor state is remapped from the old range to the new one,
        so re-tiered methods keep their branch training.
        """
        m = self.machine
        if kind == EV_JIT_CODE_MOVED:
            old_base, new_base, size = payload
            if m.jit_state_transform:
                self.branch_unit.transform_range(old_base, new_base, size)
                # The old range is dead code: drop its I-side lines.
                self.l1i.invalidate_range(old_base, size)
                self.dsb.invalidate_range(old_base, size)
        else:
            new_base, size = payload
        if m.jit_code_prefetch:
            # The JIT's code-write stores have already allocated the lines
            # in L2/LLC (write-allocate); the remaining cold-start cost is
            # in the I-side structures, which a metadata-driven engine can
            # pre-warm: L1i lines, decoded-uop (DSB) lines, I-TLB entries.
            for off in range(0, size, 64):
                addr = new_base + off
                self._prefetch_backing(addr)
                if not self.l2.contains(addr):
                    self.l2.fill(addr, prefetch=True)
                self.l1i.fill(addr, prefetch=True)
                self.dsb.fill(addr, prefetch=True)
            for page in range(new_base >> 12,
                              ((new_base + size - 1) >> 12) + 1):
                addr = page << 12
                if self.itlb.stlb is not None:
                    self.itlb.stlb.fill(addr)
                self.itlb.l1.fill(addr)

    # ------------------------------------------------------------------
    def _op_block(self, pc: int, n_instr: int, n_bytes: int,
                  kernel: bool) -> None:
        h = self.hints
        c = self.counts
        stalls = self.stalls
        self._kernel_mode = kernel
        c.instructions += n_instr
        if kernel:
            c.kernel_instructions += n_instr
        uops = n_instr * h.uop_factor
        c.uops += uops
        m = self.machine
        self._ideal_cycles += uops / m.pipeline_width
        self._fetch(pc, n_bytes, uops)
        # Core-bound: intrinsic ILP below machine width leaves port slots
        # empty; divider serializes.
        ilp = min(h.ilp, m.pipeline_width)
        if ilp < m.pipeline_width:
            stalls[BE_PORTS] += uops * (1.0 / ilp - 1.0 / m.pipeline_width)
        if h.div_frac:
            stalls[BE_DIV] += n_instr * h.div_frac * self.DIV_PENALTY
        if h.microcode_frac:
            stalls[FE_MS] += n_instr * h.microcode_frac \
                * m.ms_switch_penalty
        if self._ideal_cycles + self.stall_cycles >= self._next_hook_cycles:
            self._next_hook_cycles += self.cycle_hook_interval
            self.cycle_hook(self)

    def _op_branch(self, pc: int, target: int, taken: bool) -> None:
        c = self.counts
        c.instructions += 1
        if self._kernel_mode:
            c.kernel_instructions += 1
        c.branches += 1
        c.uops += 1
        m = self.machine
        self._ideal_cycles += 1.0 / m.pipeline_width
        mispredict, btb_miss = self.branch_unit.resolve(pc, taken, target)
        stalls = self.stalls
        if mispredict:
            stalls[BAD_SPEC] += m.mispredict_penalty
        if btb_miss:
            stalls[FE_RESTEER] += m.btb_resteer_penalty
        if taken:
            stalls[FE_DSB_BW] += self.TAKEN_BRANCH_BUBBLE

    def _op_mem(self, addr: int, is_write: bool) -> None:
        c = self.counts
        c.instructions += 1
        if self._kernel_mode:
            c.kernel_instructions += 1
        c.uops += 1
        m = self.machine
        h = self.hints
        self._ideal_cycles += 1.0 / m.pipeline_width
        stalls = self.stalls
        if is_write:
            c.stores += 1
        else:
            c.loads += 1
        vpn = addr >> 12
        if vpn != self._last_data_vpn:
            self._last_data_vpn = vpn
            if self.dtlb.access(addr) == TLB_WALK:
                if is_write:
                    c.dtlb_store_walks += 1
                else:
                    c.dtlb_load_walks += 1
                stalls[BE_DTLB] += m.page_walk_latency / h.mlp
                fault = self.vm.touch(addr)
                if fault:
                    stalls[BE_DFAULT] += fault
        if self.l1d.access(addr, is_write):
            self.l1d_prefetcher.observe(addr)
            if not is_write:
                stalls[BE_L1] += m.l1d.latency * self.L1_VISIBLE
            return
        level = self._fill_from_l2(addr, is_write=is_write)
        self.l1d.fill(addr, dirty=is_write)
        self.l1d_prefetcher.observe(addr)
        if is_write:
            if level >= L3:
                stalls[BE_STORE] += self.STORE_MISS_PENALTY
            return
        hidden = (1 - self.DATA_OVERLAP) / h.mlp
        if level == L2:
            stalls[BE_L2] += (m.l2.latency - m.l1d.latency) * hidden
        elif level == L3:
            stalls[BE_L3] += (m.llc.latency + self._llc_extra()
                              - m.l2.latency) * hidden
        else:
            stalls[BE_DRAM] += (m.dram_latency - m.llc.latency) * hidden

    # ------------------------------------------------------------------
    def consume_stream(self, stream, max_instructions: int | None = None,
                       *, engine: str = "batched") -> int:
        """Drive the core from a :class:`~repro.trace.TraceBufferStream`.

        Consumes chunk by chunk and returns the number of instructions
        executed, stopping once ``max_instructions`` is reached (checked
        after each block op).  The stream keeps its resume offset, so
        repeated calls (warmup then measure, multicore quanta, §III-A
        measurement windows) continue where the previous one stopped.

        ``engine="batched"`` runs :meth:`consume_buffer`, the Python
        reference.  ``engine="vector"`` routes consumption through the
        native C kernel (:mod:`repro.uarch.native`) when it is available
        and this core's configuration is one the kernel models exactly —
        which includes armed cycle hooks (the kernel exits with a
        ``HOOK`` resume code, the hook runs in Python against published
        counters and stats, and the kernel re-enters) and the stock
        shared LLC (slice counting in C, contention math in Python).
        Structure state then stays resident in the kernel across calls
        until :meth:`sync_native`, which :meth:`consume_buffer` calls
        itself.  Any other case falls back to the
        Python engine loudly: :func:`repro.uarch.native.note_delegation`
        counts every fallback under ``native.delegated{reason=...}`` and
        warns once per process per reason.  Both engines are
        bit-identical, so the choice is purely a throughput knob;
        :attr:`last_engine` records which one ran.
        """
        if engine == "vector":
            from repro.uarch import native
            reason = native.delegation_reason(self)
            if reason is None:
                self.last_engine = "vector"
                return native.consume_stream_native(self, stream,
                                                    max_instructions)
            native.note_delegation(reason)
        self.last_engine = "batched"
        counts = self.counts
        start = counts.instructions
        limit = (start + max_instructions
                 if max_instructions is not None else None)
        while True:
            buf = stream.buffer()
            if buf is None:
                break
            _t0 = time.perf_counter() if obs.enabled() else None
            next_pos, limit_hit = self.consume_buffer(buf, stream.pos,
                                                      limit)
            if _t0 is not None:
                obs.observe("sim.consume_buffer_seconds",
                            time.perf_counter() - _t0)
            stream.pos = next_pos
            if limit_hit:
                break
        return counts.instructions - start

    def consume_buffer(self, buf, start: int = 0,
                       limit: int | None = None) -> tuple[int, bool]:
        """Consume the ops of one :class:`~repro.trace.TraceBuffer`.

        The Python engine: one op at a time through the full-model
        methods (``_op_block``, ``_op_branch``, ``_op_mem``), so every
        replacement, fill and prefetch rule lives in one place.  It is
        the oracle the native kernel is tested against and the fallback
        wherever the kernel cannot run.  Processes ops from index
        ``start``; returns ``(next_index, limit_hit)`` where
        ``limit_hit`` reports that ``counts.instructions`` reached
        ``limit`` (checked after blocks).
        """
        self.sync_native()
        kinds = buf.kinds
        a0 = buf.a0
        a1 = buf.a1
        a2 = buf.a2
        events = buf.events
        op_mem = self._op_mem
        op_block = self._op_block
        op_branch = self._op_branch
        c = self.counts
        n_ops = len(kinds)
        i = start
        while i < n_ops:
            kind = kinds[i]
            # Literal opcodes (OP_LOAD, OP_STORE, OP_BLOCK, OP_BRANCH,
            # OP_EVENT) keep the dispatch free of global lookups.
            if kind == 2:
                op_mem(a0[i], False)
            elif kind == 3:
                op_mem(a0[i], True)
            elif kind == 0:
                packed = a2[i]
                op_block(a0[i], a1[i], packed & BLOCK_NBYTES_MASK,
                         bool(packed >> BLOCK_KERNEL_SHIFT))
                if limit is not None and c.instructions >= limit:
                    return i + 1, True
            elif kind == 1:
                op_branch(a0[i], a1[i], bool(a2[i]))
            elif kind == 4:
                ev, payload = events[a0[i]]
                if ev == EV_JIT_CODE_EMITTED or ev == EV_JIT_CODE_MOVED:
                    self._on_jit_metadata(ev, payload)
                if self.event_hook is not None:
                    self.event_hook(ev, payload, self.cycles)
            else:  # pragma: no cover - malformed trace
                raise ValueError(f"unknown op kind {kind!r}")
            i += 1
        return n_ops, False

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters/stalls but keep microarchitectural state warm.

        This is the 'discard the first run' step of §III-A: caches, TLBs,
        predictors and the DSB stay trained; only the books are cleared.
        """
        self.counts = CoreCounts()
        self.stalls = {b: 0.0 for b in ALL_BUCKETS}
        self._ideal_cycles = 0.0
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        if self.shared_llc is None:
            self.llc.reset_stats()
        self.itlb.l1.reset_stats()
        self.dtlb.l1.reset_stats()
        if self.itlb.stlb:
            self.itlb.stlb.reset_stats()     # shared with dtlb
        self.branch_unit.reset_stats()
        self.dsb.reset_stats()
        self.l2_prefetcher.reset_stats()
        self.l1i_prefetcher.reset_stats()
        self.l1d_prefetcher.reset_stats()
        self.dram.reset_stats()
        self.vm.reset_stats()
