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
simulated instruction, which keeps pure-Python throughput high enough for
10^5-10^6 instruction runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         BLOCK_KERNEL_SHIFT, BLOCK_NBYTES_MASK,
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
        #: engine the latest consume call actually ran ("legacy",
        #: "batched" or "vector"); None before the first call
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
    def consume(self, ops, max_instructions: int | None = None) -> int:
        """Drive the core with an op iterable.

        Returns the number of instructions executed.  Stops early once
        ``max_instructions`` is reached (checked at block granularity).
        """
        self.sync_native()
        self.last_engine = "legacy"
        start = self.counts.instructions
        limit = (start + max_instructions
                 if max_instructions is not None else None)
        op_block = self._op_block
        op_branch = self._op_branch
        op_mem = self._op_mem
        counts = self.counts
        for op in ops:
            kind = op[0]
            if kind == OP_LOAD:
                op_mem(op[1], False)
            elif kind == OP_STORE:
                op_mem(op[1], True)
            elif kind == OP_BLOCK:
                op_block(op[1], op[2], op[3], op[4])
                if limit is not None and counts.instructions >= limit:
                    break
            elif kind == OP_BRANCH:
                op_branch(op[1], op[2], op[3])
            elif kind == OP_EVENT:
                ev = op[1]
                if ev == EV_JIT_CODE_EMITTED or ev == EV_JIT_CODE_MOVED:
                    self._on_jit_metadata(ev, op[2])
                if self.event_hook is not None:
                    self.event_hook(ev, op[2], self.cycles)
            else:  # pragma: no cover - malformed trace
                raise ValueError(f"unknown op kind {kind!r}")
        return counts.instructions - start

    # ------------------------------------------------------------------
    def consume_stream(self, stream, max_instructions: int | None = None,
                       *, engine: str = "batched") -> int:
        """Batched counterpart of :meth:`consume`.

        Drives the core from a :class:`~repro.trace.TraceBufferStream`
        chunk by chunk; the stream keeps its resume offset, so repeated
        calls (warmup then measure, multicore quanta) continue where the
        previous one stopped — the same contract an op generator gives
        the legacy path.  Produces bit-identical counters, stalls and
        events to ``consume`` over the same op sequence.

        ``engine="vector"`` routes consumption through the native C
        kernel (:mod:`repro.uarch.native`) when it is available and this
        core's configuration is one the kernel models exactly — which
        includes armed cycle hooks (the kernel exits with a ``HOOK``
        resume code, the hook runs in Python against published counters
        and stats, and the kernel re-enters) and the stock shared LLC
        (slice counting in C, contention math in Python).  Structure
        state then stays resident in the kernel across calls until
        :meth:`sync_native`, which this method calls itself before
        running any Python engine.  Any other case falls
        back to the batched loop below, which handles the full model —
        loudly: :func:`repro.uarch.native.note_delegation` counts every
        fallback under ``native.delegated{reason=...}`` and warns once
        per process per reason.  Both engines are bit-identical to the
        legacy path, so the choice is purely a throughput knob;
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
        self.sync_native()
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

    def _consume_buffer_interp(self, buf, start: int,
                               limit: int | None) -> tuple[int, bool]:
        """Op-at-a-time buffer consumption through the full-model methods.

        Used when the core's geometry does not match the assumptions the
        inlined paths of :meth:`consume_buffer` are specialized for.
        Semantically identical to feeding ``buf.iter_ops()`` to
        :meth:`consume`.
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

    def consume_buffer(self, buf, start: int = 0,
                       limit: int | None = None) -> tuple[int, bool]:
        """Consume ops of a sealed :class:`~repro.trace.TraceBuffer`.

        Processes ops from index ``start``; returns ``(next_index,
        limit_hit)`` where ``limit_hit`` reports that
        ``counts.instructions`` reached ``limit`` (checked after blocks,
        exactly like :meth:`consume`).

        This is the inlined fast path of the batched engine: per-op
        state (counters, the seven stall buckets the hit paths touch,
        cache/TLB/branch hit statistics) lives in local mirrors, and the
        all-hit cases of loads/stores (micro-TLB or D-TLB L1 hit + L1d
        hit), branches (the full branch-unit resolve) and single-line
        blocks (DSB-resident, or same-page L1i + DSB hits) commit
        against the structures' internals directly.  Every probe is
        non-mutating until the hit decision is made, so any miss falls
        back to the full-model ``_op_mem``/``_op_block`` methods — all
        replacement, fill and prefetch semantics stay in one place, and
        the two engines produce bit-identical results.
        """
        self.sync_native()
        if buf.lines is None:
            buf.seal()
        kinds = buf.kinds
        a0 = buf.a0
        a1 = buf.a1
        a2 = buf.a2
        lines = buf.lines
        line_ends = buf.line_ends
        events = buf.events
        n_ops = len(kinds)

        # The inlined paths hardcode the geometry every Table II machine
        # shares (64 B lines, 4 KiB pages) so each address decomposition
        # is a shift of the pre-decoded line number, and assume the
        # stock next-line prefetchers; anything else gets the
        # op-at-a-time interpreter, which is always semantically exact.
        pf_ps = self.l1d_prefetcher.page_size
        if not (self.l1d._line_shift == 6 and self.l1i._line_shift == 6
                and self.dsb._line_shift == 6
                and type(self.l1d_prefetcher) is NextLinePrefetcher
                and type(self.l1i_prefetcher) is NextLinePrefetcher
                and self.l1d_prefetcher.line_size == 64
                and self.l1i_prefetcher.line_size == 64
                and self.l1i_prefetcher.page_size == pf_ps
                and pf_ps == 4096
                and self.dtlb.l1.page_shift == 12
                and self.itlb.l1.page_shift == 12):
            return self._consume_buffer_interp(buf, start, limit)

        m = self.machine
        h = self.hints
        c = self.counts
        stalls = self.stalls
        stalls_vals = stalls.values()
        op_block = self._op_block
        op_mem = self._op_mem
        event_hook = self.event_hook
        inf_f = float("inf")
        next_hook = self._next_hook_cycles
        hook_on = next_hook != inf_f
        no_limit = limit is None
        limit_v = inf_f if no_limit else limit

        # Hoisted per-op scalars.  Each hoisted float is the value the
        # legacy path recomputes per op from the same constants, so the
        # accumulated doubles are bit-identical; composite expressions
        # (uops / width, n_instr * frac * penalty) keep their original
        # association.
        width = m.pipeline_width
        inv_width = 1.0 / width
        uop_factor = h.uop_factor
        ilp = min(h.ilp, width)
        ports_on = ilp < width
        ports_coeff = (1.0 / ilp - 1.0 / width) if ports_on else 0.0
        div_frac = h.div_frac
        div_pen = self.DIV_PENALTY
        micro_frac = h.microcode_frac
        ms_pen = m.ms_switch_penalty
        l1_hit_stall = m.l1d.latency * self.L1_VISIBLE
        mis_pen = m.mispredict_penalty
        resteer_pen = m.btb_resteer_penalty
        taken_bubble = self.TAKEN_BRANCH_BUBBLE

        # Block-op arithmetic, vectorized over the chunk: each element
        # reproduces the corresponding legacy per-op expression on the
        # same operands (int64 -> float64 conversion is exact below
        # 2**53 and elementwise IEEE-754 ops match scalar Python), so
        # accumulating the precomputed values is bit-identical to
        # evaluating them op by op.
        a1_arr = np.asarray(a1, dtype=np.int64) if len(a1) else np.zeros(
            0, dtype=np.int64)
        kern_l = ((np.asarray(a2, dtype=np.int64) if len(a2) else a1_arr)
                  >> BLOCK_KERNEL_SHIFT).tolist()
        uops_arr = a1_arr * uop_factor
        uops_l = uops_arr.tolist()
        ideal_l = (uops_arr / width).tolist()
        ports_l = (uops_arr * ports_coeff).tolist() if ports_on else None
        div_l = ((a1_arr * div_frac) * div_pen).tolist() if div_frac \
            else None
        ms_l = ((a1_arr * micro_frac) * ms_pen).tolist() if micro_frac \
            else None

        # Structure internals for the inlined hit paths.
        l1d = self.l1d
        l1d_sets = l1d._sets
        l1d_mask = l1d._index_mask
        l1d_lru = l1d._lru
        l1d_st = l1d.stats
        l1d_fill = l1d.fill
        l1d_pf = self.l1d_prefetcher
        l1d_pf_st = l1d_pf.stats
        l1d_fetch = l1d_pf.fetch
        dtlb = self.dtlb.l1
        dtlb_sets = dtlb._sets
        dtlb_mask = dtlb._index_mask
        dtlb_st = dtlb.stats
        l1i = self.l1i
        l1i_sets = l1i._sets
        l1i_mask = l1i._index_mask
        l1i_lru = l1i._lru
        l1i_st = l1i.stats
        l1i_fill = l1i.fill
        l1i_pf = self.l1i_prefetcher
        l1i_pf_st = l1i_pf.stats
        l1i_fetch = l1i_pf.fetch
        itlb = self.itlb.l1
        itlb_sets = itlb._sets
        itlb_mask = itlb._index_mask
        itlb_st = itlb.stats
        dsb = self.dsb
        dsb_sets = dsb._sets
        dsb_mask = dsb._index_mask
        dsb_lru = dsb._lru
        dsb_st = dsb.stats
        bu = self.branch_unit
        bst = bu.stats
        gs = bu.predictor
        gs_table = gs._table
        gs_mask = gs._mask
        gs_hist_bits = gs.history_bits
        gs_hist_mask = (1 << gs_hist_bits) - 1 if gs_hist_bits else 0
        lp_table = bu.loop_predictor._table
        lp_max = bu.loop_predictor.max_entries
        btb = bu.btb
        btb_sets = btb._sets
        btb_mask = btb._index_mask
        btb_ways = btb.ways

        # Deferred mirrors of every piece of state the inlined hit paths
        # touch.  flush() publishes them before anything outside this
        # loop can observe the core (fallback ops, hooks, events,
        # return); reload() re-reads them afterwards.
        ideal = self._ideal_cycles
        n_i = c.instructions
        n_k = c.kernel_instructions
        n_ld = c.loads
        n_st = c.stores
        n_br = c.branches
        uops_acc = c.uops
        s_l1 = stalls[BE_L1]
        s_ports = stalls[BE_PORTS]
        s_div = stalls[BE_DIV]
        s_ms = stalls[FE_MS]
        s_bad = stalls[BAD_SPEC]
        s_rst = stalls[FE_RESTEER]
        s_dsb = stalls[FE_DSB_BW]
        kernel_mode = self._kernel_mode
        last_vpn = self._last_data_vpn
        last_code_line = self._last_code_line
        last_code_page = self._last_code_page
        gs_history = gs._history
        l1d_acc = l1d_st.accesses
        l1d_dem = l1d_st.demand_accesses
        l1d_useful = l1d_st.useful_prefetches
        dtlb_acc = dtlb_st.accesses
        itlb_acc = itlb_st.accesses
        l1i_acc = l1i_st.accesses
        l1i_dem = l1i_st.demand_accesses
        l1i_useful = l1i_st.useful_prefetches
        dsb_acc = dsb_st.accesses
        dsb_dem = dsb_st.demand_accesses
        dsb_useful = dsb_st.useful_prefetches
        bst_br = bst.branches
        bst_tk = bst.taken
        bst_mis = bst.mispredicts
        bst_btbm = bst.btb_misses
        pf_last_d = l1d_pf._last_line
        pf_last_i = l1i_pf._last_line

        def flush():
            self._ideal_cycles = ideal
            c.instructions = n_i
            c.kernel_instructions = n_k
            c.loads = n_ld
            c.stores = n_st
            c.branches = n_br
            c.uops = uops_acc
            stalls[BE_L1] = s_l1
            stalls[BE_PORTS] = s_ports
            stalls[BE_DIV] = s_div
            stalls[FE_MS] = s_ms
            stalls[BAD_SPEC] = s_bad
            stalls[FE_RESTEER] = s_rst
            stalls[FE_DSB_BW] = s_dsb
            self._kernel_mode = kernel_mode
            self._last_data_vpn = last_vpn
            self._last_code_line = last_code_line
            self._last_code_page = last_code_page
            gs._history = gs_history
            l1d_st.accesses = l1d_acc
            l1d_st.demand_accesses = l1d_dem
            l1d_st.useful_prefetches = l1d_useful
            dtlb_st.accesses = dtlb_acc
            itlb_st.accesses = itlb_acc
            l1i_st.accesses = l1i_acc
            l1i_st.demand_accesses = l1i_dem
            l1i_st.useful_prefetches = l1i_useful
            dsb_st.accesses = dsb_acc
            dsb_st.demand_accesses = dsb_dem
            dsb_st.useful_prefetches = dsb_useful
            bst.branches = bst_br
            bst.taken = bst_tk
            bst.mispredicts = bst_mis
            bst.btb_misses = bst_btbm
            l1d_pf._last_line = pf_last_d
            l1i_pf._last_line = pf_last_i

        def reload():
            nonlocal ideal, n_i, n_k, n_ld, n_st, n_br, uops_acc
            nonlocal s_l1, s_ports, s_div, s_ms, s_bad, s_rst, s_dsb
            nonlocal kernel_mode, last_vpn, last_code_line, last_code_page
            nonlocal gs_history
            nonlocal l1d_acc, l1d_dem, l1d_useful, dtlb_acc, itlb_acc
            nonlocal l1i_acc, l1i_dem, l1i_useful
            nonlocal dsb_acc, dsb_dem, dsb_useful
            nonlocal bst_br, bst_tk, bst_mis, bst_btbm
            nonlocal pf_last_d, pf_last_i, next_hook, hook_on
            ideal = self._ideal_cycles
            n_i = c.instructions
            n_k = c.kernel_instructions
            n_ld = c.loads
            n_st = c.stores
            n_br = c.branches
            uops_acc = c.uops
            s_l1 = stalls[BE_L1]
            s_ports = stalls[BE_PORTS]
            s_div = stalls[BE_DIV]
            s_ms = stalls[FE_MS]
            s_bad = stalls[BAD_SPEC]
            s_rst = stalls[FE_RESTEER]
            s_dsb = stalls[FE_DSB_BW]
            kernel_mode = self._kernel_mode
            last_vpn = self._last_data_vpn
            last_code_line = self._last_code_line
            last_code_page = self._last_code_page
            gs_history = gs._history
            l1d_acc = l1d_st.accesses
            l1d_dem = l1d_st.demand_accesses
            l1d_useful = l1d_st.useful_prefetches
            dtlb_acc = dtlb_st.accesses
            itlb_acc = itlb_st.accesses
            l1i_acc = l1i_st.accesses
            l1i_dem = l1i_st.demand_accesses
            l1i_useful = l1i_st.useful_prefetches
            dsb_acc = dsb_st.accesses
            dsb_dem = dsb_st.demand_accesses
            dsb_useful = dsb_st.useful_prefetches
            bst_br = bst.branches
            bst_tk = bst.taken
            bst_mis = bst.mispredicts
            bst_btbm = bst.btb_misses
            pf_last_d = l1d_pf._last_line
            pf_last_i = l1i_pf._last_line
            next_hook = self._next_hook_cycles
            hook_on = next_hook != inf_f

        # Narrow flush/reload pair for memory-op fallbacks: _op_mem
        # cannot fire hooks, run external code or touch frontend/branch
        # state, so only the D-side mirrors need to round-trip.
        def flush_mem():
            self._ideal_cycles = ideal
            c.instructions = n_i
            c.kernel_instructions = n_k
            c.loads = n_ld
            c.stores = n_st
            c.uops = uops_acc
            stalls[BE_L1] = s_l1
            self._kernel_mode = kernel_mode
            self._last_data_vpn = last_vpn
            l1d_st.accesses = l1d_acc
            l1d_st.demand_accesses = l1d_dem
            l1d_st.useful_prefetches = l1d_useful
            dtlb_st.accesses = dtlb_acc
            l1d_pf._last_line = pf_last_d

        def reload_mem():
            nonlocal ideal, n_i, n_k, n_ld, n_st, uops_acc, s_l1
            nonlocal last_vpn, l1d_acc, l1d_dem, l1d_useful, dtlb_acc
            nonlocal pf_last_d
            ideal = self._ideal_cycles
            n_i = c.instructions
            n_k = c.kernel_instructions
            n_ld = c.loads
            n_st = c.stores
            uops_acc = c.uops
            s_l1 = stalls[BE_L1]
            last_vpn = self._last_data_vpn
            l1d_acc = l1d_st.accesses
            l1d_dem = l1d_st.demand_accesses
            l1d_useful = l1d_st.useful_prefetches
            dtlb_acc = dtlb_st.accesses
            pf_last_d = l1d_pf._last_line

        for i in range(start, n_ops):
            kind = kinds[i]
            if kind == 2:                            # OP_LOAD
                line = lines[i]
                if line == pf_last_d:
                    # Tier-0: repeat access to the previous memory op's
                    # line.  The micro-TLB filter matches (same page),
                    # the entry sits at MRU (hit-promoted or freshly
                    # filled by that op; no other path fills L1d) and
                    # the prefetcher early-returns on a repeated line,
                    # so the whole op is counters plus line flags.  The
                    # tag check guards external invalidation between
                    # consume calls.
                    cb = l1d_sets[line & l1d_mask]
                    if cb:
                        entry = cb[-1]
                        if entry[0] == line:
                            n_i += 1
                            if kernel_mode:
                                n_k += 1
                            uops_acc += 1
                            ideal += inv_width
                            n_ld += 1
                            l1d_acc += 1
                            l1d_dem += 1
                            if entry[1] and not entry[2]:
                                l1d_useful += 1
                            entry[2] = True
                            s_l1 += l1_hit_stall
                            continue
                vpn = line >> 6
                tj = -2                              # micro-TLB hit
                if vpn != last_vpn:
                    tb = dtlb_sets[vpn & dtlb_mask]
                    if tb and tb[-1] == vpn:
                        tj = -3                      # MRU hit: no move
                    else:
                        tj = -1
                        for j in range(len(tb) - 2, -1, -1):
                            if tb[j] == vpn:
                                tj = j
                                break
                if tj != -1:
                    cb = l1d_sets[line & l1d_mask]
                    hj = -1
                    if cb:
                        if cb[-1][0] == line:
                            hj = -3                  # MRU hit: no move
                        else:
                            for j in range(len(cb) - 2, -1, -1):
                                if cb[j][0] == line:
                                    hj = j
                                    break
                    if hj != -1:
                        # All-hit commit, replicating _op_mem's order.
                        n_i += 1
                        if kernel_mode:
                            n_k += 1
                        uops_acc += 1
                        ideal += inv_width
                        n_ld += 1
                        if tj != -2:
                            last_vpn = vpn
                            dtlb_acc += 1
                            if tj != -3:
                                tb.append(tb.pop(tj))
                        l1d_acc += 1
                        l1d_dem += 1
                        if hj == -3:
                            entry = cb[-1]
                        else:
                            entry = cb[hj]
                        if entry[1] and not entry[2]:
                            l1d_useful += 1
                        entry[2] = True
                        if hj != -3 and l1d_lru:
                            cb.append(cb.pop(hj))
                        if line != pf_last_d:
                            # NextLinePrefetcher.observe, inlined.
                            pf_last_d = line
                            nline = line + 1
                            if nline >> 6 != vpn:
                                l1d_pf_st.page_bounded += 1
                            else:
                                nb = l1d_sets[nline & l1d_mask]
                                if not (nb and nb[-1][0] == nline):
                                    for e in nb:
                                        if e[0] == nline:
                                            break
                                    else:
                                        naddr = nline << 6
                                        if l1d_fetch is not None:
                                            l1d_fetch(naddr)
                                        l1d_fill(naddr, True)
                                        l1d_pf_st.issued += 1
                        s_l1 += l1_hit_stall
                        continue
                # Some probe missed: this op through the full model.
                flush_mem()
                op_mem(a0[i], False)
                reload_mem()
            elif kind == 3:                          # OP_STORE
                line = lines[i]
                if line == pf_last_d:
                    cb = l1d_sets[line & l1d_mask]
                    if cb:
                        entry = cb[-1]
                        if entry[0] == line:
                            n_i += 1
                            if kernel_mode:
                                n_k += 1
                            uops_acc += 1
                            ideal += inv_width
                            n_st += 1
                            l1d_acc += 1
                            l1d_dem += 1
                            if entry[1] and not entry[2]:
                                l1d_useful += 1
                            entry[2] = True
                            entry[3] = True
                            continue
                vpn = line >> 6
                tj = -2
                if vpn != last_vpn:
                    tb = dtlb_sets[vpn & dtlb_mask]
                    if tb and tb[-1] == vpn:
                        tj = -3
                    else:
                        tj = -1
                        for j in range(len(tb) - 2, -1, -1):
                            if tb[j] == vpn:
                                tj = j
                                break
                if tj != -1:
                    cb = l1d_sets[line & l1d_mask]
                    hj = -1
                    if cb:
                        if cb[-1][0] == line:
                            hj = -3
                        else:
                            for j in range(len(cb) - 2, -1, -1):
                                if cb[j][0] == line:
                                    hj = j
                                    break
                    if hj != -1:
                        n_i += 1
                        if kernel_mode:
                            n_k += 1
                        uops_acc += 1
                        ideal += inv_width
                        n_st += 1
                        if tj != -2:
                            last_vpn = vpn
                            dtlb_acc += 1
                            if tj != -3:
                                tb.append(tb.pop(tj))
                        l1d_acc += 1
                        l1d_dem += 1
                        if hj == -3:
                            entry = cb[-1]
                        else:
                            entry = cb[hj]
                        if entry[1] and not entry[2]:
                            l1d_useful += 1
                        entry[2] = True
                        entry[3] = True
                        if hj != -3 and l1d_lru:
                            cb.append(cb.pop(hj))
                        if line != pf_last_d:
                            pf_last_d = line
                            nline = line + 1
                            if nline >> 6 != vpn:
                                l1d_pf_st.page_bounded += 1
                            else:
                                nb = l1d_sets[nline & l1d_mask]
                                if not (nb and nb[-1][0] == nline):
                                    for e in nb:
                                        if e[0] == nline:
                                            break
                                    else:
                                        naddr = nline << 6
                                        if l1d_fetch is not None:
                                            l1d_fetch(naddr)
                                        l1d_fill(naddr, True)
                                        l1d_pf_st.issued += 1
                        continue
                flush_mem()
                op_mem(a0[i], True)
                reload_mem()
            elif kind == 0:                          # OP_BLOCK
                line = lines[i]
                last = line_ends[i]
                if last == line == last_code_line:
                    # DSB-resident single line: no frontend work.
                    kernel_mode = kern_l[i]
                    ni = a1[i]
                    n_i += ni
                    if kernel_mode:
                        n_k += ni
                    uops_acc += uops_l[i]
                    ideal += ideal_l[i]
                    if ports_on:
                        s_ports += ports_l[i]
                    if div_frac:
                        s_div += div_l[i]
                    if micro_frac:
                        s_ms += ms_l[i]
                    if hook_on:
                        # Publish the stall mirrors, then evaluate the
                        # hook threshold exactly as _op_block does
                        # (same summation order over the bucket dict).
                        stalls[BE_L1] = s_l1
                        stalls[BE_PORTS] = s_ports
                        stalls[BE_DIV] = s_div
                        stalls[FE_MS] = s_ms
                        stalls[BAD_SPEC] = s_bad
                        stalls[FE_RESTEER] = s_rst
                        stalls[FE_DSB_BW] = s_dsb
                        if ideal + sum(stalls_vals) >= next_hook:
                            flush()
                            self._next_hook_cycles += \
                                self.cycle_hook_interval
                            self.cycle_hook(self)
                            reload()
                    if n_i >= limit_v:
                        flush()
                        return i + 1, True
                    continue
                # Pure probe of every new line: I-TLB (on page change),
                # L1i, DSB.  Nothing is mutated until all lines hit.
                ok = True
                sim_last = last_code_line
                sim_page = last_code_page
                ln = line
                while ln <= last:
                    if ln != sim_last:
                        sim_last = ln
                        page = ln >> 6
                        if page != sim_page:
                            tb = itlb_sets[page & itlb_mask]
                            if not tb or tb[-1] != page:
                                for j in range(len(tb) - 2, -1, -1):
                                    if tb[j] == page:
                                        break
                                else:
                                    ok = False
                                    break
                            sim_page = page
                        fb = l1i_sets[ln & l1i_mask]
                        if not fb or fb[-1][0] != ln:
                            for j in range(len(fb) - 2, -1, -1):
                                if fb[j][0] == ln:
                                    break
                            else:
                                ok = False
                                break
                        db = dsb_sets[ln & dsb_mask]
                        if not db or db[-1][0] != ln:
                            for j in range(len(db) - 2, -1, -1):
                                if db[j][0] == ln:
                                    break
                            else:
                                ok = False
                                break
                    ln += 1
                if ok:
                    # All-hit commit, replicating _op_block + _fetch
                    # order per line.
                    kernel_mode = kern_l[i]
                    ni = a1[i]
                    n_i += ni
                    if kernel_mode:
                        n_k += ni
                    uops_acc += uops_l[i]
                    ideal += ideal_l[i]
                    ln = line
                    while ln <= last:
                        if ln == last_code_line:
                            ln += 1
                            continue
                        last_code_line = ln
                        page = ln >> 6
                        if page != last_code_page:
                            last_code_page = page
                            tb = itlb_sets[page & itlb_mask]
                            itlb_acc += 1
                            if tb[-1] != page:
                                for j in range(len(tb) - 2, -1, -1):
                                    if tb[j] == page:
                                        tb.append(tb.pop(j))
                                        break
                        fb = l1i_sets[ln & l1i_mask]
                        l1i_acc += 1
                        l1i_dem += 1
                        entry = fb[-1]
                        if entry[0] != ln:
                            for j in range(len(fb) - 2, -1, -1):
                                e = fb[j]
                                if e[0] == ln:
                                    if l1i_lru:
                                        fb.append(fb.pop(j))
                                    entry = e
                                    break
                        if entry[1] and not entry[2]:
                            l1i_useful += 1
                        entry[2] = True
                        if ln != pf_last_i:
                            # NextLinePrefetcher.observe, inlined.
                            pf_last_i = ln
                            nline = ln + 1
                            if nline >> 6 != page:
                                l1i_pf_st.page_bounded += 1
                            else:
                                nb = l1i_sets[nline & l1i_mask]
                                if not (nb and nb[-1][0] == nline):
                                    for e in nb:
                                        if e[0] == nline:
                                            break
                                    else:
                                        naddr = nline << 6
                                        if l1i_fetch is not None:
                                            l1i_fetch(naddr)
                                        l1i_fill(naddr, True)
                                        l1i_pf_st.issued += 1
                        db = dsb_sets[ln & dsb_mask]
                        dsb_acc += 1
                        dsb_dem += 1
                        entry = db[-1]
                        if entry[0] != ln:
                            for j in range(len(db) - 2, -1, -1):
                                e = db[j]
                                if e[0] == ln:
                                    if dsb_lru:
                                        db.append(db.pop(j))
                                    entry = e
                                    break
                        if entry[1] and not entry[2]:
                            dsb_useful += 1
                        entry[2] = True
                        ln += 1
                    if ports_on:
                        s_ports += ports_l[i]
                    if div_frac:
                        s_div += div_l[i]
                    if micro_frac:
                        s_ms += ms_l[i]
                    if hook_on:
                        stalls[BE_L1] = s_l1
                        stalls[BE_PORTS] = s_ports
                        stalls[BE_DIV] = s_div
                        stalls[FE_MS] = s_ms
                        stalls[BAD_SPEC] = s_bad
                        stalls[FE_RESTEER] = s_rst
                        stalls[FE_DSB_BW] = s_dsb
                        if ideal + sum(stalls_vals) >= next_hook:
                            flush()
                            self._next_hook_cycles += \
                                self.cycle_hook_interval
                            self.cycle_hook(self)
                            reload()
                    if n_i >= limit_v:
                        flush()
                        return i + 1, True
                    continue
                # Some line missed: this op through the full model.
                flush()
                packed = a2[i]
                op_block(a0[i], a1[i], packed & BLOCK_NBYTES_MASK,
                         bool(packed >> BLOCK_KERNEL_SHIFT))
                reload()
                if n_i >= limit_v:
                    return i + 1, True
            elif kind == 1:                          # OP_BRANCH
                pc = a0[i]
                target = a1[i]
                taken = a2[i]
                n_i += 1
                if kernel_mode:
                    n_k += 1
                n_br += 1
                uops_acc += 1
                ideal += inv_width
                # BranchUnit.resolve, inlined (never falls back).
                bst_br += 1
                entry = lp_table.get(pc)
                if entry is None:
                    predicted = None
                    if taken and target <= pc:
                        # LoopPredictor.allocate (pc absent <=> entry
                        # is None)
                        if len(lp_table) >= lp_max:
                            lp_table.pop(next(iter(lp_table)))
                        entry = [0, 1, 0]
                        lp_table[pc] = entry
                else:
                    if entry[2] < 2:
                        predicted = None
                    else:
                        predicted = entry[1] + 1 < entry[0]
                if entry is not None:
                    # LoopPredictor.update
                    if taken:
                        entry[1] += 1
                        if entry[0] and entry[1] > entry[0] + 1:
                            entry[2] = 0
                    else:
                        trips = entry[1] + 1
                        if entry[0] == trips:
                            entry[2] = min(entry[2] + 1, 3)
                        else:
                            entry[0] = trips
                            entry[2] = 0
                        entry[1] = 0
                key = pc >> 2
                idx = (key ^ gs_history) & gs_mask
                ctr = gs_table.get(idx, 1)
                if predicted is None:
                    predicted = ctr >= 2
                if taken:
                    if ctr < 3:
                        gs_table[idx] = ctr + 1
                elif ctr > 0:
                    gs_table[idx] = ctr - 1
                if gs_hist_bits:
                    gs_history = ((gs_history << 1) | taken) \
                        & gs_hist_mask
                if taken:
                    bst_tk += 1
                    bb = btb_sets[key & btb_mask]
                    if bb and bb[-1][0] == key:
                        entry = bb[-1]
                    else:
                        entry = None
                        for j in range(len(bb) - 2, -1, -1):
                            if bb[j][0] == key:
                                entry = bb.pop(j)
                                bb.append(entry)
                                break
                    if entry is None:
                        bst_btbm += 1
                        s_rst += resteer_pen
                        if len(bb) >= btb_ways:
                            bb.pop(0)
                        bb.append([key, target])
                    else:
                        if entry[1] != target:
                            bst_btbm += 1
                            s_rst += resteer_pen
                            entry[1] = target
                    s_dsb += taken_bubble
                if predicted != taken:
                    bst_mis += 1
                    s_bad += mis_pen
            elif kind == 4:                          # OP_EVENT
                flush()
                ev, payload = events[a0[i]]
                if ev == EV_JIT_CODE_EMITTED or ev == EV_JIT_CODE_MOVED:
                    self._on_jit_metadata(ev, payload)
                if event_hook is not None:
                    event_hook(ev, payload, self.cycles)
                reload()
            else:  # pragma: no cover - malformed trace
                flush()
                raise ValueError(f"unknown op kind {kind!r}")
        flush()
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
