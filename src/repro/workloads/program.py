"""Synthetic program execution: turns a WorkloadSpec into a trace-op stream.

Two program families:

* :class:`ManagedProgram` — runs on the CLR model: methods are JITed on
  first call and re-tiered when hot, allocation feeds the GC, and data
  accesses go through the (compaction-sensitive) managed heap.  .NET
  microbenchmarks and ASP.NET servers are both managed programs; ASP.NET
  adds a request/response kernel-interaction loop
  (:class:`AspNetProgram`).
* :class:`NativeProgram` — SPEC-style: one static code image, no runtime
  events, data in a pre-faulted native working set.

Programs push an *infinite* op stream into trace buffers
(``fill_buffer``); the harness bounds execution by instruction count at
the consuming side.
"""

from __future__ import annotations

import random
from array import array

from repro.codegen import (MI_LIVE, MI_NLIVE, MI_RING, MI_STATE,
                           MODEL_DATA, AddressModel, CodeRegion, fifo_push)
from repro.kernel.syscalls import SyscallKind, SyscallModel
from repro.runtime.clr import Clr, ClrImage, shared_clr_image
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.runtime.jit import Method
from repro.seeding import stable_seed
from repro.trace import (EV_REQUEST_DONE, REGION_CODE_BASE,
                         REGION_STACK_BASE)
from repro.workloads.spec import SuiteName, WorkloadSpec

_LINE = 64

#: DataModel state vector slots (mirror ``DS_*`` in ``_codegen.c``)
(_ST_RECENT_N, _ST_RECENT_HEAD, _ST_WARM_N, _ST_WARM_IDX, _ST_EP_N,
 _ST_EP_IDX, _ST_CURSOR) = range(7)


class DataModel(AddressModel):
    """Data-address generators implementing the spec's locality profile.

    The :class:`~repro.codegen.AddressModel` a program's code walks are
    driven with: ``load_addr``/``store_addr`` sample the stack, the
    streaming buffers, the native working set and (for managed programs)
    the live object set according to the spec's fractions.  Its state —
    the three recency rings and the stream cursor — lives in int64
    arrays shared with the native walker, and ``live_addrs`` (the
    managed heap's :class:`~repro.runtime.heap.LongLivedSet` addresses)
    is read in place by both walkers.
    """

    __slots__ = ("spec", "live_addrs", "native_base", "stream_base",
                 "_stream_span", "_native_pages", "_hot_pages",
                 "_stack_lines", "_slot_lines", "_rings", "_st")

    STACK_BYTES = 4 * 1024
    #: recency-tier capacities: burst (L1), warm (L2), episode (LLC)
    RECENT_CAP = 6
    WARM_CAP = 400
    EPISODE_CAP = 6000

    def __init__(self, spec: WorkloadSpec, rng: random.Random,
                 live_addrs, native_base: int, stream_base: int) -> None:
        if live_addrs is not None and not isinstance(live_addrs, array):
            live_addrs = array("q", live_addrs)     # a snapshot of a list
        self.spec = spec
        self.live_addrs = live_addrs
        self.native_base = native_base
        self.stream_base = stream_base
        self._stream_span = max(_LINE, spec.stream_bytes)
        self._native_pages = max(1, spec.native_ws_bytes // 4096)
        self._hot_pages = max(1, min(spec.hot_ws_bytes,
                                     spec.native_ws_bytes or
                                     spec.hot_ws_bytes) // 4096)
        self._stack_lines = self.STACK_BYTES // _LINE
        self._slot_lines = max(1, spec.object_slot // _LINE)
        # Stack-distance cascade.  Real access streams are dominated by
        # short stack distances; three recency tiers model that:
        #   recent (burst, ~6 addrs)     -> L1 hits
        #   warm (~400 addrs)            -> L2-distance revisits
        #   episode (~6000 addrs)        -> LLC-distance revisits
        # Only ``fresh_new_frac`` of non-burst draws sample the global
        # distribution (deep distances: compulsory / DRAM).  ``_rings``
        # holds the three back to back; ``_st`` is their fill state
        # (see _ST_*) plus the stream cursor.
        self._rings = array("q", bytes(8 * (self.RECENT_CAP + self.WARM_CAP
                                            + self.EPISODE_CAP)))
        self._st = array("q", bytes(8 * 7))
        super().__init__(
            rng, MODEL_DATA,
            (self._stack_lines, self._slot_lines, self._native_pages,
             self._hot_pages, native_base, stream_base, self._stream_span,
             self.RECENT_CAP, self.WARM_CAP, self.EPISODE_CAP,
             REGION_STACK_BASE),
            (spec.stream_frac, spec.temporal_reuse, spec.stack_frac,
             spec.fresh_new_frac, spec.pointer_chase_frac, spec.cold_frac,
             spec.hot_skew, min(0.9, spec.stack_frac * 1.6)))

    def native_args(self):
        mi = self._mi
        mi[MI_RING] = self._rings.buffer_info()[0]
        mi[MI_STATE] = self._st.buffer_info()[0]
        live = self.live_addrs
        if live is not None:
            mi[MI_LIVE], mi[MI_NLIVE] = live.buffer_info()
        return mi, self._md

    # -- individual generators -------------------------------------------
    def stack_addr(self) -> int:
        # Strong locality: geometric concentration near the stack top.
        r = self.rng.random()
        line = int(r * r * self._stack_lines)
        return REGION_STACK_BASE + line * _LINE

    def stream_addr(self) -> int:
        # 8-byte stride: eight consecutive reads share a line, so streams
        # mostly hit L1 and train the L2 stream prefetcher.
        st = self._st
        cursor = st[_ST_CURSOR] = (st[_ST_CURSOR] + 8) % self._stream_span
        return self.stream_base + cursor

    def hot_object_addr(self) -> int:
        addrs = self.live_addrs
        idx = int(len(addrs) * self.rng.random() ** self.spec.hot_skew)
        base = addrs[idx]
        if self._slot_lines > 1:
            base += int(self.rng.random() * self._slot_lines) * _LINE
        return base

    def native_addr(self, uniform: bool = False) -> int:
        """Two-tier page-then-line sampling of the native working set.

        Hot draws concentrate (zipf-like) on a resident hot region; a
        ``cold_frac`` minority sweeps the full working set (capacity /
        compulsory misses).  Sampling the *page* first and the line within
        it second keeps pages hot even when lines are spread — real
        working sets are page-dense, which is what keeps SPEC dTLB rates
        sane while its caches still miss.
        """
        rng = self.rng
        if uniform or rng.random() < self.spec.cold_frac:
            page = int(rng.random() * self._native_pages)
        else:
            page = int(rng.random() ** self.spec.hot_skew * self._hot_pages)
        return (self.native_base + page * 4096
                + int(rng.random() * 64) * _LINE)

    def _recent_pick(self) -> int:
        st = self._st
        k = int(self.rng.random() * st[_ST_RECENT_N])
        return self._rings[(st[_ST_RECENT_HEAD] + k) % self.RECENT_CAP]

    def _remember(self, addr: int) -> int:
        rings = self._rings
        st = self._st
        fifo_push(rings, st, self.RECENT_CAP, addr)
        n = st[_ST_WARM_N]
        if n < self.WARM_CAP:
            rings[_WARM0 + n] = addr
            st[_ST_WARM_N] = n + 1
        else:
            i = st[_ST_WARM_IDX]
            rings[_WARM0 + i] = addr
            st[_ST_WARM_IDX] = (i + 1) % self.WARM_CAP
        n = st[_ST_EP_N]
        if n < self.EPISODE_CAP:
            rings[_EPISODE0 + n] = addr
            st[_ST_EP_N] = n + 1
        else:
            i = st[_ST_EP_IDX]
            rings[_EPISODE0 + i] = addr
            st[_ST_EP_IDX] = (i + 1) % self.EPISODE_CAP
        return addr

    def _fresh_load(self) -> int:
        s = self.spec
        rng = self.rng
        st = self._st
        r = rng.random()
        if r < s.stack_frac:
            return self.stack_addr()
        # Recency-tier revisits before any genuinely new sample.
        if rng.random() >= s.fresh_new_frac:
            n = st[_ST_WARM_N]
            if n and rng.random() < 0.6:
                return self._rings[_WARM0 + int(rng.random() * n)]
            n = st[_ST_EP_N]
            if n:
                return self._rings[_EPISODE0 + int(rng.random() * n)]
        r = rng.random()
        if s.pointer_chase_frac and r < s.pointer_chase_frac:
            return self.native_addr(uniform=True)
        if self.live_addrs is not None:
            return self._remember(self.hot_object_addr())
        return self._remember(self.native_addr())

    # -- the mixture entry points -----------------------------------------
    def load_addr(self) -> int:
        rng = self.rng
        s = self.spec
        # Streaming loads keep their own (sequential) locality and bypass
        # the reuse ring — they are the stream share of *all* loads.
        if s.stream_frac and rng.random() < s.stream_frac:
            return self.stream_addr()
        if self._st[_ST_RECENT_N] and rng.random() < s.temporal_reuse:
            return self._recent_pick()
        return self._fresh_load()

    def store_addr(self) -> int:
        s = self.spec
        if self._st[_ST_RECENT_N] and self.rng.random() < s.temporal_reuse:
            return self._recent_pick()
        # Fresh stores skew further towards the stack (spills, locals).
        if self.rng.random() < min(0.9, s.stack_frac * 1.6):
            return self.stack_addr()
        if self.live_addrs is not None:
            return self._remember(self.hot_object_addr())
        return self._remember(self.native_addr())


#: offsets of the warm and episode tiers inside ``DataModel._rings``
_WARM0 = DataModel.RECENT_CAP
_EPISODE0 = _WARM0 + DataModel.WARM_CAP


class NativeProgram:
    """A SPEC-CPU-style native program (no managed runtime)."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 code_bloat: float = 1.0) -> None:
        self.spec = spec
        self.rng = random.Random(stable_seed(seed, spec.qualified_name))
        code_bytes = int(spec.static_code_bytes * code_bloat)
        self.code = CodeRegion(REGION_CODE_BASE, code_bytes,
                               seed=stable_seed(seed, spec.name, "code"),
                               mix=spec.mix_profile())
        native_base = REGION_STACK_BASE + 0x100000
        stream_base = native_base + max(spec.native_ws_bytes, _LINE)
        self.data = DataModel(spec, self.rng, live_addrs=None,
                              native_base=native_base,
                              stream_base=stream_base)
        self._native_span = (native_base,
                             max(spec.native_ws_bytes, _LINE)
                             + spec.stream_bytes + 0x100000)

    def premap_ranges(self) -> list[tuple[int, int]]:
        """(start, length) ranges faulted in before execution.

        Recorded in trace metadata so a replayed trace can reconstruct
        the same initial VM state without rebuilding the program.
        """
        start, length = self._native_span
        return [(start, length),
                (REGION_CODE_BASE, self.code.size_bytes),
                (REGION_STACK_BASE, DataModel.STACK_BYTES)]

    def premap(self, vm) -> None:
        """Fault in the working set (SPEC initializes its data at startup,
        outside the measurement window)."""
        for start, length in self.premap_ranges():
            vm.premap_range(start, length)

    def fill_buffer(self, buf, n_instructions: int) -> bool:
        """Push ~``n_instructions`` of ops into ``buf`` (never exhausts).

        Pushes whole 4096-instruction code walks, so the op sequence
        does not depend on how it is chunked.
        """
        rng = self.rng
        data = self.data
        walk_into = self.code.walk_into
        target = buf.n_instructions + n_instructions
        while buf.n_instructions < target:
            walk_into(buf, rng, 4096, model=data)
        return False


class ManagedProgram:
    """A .NET program running on the CLR model."""

    #: user instructions per method call in a work item's call chain
    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 heap_config: HeapConfig | None = None,
                 gc_config: GcConfig | None = None,
                 clr_image: ClrImage | None = None,
                 syscalls: SyscallModel | None = None,
                 code_bloat: float = 1.0,
                 reuse_code_pages: bool = False,
                 compaction_enabled: bool = True) -> None:
        self.spec = spec
        base_seed = stable_seed(seed, spec.qualified_name)
        self.rng = random.Random(base_seed)
        # The kernel image is the same for every process (seed 0); only
        # buffer-pool state is per-program.
        self.syscalls = syscalls or SyscallModel()
        image = clr_image or shared_clr_image(code_bloat=code_bloat)
        heap_config = heap_config or HeapConfig()
        gc_config = gc_config or GcConfig(
            max_heap_bytes=heap_config.max_heap_bytes)
        self.clr = Clr(
            image, heap_config, gc_config,
            long_lived_count=spec.hot_objects,
            long_lived_slot=spec.object_slot,
            cold_live_bytes=spec.cold_live_bytes,
            churn_per_call=spec.churn_per_call,
            tiering=spec.tiering,
            reuse_code_pages=reuse_code_pages,
            compaction_enabled=compaction_enabled,
            code_bloat=code_bloat,
            syscalls=self.syscalls,
            seed=base_seed ^ 0xC14,
        )
        mix = spec.mix_profile(bytes_per_instr=4.6)   # JIT code is less dense
        for mid in range(spec.n_methods):
            size = max(96, int(self.rng.lognormvariate(0, 0.6)
                               * spec.method_size_mean))
            method = Method(
                id=mid, size_bytes=size,
                seed=stable_seed(base_seed, "m", mid), mix=mix)
            self.clr.register_method(method)
            # ReadyToRun: most framework methods ship precompiled.
            if self.rng.random() < spec.prejit_frac:
                self.clr.jit.precompile(method)
        stream_base = REGION_STACK_BASE + 0x400000
        self.data = DataModel(spec, self.rng,
                              live_addrs=self.clr.live_set.addrs,
                              native_base=stream_base,
                              stream_base=stream_base)
        # Rate accumulators (events per work item may be < 1).
        self._acc = {"alloc": 0.0, "sys": 0.0, "exc": 0.0, "con": 0.0}

    # ------------------------------------------------------------------
    def _pick_method(self) -> Method:
        n = self.spec.n_methods
        idx = int(n * self.rng.random() ** self.spec.method_skew)
        return self.clr.get_method(min(idx, n - 1))

    def _take(self, key: str, per_item: float) -> int:
        self._acc[key] += per_item
        n = int(self._acc[key])
        self._acc[key] -= n
        return n

    def premap_ranges(self) -> list[tuple[int, int]]:
        """Static data ranges faulted in before execution (see
        :meth:`NativeProgram.premap_ranges`)."""
        return [(REGION_STACK_BASE, DataModel.STACK_BYTES),
                (self.data.stream_base, self.spec.stream_bytes)]

    def premap(self, vm) -> None:
        """Fault in static data regions only (managed code/heap faults are
        part of the phenomenon being measured)."""
        for start, length in self.premap_ranges():
            vm.premap_range(start, length)

    def _call_chain_into(self, buf, budget: int) -> None:
        """Execute a chain of method calls totalling ~``budget`` instrs."""
        spec = self.spec
        depth = max(1, spec.call_chain_depth)
        per_method = max(60, budget // depth)
        rng = self.rng
        data = self.data
        for _ in range(depth):
            method = self._pick_method()
            self.clr.enter_method_into(buf, method)
            method.region.walk_into(buf, rng, per_method, model=data)

    def _work_item_into(self, buf) -> None:
        spec = self.spec
        wi = spec.work_item_instructions
        n_alloc = self._take("alloc", spec.allocs_per_kinstr * wi / 1000)
        if n_alloc:
            self.clr.allocate_batch_into(buf, n_alloc,
                                         spec.alloc_size_mean)
        n_sys = self._take("sys", spec.syscalls_per_kinstr * wi / 1000)
        for _ in range(n_sys):
            self._emit_syscall_into(buf)
        self._call_chain_into(buf, wi)
        if self._take("exc", spec.exceptions_per_minstr * wi / 1e6):
            self.clr.throw_exception_into(buf)
        if self._take("con", spec.contentions_per_minstr * wi / 1e6):
            self.clr.contend_lock_into(buf)

    def _emit_syscall_into(self, buf) -> None:
        spec = self.spec
        if not spec.syscall_mix:
            return
        r = self.rng.random() * sum(w for _, w in spec.syscall_mix)
        for kind, weight in spec.syscall_mix:
            r -= weight
            if r <= 0:
                break
        self.syscalls.emit_into(buf, kind, self.rng,
                                payload_bytes=spec.syscall_payload_bytes,
                                user_buffer=REGION_STACK_BASE + 0x8000)

    def fill_buffer(self, buf, n_instructions: int) -> bool:
        """Push ~``n_instructions`` of work items into ``buf``.

        Chunk boundaries land on work-item boundaries.  Never exhausts.
        """
        target = buf.n_instructions + n_instructions
        while buf.n_instructions < target:
            self._work_item_into(buf)
        return False


class AspNetProgram(ManagedProgram):
    """ASP.NET server: each work item is one HTTP request.

    Request lifecycle (§II-B's server component): ``epoll_wait`` →
    ``recv`` the request → parse/dispatch (method calls) → optional DB
    round-trips (``send``/``recv`` on the DB socket) → serialize →
    ``send`` the response, chunked at 64 KiB.
    """

    CHUNK = 64 * 1024

    def _work_item_into(self, buf) -> None:
        spec = self.spec
        rng = self.rng
        sysm = self.syscalls
        ubuf = REGION_STACK_BASE + 0x8000
        sysm.emit_into(buf, SyscallKind.EPOLL_WAIT, rng)
        # Large uploads arrive in chunks interleaved with parsing.
        remaining = max(spec.request_bytes, 1)
        recv_chunks = max(1, (remaining + self.CHUNK - 1) // self.CHUNK)
        n_alloc = self._take("alloc", spec.allocs_per_kinstr
                             * spec.work_item_instructions / 1000)
        parse_budget = int(spec.work_item_instructions
                           * (0.5 if recv_chunks > 1 else 0.0))
        for _ in range(recv_chunks):
            chunk = min(self.CHUNK, remaining)
            sysm.emit_into(buf, SyscallKind.RECV, rng, payload_bytes=chunk,
                           user_buffer=ubuf)
            remaining -= chunk
            if recv_chunks > 1:
                self._call_chain_into(buf, parse_budget // recv_chunks)
        # App logic: managed method calls + allocation.
        if n_alloc:
            self.clr.allocate_batch_into(buf, n_alloc, spec.alloc_size_mean)
        send_chunks = max(1, (spec.response_bytes + self.CHUNK - 1)
                          // self.CHUNK)
        app_budget = spec.work_item_instructions - parse_budget
        serialize_budget = (int(app_budget * 0.55) if send_chunks > 1 else 0)
        # Big responses serialize through a Large-Object-Heap buffer,
        # recycled across requests via the LOH free list (like real
        # ASP.NET's ArrayPool/PipeWriter buffers).
        loh_buffer = None
        if send_chunks > 1:
            loh_size = min(spec.response_bytes, self.CHUNK)
            self.clr.alloc_large_into(buf, loh_size)
            loh_buffer = (self.clr._last_loh[0], loh_size)
        self._call_chain_into(buf, app_budget - serialize_budget)
        for _ in range(spec.db_queries_per_request):
            sysm.emit_into(buf, SyscallKind.SEND, rng, payload_bytes=256,
                           user_buffer=ubuf)
            sysm.emit_into(buf, SyscallKind.RECV, rng,
                           payload_bytes=spec.db_response_bytes,
                           user_buffer=ubuf)
        # Responses stream out chunk by chunk, serialization interleaved;
        # large responses send from the LOH buffer.
        remaining = spec.response_bytes
        send_buf = loh_buffer[0] if loh_buffer else ubuf
        while remaining > 0:
            chunk = min(self.CHUNK, remaining)
            if send_chunks > 1:
                self._call_chain_into(buf, serialize_budget // send_chunks)
            sysm.emit_into(buf, SyscallKind.SEND, rng, payload_bytes=chunk,
                           user_buffer=send_buf)
            remaining -= chunk
        if loh_buffer is not None:
            self.clr.free_large(*loh_buffer)
        if self._take("exc", spec.exceptions_per_minstr
                      * spec.work_item_instructions / 1e6):
            self.clr.throw_exception_into(buf)
        if self._take("con", spec.contentions_per_minstr
                      * spec.work_item_instructions / 1e6):
            self.clr.contend_lock_into(buf)
        buf.event(EV_REQUEST_DONE, None)


def build_program(spec: WorkloadSpec, seed: int = 0, *,
                  heap_config: HeapConfig | None = None,
                  gc_config: GcConfig | None = None,
                  code_bloat: float = 1.0,
                  reuse_code_pages: bool = False,
                  compaction_enabled: bool = True):
    """Instantiate the right program family for ``spec``."""
    if not spec.managed:
        return NativeProgram(spec, seed=seed, code_bloat=code_bloat)
    cls = AspNetProgram if spec.suite == SuiteName.ASPNET else ManagedProgram
    return cls(spec, seed=seed, heap_config=heap_config,
               gc_config=gc_config, code_bloat=code_bloat,
               reuse_code_pages=reuse_code_pages,
               compaction_enabled=compaction_enabled)
