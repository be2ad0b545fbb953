"""The trace protocol shared by workload generators and the pipeline model.

Workload programs (:mod:`repro.workloads`), the managed runtime
(:mod:`repro.runtime`) and the OS model (:mod:`repro.kernel`) all *emit*
operation tuples; the core pipeline model (:mod:`repro.uarch.pipeline`)
*consumes* them.  Plain tuples with an integer opcode keep the hot loop
fast — a run simulates 10^5-10^6 of these.

Operation tuples
----------------

``(OP_BLOCK, pc, n_instr, n_bytes, is_kernel)``
    Straight-line execution of a basic block: ``n_instr`` non-memory,
    non-branch instructions occupying ``n_bytes`` of code at ``pc``.
    The frontend fetches the byte range; ``is_kernel`` attributes the
    instructions to kernel or user mode (Table I metrics 0/1).

``(OP_BRANCH, pc, target, taken)``
    One branch instruction at ``pc``.  Resolved against the branch unit;
    drives bad-speculation and re-steer accounting.

``(OP_LOAD, addr)`` / ``(OP_STORE, addr)``
    One memory instruction accessing ``addr`` through D-TLB and D-cache.

``(OP_EVENT, kind, payload)``
    A runtime event marker (not an instruction): forwarded to the tracer /
    sampler.  ``kind`` is one of the ``EV_*`` constants.

Batched form
------------

:class:`TraceBuffer` holds the same operations in structure-of-arrays
form — four parallel int64 array columns (opcode, arg0..arg2) plus an
event side-table — so the native kernel reads the columns as they are
and the batched consume loop
(:meth:`repro.uarch.pipeline.Core.consume_buffer`) can pre-decode
addresses vectorized and index columns instead of unpacking one tuple
per op.  :class:`TraceBufferStream` chunks an op source into
sealed buffers; :meth:`TraceBuffer.iter_ops` converts back to tuples, so
either representation can feed either consume path.

Address-space layout
--------------------

A single flat virtual address space per workload, carved into regions so
that code, JIT code, heap and kernel structures never collide.  The
boundaries are coarse on purpose; the OS model only needs page-granular
uniqueness.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from repro import obs

# --- operation opcodes -------------------------------------------------
OP_BLOCK = 0
OP_BRANCH = 1
OP_LOAD = 2
OP_STORE = 3
OP_EVENT = 4

# --- runtime / tracer event kinds (Table I metrics 19-23) ---------------
EV_GC_TRIGGERED = "gc/triggered"
EV_GC_ALLOCATION_TICK = "gc/allocation_tick"
EV_JIT_STARTED = "jit/jitting_started"
EV_EXCEPTION = "exception/start"
EV_CONTENTION = "contention/start"
# Auxiliary events (not Table I metrics, used by analyses).
EV_GC_COMPLETED = "gc/completed"
EV_SYSCALL = "os/syscall"
EV_REQUEST_DONE = "app/request_done"
# JIT metadata events: payload (base, size) / (old_base, new_base, size).
# Always emitted; §VIII-extension hardware consumes them when enabled
# ("hooks in the ISA can be used by software to provide metadata
# regarding JITed code pages to the hardware").
EV_JIT_CODE_EMITTED = "jit/code_emitted"
EV_JIT_CODE_MOVED = "jit/code_moved"

RUNTIME_EVENT_KINDS = (
    EV_GC_TRIGGERED,
    EV_GC_ALLOCATION_TICK,
    EV_JIT_STARTED,
    EV_EXCEPTION,
    EV_CONTENTION,
)

# --- virtual address space layout ---------------------------------------
#: Statically compiled user code (the AOT'd parts of an app / SPEC binaries).
REGION_CODE_BASE = 0x0000_4000_0000
#: CLR runtime's own (precompiled) code: JIT compiler, GC, class loader.
REGION_CLR_CODE_BASE = 0x0000_6000_0000
#: JITed code pages — allocated fresh, never reused (see runtime.jit).
REGION_JIT_CODE_BASE = 0x0000_8000_0000
#: Kernel text (syscall handlers, network stack).
REGION_KERNEL_CODE_BASE = 0xFFFF_8000_0000
#: Managed heap (gen0/1/2 + LOH).
REGION_HEAP_BASE = 0x0000_C000_0000
#: Native/stack/static data.
REGION_STACK_BASE = 0x0000_7F00_0000
#: Kernel data (socket buffers, sk_buffs, page-cache pages).
REGION_KERNEL_DATA_BASE = 0xFFFF_C000_0000

PAGE_SIZE = 4096


# --- batched structure-of-arrays buffers --------------------------------

#: OP_BLOCK packs ``n_bytes | (kernel << BLOCK_KERNEL_SHIFT)`` into column
#: a2.  Bit 32 leaves the full u32 range for block byte counts while
#: keeping every column value inside int64 for the vectorized decode.
BLOCK_KERNEL_SHIFT = 32
_KERNEL_BIT = 1 << BLOCK_KERNEL_SHIFT
BLOCK_NBYTES_MASK = _KERNEL_BIT - 1


class TraceBuffer:
    """One chunk of trace operations in structure-of-arrays form.

    Columns (parallel int64 ``array('q')`` columns, one entry per op;
    the native walker appends to them with one ``frombytes`` each and
    the native kernel reads them without conversion):

    ======== ============== ============== ==============================
    opcode   a0             a1             a2
    ======== ============== ============== ==============================
    OP_BLOCK pc             n_instr        n_bytes | (kernel << 32)
    OP_BRANCH pc            target         taken (0/1)
    OP_LOAD  addr           0              0
    OP_STORE addr           0              0
    OP_EVENT event index    0              0
    ======== ============== ============== ==============================

    Event ``(kind, payload)`` pairs live in the ``events`` side-table,
    indexed by a0 — payloads are arbitrary Python objects and must not
    constrain the hot columns.  :meth:`seal` pre-decodes the address
    columns vectorized (cache line, line of the last block byte) so the
    consume loop never shifts per op.
    """

    __slots__ = ("kinds", "a0", "a1", "a2", "events", "n_instructions",
                 "lines", "line_ends", "_vcols")

    def __init__(self) -> None:
        self.kinds = array("q")
        self.a0 = array("q")
        self.a1 = array("q")
        self.a2 = array("q")
        self.events: list[tuple] = []
        self.n_instructions = 0
        self.lines: list[int] | None = None
        self.line_ends: list[int] | None = None
        # Per-buffer cache of the vector engine's derived columns
        # (numpy views, prev-occurrence indexes, per-window segments);
        # owned by repro.uarch.vector, invalidated with the columns.
        self._vcols = None

    def __len__(self) -> int:
        return len(self.kinds)

    # -- push emitters (the batched twins of yielding a tuple) ----------
    def block(self, pc: int, n_instr: int, n_bytes: int,
              kernel: bool = False) -> None:
        self.kinds.append(OP_BLOCK)
        self.a0.append(pc)
        self.a1.append(n_instr)
        self.a2.append(n_bytes | _KERNEL_BIT if kernel else n_bytes)
        self.n_instructions += n_instr

    def branch(self, pc: int, target: int, taken) -> None:
        self.kinds.append(OP_BRANCH)
        self.a0.append(pc)
        self.a1.append(target)
        self.a2.append(1 if taken else 0)
        self.n_instructions += 1

    def load(self, addr: int) -> None:
        self.kinds.append(OP_LOAD)
        self.a0.append(addr)
        self.a1.append(0)
        self.a2.append(0)
        self.n_instructions += 1

    def store(self, addr: int) -> None:
        self.kinds.append(OP_STORE)
        self.a0.append(addr)
        self.a1.append(0)
        self.a2.append(0)
        self.n_instructions += 1

    def event(self, kind: str, payload) -> None:
        self.kinds.append(OP_EVENT)
        self.a0.append(len(self.events))
        self.a1.append(0)
        self.a2.append(0)
        self.events.append((kind, payload))

    # -- generator-compatibility adapters -------------------------------
    def extend(self, ops) -> None:
        """Append every op tuple from ``ops`` (drains generators eagerly)."""
        self.fill_from(iter(ops), None)

    def fill_from(self, ops_iter, max_instructions: int | None) -> bool:
        """Pull ops until ``max_instructions`` more are buffered.

        Returns ``True`` when the iterator was exhausted (like a trace
        replay ending), ``False`` when the target was reached first.
        The target is a lower bound: the buffer stops after the op that
        crosses it, never mid-op.
        """
        kinds = self.kinds
        a0 = self.a0
        a1 = self.a1
        a2 = self.a2
        events = self.events
        n = self.n_instructions
        target = (n + max_instructions
                  if max_instructions is not None else None)
        for op in ops_iter:
            kind = op[0]
            if kind == OP_LOAD or kind == OP_STORE:
                kinds.append(kind)
                a0.append(op[1])
                a1.append(0)
                a2.append(0)
                n += 1
            elif kind == OP_BLOCK:
                kinds.append(OP_BLOCK)
                a0.append(op[1])
                a1.append(op[2])
                a2.append(op[3] | _KERNEL_BIT if op[4] else op[3])
                n += op[2]
            elif kind == OP_BRANCH:
                kinds.append(OP_BRANCH)
                a0.append(op[1])
                a1.append(op[2])
                a2.append(1 if op[3] else 0)
                n += 1
            elif kind == OP_EVENT:
                kinds.append(OP_EVENT)
                a0.append(len(events))
                a1.append(0)
                a2.append(0)
                events.append((op[1], op[2]))
            else:
                raise ValueError(f"unknown op kind {kind!r}")
            if target is not None and n >= target:
                self.n_instructions = n
                return False
        self.n_instructions = n
        return True

    def iter_ops(self):
        """Yield the buffered ops back as plain tuples (legacy consume)."""
        kinds = self.kinds
        a0 = self.a0
        a1 = self.a1
        a2 = self.a2
        events = self.events
        for i in range(len(kinds)):
            kind = kinds[i]
            if kind == OP_LOAD or kind == OP_STORE:
                yield (kind, a0[i])
            elif kind == OP_BLOCK:
                packed = a2[i]
                yield (OP_BLOCK, a0[i], a1[i], packed & BLOCK_NBYTES_MASK,
                       bool(packed >> BLOCK_KERNEL_SHIFT))
            elif kind == OP_BRANCH:
                yield (OP_BRANCH, a0[i], a1[i], bool(a2[i]))
            else:
                ev_kind, payload = events[a0[i]]
                yield (OP_EVENT, ev_kind, payload)

    # -- vectorized transforms ------------------------------------------
    def color_private(self, spans, color: int) -> None:
        """Offset load/store addresses inside ``spans`` by ``color``.

        The buffer-level form of :func:`repro.harness.runner._color_ops`:
        one vectorized mask instead of one tuple rebuild per memory op.
        """
        if not color or not len(self.kinds):
            return
        kinds = np.asarray(self.kinds)
        a0 = np.array(self.a0, dtype=np.int64)     # never alias a column
        mem = (kinds == OP_LOAD) | (kinds == OP_STORE)
        in_span = np.zeros(len(a0), dtype=bool)
        for lo, hi in spans:
            in_span |= (a0 >= lo) & (a0 < hi)
        mask = mem & in_span
        if mask.any():
            a0[mask] += color
            col = array("q")
            col.frombytes(a0.view(np.uint8))
            self.a0 = col
            self.lines = None
            self.line_ends = None
            self._vcols = None

    def seal(self) -> "TraceBuffer":
        """Pre-decode address columns; idempotent, returns ``self``."""
        if self.lines is not None:
            return self
        _t0 = time.perf_counter() if obs.enabled() else None
        a0 = np.asarray(self.a0, dtype=np.int64)
        sizes = np.asarray(self.a2, dtype=np.int64) & BLOCK_NBYTES_MASK
        # 64 B cache lines, matching the hardcoded shifts of the
        # pipeline's fetch/micro-TLB paths (pages derive from lines).
        lines = a0 >> 6
        line_ends = (a0 + sizes - 1) >> 6
        if isinstance(self.a0, list):
            self.lines = lines.tolist()
            self.line_ends = line_ends.tolist()
        else:
            # Array/memoryview columns: expose the derived columns as
            # memoryviews too — indexing a memoryview yields native
            # Python ints, which the consume fast path feeds into model
            # state (repr-level bit-identity with the list-backed decode
            # requires exact int types).
            self.lines = memoryview(lines)
            self.line_ends = memoryview(line_ends)
        if _t0 is not None:
            obs.observe("sim.seal_seconds", time.perf_counter() - _t0)
        return self

    @classmethod
    def from_columns(cls, kinds, a0, a1, a2, events,
                     n_instructions: int) -> "TraceBuffer":
        """Adopt prebuilt columns (lists, arrays or memoryviews) verbatim.

        The zero-copy decode path of :mod:`repro.perf.trace_io` hands
        ``memoryview`` columns over the trace file bytes (the opcode
        column one byte per op, the others int64); indexing one yields a
        native Python ``int``, so the consume loops see exactly the
        values the array-backed columns would hold.
        """
        buf = cls.__new__(cls)
        buf.kinds = kinds
        buf.a0 = a0
        buf.a1 = a1
        buf.a2 = a2
        buf.events = events
        buf.n_instructions = n_instructions
        buf.lines = None
        buf.line_ends = None
        buf._vcols = None
        return buf


def pulled(fill, *args, **kwargs):
    """Pull form of a push emitter: yield, as op tuples, what
    ``fill(buf, *args, **kwargs)`` pushes into a scratch buffer.

    ``fill`` runs in full on the first ``next()``.  That is equivalent to
    a generator emitting the same ops one by one because nothing touches
    the emitter's state (its RNG, heap, live set, recency rings) while
    the generator is suspended: the program that owns that state is
    suspended in the same ``yield from`` chain.
    """
    buf = TraceBuffer()
    fill(buf, *args, **kwargs)
    yield from buf.iter_ops()


class TraceBufferStream:
    """Chunked :class:`TraceBuffer` view over an op source.

    Exactly one source must be given:

    ``ops``
        A tuple iterator/generator; chunks are pulled through
        :meth:`TraceBuffer.fill_from`.
    ``filler``
        A push callback ``filler(buf, n_instructions) -> exhausted`` —
        the fast path for programs that implement ``fill_buffer``.
    ``buffers``
        An iterable of prebuilt :class:`TraceBuffer` chunks (trace
        replay).

    The stream tracks a resume offset ``pos`` inside the current chunk,
    so interrupted consumption (instruction limits, multicore quanta)
    continues mid-chunk.  ``transform`` is applied to each chunk before
    sealing (per-core address coloring).
    """

    __slots__ = ("chunk_instructions", "transform", "buf", "pos",
                 "_ops", "_filler", "_buffers", "_exhausted")

    def __init__(self, ops=None, filler=None, buffers=None,
                 chunk_instructions: int = 65536, transform=None) -> None:
        if sum(src is not None for src in (ops, filler, buffers)) != 1:
            raise ValueError("exactly one of ops/filler/buffers required")
        self.chunk_instructions = chunk_instructions
        self.transform = transform
        self.buf: TraceBuffer | None = None
        self.pos = 0
        self._ops = iter(ops) if ops is not None else None
        self._filler = filler
        self._buffers = iter(buffers) if buffers is not None else None
        self._exhausted = False

    def buffer(self) -> TraceBuffer | None:
        """The current sealed chunk with unconsumed ops, or ``None``."""
        buf = self.buf
        if buf is not None and self.pos < len(buf.kinds):
            return buf
        while True:
            if self._exhausted:
                return None
            if self._buffers is not None:
                buf = next(self._buffers, None)
                if buf is None:
                    self._exhausted = True
                    return None
            else:
                buf = TraceBuffer()
                if self._filler is not None:
                    self._exhausted = bool(
                        self._filler(buf, self.chunk_instructions))
                else:
                    self._exhausted = buf.fill_from(
                        self._ops, self.chunk_instructions)
            if self.transform is not None:
                self.transform(buf)
            self.buf = buf.seal()
            self.pos = 0
            if buf.kinds:
                return buf

    def iter_ops(self):
        """Remaining ops as tuples (feeds the legacy consume path)."""
        while True:
            buf = self.buffer()
            if buf is None:
                return
            pos = self.pos
            self.pos = len(buf.kinds)
            ops = buf.iter_ops()
            if pos:
                for _ in range(pos):
                    next(ops)
            yield from ops
