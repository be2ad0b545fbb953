"""Deterministic synthetic-code regions.

A :class:`CodeRegion` models a contiguous range of machine code as a
sequence of basic blocks with *fixed, per-block* properties (size, branch
bias, memory-op counts) derived from a seed.  Re-walking the same region
replays the same PCs and branch biases, so PC-indexed hardware structures
(I-cache, I-TLB, BTB, gshare tables, the DSB) can train on it — and lose
that training when the region is re-emitted at a new base address after a
JIT event, which is the central mechanism behind the paper's cold-start
findings (§VII-A1).

The walker is the hottest loop of trace generation.  It runs in C
(``_codegen.c``, built into the native library of
:mod:`repro.uarch.native`) and pushes straight into the array columns of
a :class:`~repro.trace.TraceBuffer`; :meth:`CodeRegion._walk_py` is the
readable Python reference and the fallback when the library is
unavailable.  Both are driven by an :class:`AddressModel`, whose state
lives in int64 arrays either walker reads and writes, and both draw from
the caller's ``random.Random``, exported to C and restored around each
native walk.
"""

from __future__ import annotations

import random
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from repro.trace import (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE,
                         _KERNEL_BIT)


@dataclass(frozen=True)
class MixProfile:
    """Instruction-mix shape for generated code.

    ``branch_frac + load_frac + store_frac`` must be < 1; the remainder is
    plain ALU/FP work.  ``avg_block_instr`` is implied by ``branch_frac``
    (one branch terminates each block).
    """

    branch_frac: float = 0.16
    load_frac: float = 0.28
    store_frac: float = 0.14
    bytes_per_instr: float = 4.0
    taken_bias: float = 0.45        # fraction of biased branches biased taken
    bias_spread: float = 0.35       # control-flow entropy knob: scales the
                                    # share of hard-to-predict branches
    loop_frac: float = 0.12         # fraction of blocks that are loop bodies
    avg_loop_trips: float = 6.0
    #: bytes of region per hot entry point — higher = fewer, hotter paths
    #: (native loop-dominated code is far more concentrated than a
    #: managed method soup)
    hot_entry_divisor: int = 2000

    def __post_init__(self) -> None:
        total = self.branch_frac + self.load_frac + self.store_frac
        if not 0 < self.branch_frac <= 0.5:
            raise ValueError(f"branch_frac {self.branch_frac} out of (0, 0.5]")
        if total >= 1.0:
            raise ValueError(f"instruction fractions sum to {total} >= 1")

    @property
    def block_instructions(self) -> float:
        """Average total instructions per basic block (incl. the branch)."""
        return 1.0 / self.branch_frac


# ---------------------------------------------------------------------------
# Address models.

#: Model kinds and the layout of the integer parameter vector; mirror the
#: ``MODEL_*`` and ``MI_*`` enums of ``_codegen.c``.
MODEL_DATA, MODEL_RING, MODEL_JIT, MODEL_STACK, MODEL_CONST = range(5)
MI_KIND, MI_RING, MI_STATE, MI_LIVE, MI_NLIVE = range(5)
MI_X = 8                        # first model-specific slot


def fifo_push(ring, st, cap: int, addr: int) -> None:
    """Append ``addr`` to the FIFO ``ring[0:cap)`` (state ``st[0]`` =
    length, ``st[1]`` = index of the oldest entry), dropping the oldest
    entry when full.  Entry ``k`` (oldest first) is
    ``ring[(st[1] + k) % cap]``: a fixed-capacity ``list.pop(0)`` +
    ``append``."""
    n = st[0]
    if n < cap:
        ring[(st[1] + n) % cap] = addr
        st[0] = n + 1
    else:
        head = st[1]
        ring[head] = addr
        st[1] = (head + 1) % cap


class AddressModel:
    """A data-address generator a :class:`CodeRegion` walk is driven with.

    ``load_addr``/``store_addr`` are the Python reference.  The native
    walker reads the same model from :meth:`native_args`: an int64
    vector ``mi`` (kind, pointers to the model's state arrays, integer
    parameters) and a float64 vector ``md``.  ``rng`` is the generator
    the model draws from; the native walker only runs a model whose
    ``rng`` is the walk's own (or ``None``: the model draws nothing).
    """

    __slots__ = ("rng", "_mi", "_md")

    def __init__(self, rng, kind: int, ints=(), doubles=()) -> None:
        self.rng = rng
        mi = [0] * MI_X + list(ints)
        mi[MI_KIND] = kind
        mi[MI_NLIVE] = -1                  # no live set
        self._mi = array("q", mi)
        self._md = array("d", list(doubles) or [0.0])

    def load_addr(self) -> int:
        raise NotImplementedError

    def store_addr(self) -> int:
        return self.load_addr()

    def native_args(self):
        """``(mi, md)`` with the state pointers filled in for this call."""
        return self._mi, self._md


class ConstAddress(AddressModel):
    """Every access hits one address (a contended lock word)."""

    __slots__ = ("addr",)

    def __init__(self, addr: int) -> None:
        super().__init__(None, MODEL_CONST, (addr,))
        self.addr = addr

    def load_addr(self) -> int:
        return self.addr


class StackAddress(AddressModel):
    """Uniform over the 64 lines above a stack pointer (an unwinder)."""

    __slots__ = ("sp",)

    def __init__(self, rng, sp: int) -> None:
        super().__init__(rng, MODEL_STACK, (sp,))
        self.sp = sp

    def load_addr(self) -> int:
        return self.sp + int(self.rng.random() * 64) * 64


class JitMetaAddress(AddressModel):
    """JIT compiler data: hot shared tables plus the method's own IL."""

    __slots__ = ("meta_base", "hot_lines", "il_base", "il_lines")

    def __init__(self, rng, meta_base: int, hot_lines: int, il_base: int,
                 il_lines: int) -> None:
        super().__init__(rng, MODEL_JIT,
                         (meta_base, hot_lines, il_base, il_lines), (0.8,))
        self.meta_base = meta_base
        self.hot_lines = hot_lines
        self.il_base = il_base
        self.il_lines = il_lines

    def load_addr(self) -> int:
        rng = self.rng
        if rng.random() < 0.8:
            return (self.meta_base
                    + int(rng.random() ** 2 * self.hot_lines) * 64)
        return self.il_base + int(rng.random() * self.il_lines) * 64


class MetaRingAddress(AddressModel):
    """Kernel metadata with a burst-reuse FIFO of recent lines.

    ``ring`` (int64 array, its length is the capacity) and ``state``
    (``[length, head]``) belong to the caller and persist across walks.
    """

    __slots__ = ("ring", "state", "meta_base", "meta_lines")

    def __init__(self, rng, ring, state, meta_base: int,
                 meta_lines: int) -> None:
        super().__init__(rng, MODEL_RING, (meta_base, meta_lines, len(ring)),
                         (0.90,))
        self.ring = ring
        self.state = state
        self.meta_base = meta_base
        self.meta_lines = meta_lines

    def load_addr(self) -> int:
        rng = self.rng
        ring = self.ring
        st = self.state
        n = st[0]
        if n and rng.random() < 0.90:
            return ring[(st[1] + int(rng.random() * n)) % len(ring)]
        addr = self.meta_base + int(rng.random() ** 2 * self.meta_lines) * 64
        fifo_push(ring, st, len(ring), addr)
        return addr

    def native_args(self):
        mi = self._mi
        mi[MI_RING] = self.ring.buffer_info()[0]
        mi[MI_STATE] = self.state.buffer_info()[0]
        return mi, self._md


# ---------------------------------------------------------------------------
# Native walker plumbing.

_native = None                  # repro.uarch.native, imported on first use
_tls = threading.local()


def _native_lib():
    """The loaded native library, or ``None`` (warns once, counts each)."""
    global _native
    if _native is None:
        from repro.uarch import native
        _native = native
    lib = _native.get_lib()
    if lib is None:
        _native.note_delegation("generation")
    return lib


def _scratch(n: int):
    """Thread-local int64 output scratch of at least ``n`` slots, as
    ``(address, byte view)``."""
    cur = getattr(_tls, "scratch", None)
    if cur is None or cur[0] < n:
        size = max(n, 1 << 16)
        arr = np.empty(size, dtype=np.int64)
        cur = _tls.scratch = (size, arr.ctypes.data,
                              memoryview(arr).cast("B"), arr)
    return cur[1], cur[2]


#: region-table header layout (mirrors ``RT_*`` in ``_codegen.c``)
_RT_HDR = 8


class CodeRegion:
    """A seeded, immutable layout of basic blocks in one code range.

    Parameters
    ----------
    base:
        Starting virtual address.  Rebasing a region (JIT re-emission)
        means constructing a new region with the same seed and a new base:
        identical structure, disjoint PCs.
    size_bytes:
        Region size; the number of blocks follows from the mix profile.
    seed:
        Layout seed; two regions with equal (seed, size, mix) have
        identical internal structure.

    The block table is one int64 array (``_table``): a header, seven
    base-relative per-block columns (pc offset, ALU instructions, bytes,
    loads, stores, trips, taken target) and the hot-entry list; the C
    walker reads it as is.  The Python walker's plain lists are built
    on first use only.
    """

    #: regions larger than this model one chunk of blocks and alias its
    #: layout across the full range (keeps construction O(1 MiB) while
    #: I-side structures still see the full footprint on excursions)
    MODEL_BYTES = 1024 * 1024

    __slots__ = ("base", "size_bytes", "mix", "seed", "n_blocks",
                 "n_chunks", "_chunk_bytes", "_table", "_p_taken_arr",
                 "_max_block_instr", "_lists", "_ptrs")

    def __init__(self, base: int, size_bytes: int, seed: int,
                 mix: MixProfile | None = None) -> None:
        mix = mix or MixProfile()
        self.base = base
        self.size_bytes = size_bytes
        self.mix = mix
        self.seed = seed
        model_bytes = min(size_bytes, self.MODEL_BYTES)
        self.n_chunks = max(1, size_bytes // model_bytes)
        self._chunk_bytes = model_bytes
        block_bytes = mix.block_instructions * mix.bytes_per_instr
        n_blocks = max(1, int(model_bytes / block_bytes))
        self.n_blocks = n_blocks
        # Vectorized construction (regions can have tens of thousands of
        # blocks; per-block Python RNG calls dominated startup cost).
        rng = np.random.default_rng(seed)
        target_total = mix.block_instructions
        total = np.maximum(
            2, np.rint(rng.normal(target_total, target_total * 0.3,
                                  n_blocks)).astype(np.int64))
        loads = np.clip(
            np.rint(total * mix.load_frac
                    + rng.uniform(-0.5, 0.5, n_blocks)).astype(np.int64),
            0, total - 1)
        stores = np.clip(
            np.rint(total * mix.store_frac
                    + rng.uniform(-0.5, 0.5, n_blocks)).astype(np.int64),
            0, total - 1 - loads)
        other = np.maximum(0, total - 1 - loads - stores)
        nbytes = np.maximum(
            8, np.rint(total * mix.bytes_per_instr).astype(np.int64))
        # Real code's branch biases are bimodal: most branches are
        # strongly biased (predictable), a minority are data-dependent
        # coin flips.  bias_spread scales that minority share.
        bias = np.where(rng.random(n_blocks) < mix.taken_bias, 0.97, 0.03)
        hard = rng.random(n_blocks) < mix.bias_spread * 0.22
        bias = np.where(hard, 0.25 + rng.random(n_blocks) * 0.5, bias)
        is_loop = rng.random(n_blocks) < mix.loop_frac
        # Non-loop blocks run once: trips doubles as the repeat count.
        trips = np.where(
            is_loop,
            np.maximum(2, np.rint(rng.exponential(mix.avg_loop_trips,
                                                  n_blocks))),
            1).astype(np.int64)
        # Each block's taken-branch target is fixed (direct branches have
        # one target); only the periodic indirect-call jump varies.
        idx = np.arange(n_blocks, dtype=np.int64)
        taken_target = (idx + 2 + ((idx * 2654435761 + seed) & 3)) % n_blocks
        # Hot entry points: dynamic execution concentrates on a bounded
        # set of paths (~entry * 8-block runs), sized so a region's hot
        # code footprint saturates around 100-200 KiB regardless of its
        # static size — matching how real programs execute a small slice
        # of their text most of the time.
        h = min(n_blocks, max(4, min(size_bytes, self.MODEL_BYTES)
                               // mix.hot_entry_divisor))
        entries = np.unique((rng.random(h) ** 2 * n_blocks).astype(int))
        if not len(entries):
            entries = np.zeros(1, dtype=np.int64)
        n_hot = len(entries)
        table = np.empty(_RT_HDR + 7 * n_blocks + n_hot, dtype=np.int64)
        table[:_RT_HDR] = (base, n_blocks, n_hot, self.n_chunks,
                           model_bytes, 0, 0, 0)
        cols = table[_RT_HDR:_RT_HDR + 7 * n_blocks].reshape(7, n_blocks)
        cols[0, 0] = 0
        np.cumsum(nbytes[:-1], out=cols[0, 1:])
        cols[1] = other
        cols[2] = nbytes
        cols[3] = loads
        cols[4] = stores
        cols[5] = trips
        cols[6] = taken_target
        table[_RT_HDR + 7 * n_blocks:] = entries
        self._table = table
        self._p_taken_arr = np.clip(bias, 0.02, 0.98)
        # One walk overshoots its budget by at most one block's repeats,
        # and emits at most one op per instruction: the scratch bound.
        self._max_block_instr = int(
            (trips * (other + loads + stores + 1)).max())
        self._lists = None
        self._ptrs = None

    def rebased(self, new_base: int) -> "CodeRegion":
        """Identical region at a different base address (JIT re-emission)."""
        return CodeRegion(new_base, self.size_bytes, self.seed, self.mix)

    def _py_tables(self):
        """The Python walker's per-block lists (absolute PCs), built once:
        ``(pcs, n_other, n_bytes, p_taken, n_loads, n_stores, trips,
        taken_target, hot_entries)``."""
        lists = self._lists
        if lists is None:
            n = self.n_blocks
            cols = self._table[_RT_HDR:_RT_HDR + 7 * n].reshape(7, n)
            lists = self._lists = (
                (cols[0] + self.base).tolist(), cols[1].tolist(),
                cols[2].tolist(), self._p_taken_arr.tolist(),
                cols[3].tolist(), cols[4].tolist(), cols[5].tolist(),
                cols[6].tolist(), self._table[_RT_HDR + 7 * n:].tolist())
        return lists

    @property
    def _pc(self) -> list[int]:
        return self._py_tables()[0]

    @property
    def _p_taken(self) -> list[float]:
        return self._py_tables()[3]

    @property
    def end(self) -> int:
        n = self.n_blocks
        return (self.base + int(self._table[_RT_HDR + n - 1])
                + int(self._table[_RT_HDR + 2 * n + n - 1]))

    # ------------------------------------------------------------------
    def walk_into(self, buf, rng: random.Random, n_instructions: int,
                  load_addr=None, store_addr=None, is_kernel: bool = False,
                  entry: int | None = None, *,
                  model: AddressModel | None = None) -> None:
        """Append ops for roughly ``n_instructions`` of execution to ``buf``.

        Data addresses come from ``model`` (an :class:`AddressModel`) or
        from the zero-argument callables ``load_addr``/``store_addr``.
        ``entry`` selects the starting block (defaults to a random one,
        biased towards the region start — hot entry points).

        Execution walks blocks sequentially; loop blocks repeat with a
        highly-predictable backward branch, and every ~8 blocks control
        transfers to a new spot in the region (call/jump), exercising the
        BTB.  Entries and jump targets concentrate near the region start
        (hot paths): most dynamic execution covers ~10-20% of the static
        blocks, as in real code, so predictors and caches can train on it.

        With a model, the walk runs natively when the library is loaded,
        ``rng`` is a plain ``random.Random`` and the model draws from it;
        the ops, the RNG state and the model state afterwards are exactly
        those of :meth:`_walk_py`.
        """
        if model is not None:
            if (model.rng is None or model.rng is rng) \
                    and type(rng) is random.Random:
                lib = _native_lib()
                if lib is not None:
                    self._walk_native(lib, buf, rng, n_instructions, model,
                                      is_kernel, entry)
                    return
            load_addr = model.load_addr
            store_addr = model.store_addr
        self._walk_py(buf, rng, n_instructions, load_addr, store_addr,
                      is_kernel, entry)

    def _walk_native(self, lib, buf, rng, n_instructions, model,
                     is_kernel, entry) -> None:
        ptrs = self._ptrs
        if ptrs is None:
            ptrs = self._ptrs = (self._table.ctypes.data,
                                 self._p_taken_arr.ctypes.data)
        cap = max(0, n_instructions) + self._max_block_instr
        out, view = _scratch(4 * cap + 1)
        mi, md = model.native_args()
        state = rng.getstate()
        mt = array("I", state[1])
        n_ops = lib.repro_walk(
            ptrs[0], ptrs[1], mt.buffer_info()[0], mi.buffer_info()[0],
            md.buffer_info()[0], n_instructions,
            -1 if entry is None else entry % self.n_blocks,
            _KERNEL_BIT if is_kernel else 0, out, cap, out + 32 * cap)
        rng.setstate((state[0], tuple(mt), state[2]))
        if n_ops == -2:
            raise IndexError("live set index out of range")
        if n_ops < 0:            # pragma: no cover - cap is an upper bound
            raise RuntimeError("native walk overflowed its scratch")
        nb = 8 * n_ops
        cb = 8 * cap
        buf.kinds.frombytes(view[:nb])
        buf.a0.frombytes(view[cb:cb + nb])
        buf.a1.frombytes(view[2 * cb:2 * cb + nb])
        buf.a2.frombytes(view[3 * cb:3 * cb + nb])
        buf.n_instructions += int.from_bytes(view[4 * cb:4 * cb + 8],
                                             "little", signed=True)

    def _walk_py(self, buf, rng, n_instructions, load_addr, store_addr,
                 is_kernel, entry) -> None:
        """The reference walker (and the fallback without the library)."""
        (pcs, n_other, n_bytes, p_taken, n_loads, n_stores, trips,
         taken_target, hot_entries) = self._py_tables()
        n_blocks = self.n_blocks
        n_hot = len(hot_entries)
        n_chunks = self.n_chunks
        chunk_bytes = self._chunk_bytes
        kinds = buf.kinds
        a0 = buf.a0
        a1 = buf.a1
        a2 = buf.a2
        kernel_bit = _KERNEL_BIT if is_kernel else 0
        random_ = rng.random
        off = 0                      # current chunk's address offset
        if entry is None:
            i = hot_entries[int(random_() ** 3 * n_hot)]
        else:
            i = entry % n_blocks
        executed = 0
        run_len = 0
        while executed < n_instructions:
            reps = trips[i]
            for rep in range(reps):
                other = n_other[i]
                if other:
                    kinds.append(OP_BLOCK)
                    a0.append(pcs[i] + off)
                    a1.append(other)
                    a2.append(n_bytes[i] | kernel_bit)
                for _ in range(n_loads[i]):
                    kinds.append(OP_LOAD)
                    a0.append(load_addr())
                    a1.append(0)
                    a2.append(0)
                for _ in range(n_stores[i]):
                    kinds.append(OP_STORE)
                    a0.append(store_addr())
                    a1.append(0)
                    a2.append(0)
                executed += other + n_loads[i] + n_stores[i] + 1
                branch_pc = pcs[i] + off + n_bytes[i] - 4
                if rep < reps - 1:
                    # Loop backedge: taken, target = same block.
                    kinds.append(OP_BRANCH)
                    a0.append(branch_pc)
                    a1.append(pcs[i] + off)
                    a2.append(1)
                    continue
                run_len += 1
                if run_len >= 8:
                    # Call/jump: almost always to a hot entry point (in
                    # the home chunk); a small fraction excursions
                    # anywhere in the full region (cold paths).
                    run_len = 0
                    if random_() < 0.98:
                        j = hot_entries[int(random_() ** 3 * n_hot)]
                        off = 0
                    else:
                        j = int(random_() * n_blocks)
                        if n_chunks > 1:
                            off = int(random_() * n_chunks) * chunk_bytes
                    taken = 1
                elif random_() < p_taken[i]:
                    j = taken_target[i]
                    taken = 1
                else:
                    j = (i + 1) % n_blocks
                    taken = 0
                kinds.append(OP_BRANCH)
                a0.append(branch_pc)
                a1.append(pcs[j] + off)
                a2.append(taken)
                i = j
        buf.n_instructions += executed
