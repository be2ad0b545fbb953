"""Syscall and network-stack model.

Each syscall kind owns a slice of the kernel text (a :class:`CodeRegion`
at kernel addresses) and a data-touch pattern.  Network receive/send adds a
per-byte copy loop through socket buffers, which is what makes the ASP.NET
suite's kernel-instruction share so much larger than SPEC's (Fig 3) — the
paper attributes it "primarily ... to the code in the networking stack".
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from repro.codegen import CodeRegion, MetaRingAddress, MixProfile
from repro.seeding import stable_seed
from repro.trace import REGION_KERNEL_CODE_BASE, REGION_KERNEL_DATA_BASE


class SyscallKind:
    """Symbolic syscall names (string constants, not an enum, for speed)."""

    RECV = "recv"
    SEND = "send"
    EPOLL_WAIT = "epoll_wait"
    READ = "read"
    WRITE = "write"
    FUTEX = "futex"
    MMAP = "mmap"
    OPEN = "open"
    CLOSE = "close"
    SCHED = "sched"

    ALL = (RECV, SEND, EPOLL_WAIT, READ, WRITE, FUTEX, MMAP, OPEN, CLOSE,
           SCHED)


@dataclass(frozen=True)
class _KindProfile:
    base_instructions: int      # fixed-path handler cost
    footprint_bytes: int        # handler text footprint
    touches_buffers: bool       # has a per-byte payload copy phase


_PROFILES: dict[str, _KindProfile] = {
    SyscallKind.RECV: _KindProfile(3200, 112 * 1024, True),
    SyscallKind.SEND: _KindProfile(2800, 96 * 1024, True),
    SyscallKind.EPOLL_WAIT: _KindProfile(1400, 32 * 1024, False),
    SyscallKind.READ: _KindProfile(1800, 48 * 1024, True),
    SyscallKind.WRITE: _KindProfile(1900, 48 * 1024, True),
    SyscallKind.FUTEX: _KindProfile(900, 16 * 1024, False),
    SyscallKind.MMAP: _KindProfile(2200, 40 * 1024, False),
    SyscallKind.OPEN: _KindProfile(2600, 56 * 1024, False),
    SyscallKind.CLOSE: _KindProfile(800, 16 * 1024, False),
    SyscallKind.SCHED: _KindProfile(1600, 48 * 1024, False),
}

#: Kernel code uses a branchier, load-heavier mix than typical user code
#: (linked lists of sk_buffs, long if-ladders in the protocol stack).
_KERNEL_MIX = MixProfile(branch_frac=0.19, load_frac=0.30, store_frac=0.12,
                         taken_bias=0.42, bias_spread=0.22, loop_frac=0.08,
                         avg_loop_trips=4.0)

_LINE = 64


class SyscallModel:
    """Generates kernel-mode op streams for syscalls.

    One instance per simulated process.  Handler code regions are laid out
    once (the kernel image does not move); socket buffers cycle through a
    fixed pool in kernel data space, so steady-state network traffic reuses
    (and therefore contends for) the same cache lines, as real kernels do.
    """

    _REGION_CACHE: dict[int, tuple[dict[str, CodeRegion], int]] = {}

    def __init__(self, seed: int = 0, buffer_pool_size: int = 24,
                 buffer_bytes: int = 32 * 1024) -> None:
        cached = self._REGION_CACHE.get(seed)
        if cached is None:
            regions: dict[str, CodeRegion] = {}
            base = REGION_KERNEL_CODE_BASE
            for kind in SyscallKind.ALL:
                prof = _PROFILES[kind]
                regions[kind] = CodeRegion(
                    base, prof.footprint_bytes,
                    seed=stable_seed(seed, "kernel", kind),
                    mix=_KERNEL_MIX)
                base += prof.footprint_bytes + 4096
            cached = (regions, base - REGION_KERNEL_CODE_BASE)
            self._REGION_CACHE[seed] = cached
        self._regions, self.kernel_text_bytes = cached
        self._buffer_pool_size = buffer_pool_size
        self._buffer_bytes = buffer_bytes
        self._next_buffer = 0
        # A small amount of hot kernel metadata (fd tables, socket structs).
        self._meta_base = REGION_KERNEL_DATA_BASE
        self._meta_bytes = 256 * 1024
        self._buf_base = self._meta_base + self._meta_bytes
        # Per-connection kernel structures are revisited heavily within a
        # syscall (sk_buff headers, socket state): burst-reuse FIFO of 8
        # lines, fill state [length, head] (see repro.codegen.fifo_push).
        self._meta_ring = array("q", bytes(8 * 8))
        self._meta_state = array("q", bytes(16))

    def _meta_model(self, rng: random.Random) -> MetaRingAddress:
        """Address model of one handler walk over the metadata ring."""
        return MetaRingAddress(rng, self._meta_ring, self._meta_state,
                               self._meta_base, self._meta_bytes // _LINE)

    # ------------------------------------------------------------------
    def _acquire_buffer(self) -> int:
        buf = self._buf_base + self._next_buffer * self._buffer_bytes
        self._next_buffer = (self._next_buffer + 1) % self._buffer_pool_size
        return buf

    def kernel_data_span(self) -> tuple[int, int]:
        """(start, length) of all kernel data this model may touch."""
        length = (self._meta_bytes
                  + self._buffer_pool_size * self._buffer_bytes)
        return self._meta_base, length

    def handler_region(self, kind: str) -> CodeRegion:
        return self._regions[kind]

    # ------------------------------------------------------------------
    def emit_into(self, buf, kind: str, rng: random.Random,
                  payload_bytes: int = 0, user_buffer: int = 0) -> None:
        """Push the op stream for one syscall invocation.

        ``payload_bytes`` drives the copy loop for data-moving syscalls;
        ``user_buffer`` is the user-space address data is copied to/from.
        """
        prof = _PROFILES[kind]
        region = self._regions[kind]
        region.walk_into(buf, rng, prof.base_instructions, is_kernel=True,
                         entry=0, model=self._meta_model(rng))
        if prof.touches_buffers and payload_bytes > 0:
            self._copy_loop_into(buf, region, payload_bytes, user_buffer,
                                 to_user=(kind in (SyscallKind.RECV,
                                                   SyscallKind.READ)))

    def _copy_loop_into(self, buf, region: CodeRegion, payload_bytes: int,
                        user_buffer: int, to_user: bool) -> None:
        """copy_to_user/copy_from_user: sequential line-granular copy."""
        kbuf = self._acquire_buffer()
        n_lines = max(1, payload_bytes // _LINE)
        loop_pc = region.base + region.size_bytes - 64
        src_base = kbuf if to_user else user_buffer
        dst_base = user_buffer if to_user else kbuf
        # Unrolled: one load + one store + 2 bookkeeping instrs per line,
        # one backward branch per 8 lines.
        for i in range(n_lines):
            buf.load(src_base + i * _LINE)
            buf.store(dst_base + i * _LINE)
            buf.block(loop_pc, 2, 16, kernel=True)
            if i % 8 == 7:
                buf.branch(loop_pc + 12, loop_pc, i + 1 < n_lines)
        buf.branch(loop_pc + 12, loop_pc, False)

    # ------------------------------------------------------------------
    def instructions_estimate(self, kind: str, payload_bytes: int = 0) -> int:
        """Rough instruction count of one invocation (for pacing logic)."""
        prof = _PROFILES[kind]
        n = prof.base_instructions
        if prof.touches_buffers:
            n += (payload_bytes // _LINE) * 4
        return n
