"""JIT compiler model.

Methods start un-jitted.  The first call triggers compilation: the JIT's
own code runs (a large, branchy code region — part of the CLR's footprint)
and the method body is emitted into **freshly allocated code pages** in a
dedicated JIT-code address region.  Code addresses are *never reused*,
matching the behavior the paper highlights: "After JITing, code pages are
given new addresses, leading to branch predictor cold starts and
I-cache/I-TLB/branch misses" (§V-E).

Tiered compilation re-emits hot methods at tier 1 — at yet another fresh
address — so warm services keep paying cold-start costs long after
startup, which is why ASP.NET shows sustained JIT activity (Fig 13a).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.codegen import CodeRegion, JitMetaAddress, MixProfile
from repro.trace import (EV_JIT_STARTED, EV_JIT_CODE_EMITTED,
                         EV_JIT_CODE_MOVED, REGION_JIT_CODE_BASE)


@dataclass
class Method:
    """One managed method: identity + current emitted code."""

    id: int
    size_bytes: int
    seed: int
    mix: MixProfile
    region: CodeRegion | None = None
    tier: int = -1                    # -1 = not jitted yet
    call_count: int = 0
    #: set when precompiled (R2R): code address reserved, region built
    #: lazily on first call (most precompiled methods are never called)
    prejit_base: int | None = None
    prejit_size: int = 0

    @property
    def is_jitted(self) -> bool:
        return self.region is not None or self.prejit_base is not None

    def materialize(self) -> CodeRegion:
        """Build the (lazily deferred) precompiled region."""
        if self.region is None:
            if self.prejit_base is None:
                raise RuntimeError(f"method {self.id} has no code")
            self.region = CodeRegion(self.prejit_base, self.prejit_size,
                                     seed=self.seed, mix=self.mix)
        return self.region


@dataclass
class JitStats:
    methods_jitted: int = 0
    tier1_promotions: int = 0
    code_bytes_emitted: int = 0
    jit_instructions: int = 0

    def snapshot(self) -> "JitStats":
        return JitStats(self.methods_jitted, self.tier1_promotions,
                        self.code_bytes_emitted, self.jit_instructions)


class JitCompiler:
    """Compiles methods, owns the JIT code address bump pointer."""

    #: JIT cost model: fixed overhead + per-byte-of-IL work.
    BASE_INSTRUCTIONS = 300
    INSTR_PER_CODE_BYTE = 1.2
    #: tier-1 recompilation threshold (calls)
    TIER1_THRESHOLD = 40
    #: tier-1 code is optimized and somewhat larger (inlining)
    TIER1_SIZE_FACTOR = 1.25

    def __init__(self, jit_code: CodeRegion, metadata_base: int,
                 metadata_bytes: int = 2 * 1024 * 1024,
                 tiering: bool = True, reuse_code_pages: bool = False,
                 code_bloat: float = 1.0, seed: int = 0) -> None:
        """``reuse_code_pages`` is the ablation switch: when True, re-JIT
        lands at the method's previous address (hypothetical hardware/VM
        co-design), eliminating cold starts.  ``code_bloat`` models an
        immature code generator (the Arm preset)."""
        self.code = jit_code
        self._code_ptr = REGION_JIT_CODE_BASE
        self.metadata_base = metadata_base
        self.metadata_bytes = metadata_bytes
        self.tiering = tiering
        self.reuse_code_pages = reuse_code_pages
        self.code_bloat = code_bloat
        self.rng = random.Random(seed)
        self.stats = JitStats()

    def _alloc_code(self, size: int) -> int:
        addr = self._code_ptr
        # Methods are packed, but emission rounds to 64B (jump padding).
        self._code_ptr += (size + 63) & ~63
        return addr

    def compile_into(self, buf, method: Method, tier: int = 0) -> None:
        """Push the op stream of compiling ``method``; emits its code."""
        st = self.stats
        buf.event(EV_JIT_STARTED, method.id)
        emitted_size = int(method.size_bytes * self.code_bloat
                           * (self.TIER1_SIZE_FACTOR if tier >= 1 else 1.0))
        work = int(self.BASE_INSTRUCTIONS
                   + self.INSTR_PER_CODE_BYTE * emitted_size)
        if tier >= 1:
            work = int(work * 1.6)        # optimizing tier does more analysis
        rng = self.rng
        meta_base = self.metadata_base
        # Hot shared tables (type system, token maps): ~12 KiB, reused by
        # every compile.  The method's own IL/metadata slice is small and
        # compulsory-misses once per first compile — exactly the real mix.
        hot_lines = 192
        il_base = (meta_base + self.metadata_bytes
                   + method.id * 2048)
        il_lines = max(4, min(32, method.size_bytes // 64))
        self.code.walk_into(
            buf, rng, work, model=JitMetaAddress(rng, meta_base, hot_lines,
                                                 il_base, il_lines))
        old_region = method.region
        if old_region is not None and self.reuse_code_pages:
            new_base = old_region.base
        else:
            new_base = self._alloc_code(emitted_size)
        # Writing out the compiled code: sequential stores.
        for off in range(0, emitted_size, 64):
            buf.store(new_base + off)
        buf.block(self.code.base + 64, max(1, emitted_size // 16), 256)
        # ISA-hook metadata (§VIII): tell the hardware where the code is,
        # and — on re-JIT — where it came from.
        if old_region is not None and old_region.base != new_base:
            buf.event(EV_JIT_CODE_MOVED,
                      (old_region.base, new_base, emitted_size))
        else:
            buf.event(EV_JIT_CODE_EMITTED, (new_base, emitted_size))
        method.region = CodeRegion(new_base, emitted_size,
                                   seed=method.seed, mix=method.mix)
        method.tier = tier
        st.methods_jitted += 1
        if tier >= 1:
            st.tier1_promotions += 1
        st.code_bytes_emitted += emitted_size
        st.jit_instructions += work

    def precompile(self, method: Method) -> None:
        """ReadyToRun-style ahead-of-time compilation.

        Real .NET ships most framework code precompiled (R2R images); only
        the remainder JITs at run time.  Precompiled methods get a code
        region up front — no JIT event, no compile work, and no later
        tiering (they are already optimized).
        """
        emitted_size = int(method.size_bytes * self.code_bloat
                           * self.TIER1_SIZE_FACTOR)
        method.prejit_base = self._alloc_code(emitted_size)
        method.prejit_size = emitted_size
        method.tier = 1

    def needs_tiering(self, method: Method) -> bool:
        return (self.tiering and method.tier == 0
                and method.call_count >= self.TIER1_THRESHOLD)
