"""Tests for the JIT model: fresh code pages, tiering, prejit."""

from repro.codegen import CodeRegion, MixProfile
from repro.runtime.jit import JitCompiler, Method
from repro.trace import (OP_EVENT, OP_STORE, EV_JIT_STARTED,
                         REGION_JIT_CODE_BASE)

from tests.opstream import pull


def make_jit(**kw):
    code = CodeRegion(0x6100_0000, 128 * 1024, seed=9)
    return JitCompiler(code, metadata_base=0x6800_0000, **kw)


def make_method(mid=0, size=480):
    return Method(id=mid, size_bytes=size, seed=1000 + mid,
                  mix=MixProfile())


class TestCompilation:
    def test_compile_emits_event_and_sets_region(self):
        jit = make_jit()
        m = make_method()
        ops = pull(jit.compile_into, m)
        events = [op for op in ops if op[0] == OP_EVENT]
        assert events[0][1] == EV_JIT_STARTED
        assert m.region is not None
        assert m.region.base >= REGION_JIT_CODE_BASE
        assert m.tier == 0

    def test_code_written_out(self):
        jit = make_jit()
        m = make_method()
        ops = pull(jit.compile_into, m)
        code_stores = [op for op in ops if op[0] == OP_STORE
                       and op[1] >= REGION_JIT_CODE_BASE]
        assert len(code_stores) >= m.region.size_bytes // 64

    def test_methods_get_distinct_addresses(self):
        jit = make_jit()
        a, b = make_method(0), make_method(1)
        pull(jit.compile_into, a)
        pull(jit.compile_into, b)
        assert a.region.base != b.region.base
        assert b.region.base >= a.region.base + a.region.size_bytes

    def test_retier_moves_to_fresh_address(self):
        """The paper's cold-start mechanism: code pages never reused."""
        jit = make_jit()
        m = make_method()
        pull(jit.compile_into, m, tier=0)
        old_base = m.region.base
        pull(jit.compile_into, m, tier=1)
        assert m.region.base != old_base
        assert m.tier == 1

    def test_reuse_code_pages_ablation(self):
        jit = make_jit(reuse_code_pages=True)
        m = make_method()
        pull(jit.compile_into, m, tier=0)
        old_base = m.region.base
        pull(jit.compile_into, m, tier=1)
        assert m.region.base == old_base

    def test_tier1_code_larger(self):
        jit = make_jit()
        m0, m1 = make_method(0), make_method(1)
        pull(jit.compile_into, m0, tier=0)
        pull(jit.compile_into, m1, tier=1)
        assert m1.region.size_bytes > m0.region.size_bytes

    def test_code_bloat_scales_emission(self):
        lean = make_jit(code_bloat=1.0)
        fat = make_jit(code_bloat=2.0)
        a, b = make_method(0), make_method(1)
        pull(lean.compile_into, a)
        pull(fat.compile_into, b)
        assert b.region.size_bytes >= int(a.region.size_bytes * 1.8)

    def test_bigger_methods_cost_more(self):
        jit = make_jit()

        def work(size):
            m = make_method(size=size)
            ops = pull(jit.compile_into, m)
            return sum(op[2] for op in ops if op[0] == 0)

        assert work(2000) > work(200)

    def test_stats(self):
        jit = make_jit()
        pull(jit.compile_into, make_method(0))
        pull(jit.compile_into, make_method(1))
        assert jit.stats.methods_jitted == 2
        assert jit.stats.code_bytes_emitted > 0
        assert jit.stats.jit_instructions > 0


class TestTiering:
    def test_needs_tiering_threshold(self):
        jit = make_jit()
        m = make_method()
        pull(jit.compile_into, m, tier=0)
        m.call_count = JitCompiler.TIER1_THRESHOLD - 1
        assert not jit.needs_tiering(m)
        m.call_count = JitCompiler.TIER1_THRESHOLD
        assert jit.needs_tiering(m)

    def test_tier1_never_retiers(self):
        jit = make_jit()
        m = make_method()
        pull(jit.compile_into, m, tier=1)
        m.call_count = 10 ** 6
        assert not jit.needs_tiering(m)

    def test_tiering_disabled(self):
        jit = make_jit(tiering=False)
        m = make_method()
        pull(jit.compile_into, m, tier=0)
        m.call_count = 10 ** 6
        assert not jit.needs_tiering(m)


class TestPrejit:
    def test_precompile_reserves_address_lazily(self):
        jit = make_jit()
        m = make_method()
        jit.precompile(m)
        assert m.region is None              # lazy
        assert m.prejit_base is not None
        assert m.is_jitted
        region = m.materialize()
        assert region.base == m.prejit_base
        assert m.tier == 1

    def test_precompiled_not_tiered(self):
        jit = make_jit()
        m = make_method()
        jit.precompile(m)
        m.call_count = 10 ** 6
        assert not jit.needs_tiering(m)

    def test_precompile_no_events_emitted(self):
        jit = make_jit()
        before = jit.stats.methods_jitted
        jit.precompile(make_method())
        assert jit.stats.methods_jitted == before
