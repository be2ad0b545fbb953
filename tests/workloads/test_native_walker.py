"""The native code-region walker against the Python reference walker.

``CodeRegion.walk_into`` runs ``_codegen.c`` when the native library is
loaded; ``CodeRegion._walk_py`` is the readable reference.  Both must
emit byte-identical columns and leave the RNG, the address model's
rings/cursor and the live set in exactly the same state.
"""

import random
import warnings
from array import array
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.codegen import (CodeRegion, ConstAddress, JitMetaAddress,
                           MetaRingAddress, MixProfile, StackAddress,
                           fifo_push)
from repro.trace import TraceBuffer
from repro.uarch import native
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import DataModel, build_program
from repro.workloads.speccpu import speccpu_specs

pytestmark = pytest.mark.skipif(native.get_lib() is None,
                                reason="native library unavailable")

_SPECS = {s.name: s for s in (dotnet_category_specs() + aspnet_specs()
                              + speccpu_specs())}

#: the specs of the repository benchmark's cold suite
SUITE_COLD = ("System.Runtime", "System.Linq", "System.Collections",
              "System.Text.Json", "System.Memory", "Json", "Plaintext",
              "DbFortunesRaw", "mcf", "xalancbmk")

ABLATIONS = ({}, {"reuse_code_pages": True}, {"compaction_enabled": False},
             {"code_bloat": 1.3})


def _columns(buf):
    return (bytes(buf.kinds), bytes(buf.a0), bytes(buf.a1), bytes(buf.a2),
            buf.events, buf.n_instructions)


# ---------------------------------------------------------------------------
# Strategies.

fracs = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def mixes(draw):
    branch = draw(st.floats(0.05, 0.5))
    load = draw(st.floats(0.0, 0.9 - branch))
    store = draw(st.floats(0.0, 0.95 - branch - load))
    return MixProfile(
        branch_frac=branch, load_frac=load, store_frac=store,
        bytes_per_instr=draw(st.floats(2.0, 6.0)),
        taken_bias=draw(fracs), bias_spread=draw(fracs),
        loop_frac=draw(fracs), avg_loop_trips=draw(st.floats(1.0, 30.0)),
        hot_entry_divisor=draw(st.integers(40, 6000)))


region_sizes = st.one_of(st.integers(16, 256 * 1024),
                         st.integers(1 << 20, 3 << 20))
addrs = st.integers(0, 1 << 46)


@st.composite
def data_models(draw):
    """A factory of identical DataModels (random spec, pre-filled rings)."""
    spec = replace(
        _SPECS["System.Runtime"],
        stream_frac=draw(st.sampled_from([0.0, 0.3, 1.0]) | fracs),
        temporal_reuse=draw(fracs), stack_frac=draw(fracs),
        fresh_new_frac=draw(fracs),
        pointer_chase_frac=draw(st.sampled_from([0.0]) | fracs),
        cold_frac=draw(fracs),
        hot_skew=draw(st.sampled_from([1, 2, 3]) | st.floats(0.2, 6.0)),
        object_slot=draw(st.sampled_from([16, 64, 256, 1000])),
        stream_bytes=draw(st.integers(0, 1 << 20)),
        native_ws_bytes=draw(st.integers(0, 64 << 20)),
        hot_ws_bytes=draw(st.integers(0, 8 << 20)))
    live = draw(st.none() | st.lists(addrs, min_size=1, max_size=300))
    prefill = draw(st.lists(addrs, max_size=7000))
    cursor = draw(st.integers(0, 1 << 20))

    def make(rng):
        dm = DataModel(spec, rng,
                       None if live is None else array("q", live),
                       native_base=0x7F00_0000, stream_base=0xB000_0000)
        for a in prefill:
            dm._remember(a)
        dm._st[6] = cursor % dm._stream_span
        return dm
    return make


@st.composite
def ring_models(draw):
    prefill = draw(st.lists(addrs, max_size=20))
    meta_base = draw(addrs)
    meta_lines = draw(st.integers(1, 8192))

    def make(rng):
        ring, state = array("q", bytes(64)), array("q", bytes(16))
        for a in prefill:
            fifo_push(ring, state, 8, a)
        return MetaRingAddress(rng, ring, state, meta_base, meta_lines)
    return make


@st.composite
def jit_models(draw):
    args = (draw(addrs), draw(st.integers(1, 512)), draw(addrs),
            draw(st.integers(1, 64)))
    return lambda rng: JitMetaAddress(rng, *args)


@st.composite
def other_models(draw):
    addr = draw(addrs)
    if draw(st.booleans()):
        return lambda rng: StackAddress(rng, addr)
    return lambda rng: ConstAddress(addr)


def _model_state(model):
    if isinstance(model, DataModel):
        live = model.live_addrs
        return (bytes(model._rings), bytes(model._st),
                None if live is None else bytes(live))
    if isinstance(model, MetaRingAddress):
        return bytes(model.ring), bytes(model.state)
    return None


# ---------------------------------------------------------------------------
# Differential tests.

@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(seed=st.integers(0, 2 ** 32 - 1), size=region_sizes, mix=mixes(),
       make_model=st.one_of(data_models(), ring_models(), jit_models(),
                            other_models()),
       rng_seed=st.integers(0, 2 ** 64), kernel=st.booleans(),
       entry=st.none() | st.integers(0, 10 ** 7),
       budgets=st.lists(st.integers(0, 12000), min_size=1, max_size=3))
def test_native_walk_matches_reference(seed, size, mix, make_model,
                                       rng_seed, kernel, entry, budgets):
    region = CodeRegion(0x4000_0000, size, seed=seed, mix=mix)
    rng_c, rng_py = random.Random(rng_seed), random.Random(rng_seed)
    # A few draws leave the MT index mid-block, as in a live program.
    for rng in (rng_c, rng_py):
        rng.random()
    model_c, model_py = make_model(rng_c), make_model(rng_py)
    for budget in budgets:
        buf_c, buf_py = TraceBuffer(), TraceBuffer()
        region.walk_into(buf_c, rng_c, budget, is_kernel=kernel,
                         entry=entry, model=model_c)
        region._walk_py(buf_py, rng_py, budget, model_py.load_addr,
                        model_py.store_addr, kernel, entry)
        assert _columns(buf_c) == _columns(buf_py)
        assert rng_c.getstate() == rng_py.getstate()
        assert _model_state(model_c) == _model_state(model_py)


def test_native_walk_crosses_mt_refill():
    """Long walks cross many 624-word MT refills, ending mid-block."""
    region = CodeRegion(0x4000_0000, 2 << 20, seed=5)
    rngs = random.Random(9), random.Random(9)
    spec = _SPECS["System.Runtime"]
    models = [DataModel(spec, r, array("q", range(0, 64000, 64)),
                        native_base=0x7F00_0000, stream_base=0xB000_0000)
              for r in rngs]
    bufs = TraceBuffer(), TraceBuffer()
    region.walk_into(bufs[0], rngs[0], 200_000, model=models[0])
    region._walk_py(bufs[1], rngs[1], 200_000, models[1].load_addr,
                    models[1].store_addr, False, None)
    assert _columns(bufs[0]) == _columns(bufs[1])
    assert rngs[0].getstate() == rngs[1].getstate()
    assert _model_state(models[0]) == _model_state(models[1])


def test_pull_walk_is_push_walk_as_tuples():
    region = CodeRegion(0x4000_0000, 64 * 1024, seed=3)
    spec = _SPECS["Json"]
    rngs = random.Random(4), random.Random(4)
    models = [DataModel(spec, r, None, 0x7F00_0000, 0xB000_0000)
              for r in rngs]
    buf = TraceBuffer()
    region.walk_into(buf, rngs[0], 3000, model=models[0])
    assert list(region.walk(rngs[1], 3000, model=models[1])) \
        == list(buf.iter_ops())
    assert rngs[0].getstate() == rngs[1].getstate()


def test_empty_live_set_raises_like_the_reference():
    """An empty live set is an IndexError on both walkers, never a read
    past the array."""
    spec = replace(_SPECS["System.Runtime"], stack_frac=0.0,
                   temporal_reuse=0.0, stream_frac=0.0, fresh_new_frac=1.0,
                   pointer_chase_frac=0.0)
    region = CodeRegion(0x4000_0000, 8192, seed=1,
                        mix=MixProfile(load_frac=0.5, store_frac=0.1))
    for native_walk in (True, False):
        rng = random.Random(0)
        dm = DataModel(spec, rng, array("q"), 0x7F00_0000, 0xB000_0000)
        with pytest.raises(IndexError):
            if native_walk:
                region.walk_into(TraceBuffer(), rng, 500, model=dm)
            else:
                region._walk_py(TraceBuffer(), rng, 500, dm.load_addr,
                                dm.store_addr, False, None)


def test_foreign_rng_model_walks_in_python(monkeypatch):
    """A model drawing from another generator cannot run natively."""
    calls = []
    monkeypatch.setattr(CodeRegion, "_walk_native",
                        lambda *a: calls.append(a))
    region = CodeRegion(0x4000_0000, 8192, seed=1)
    rng = random.Random(1)
    buf = TraceBuffer()
    region.walk_into(buf, rng, 500,
                     model=StackAddress(random.Random(2), 0x7F00_0000))
    assert not calls and buf.n_instructions >= 500


def test_unavailable_library_warns_and_walks_in_python(monkeypatch):
    monkeypatch.setattr(native, "get_lib", lambda: None)
    monkeypatch.setattr(native, "_warned", set())
    before = native.stats["delegated_generation"]
    region = CodeRegion(0x4000_0000, 8192, seed=1)
    rng = random.Random(1)
    with pytest.warns(native.NativeFallbackWarning, match="trace walker"):
        for _ in range(2):
            region.walk_into(TraceBuffer(), rng, 500,
                             model=StackAddress(rng, 0x7F00_0000))
    assert native.stats["delegated_generation"] == before + 2


# ---------------------------------------------------------------------------
# Suite level: every benchmark spec and ablation, native vs Python.

def _fill(spec, kw, n_chunks=2):
    program = build_program(spec, seed=0, **kw)
    chunks = []
    for _ in range(n_chunks):
        buf = TraceBuffer()
        program.fill_buffer(buf, 65536)
        chunks.append(_columns(buf))
    return chunks, program.rng.getstate()


@pytest.mark.parametrize("kw", ABLATIONS,
                         ids=["default", "reuse_code_pages",
                              "no_compaction", "code_bloat"])
def test_fill_buffer_native_equals_python(monkeypatch, kw):
    specs = [_SPECS[n] for n in SUITE_COLD]
    if "reuse_code_pages" in kw or "compaction_enabled" in kw:
        specs = [s for s in specs if s.managed]
    native_out = [_fill(s, kw) for s in specs]
    monkeypatch.setattr(native, "get_lib", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", native.NativeFallbackWarning)
        python_out = [_fill(s, kw) for s in specs]
    for spec, got, want in zip(specs, native_out, python_out):
        assert got == want, spec.name
