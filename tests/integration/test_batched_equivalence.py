"""Differential tests: every engine and every op source is bit-identical.

The reference is the Python engine (``Core.consume_buffer`` through
``consume_stream(engine="batched")``) fed by the program's own push
stream in production-sized chunks.  The native kernel is only allowed
to be *faster* than it — never different — and so is every other way
of delivering the same ops: tuples re-buffered through ``fill_from``,
small chunks, trace-store replay, mmap decode, warm-cache reuse.  These
tests run over every suite (micro, ASP.NET, SPEC) plus the ablation
flags, and require exact equality of

* every counter and stall bucket (floats compared bitwise via ``==``),
* the complete microarchitectural state (cache/TLB set contents and
  replacement order, branch predictor tables, prefetcher state),
* the tracer event stream (kind, payload, cycle stamps), and
* the Top-Down profile and sampler output at the run level.

Chunk boundaries are semantics-free: the candidate runs here use a
chunk size (4096) much smaller than production (65536) on the same
streams.
"""

from __future__ import annotations

import pytest

from repro.kernel.vm import VirtualMemory
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.trace import TraceBufferStream
from repro.uarch.machine import get_machine
from repro.uarch.pipeline import Core
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program
from repro.workloads.speccpu import speccpu_specs

from tests.opstream import program_ops

WARMUP = 15_000
MEASURE = 25_000


def _spec_of(name):
    for s in dotnet_category_specs() + aspnet_specs() + speccpu_specs():
        if s.name == name:
            return s
    raise KeyError(name)


def _build(spec, machine, seed=0, **kw):
    gc_config = GcConfig()
    heap_config = HeapConfig(max_heap_bytes=gc_config.max_heap_bytes,
                             gen0_budget_bytes=gc_config.gen0_budget())
    vm = VirtualMemory()
    core = Core(machine, vm)
    core.set_hints(spec.hints())
    events = []
    core.event_hook = lambda k, p, c: events.append((k, p, c))
    program = build_program(spec, seed=seed, heap_config=heap_config,
                            gc_config=gc_config,
                            code_bloat=machine.code_bloat, **kw)
    program.premap(vm)
    return core, program, events


def _state(core) -> dict:
    """Every observable piece of core state, keyed for diffability."""
    core.sync_native()
    d = {}
    c = core.counts
    for f in ("instructions", "kernel_instructions", "branches", "loads",
              "stores", "dtlb_load_walks", "dtlb_store_walks",
              "itlb_walks", "uops"):
        d["counts." + f] = getattr(c, f)
    for k, v in core.stalls.items():
        d["stalls." + k] = v
    d["ideal"] = core._ideal_cycles
    for name in ("l1i", "l1d", "l2", "llc", "dsb"):
        cache = getattr(core, name)
        st = cache.stats
        for f in ("accesses", "misses", "demand_accesses", "demand_misses",
                  "prefetch_fills", "useful_prefetches",
                  "useless_prefetches", "evictions", "writebacks"):
            d[f"{name}.{f}"] = getattr(st, f)
        d[f"{name}.sets"] = repr(cache._sets)
        d[f"{name}.occupancy"] = cache.occupancy
    for name in ("itlb", "dtlb"):
        th = getattr(core, name)
        for lvl, t in (("l1", th.l1), ("stlb", th.stlb)):
            st = t.stats
            for f in ("accesses", "misses", "walks"):
                d[f"{name}.{lvl}.{f}"] = getattr(st, f)
            d[f"{name}.{lvl}.sets"] = repr(t._sets)
    bu = core.branch_unit
    for f in ("branches", "mispredicts", "btb_misses", "taken"):
        d["bp." + f] = getattr(bu.stats, f)
    d["bp.gs_table"] = repr(sorted(bu.predictor._table.items()))
    d["bp.gs_hist"] = bu.predictor._history
    d["bp.lp_table"] = repr(bu.loop_predictor._table)
    d["bp.btb"] = repr(bu.btb._sets)
    for name in ("l1i_prefetcher", "l1d_prefetcher", "l2_prefetcher"):
        pf = getattr(core, name)
        d[f"{name}.issued"] = pf.stats.issued
        d[f"{name}.page_bounded"] = pf.stats.page_bounded
    d["last_code_line"] = core._last_code_line
    d["last_code_page"] = core._last_code_page
    d["last_data_vpn"] = core._last_data_vpn
    d["kernel_mode"] = bool(core._kernel_mode)
    vm = core.vm
    d["vm.stats"] = repr(vm.stats)
    d["vm.ranges"] = repr(list(zip(vm._starts, vm._ends)))
    d["vm.demand"] = repr(sorted(vm._demand))
    d["vm.seq"] = vm._fault_seq
    return d


CASES = [
    ("System.Runtime", {}),                          # .NET micro
    ("Json", {}),                                    # ASP.NET
    ("mcf", {}),                                     # SPEC CPU17
    ("System.Linq", {"reuse_code_pages": True}),     # JIT ablation
    ("Plaintext", {"compaction_enabled": False}),    # GC ablation
]


@pytest.mark.parametrize("engine", ["batched", "vector"])
@pytest.mark.parametrize("name,kw", CASES,
                         ids=[c[0] + ("+" + next(iter(c[1]), "") if c[1]
                                      else "") for c in CASES])
def test_core_state_identical(name, kw, engine):
    """Warm + measure the reference and ``engine`` on the program's ops
    re-buffered from tuples in small chunks; diff the entire core."""
    machine = get_machine("i9")
    spec = _spec_of(name)

    core_a, prog_a, ev_a = _build(spec, machine, **kw)
    ref = TraceBufferStream(filler=prog_a.fill_buffer)
    core_a.consume_stream(ref, max_instructions=WARMUP)
    core_a.reset_stats()
    ev_a.clear()
    na = core_a.consume_stream(ref, max_instructions=MEASURE)

    core_b, prog_b, ev_b = _build(spec, machine, **kw)
    stream = TraceBufferStream(ops=program_ops(prog_b, 1000),
                               chunk_instructions=4096)
    core_b.consume_stream(stream, max_instructions=WARMUP, engine=engine)
    core_b.reset_stats()
    ev_b.clear()
    nb = core_b.consume_stream(stream, max_instructions=MEASURE,
                               engine=engine)

    assert na == nb
    sa, sb = _state(core_a), _state(core_b)
    diffs = {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert not diffs, f"state diverged: {diffs}"
    assert ev_a == ev_b


@pytest.mark.parametrize("engine", ["batched", "vector"])
def test_run_workload_engines_agree(engine, tmp_path):
    """run_workload(engine=...) parity including the sampler hook path,
    against the reference replaying the same stream from a trace store
    (so the batched case also checks replay against generation)."""
    from repro.exec.traces import TraceStore
    from repro.harness.runner import Fidelity, run_workload
    machine = get_machine("i9")
    fid = Fidelity.test()
    store = TraceStore(tmp_path)
    for name in ("System.Runtime", "Json"):
        spec = _spec_of(name)
        run_workload(spec, machine, fid, trace_store=store)    # record
        a = run_workload(spec, machine, fid, engine="batched",
                         trace_store=store, sampling=True,
                         sample_interval=2e-4)
        b = run_workload(spec, machine, fid, engine=engine,
                         sampling=True, sample_interval=2e-4)
        assert a.counters == b.counters
        assert a.topdown == b.topdown
        assert a.samples.columns == b.samples.columns


def test_env_toggle_selects_vector(monkeypatch):
    """REPRO_ENGINE=vector selects the native kernel (or its loud
    fallback), the engine the default also resolves to, and stays
    bit-identical to the batched engine; an explicit ``engine=``
    argument still wins over the environment."""
    from repro.harness.runner import Fidelity, resolve_engine, run_workload
    machine = get_machine("i9")
    fid = Fidelity.test()
    spec = _spec_of("Json")
    batched = run_workload(spec, machine, fid, engine="batched")
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    assert resolve_engine(None) == "vector"
    assert resolve_engine("batched") == "batched"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("legacy")            # the tuple engine is gone
    vector = run_workload(spec, machine, fid)
    assert batched.counters == vector.counters
    assert batched.topdown == vector.topdown
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError, match="unknown engine"):
        run_workload(spec, machine, fid)


def test_trace_store_replay_identical(tmp_path):
    """Cold record, warm replay and direct generation all agree; replay
    skips generation on the second run."""
    from repro.exec.traces import TraceStore
    from repro.harness.runner import Fidelity, run_workload
    machine = get_machine("i9")
    fid = Fidelity.test()
    spec = _spec_of("Json")
    store = TraceStore(tmp_path)
    direct = run_workload(spec, machine, fid, engine="batched")
    cold = run_workload(spec, machine, fid, trace_store=store,
                        engine="batched")
    assert len(list(store.keys())) == 1
    warm = run_workload(spec, machine, fid, trace_store=store,
                        engine="batched")
    assert cold.counters == direct.counters == warm.counters
    assert cold.topdown == direct.topdown == warm.topdown
    vec = run_workload(spec, machine, fid, trace_store=store,
                       engine="vector")
    assert vec.counters == direct.counters
    assert vec.topdown == direct.topdown


@pytest.mark.parametrize("name,kw", CASES,
                         ids=[c[0] + ("+" + next(iter(c[1]), "") if c[1]
                                      else "") for c in CASES])
def test_mmap_replay_state_identical(tmp_path, name, kw):
    """mmap-streamed decode == whole-file in-memory decode, full-state.

    Records each suite's op stream once, then replays it through both
    read paths into fresh cores and diffs every piece of observable
    state — the zero-copy/madvise plumbing must be invisible."""
    from repro.perf.trace_io import record_program, replay_buffers

    machine = get_machine("i9")
    spec = _spec_of(name)
    core_r, prog_r, _ = _build(spec, machine, **kw)
    path = tmp_path / "t.trace"
    record_program(prog_r, path, WARMUP + MEASURE + 4096)

    consumed, states, event_logs = [], [], []
    for use_mmap in (False, True):
        core, _prog, ev = _build(spec, machine, **kw)
        stream = TraceBufferStream(
            buffers=replay_buffers(path, use_mmap=use_mmap))
        core.consume_stream(stream, max_instructions=WARMUP)
        core.reset_stats()
        ev.clear()
        consumed.append(core.consume_stream(stream,
                                            max_instructions=MEASURE))
        states.append(_state(core))
        event_logs.append(list(ev))
    assert consumed[0] == consumed[1]
    diffs = {k: (states[0][k], states[1][k])
             for k in states[0] if states[0][k] != states[1][k]}
    assert not diffs, f"mmap decode diverged: {diffs}"
    assert event_logs[0] == event_logs[1]


def test_suite_mmap_vs_inmemory_identical(tmp_path, monkeypatch):
    """Acceptance: the mmap-streamed replay path produces an identical
    SuiteResult to the v2 in-memory path end to end."""
    from repro.exec.traces import TraceStore
    from repro.harness.runner import Fidelity
    from repro.harness.suite import characterize_suite

    machine = get_machine("i9")
    fid = Fidelity.test()
    specs = [_spec_of("System.Runtime"), _spec_of("Json"), _spec_of("mcf")]
    # Isolate the read-path axis: no warm-state reuse between runs.
    monkeypatch.setenv("REPRO_WARM_MODELS", "0")
    store = TraceStore(tmp_path)
    suites = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_TRACE_MMAP", flag)
        suites[flag] = characterize_suite(specs, machine, fid,
                                          trace_store=store)
    a, b = suites["0"], suites["1"]
    assert [r.counters for r in a.results] == [r.counters
                                               for r in b.results]
    assert [r.topdown for r in a.results] == [r.topdown for r in b.results]
    assert [r.seconds for r in a.results] == [r.seconds for r in b.results]


def test_warm_model_reuse_identical(tmp_path, monkeypatch):
    """A run on a rehydrated warm-cache model == a cold-constructed run
    (trace-store replay exercises the cached-buffer path too)."""
    from repro.exec import warm
    from repro.exec.traces import TraceStore
    from repro.harness.runner import Fidelity, run_workload

    machine = get_machine("i9")
    fid = Fidelity.test()
    spec = _spec_of("System.Runtime")
    store = TraceStore(tmp_path)

    monkeypatch.setenv("REPRO_WARM_MODELS", "0")
    cold = run_workload(spec, machine, fid, trace_store=store)

    monkeypatch.setenv("REPRO_WARM_MODELS", "1")
    monkeypatch.setattr(warm, "_CACHE", None)     # fresh cache
    first = run_workload(spec, machine, fid, trace_store=store)
    cache = warm.get_cache()
    assert cache.model_misses >= 1
    second = run_workload(spec, machine, fid, trace_store=store)
    assert cache.model_hits >= 1                  # rehydrated snapshot
    assert cache.buffer_hits >= 1                 # reused decoded trace

    assert cold.counters == first.counters == second.counters
    assert cold.topdown == first.topdown == second.topdown


@pytest.mark.parametrize("engine", ["batched", "vector"])
def test_multicore_engines_agree(engine, monkeypatch):
    """Vectorized buffer-level coloring == coloring one op at a time.

    The reference runs the Python engine with
    ``TraceBuffer.color_private`` replaced by a per-op loop over the
    tuples; ``engine`` runs the production mask.
    """
    from repro.harness.runner import Fidelity, run_multicore
    from repro.trace import OP_LOAD, OP_STORE, TraceBuffer

    def color_per_op(buf, spans, color):
        ops = []
        for op in buf.iter_ops():
            if op[0] in (OP_LOAD, OP_STORE) and any(
                    lo <= op[1] < hi for lo, hi in spans):
                op = (op[0], op[1] + color)
            ops.append(op)
        fresh = TraceBuffer()
        fresh.extend(ops)
        buf.kinds, buf.a0, buf.a1, buf.a2, buf.events = (
            fresh.kinds, fresh.a0, fresh.a1, fresh.a2, fresh.events)
        buf._vcols = None

    machine = get_machine("i9")
    fid = Fidelity(warmup_instructions=8_000, measure_instructions=15_000)
    spec = _spec_of("Plaintext")
    with monkeypatch.context() as m:
        m.setattr(TraceBuffer, "color_private", color_per_op)
        res_a, td_a, cnt_a = run_multicore(spec, machine, 2, fid,
                                           engine="batched")
    res_b, td_b, cnt_b = run_multicore(spec, machine, 2, fid,
                                       engine=engine)
    assert cnt_a == cnt_b
    assert td_a == td_b
    assert res_a.total_instructions == res_b.total_instructions
    assert (res_a.llc.cache.stats.demand_misses
            == res_b.llc.cache.stats.demand_misses)
