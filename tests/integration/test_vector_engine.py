"""Vector-engine edge cases: chunking, limits, fallbacks, growth.

tests/integration/test_batched_equivalence.py proves the vector engine
bit-identical to legacy on real workload streams; this file attacks the
seams that real streams rarely stress deterministically:

* ops split across chunk boundaries at every offset (chunk size 1),
* an instruction limit landing inside a vectorized span, then resuming,
* chunks whose first/last op is the interesting one, empty buffers,
* the ``REPRO_NATIVE=0`` kill switch, the delegation guard
  (:func:`repro.uarch.native.nativizable`) and the loud fallback of the
  default engine,
* premapped page ranges: the kernel's range check, a range split
  between warmup and measure, and demand pages at range edges,
* virtual-memory hash growth mid-run (first-touch floods),
* non-default replacement policies (FIFO, RANDOM's deterministic LCG).

Every test drives the same op list through the legacy interpreter and
``consume_stream(engine="vector")`` and diffs the complete core state
via the equivalence harness's ``_state``.
"""

from __future__ import annotations

import random

import pytest

from test_batched_equivalence import _state

from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         TraceBuffer, TraceBufferStream)
from repro.uarch import native
from repro.uarch.cache import ReplacementPolicy
from repro.uarch.machine import get_machine
from repro.uarch.pipeline import Core


def _ops(n: int = 3000, seed: int = 1, data_span: int = 1 << 22):
    """A deterministic synthetic stream mixing every op kind.

    Includes kernel-mode blocks, backward branches (loop-predictor
    allocations), not-taken and taken branches, loads/stores over
    ``data_span`` bytes, and events with tuple payloads.
    """
    rng = random.Random(seed)
    code = 0x0010_0000
    data = 0x2000_0000
    pc = code
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.35:
            pc = code + rng.randrange(4096) * 64
            out.append((OP_BLOCK, pc, rng.randrange(1, 12),
                        rng.randrange(4, 120), rng.random() < 0.05))
        elif r < 0.55:
            out.append((OP_LOAD, data + rng.randrange(data_span)))
        elif r < 0.70:
            out.append((OP_STORE, data + rng.randrange(data_span)))
        elif r < 0.95:
            target = code + rng.randrange(4096) * 64
            out.append((OP_BRANCH, pc + rng.randrange(64), target,
                        rng.random() < 0.6))
        else:
            out.append((OP_EVENT, "gc_gen0", ("payload", i)))
    return out


def _run_pair(ops, *, chunk: int = 4096, limits=(None,), mutate=None,
              stream_factory=None):
    """Drive ``ops`` through legacy and vector; assert identical state.

    ``limits`` is a sequence of absolute instruction limits applied as
    successive ``consume`` calls (``None`` = run to exhaustion), which
    exercises pausing and resuming mid-stream on both engines.
    """
    machine = get_machine("i9")
    results = []
    for engine in ("legacy", "vector"):
        core = Core(machine, VirtualMemory())
        events = []
        core.event_hook = lambda k, p, c, _e=events: _e.append((k, p, c))
        if mutate is not None:
            mutate(core)
        consumed = []
        if engine == "legacy":
            it = iter(ops)
            for lim in limits:
                consumed.append(core.consume(it, max_instructions=lim))
        else:
            if stream_factory is not None:
                stream = stream_factory()
            else:
                stream = TraceBufferStream(ops=iter(ops),
                                           chunk_instructions=chunk)
            for lim in limits:
                consumed.append(core.consume_stream(
                    stream, max_instructions=lim, engine="vector"))
        results.append((consumed, _state(core), events))
    (ca, sa, ea), (cb, sb, eb) = results
    assert ca == cb
    diffs = {k: (sa[k], sb[k]) for k in sa if sa[k] != sb[k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert ea == eb
    return sa


needs_native = pytest.mark.skipif(not native.available(),
                                  reason="native kernel unavailable")


@needs_native
@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_chunk_boundaries_are_semantics_free(chunk):
    """Every op boundary is a potential chunk split (chunk=1: all of
    them), including chunks whose only op is a block/branch/event."""
    _run_pair(_ops(800), chunk=chunk)


@needs_native
def test_limit_hits_inside_vectorized_span():
    """Limits land mid-chunk; consumption resumes exactly there.

    Block ops make limits fall *inside* an op's instruction count: the
    engines must stop after the same op and resume on the next call.
    """
    ops = _ops(2000, seed=7)
    _run_pair(ops, limits=(1, 17, 1000, 1001, None))


@needs_native
def test_empty_and_single_op_buffers():
    """Replay streams with empty chunks interleaved; first/last ops of
    each chunk carry the state transitions."""
    ops = _ops(300, seed=3)

    def factory():
        bufs = [TraceBuffer()]                 # leading empty chunk
        for op in ops:                         # one op per buffer
            b = TraceBuffer()
            b.extend([op])
            bufs.append(b)
            bufs.append(TraceBuffer())         # empty chunk after each
        return TraceBufferStream(buffers=iter(bufs))

    _run_pair(ops, stream_factory=factory)


@needs_native
def test_all_miss_stream():
    """Monotone never-reused addresses: every access misses every level
    and the vm sees a new page each load (growth + fault path)."""
    ops = []
    for i in range(4000):
        ops.append((OP_LOAD, 0x5000_0000 + i * 4096))
        if i % 7 == 0:
            ops.append((OP_BLOCK, 0x0010_0000 + i * 64, 3, 48, False))
    state = _run_pair(ops, chunk=512)
    assert state["l1d.misses"] == 4000


@needs_native
def test_vm_hash_growth_mid_run():
    """First-touch flood: the native vm hash must grow (several times)
    mid-buffer and stay identical to the Python dict model."""
    core = Core(get_machine("i9"), VirtualMemory())
    img = native.CoreImage(core)
    start_cap = len(img.vm_hash)
    ops = [(OP_LOAD, 0x6000_0000 + i * 4096) for i in range(5000)]
    state = _run_pair(ops, chunk=8192)
    # 5000 distinct pages cannot fit a half-full table of the fresh
    # core's initial capacity — growth must have happened.
    assert start_cap < 2 * 5000
    assert state["counts.loads"] == 5000


@needs_native
@pytest.mark.parametrize("policy", [ReplacementPolicy.FIFO,
                                    ReplacementPolicy.RANDOM])
def test_replacement_policies(policy):
    """FIFO keeps insertion order without MRU moves; RANDOM picks
    victims with the deterministic LCG — both must match the kernel."""
    def mutate(core):
        for cache in (core.l1d, core.l2):
            cache.policy = policy
            cache._lru = policy == ReplacementPolicy.LRU
            cache._evict_head = policy != ReplacementPolicy.RANDOM
    _run_pair(_ops(2500, seed=11, data_span=1 << 24), mutate=mutate)


def test_native_disabled_falls_back(monkeypatch):
    """REPRO_NATIVE=0 disables the kernel; engine="vector" takes the
    batched path (with a fallback warning) and stays bit-identical."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    saved = native._lib, native._lib_resolved
    native._lib, native._lib_resolved = None, False
    try:
        assert not native.available()
        _run_pair(_ops(500, seed=5))
    finally:
        native._lib, native._lib_resolved = saved


def test_nativizable_guards():
    """Stock shared-LLC and sampler configs are native now; anything
    outside the kernel's model still delegates to the batched engine."""
    from repro.uarch.multicore import SharedLlc

    machine = get_machine("i9")
    core = Core(machine, VirtualMemory())
    assert native.nativizable(core)

    # Armed cycle hooks run through the HOOK trampoline.
    hooked = Core(machine, VirtualMemory())
    hooked.set_cycle_hook(lambda c: None, 1000.0)
    assert native.nativizable(hooked)

    # The stock shared LLC is modeled in C (slice counting + folded
    # contention latency); the M/M/1 math stays in Python.
    shared = Core(machine, VirtualMemory(),
                  shared_llc=SharedLlc(machine), core_id=0)
    assert native.nativizable(shared)

    # A subclassed/unknown shared LLC still delegates (loudly, at run
    # time: see test_unsupported_config_falls_back_loudly).
    weird = Core(machine, VirtualMemory())
    weird.shared_llc = object()
    assert not native.nativizable(weird)

    custom = Core(machine, VirtualMemory())
    custom.l1d_prefetcher.fetch = lambda addr: None   # rebound callback
    assert not native.nativizable(custom)

    paged = Core(machine, VirtualMemory())
    paged.dtlb.l1.page_shift = 13              # non-4K pages
    assert not native.nativizable(paged)

    subclassed = Core(machine, VirtualMemory())

    class WeirdVm(VirtualMemory):
        pass
    subclassed.vm = WeirdVm()
    assert not native.nativizable(subclassed)


@needs_native
def test_shared_llc_and_sampler_take_native_path():
    """Stock multicore + sampler configs must execute in the kernel —
    no silent batched delegation (asserted via the entry counters)."""
    from repro.harness.runner import Fidelity, run_multicore
    from test_batched_equivalence import _spec_of

    fid = Fidelity(warmup_instructions=4_000, measure_instructions=8_000)
    before = dict(native.stats)
    run_multicore(_spec_of("Plaintext"), get_machine("i9"), 2, fid,
                  engine="vector", sampling=True, sample_interval=1e-6)
    delta = {k: native.stats[k] - before[k] for k in before}
    assert delta["sessions"] == 2        # warmup + measure round loops
    assert delta["kernel_calls"] > 0
    assert delta["hook_exits"] > 0       # sampler ran via the trampoline


# ---------------------------------------------------------------------------
# Cycle-hook trampoline edge cases.

def _run_hooked(ops, engine, interval, make_hook, chunk=4096,
                limits=(None,)):
    """Drive ``ops`` with an armed cycle hook; return everything
    observable: per-call consumption, full core state, and the hook's
    own log (what it saw when it fired)."""
    core = Core(get_machine("i9"), VirtualMemory())
    log = []
    core.set_cycle_hook(make_hook(log), interval)
    consumed = []
    if engine == "legacy":
        it = iter(ops)
        for lim in limits:
            consumed.append(core.consume(it, max_instructions=lim))
    else:
        stream = TraceBufferStream(ops=iter(ops), chunk_instructions=chunk)
        for lim in limits:
            consumed.append(core.consume_stream(stream,
                                                max_instructions=lim,
                                                engine=engine))
    return consumed, _state(core), log


def _observing_hook(log):
    def hook(core):
        log.append((core.cycles, core.counts.instructions,
                    core._next_hook_cycles))
    return hook


def _mutating_hook(log):
    """A hook that perturbs live core state: the trampoline must write
    native state back before it runs and re-export after."""
    def hook(core):
        log.append((core.cycles, core.counts.instructions))
        core._ideal_cycles += 3.0            # shifts later hook timing
        core.counts.uops += 2.0
    return hook


def _hook_case(ops, interval, make_hook, chunk=4096, limits=(None,)):
    """Legacy vs vector with a hook armed: consumption counts, final
    state, and the hook's observations must all be identical."""
    a = _run_hooked(ops, "legacy", interval, make_hook, chunk, limits)
    before = dict(native.stats)
    b = _run_hooked(ops, "vector", interval, make_hook, chunk, limits)
    assert a[0] == b[0]
    diffs = {k: (a[1][k], b[1][k]) for k in a[1] if a[1][k] != b[1][k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert a[2] == b[2]
    return len(a[2]), native.stats["hook_exits"] - before["hook_exits"]


@needs_native
def test_hook_interval_smaller_than_chunk():
    """Interval of ~tens of cycles inside 4096-instruction chunks: the
    kernel must bounce through the trampoline many times per chunk."""
    fired, exits = _hook_case(_ops(1500, seed=21), 64.0, _observing_hook)
    assert fired > 20
    assert exits == fired


@needs_native
def test_hook_mutates_core_state_mid_run():
    """A hook that mutates cycles and counters mid-run: mutations must
    land in native state on re-entry (and shift later hook firings)."""
    fired, exits = _hook_case(_ops(1500, seed=22), 600.0, _mutating_hook)
    assert fired > 3
    assert exits == fired


@needs_native
def test_hook_fires_exactly_on_chunk_boundary():
    """Single-op chunks make every hook land on a chunk boundary; the
    kernel re-enters at pos == n_ops and must cleanly advance."""
    fired, exits = _hook_case(_ops(600, seed=23), 200.0, _observing_hook,
                              chunk=1)
    assert fired > 5
    assert exits == fired


@needs_native
def test_hook_with_limits_resumes_exactly():
    """Limits interleave with hook firings across consume calls; the
    legacy hook-before-limit ordering must be preserved."""
    _hook_case(_ops(1500, seed=24), 150.0, _observing_hook,
               limits=(1, 17, 900, 901, None))


@pytest.mark.parametrize("case", ["small-interval", "mutating",
                                  "chunk-boundary"])
def test_hook_parity_with_native_disabled(monkeypatch, case):
    """REPRO_NATIVE=0: the same hooked runs take the batched path and
    stay bit-identical to legacy."""
    monkeypatch.setenv("REPRO_NATIVE", "0")
    saved = native._lib, native._lib_resolved
    native._lib, native._lib_resolved = None, False
    try:
        assert not native.available()
        if case == "small-interval":
            fired, exits = _hook_case(_ops(800, seed=21), 64.0,
                                      _observing_hook)
        elif case == "mutating":
            fired, exits = _hook_case(_ops(800, seed=22), 600.0,
                                      _mutating_hook)
        else:
            fired, exits = _hook_case(_ops(400, seed=23), 200.0,
                                      _observing_hook, chunk=1)
        assert fired > 0
        assert exits == 0                  # kernel never entered
    finally:
        native._lib, native._lib_resolved = saved


# ---------------------------------------------------------------------------
# Premapped page ranges: the kernel's range check, the page-table reuse
# key and the demand-page drain.

_DATA = 0x3000_0000
_RANGES = ((256, 2048), (2560, 3000))     # premapped [start, end) pages
_EDGES = (255, 256, 2047, 2048, 2559, 2560, 2999, 3000)
_SPLIT = (1200, 1210)                     # unmapped between the phases


def _ranged_ops(n: int, seed: int):
    """Loads/stores over 4096 data pages (wider than the STLB, so pages
    keep walking and touching the VM), every range edge page and its
    outside neighbour among them, plus code blocks that fault in
    demand pages."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.15:
            page = rng.choice(_EDGES)
        else:
            page = rng.randrange(4096)
        addr = _DATA + page * 4096 + rng.randrange(4096)
        out.append((OP_STORE if r > 0.8 else OP_LOAD, addr))
        if i % 5 == 0:
            out.append((OP_BLOCK, 0x0010_0000 + rng.randrange(512) * 64,
                        rng.randrange(1, 12), rng.randrange(4, 120),
                        False))
    return out


def _ranged_run(engine: str, ops) -> tuple[Core, int]:
    vm = VirtualMemory(major_fault_fraction=0.05)
    core = Core(get_machine("i9"), vm)
    for lo, hi in _RANGES:
        vm.premap_range(_DATA + lo * 4096, (hi - lo) * 4096)
    vm.touch(_DATA + 255 * 4096)              # demand pages abutting
    vm.touch(_DATA + 3000 * 4096 + 17)        # both outer edges
    before = native.stats["vm_hash_builds"]
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    core.consume_stream(stream, max_instructions=6000, engine=engine)
    core.reset_stats()
    lo, hi = _SPLIT                           # heap shrink splits a range
    vm.unmap_range(_DATA + lo * 4096, (hi - lo) * 4096)
    core.consume_stream(stream, engine=engine)
    return core, native.stats["vm_hash_builds"] - before


@needs_native
def test_premapped_ranges_vector_matches_batched():
    """Full-state diff, vector against batched, on a VM with premapped
    ranges, demand pages next to every range edge, and an unmap that
    splits a range between warmup and measure."""
    ops = _ranged_ops(12000, seed=41)
    batched, _ = _ranged_run("batched", ops)
    vector, builds = _ranged_run("vector", ops)
    sb, sv = _state(batched), _state(vector)
    diffs = {k: (sb[k], sv[k]) for k in sb if sb[k] != sv[k]}
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    # The split really happened, the kernel faulted pages back in inside
    # the split and drained them, and the unmap invalidated the exported
    # page table (one build per phase).
    base = _DATA >> 12
    vm = vector.vm
    assert list(zip(vm._starts, vm._ends)) == [
        (base + 256, base + 1200), (base + 1210, base + 2048),
        (base + 2560, base + 3000)]
    assert {base + 255, base + 3000} <= vm._demand
    assert any(base + p in vm._demand for p in range(*_SPLIT))
    assert vm.stats.faults > 0
    assert builds == 2


# ---------------------------------------------------------------------------
# The default engine and its loud fallback.

def test_default_engine_is_vector(monkeypatch):
    from repro.harness.runner import resolve_engine
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_LEGACY_CONSUME", raising=False)
    assert resolve_engine(None) == "vector"


@needs_native
def test_default_run_reports_vector(monkeypatch):
    from repro.harness.runner import Fidelity, run_workload
    from test_batched_equivalence import _spec_of
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_LEGACY_CONSUME", raising=False)
    r = run_workload(_spec_of("System.Runtime"), get_machine("i9"),
                     Fidelity.test())
    assert r.engine == "vector"


def test_default_run_falls_back_loudly(monkeypatch, tmp_path):
    """With no kernel, a default run is bit-identical to batched, warns
    once per process, counts every delegated consume call, and reports
    the engine that actually ran."""
    from repro import obs
    from repro.harness.runner import Fidelity, run_workload
    from repro.obs.metrics import labeled
    from test_batched_equivalence import _spec_of
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_LEGACY_CONSUME", raising=False)
    spec, machine, fid = _spec_of("Json"), get_machine("i9"), Fidelity.test()
    ref = run_workload(spec, machine, fid, engine="batched")

    monkeypatch.setattr(native, "available", lambda: False)
    monkeypatch.setattr(native, "_warned", set())
    obs.configure(tmp_path / "obs", spans=False)
    try:
        before = dict(native.stats)
        with pytest.warns(native.NativeFallbackWarning) as caught:
            runs = [run_workload(spec, machine, fid) for _ in range(2)]
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.shutdown(dump=False)
    delta = native.stats["delegated_unavailable"] \
        - before["delegated_unavailable"]

    assert [w.category for w in caught] == [native.NativeFallbackWarning]
    assert "unavailable" in str(caught[0].message)
    assert delta == 4                      # warmup + measure, two runs
    assert counters[labeled("native.delegated", reason="unavailable")] \
        == delta
    assert native.stats["kernel_calls"] == before["kernel_calls"]
    for r in runs:
        assert r.engine == "batched"
        assert (r.counters, r.topdown) == (ref.counters, ref.topdown)
        assert r == ref


def test_unsupported_config_falls_back_loudly(monkeypatch):
    """A configuration nativizable() rejects warns under its own reason."""
    monkeypatch.setattr(native, "_warned", set())
    core = Core(get_machine("i9"), VirtualMemory())
    core.l1d_prefetcher.fetch = lambda addr: None   # rebound callback
    before = native.stats["delegated_unsupported"]
    stream = TraceBufferStream(ops=iter(_ops(200, seed=9)))
    with pytest.warns(native.NativeFallbackWarning, match="nativizable"):
        core.consume_stream(stream, engine="vector")
    assert native.stats["delegated_unsupported"] == before + 1
    assert core.last_engine == "batched"
