"""Residency differential: resident native images never change results.

From its first vector consume on, a core keeps its caches, TLBs,
predictors, prefetcher streams and DRAM rows in its native image; only
counters, stalls and stats are published at each kernel exit, and
structures come back to Python on ``Core.sync_native()`` (implicitly on
every Python engine entry and on pickling).  Hypothesis generates op
streams plus step sequences mixing everything that crosses that
boundary:

* vector ``consume_stream`` calls with random limits,
* ``reset_stats``, ``set_hints``, re-armed observing or counter-mutating
  cycle hooks at random intervals,
* ``vm.premap_range`` between calls,
* a switch to the batched engine and back,
* pickle/unpickle mid-life, and explicit syncs,

on a drawn machine preset with drawn L1i/L1d/L2/LLC geometries (sets
and ways the kernel models), a drawn replacement policy per cache and a
drawn data footprint (4 KiB to 4 MiB, so small caches see hits at every
recency position as well as evictions).
Three cores run every sequence: the batched engine (the reference), a
vector core whose full state is diffed (``_state`` syncs it) after every
step, and a vector core that is never synced except by the steps
themselves.  The resident core's published scalars and stats must match
the reference after every step, its structure containers must refuse
reads while attached, and its full state must match at the end.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_batched_equivalence import _state
from test_vector_engine import _ops, needs_native

from repro.kernel.vm import VirtualMemory
from repro.trace import TraceBufferStream
from repro.uarch import native
from repro.uarch.cache import ReplacementPolicy
from repro.uarch.machine import get_machine
from repro.uarch.memory import DramModel
from repro.uarch.pipeline import Core, WorkloadHints

_DATA = 0x2000_0000                       # _ops' data region


def _published(core) -> dict:
    """What a kernel exit publishes: readable without a sync."""
    d = {"counts": repr(core.counts), "stalls": repr(core.stalls),
         "ideal": core._ideal_cycles, "next_hook": core._next_hook_cycles,
         "last": (core._last_code_line, core._last_code_page,
                  core._last_data_vpn, core._kernel_mode)}
    for name in ("l1i", "l1d", "l2", "llc", "dsb"):
        cache = getattr(core, name)
        d[name] = (repr(cache.stats), cache._rand_state)
    for name, tlb in (("itlb", core.itlb.l1), ("dtlb", core.dtlb.l1),
                      ("stlb", core.itlb.stlb)):
        d[name] = repr(tlb.stats)
    bu = core.branch_unit
    d["bp"] = (repr(bu.stats), bu.predictor._history)
    for name in ("l1i_prefetcher", "l1d_prefetcher", "l2_prefetcher"):
        d[name] = repr(getattr(core, name).stats)
    d["pf_last"] = (core.l1i_prefetcher._last_line,
                    core.l1d_prefetcher._last_line)
    d["dram"] = repr(core.dram.stats)
    vm = core.vm
    d["vm"] = (repr(vm.stats), vm._fault_seq, sorted(vm._demand),
               list(zip(vm._starts, vm._ends)))
    return d


def _observing(log):
    def hook(core):
        log.append((core.cycles, core.counts.instructions,
                    core.l2.stats.misses))
    return hook


def _mutating(log):
    def hook(core):
        log.append((core.cycles, core.counts.instructions))
        core._ideal_cycles += 3.0
        core.counts.uops += 2.0
        core.l1d.stats.accesses += 1
    return hook


_limits = st.one_of(st.none(), st.integers(1, 4000))
_steps = st.lists(st.one_of(
    st.tuples(st.just("vector"), _limits),
    st.tuples(st.just("batched"), _limits),
    st.tuples(st.just("reset")),
    st.tuples(st.just("hook"), st.sampled_from(("observe", "mutate")),
              st.floats(40.0, 3000.0)),
    st.tuples(st.just("hints"), st.floats(1.0, 4.0), st.floats(1.0, 6.0)),
    st.tuples(st.just("premap"), st.integers(0, 1023), st.integers(1, 256)),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("sync")),
), min_size=1, max_size=10)


#: (log2 sets, ways) of one cache level, or None for the preset's own;
#: ways need not be a power of two
_geometry = st.one_of(st.none(),
                      st.tuples(st.integers(0, 6), st.integers(1, 20)))
_GEOMETRY_LEVELS = ("l1i", "l1d", "l2", "llc")


def _machine(preset: str = "i9", geometry=()):
    """``preset`` with the simulated L1i/L1d/L2/LLC resized to
    ``geometry`` (one ``(log2 sets, ways)`` pair or None per level)."""
    m = get_machine(preset)
    over = {}
    for name, level in zip(_GEOMETRY_LEVELS, geometry):
        if level is None:
            continue
        sets_log2, ways = level
        scale = m.l1_scale if name in ("l1i", "l1d") else m.capacity_scale
        over[name] = dataclasses.replace(
            getattr(m, name), ways=ways,
            size_bytes=(64 * ways << sets_log2) * scale)
    return dataclasses.replace(m, **over)


def _set_policies(core, policies) -> None:
    """One replacement policy each for L1i, L1d, L2, LLC and DSB."""
    caches = (core.l1i, core.l1d, core.l2, core.llc, core.dsb)
    for cache, policy in zip(caches, policies):
        cache.policy = policy
        cache._lru = policy == ReplacementPolicy.LRU
        cache._evict_head = policy != ReplacementPolicy.RANDOM


class _Lane:
    """One core driven through the step sequence on one engine."""

    def __init__(self, engine: str, ops, chunk: int, machine=None,
                 policies=()) -> None:
        self.engine = engine
        self.core = Core(machine or get_machine("i9"), VirtualMemory())
        _set_policies(self.core, policies)
        self.events = []
        self.hook_log = []
        self.consumed = []
        self.core.event_hook = self._on_event
        self.stream = TraceBufferStream(ops=iter(ops),
                                        chunk_instructions=chunk)

    def _on_event(self, kind, payload, cycles) -> None:
        self.events.append((kind, payload, cycles))

    def step(self, step) -> None:
        core = self.core
        kind = step[0]
        if kind in ("vector", "batched"):
            engine = "batched" if self.engine == "batched" else kind
            self.consumed.append(core.consume_stream(
                self.stream, step[1], engine=engine))
        elif kind == "reset":
            core.reset_stats()
        elif kind == "hook":
            make = _observing if step[1] == "observe" else _mutating
            core.set_cycle_hook(make(self.hook_log), step[2])
        elif kind == "hints":
            core.set_hints(WorkloadHints(ilp=step[1], mlp=step[2]))
        elif kind == "premap":
            core.vm.premap_range(_DATA + step[1] * 4096, step[2] * 4096)
        elif kind == "pickle":
            hook, core.cycle_hook = core.cycle_hook, None
            core.event_hook = None
            self.core = pickle.loads(pickle.dumps(core))
            self.core.cycle_hook = hook
            self.core.event_hook = self._on_event
        elif kind == "sync":
            core.sync_native()


def _diff(a: dict, b: dict) -> dict:
    return {k: (a[k], b[k]) for k in a if a[k] != b[k]}


@needs_native
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2 ** 32 - 1), n_ops=st.integers(1, 2500),
       data_span=st.sampled_from((1 << 12, 1 << 16, 1 << 22)),
       chunk=st.sampled_from((64, 700, 4096)), steps=_steps,
       preset=st.sampled_from(("xeon", "i9", "arm")),
       geometry=st.tuples(*[_geometry] * len(_GEOMETRY_LEVELS)),
       policies=st.lists(st.sampled_from(ReplacementPolicy.ALL),
                         min_size=5, max_size=5))
def test_resident_images_match_batched(seed, n_ops, data_span, chunk, steps,
                                       preset, geometry, policies):
    ops = _ops(n_ops, seed=seed, data_span=data_span)
    machine = _machine(preset, geometry)
    ref = _Lane("batched", ops, chunk, machine, policies)
    synced = _Lane("vector", ops, chunk, machine, policies)
    resident = _Lane("vector", ops, chunk, machine, policies)
    assert native.nativizable(synced.core)
    for step in steps:
        for lane in (ref, synced, resident):
            lane.step(step)
        expected = _state(ref.core)
        diffs = _diff(expected, _state(synced.core))
        assert not diffs, f"after {step}: {dict(list(diffs.items())[:4])}"
        diffs = _diff(_published(ref.core), _published(resident.core))
        assert not diffs, f"after {step}: {dict(list(diffs.items())[:4])}"
        if resident.core._native_image is not None:
            with pytest.raises(TypeError):
                resident.core.l2.occupancy
            with pytest.raises(TypeError):
                resident.core.l1d.contains(0)
            with pytest.raises(TypeError):
                list(resident.core.dtlb.l1.resident_vpns())
    for lane in (synced, resident):
        assert lane.consumed == ref.consumed
        assert lane.hook_log == ref.hook_log
        assert lane.events == ref.events
    diffs = _diff(_state(ref.core), _state(resident.core))
    assert not diffs, f"final: {dict(list(diffs.items())[:4])}"


@needs_native
def test_structures_stay_resident_across_calls():
    """Warmup, reset and measure share one attached image: one export,
    no import until something needs the structures."""
    ops = _ops(3000, seed=51)
    lane = _Lane("vector", ops, 4096)
    before = dict(native.stats)
    lane.step(("vector", 2000))
    img = lane.core._native_image
    assert img is not None
    lane.step(("reset",))
    lane.step(("vector", None))
    assert lane.core._native_image is img
    assert native.stats["structure_exports"] - before["structure_exports"] \
        == 1
    assert native.stats["structure_imports"] \
        == before["structure_imports"]
    assert lane.core.l1d._sets is None
    lane.core.sync_native()
    assert lane.core._native_image is None
    assert native.stats["structure_imports"] \
        - before["structure_imports"] == 1
    assert lane.core.l1d.occupancy > 0


@needs_native
def test_dropped_attached_core_frees_its_image():
    """Between calls an attached image is referenced only by its core:
    dropping the core frees the image and its arrays."""
    lane = _Lane("vector", _ops(1500, seed=52), 4096)
    lane.step(("vector", None))
    ref = weakref.ref(lane.core._native_image)
    assert not native._live_images
    del lane
    gc.collect()
    assert ref() is None
    assert not native._live_images


@needs_native
def test_hook_that_leaves_core_unmodeled_finishes_in_python(monkeypatch):
    """A hook that turns the core into a configuration the kernel does
    not model (here: a DRAM subclass) makes the rest of the call sync
    and delegate to the batched engine, still bit-identical."""
    from repro.uarch.memory import DramModel

    class Dram(DramModel):
        __slots__ = ()

    def make_hook(log):
        def hook(core):
            log.append(core.counts.instructions)
            if len(log) == 3:
                core.dram.__class__ = Dram
        return hook

    monkeypatch.setattr(native, "_warned", set())   # warn again here
    ops = _ops(2500, seed=53)
    lanes = {}
    for engine in ("batched", "vector"):
        core = Core(get_machine("i9"), VirtualMemory())
        log = []
        core.set_cycle_hook(make_hook(log), 300.0)
        if engine == "batched":
            core.consume_stream(TraceBufferStream(ops=iter(ops)))
        else:
            before = dict(native.stats)
            stream = TraceBufferStream(ops=iter(ops),
                                       chunk_instructions=4096)
            with pytest.warns(native.NativeFallbackWarning):
                core.consume_stream(stream, engine="vector")
            assert native.stats["delegated_unsupported"] \
                == before["delegated_unsupported"] + 1
            assert core._native_image is None
            assert core.last_engine == "batched"
        lanes[engine] = (_state(core), log)
    assert len(lanes["batched"][1]) > 3
    assert lanes["vector"][1] == lanes["batched"][1]
    diffs = _diff(lanes["batched"][0], lanes["vector"][0])
    assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"


@needs_native
def test_multicore_group_stays_resident_and_hands_off_llc_rng():
    """A shared-LLC group with a RANDOM-replacement LLC: every quantum
    passes the LLC's eviction RNG state to the next core through the
    published scalar, the images stay attached across both runs, and
    syncing one core syncs the group — bit-identical to batched."""
    import dataclasses

    from repro.uarch.cache import ReplacementPolicy
    from repro.uarch.multicore import MulticoreRunner

    i9 = get_machine("i9")
    machine = dataclasses.replace(       # small enough to evict
        i9, llc=dataclasses.replace(i9.llc, size_bytes=3 << 20))

    def factory(core_id):
        ops = _ops(20000, seed=60 + core_id, data_span=1 << 24)
        return (TraceBufferStream(ops=iter(ops), chunk_instructions=4096),
                WorkloadHints())

    runs = {}
    for engine in ("batched", "vector"):
        runner = MulticoreRunner(machine, 3, factory,
                                 epoch_instructions=700, engine=engine)
        llc = runner.llc.cache
        llc.policy = ReplacementPolicy.RANDOM
        llc._lru = llc._evict_head = False
        before = dict(native.stats)
        runner.run(8000)
        for core in runner.cores:
            core.reset_stats()
        llc.reset_stats()
        res = runner.run(16000)
        if engine == "vector":
            assert native.stats["structure_exports"] \
                - before["structure_exports"] == 3
            images = [c._native_image for c in runner.cores]
            assert None not in images
            assert runner.llc._native_group == images
            assert llc._sets is None
            runner.cores[2].sync_native()
            assert all(c._native_image is None for c in runner.cores)
            assert runner.llc._native_group is None
        runs[engine] = (llc._rand_state, repr(llc.stats), res.epochs,
                        [_state(c) for c in runner.cores],
                        repr(llc._sets))
    assert runs["batched"][0] != 0x9E3779B9       # RANDOM evictions ran
    assert runs["vector"][:3] == runs["batched"][:3]
    for a, b in zip(runs["batched"][3], runs["vector"][3]):
        diffs = _diff(a, b)
        assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert runs["vector"][4] == runs["batched"][4]


def _multicore_runs(factory, n_cores, setup=None, runs=(8000, 8000)):
    """Run a ``MulticoreRunner`` per engine; returns engine -> outputs."""
    from repro.uarch.multicore import MulticoreRunner

    out = {}
    for engine in ("batched", "vector"):
        runner = MulticoreRunner(get_machine("i9"), n_cores, factory,
                                 epoch_instructions=700, engine=engine)
        logs = setup(runner) if setup is not None else None
        epochs = [runner.run(n).epochs for n in runs]
        llc = runner.llc
        out[engine] = {"runner": runner, "logs": logs, "epochs": epochs,
                       "llc_stats": repr(llc.cache.stats),
                       "llc_rand": llc.cache._rand_state}
    return out


def _assert_multicore_equal(runs) -> None:
    ref, vec = runs["batched"], runs["vector"]
    for key in ("logs", "epochs", "llc_stats", "llc_rand"):
        assert vec[key] == ref[key], key
    for a, b in zip(ref["runner"].cores, vec["runner"].cores):
        diffs = _diff(_state(a), _state(b))
        assert not diffs, f"state diverged: {dict(list(diffs.items())[:4])}"
    assert repr(vec["runner"].llc.cache._sets) \
        == repr(ref["runner"].llc.cache._sets)


@needs_native
def test_multicore_hook_that_leaves_one_core_unmodeled(monkeypatch):
    """A hook turns core 0 of a shared-LLC pair into a configuration the
    kernel does not model mid-run: core 0 syncs the group and finishes
    on the batched engine while core 1 keeps running native quanta, so
    the LLC's arrays move between core 1's image and Python every
    quantum — bit-identical to batched, also on a second run."""
    from repro.uarch.memory import DramModel

    class Dram(DramModel):
        __slots__ = ()

    def factory(core_id):
        ops = _ops(20000, seed=70 + core_id, data_span=1 << 24)
        return (TraceBufferStream(ops=iter(ops), chunk_instructions=4096),
                WorkloadHints())

    def setup(runner):
        log = []

        def hook(core):
            log.append((core.counts.instructions, core.cycles))
            if len(log) == 3:
                core.dram.__class__ = Dram
        runner.cores[0].set_cycle_hook(hook, 300.0)
        return log

    monkeypatch.setattr(native, "_warned", set())
    with pytest.warns(native.NativeFallbackWarning):
        runs = _multicore_runs(factory, 2, setup)
    assert len(runs["batched"]["logs"]) > 3
    vec = runs["vector"]["runner"]
    assert vec.cores[0]._native_image is None
    assert vec.cores[0].last_engine == "batched"
    assert vec.cores[1].last_engine == "vector"
    _assert_multicore_equal(runs)


class _UnmodeledDram(DramModel):
    """A DRAM model the kernel does not model (picklable: module level)."""

    __slots__ = ()


@needs_native
def test_multicore_one_unmodeled_core_falls_back_per_quantum(monkeypatch):
    """One core the kernel does not model keeps the run off the native
    session: the other cores attach through ``consume_stream`` and share
    an LLC group, and the unmodeled core syncs that group before each of
    its quanta on the Python engine.  Pickling that core or the shared
    LLC while the group is attached syncs it first.  Bit-identical to
    batched."""
    def factory(core_id):
        ops = _ops(16000, seed=80 + core_id, data_span=1 << 24)
        return (TraceBufferStream(ops=iter(ops), chunk_instructions=4096),
                WorkloadHints())

    def setup(runner):
        runner.cores[1].dram.__class__ = _UnmodeledDram

    monkeypatch.setattr(native, "_warned", set())
    before = dict(native.stats)
    with pytest.warns(native.NativeFallbackWarning):
        runs = _multicore_runs(factory, 3, setup)
    assert native.stats["sessions"] == before["sessions"]
    vec = runs["vector"]["runner"]
    assert vec.cores[1].last_engine == "batched"
    assert vec.cores[2].last_engine == "vector"
    assert vec.llc._native_group == [vec.cores[2]._native_image]
    unmodeled = pickle.loads(pickle.dumps(vec.cores[1]))
    assert vec.llc._native_group is None
    assert _state(unmodeled) == _state(vec.cores[1])
    vec.cores[0].consume_stream(vec._streams[0], 500, engine="vector")
    assert vec.llc._native_group is not None
    llc = pickle.loads(pickle.dumps(vec.llc))
    assert vec.llc._native_group is None
    assert repr(llc.cache._sets) == repr(vec.llc.cache._sets)
    runs["batched"]["runner"].cores[0].consume_stream(
        runs["batched"]["runner"]._streams[0], 500, engine="batched")
    _assert_multicore_equal(runs)
