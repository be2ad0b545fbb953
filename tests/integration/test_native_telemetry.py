"""Native-kernel telemetry: retirement counters, live progress, phases.

The kernel now retires every op through two extra int64 increments
(total + per-kind, ``SI_OPS_RETIRED``/``SI_OPK0``).  These tests prove
the telemetry is *exact*, not approximate:

* per-kind retirement totals equal an independent tally of the op list
  AND the Python-side ``Core.counts`` the kernel maintains separately,
* the equivalence matrix holds across suites, batched vs vector, the
  sampler trampoline, and the multicore session,
* ``native.ops_retired()`` reads live kernel-owned slots mid-run and
  never double-counts across writeback (drain is idempotent),
* with obs enabled, the counters and export/run/writeback phase
  timings land in the metrics registry, matching ``native.stats``
  deltas bit-for-bit,
* the boundary census: a run exports each core's structures once
  (warmup, measure, hook exits and multicore quanta reuse the attached
  image) and imports none back unless something syncs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from test_batched_equivalence import _build, _spec_of
from test_vector_engine import _ops, needs_native

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         TraceBufferStream)
from repro.uarch import native
from repro.uarch.machine import get_machine
from repro.uarch.pipeline import Core

KIND_OF = {OP_BLOCK: "block", OP_BRANCH: "branch", OP_LOAD: "load",
           OP_STORE: "store", OP_EVENT: "event"}


def _delta(before: dict) -> dict:
    return {k: native.stats[k] - before[k] for k in before}


def _ops_delta(delta: dict) -> dict:
    return {name: delta["ops_" + name] for name in native.OP_KIND_NAMES}


@needs_native
def test_per_kind_counters_exact_on_synthetic_stream():
    """Every kernel retirement counter equals the op list's exact tally
    and the independently-maintained Core counts."""
    ops = _ops(3000, seed=31)
    expected = Counter(KIND_OF[op[0]] for op in ops)

    core = Core(get_machine("i9"), VirtualMemory())
    events = []
    core.event_hook = lambda k, p, c: events.append((k, p, c))
    before = dict(native.stats)
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    core.consume_stream(stream, engine="vector")
    delta = _delta(before)

    assert _ops_delta(delta) == dict(expected)
    assert delta["ops_retired"] == len(ops)
    # Cross-check against the kernel's *other* counting mechanism — the
    # Core counts slots it maintains in the same dispatch arms.
    assert delta["ops_branch"] == core.counts.branches
    assert delta["ops_load"] == core.counts.loads
    assert delta["ops_store"] == core.counts.stores
    assert delta["ops_event"] == len(events)


@needs_native
@pytest.mark.parametrize("name", ["System.Runtime", "Json", "mcf"])
def test_suite_counters_match_core_stats(name):
    """All three suite families: native per-kind counters equal the
    Python-side Core stats from both the vector and batched engines."""
    machine = get_machine("i9")
    limit = 20_000

    core_v, prog_v, ev_v = _build(_spec_of(name), machine)
    before = dict(native.stats)
    stream = TraceBufferStream(ops=prog_v.ops(), chunk_instructions=4096)
    nv = core_v.consume_stream(stream, max_instructions=limit,
                               engine="vector")
    delta = _delta(before)

    assert delta["ops_branch"] == core_v.counts.branches
    assert delta["ops_load"] == core_v.counts.loads
    assert delta["ops_store"] == core_v.counts.stores
    assert delta["ops_event"] == len(ev_v)
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    assert delta["ops_block"] > 0

    # Batched engine over the same spec/limit is the reference.
    core_b, prog_b, ev_b = _build(_spec_of(name), machine)
    stream_b = TraceBufferStream(ops=prog_b.ops(), chunk_instructions=4096)
    nb = core_b.consume_stream(stream_b, max_instructions=limit,
                               engine="batched")
    assert nv == nb
    assert delta["ops_branch"] == core_b.counts.branches
    assert delta["ops_load"] == core_b.counts.loads
    assert delta["ops_store"] == core_b.counts.stores
    assert delta["ops_event"] == len(ev_b)


@needs_native
def test_sampler_trampoline_keeps_counters_exact():
    """Hook exits re-enter with fresh images; drained totals must still
    sum exactly (no op lost or double-counted across the trampoline)."""
    from repro.harness.runner import Fidelity, run_workload

    machine = get_machine("i9")
    fid = Fidelity.test()
    before = dict(native.stats)
    a = run_workload(_spec_of("System.Runtime"), machine, fid,
                     engine="vector", sampling=True, sample_interval=1e-6)
    delta = _delta(before)
    assert delta["hook_exits"] > 0
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    b = run_workload(_spec_of("System.Runtime"), machine, fid,
                     engine="batched", sampling=True, sample_interval=1e-6)
    assert a.counters == b.counters


@needs_native
def test_multicore_session_counters_consistent():
    """Persistent multicore images drain on teardown; totals must be
    internally consistent and the engines bit-identical."""
    from repro.harness.runner import Fidelity, run_multicore

    machine = get_machine("i9")
    fid = Fidelity(warmup_instructions=4_000, measure_instructions=8_000)
    before = dict(native.stats)
    a = run_multicore(_spec_of("Plaintext"), machine, 2, fid,
                      engine="vector")
    delta = _delta(before)
    assert delta["sessions"] >= 2
    assert delta["ops_retired"] == sum(_ops_delta(delta).values())
    assert delta["ops_load"] > 0 and delta["ops_branch"] > 0
    b = run_multicore(_spec_of("Plaintext"), machine, 2, fid,
                      engine="batched")
    assert a[1] == b[1]            # Top-Down profiles
    assert a[2] == b[2]            # core-0 counters


@needs_native
def test_ops_retired_reads_live_slots_and_drains_once():
    """ops_retired() folds live kernel slots in mid-run; writeback
    drains them into stats exactly once (idempotent on re-writeback)."""
    core = Core(get_machine("i9"), VirtualMemory())
    base = native.ops_retired()
    img = native.CoreImage(core)
    # Simulate a kernel mid-run: the slots are live, nothing drained.
    img.si[native.SI_OPS_RETIRED] = 123
    img.si[native.SI_OPK0 + 2] = 100      # loads
    img.si[native.SI_OPK0 + 0] = 23       # blocks
    assert native.ops_retired() == base + 123

    before = dict(native.stats)
    img.writeback()
    delta = _delta(before)
    assert delta["ops_retired"] == 123
    assert delta["ops_load"] == 100
    assert delta["ops_block"] == 23
    assert native.ops_retired() == base + 123   # total unchanged by drain

    img.writeback()                             # second writeback: no-op
    assert native.ops_retired() == base + 123
    assert native.stats["ops_retired"] == before["ops_retired"] + 123


@needs_native
def test_phase_timings_and_counters_land_in_registry(tmp_path):
    """With obs on, the registry carries the native counters (equal to
    the stats deltas) and non-empty phase-timing histograms."""
    ops = _ops(2000, seed=33)
    obs.configure(tmp_path / "obs", spans=False)
    try:
        before = dict(native.stats)
        core = Core(get_machine("i9"), VirtualMemory())
        core.set_cycle_hook(lambda c: None, 500.0)
        stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
        core.consume_stream(stream, engine="vector")
        delta = _delta(before)
        snap = obs.metrics_snapshot()
    finally:
        obs.shutdown(dump=False)

    counters = snap["counters"]
    assert counters["native.kernel_calls"] == delta["kernel_calls"]
    assert counters["native.hook_exits"] == delta["hook_exits"] > 0
    assert counters["native.ops_retired"] == delta["ops_retired"]
    for name in native.OP_KIND_NAMES:
        assert counters.get("native.ops_retired." + name, 0) == \
            delta["ops_" + name]
    hists = snap["histograms"]
    for h in ("native.export_seconds", "native.run_seconds",
              "native.writeback_seconds"):
        assert hists[h]["count"] > 0
    assert hists["native.run_seconds"]["count"] == delta["kernel_calls"]


@needs_native
def test_structure_census_single_core():
    """One vector run_workload attaches once and imports nothing, with
    or without sampler hook exits; the obs counters agree."""
    from repro.harness.runner import Fidelity, run_workload

    machine = get_machine("i9")
    for sampling in (False, True):
        before = dict(native.stats)
        run_workload(_spec_of("System.Runtime"), machine, Fidelity.test(),
                     engine="vector", sampling=sampling,
                     sample_interval=1e-6)
        delta = _delta(before)
        assert delta["structure_exports"] == 1
        assert delta["structure_imports"] == 0
        assert (delta["hook_exits"] > 0) == sampling


@needs_native
def test_structure_census_multicore():
    """A sampled 4-core run attaches each core once across warmup,
    measure and every hook exit, and imports nothing."""
    from repro.harness.runner import Fidelity, run_multicore

    fid = Fidelity(warmup_instructions=4_000, measure_instructions=8_000)
    before = dict(native.stats)
    run_multicore(_spec_of("Json"), get_machine("i9"), 4, fid,
                  engine="vector", sampling=True, sample_interval=1e-6)
    delta = _delta(before)
    assert delta["sessions"] == 2
    assert delta["hook_exits"] > 0
    assert delta["structure_exports"] == 4
    assert delta["structure_imports"] == 0


@needs_native
def test_structure_census_lands_in_registry(tmp_path):
    ops = _ops(2000, seed=34)
    obs.configure(tmp_path / "obs", spans=False)
    try:
        before = dict(native.stats)
        core = Core(get_machine("i9"), VirtualMemory())
        stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
        core.consume_stream(stream, max_instructions=3000, engine="vector")
        core.consume_stream(stream, engine="vector")
        core.sync_native()
        delta = _delta(before)
        counters = obs.metrics_snapshot()["counters"]
    finally:
        obs.shutdown(dump=False)
    assert delta["structure_exports"] == delta["structure_imports"] == 1
    assert counters["native.structure_exports"] == 1
    assert counters["native.structure_imports"] == 1


@needs_native
def test_ops_retired_exact_across_warmup_and_measure():
    """Warmup, reset and measure on one resident image: every op is
    retired exactly once, live or drained."""
    ops = _ops(4000, seed=35)
    core = Core(get_machine("i9"), VirtualMemory())
    base = native.ops_retired()
    before = dict(native.stats)
    stream = TraceBufferStream(ops=iter(ops), chunk_instructions=4096)
    core.consume_stream(stream, max_instructions=5000, engine="vector")
    warm = native.ops_retired() - base
    assert 0 < warm < len(ops)
    core.reset_stats()
    core.consume_stream(stream, engine="vector")
    assert core._native_image is not None      # still attached
    assert native.ops_retired() - base == len(ops)
    assert _delta(before)["ops_retired"] == len(ops)
    core.sync_native()
    assert native.ops_retired() - base == len(ops)


@needs_native
def test_vm_hash_build_counter(tmp_path):
    """A cold export builds the page hash (counted); the refreshed key
    after a run makes the next export reuse it (not counted)."""
    core, prog, _ = _build(_spec_of("System.Runtime"), get_machine("i9"))
    before = dict(native.stats)
    stream = TraceBufferStream(ops=prog.ops(), chunk_instructions=4096)
    core.consume_stream(stream, max_instructions=5_000, engine="vector")
    assert native.stats["vm_hash_builds"] - before["vm_hash_builds"] == 1
    before = dict(native.stats)
    core.consume_stream(stream, max_instructions=5_000, engine="vector")
    assert native.stats["vm_hash_builds"] == before["vm_hash_builds"]
