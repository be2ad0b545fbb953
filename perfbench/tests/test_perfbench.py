"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests).

They cover the span arithmetic, the wrappers' restore guarantee, the
metric names against ``BENCHMARK.json``, and the delegation probe.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Recorder, Target  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [_span("a", 0, 100, -1),
             _span("b", 10, 40, 0),
             _span("c", 20, 30, 1),      # grandchild of a
             _span("d", 50, 90, 0),
             _span("e", 120, 150, -1)]
    assert tracing.self_times(spans) == [30, 20, 10, 40, 30]
    assert sum(tracing.self_times(spans)) == tracing.top_level_ns(spans)
    assert tracing.top_level_ns(spans) == 130
    assert tracing.has_ancestor(spans, 2, "a")
    assert not tracing.has_ancestor(spans, 1, "d")


def test_recorder_nests_spans_and_tags_jobs():
    rec = Recorder()
    calls = []

    class Host:
        def job(self):
            return self.inner()

        def inner(self):
            calls.append(rec._job)
            return 7

    originals = dict(vars(Host))
    rec.install([
        Target("t.job", "harness", lambda: [(Host, "job")], job=True),
        Target("t.inner", "exec", lambda: [(Host, "inner")]),
    ])
    try:
        assert Host().job() == 7
        assert Host().job() == 7
    finally:
        rec.uninstall()
    assert vars(Host)["job"] is originals["job"]
    assert vars(Host)["inner"] is originals["inner"]
    assert calls == [1, 2]
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("t.job", -1, 1), ("t.inner", 0, 1),
                     ("t.job", -1, 2), ("t.inner", 2, 2)]


def test_failing_job_is_counted_and_exception_propagates():
    rec = Recorder()

    class Host:
        def job(self):
            raise RuntimeError("boom")

    rec.install([Target("t.job", "harness", lambda: [(Host, "job")],
                        job=True)])
    try:
        with pytest.raises(RuntimeError):
            Host().job()
    finally:
        rec.uninstall()
    assert rec.failed_jobs == {1}
    assert rec._stack == []


def test_timed_iterator_records_one_span_per_item():
    rec = Recorder()
    it = tracing._TimedIterator(rec, "t.decode", iter([1, 2, 3]))
    assert list(it) == [1, 2, 3]
    assert [s[0] for s in rec.spans] == ["t.decode"] * 4  # + StopIteration


def _bindings():
    out = {}
    for target in layers.PROBES + layers.LAYERS:
        for owner, attr, original in tracing._locate(target.where):
            out[(id(owner), attr)] = (owner, attr, original)
    return out


def test_install_then_uninstall_restores_every_original():
    before = _bindings()
    # functions imported by name elsewhere are patched at every binding
    assert sum(attr == "run_workload" for _, attr in before) >= 3
    rec = Recorder()
    rec.install(layers.PROBES + layers.LAYERS)
    try:
        for owner, attr, original in before.values():
            current = (vars(owner).get(attr) if isinstance(owner, type)
                       else getattr(owner, attr))
            assert current is not original, (owner, attr)
    finally:
        rec.uninstall()
    for owner, attr, original in before.values():
        current = (vars(owner).get(attr) if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original, (owner, attr)


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == {k: v[:2] for k, v in layers.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    names = list(e2e) + list(per_layer) + list(run.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    derived = layers.pass_layers([], Counter(), 1.0)["metrics"]
    assert set(derived) | {"trace.overhead_pct"} == set(layers.PER_LAYER)


def _stream(spec, machine, seed=0):
    from repro.kernel.vm import VirtualMemory
    from repro.trace import TraceBufferStream
    from repro.uarch.pipeline import Core
    from repro.workloads.program import build_program
    vm = VirtualMemory()
    core = Core(machine, vm)
    program = build_program(spec, seed=seed)
    program.premap(vm)
    core.set_hints(spec.hints())
    return core, TraceBufferStream(filler=program.fill_buffer)


def test_delegated_counts_vector_requests_that_miss_the_kernel():
    from repro.uarch import native
    from repro.uarch.machine import i9_9980xe
    from repro.workloads import dotnet_category_specs
    spec = dotnet_category_specs()[0]
    prefetching = dataclasses.replace(i9_9980xe(), jit_code_prefetch=True)
    rec = Recorder()
    rec.install(layers.PROBES)
    try:
        core, stream = _stream(spec, prefetching)
        assert not native.nativizable(core)
        core.consume_stream(stream, 2000, engine="vector")
        assert rec.counts["uarch.native.delegated"] == 1
        core.consume_stream(stream, 2000)        # batched: not a fallback
        assert rec.counts["uarch.native.delegated"] == 1
        if native.available():
            core, stream = _stream(spec, i9_9980xe())
            core.consume_stream(stream, 2000, engine="vector")
            assert rec.counts["uarch.native.delegated"] == 1
            assert rec.counts["uarch.native.entries"] == 1
    finally:
        rec.uninstall()


def test_delegation_fails_the_job_it_happens_in():
    from repro import harness
    from repro.uarch.machine import i9_9980xe
    from repro.workloads import dotnet_category_specs
    spec = dotnet_category_specs()[0]
    prefetching = dataclasses.replace(i9_9980xe(), jit_code_prefetch=True)
    fid = harness.Fidelity(warmup_instructions=2000,
                           measure_instructions=3000)
    rec = Recorder()
    rec.install(layers.PROBES)
    try:
        harness.run_workload(spec, prefetching, fid, engine="vector")
    finally:
        rec.uninstall()
    assert rec.counts["uarch.native.delegated"] == 2   # warmup + measure
    assert rec.failed_jobs == {1}
