"""Ablation: GC without compaction (mark-sweep).

DESIGN.md decision 1: the Fig 14 cache benefit must come from the
compaction mechanism, not an injected bonus.  With compaction disabled,
churned objects stay scattered forever: fragmentation grows without bound
and the dense-heap benefits disappear while the GC overhead remains.
"""

from repro.harness.report import format_table
from repro.harness.runner import Fidelity, run_workload
from repro.runtime.gc import GcConfig, SERVER
from repro.runtime.heap import HeapConfig
from repro.trace import TraceBuffer
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program

MB = 2 ** 20


def test_ablation_gc_compaction(benchmark, fidelity, machine_i9, emit):
    spec = next(s for s in dotnet_category_specs()
                if s.name == "System.Collections")
    gc = GcConfig(flavor=SERVER, max_heap_bytes=2_000 * MB)
    fid = Fidelity(warmup_instructions=100_000,
                   measure_instructions=max(300_000,
                                            fidelity.measure_instructions))

    def final_fragmentation(compaction: bool) -> float:
        prog = build_program(
            spec, seed=3,
            heap_config=HeapConfig(max_heap_bytes=gc.max_heap_bytes,
                                   gen0_budget_bytes=gc.gen0_budget()),
            gc_config=gc, compaction_enabled=compaction)
        buf = TraceBuffer()
        while len(buf) < 200_000:
            prog.fill_buffer(buf, 1)        # one work item per call
        return prog.clr.live_set.fragmentation

    def run():
        runs = {}
        for compaction in (True, False):
            r = run_workload(spec, machine_i9, fid, seed=3, gc_config=gc,
                             compaction_enabled=compaction)
            runs[compaction] = r
        frags = {c: final_fragmentation(c) for c in (True, False)}
        return runs, frags

    (runs, frags) = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for compaction in (True, False):
        c = runs[compaction].counters
        rows.append(["compacting" if compaction else "mark-sweep",
                     c.gc_triggered, c.mpki(c.llc_misses),
                     c.mpki(c.l2_misses), c.mpki(c.dtlb_load_misses),
                     runs[compaction].seconds * 1e6,
                     frags[compaction]])
    text = format_table(
        ["GC mode", "GCs", "LLC MPKI", "L2 MPKI", "dTLB MPKI",
         "time (us)", "live-set fragmentation"], rows)
    emit("ablation_gc_compaction", text)

    # The mechanism: without compaction the live set's line density
    # degrades steadily (towards one object per line); compaction holds
    # it near the packed optimum.
    assert frags[False] > frags[True] + 0.05
    assert frags[True] < 1.1
    # Both modes pay comparable GC overhead (event counts similar).
    on, off = runs[True].counters, runs[False].counters
    assert abs(on.gc_triggered - off.gc_triggered) \
        <= max(3, on.gc_triggered // 2)
