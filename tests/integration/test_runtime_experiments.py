"""Integration tests for the §VII managed-runtime experiments."""

import pytest

from repro.harness.runner import Fidelity, run_workload, run_with_sampling
from repro.runtime.gc import GcConfig, SERVER, WORKSTATION
from repro.uarch.machine import get_machine
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs

from tests.opstream import program_ops

MACHINE = get_machine("i9")
FID = Fidelity(warmup_instructions=60_000, measure_instructions=120_000)
MB = 2 ** 20


def spec_of(name):
    for s in dotnet_category_specs() + aspnet_specs():
        if s.name == name:
            return s
    raise KeyError(name)


class TestFig14GcComparison:
    """workstation vs server GC (§VII-B)."""

    @pytest.fixture(scope="class")
    def runs(self):
        spec = spec_of("System.Collections")
        out = {}
        for flavor in (WORKSTATION, SERVER):
            out[flavor] = run_workload(
                spec, MACHINE, FID, seed=3,
                gc_config=GcConfig(flavor=flavor,
                                   max_heap_bytes=2_000 * MB))
        return out

    def test_server_triggers_more_often(self, runs):
        """Paper: 6.18x more GC triggers under server GC."""
        ws = runs[WORKSTATION].counters.gc_triggered
        srv = runs[SERVER].counters.gc_triggered
        assert srv > ws
        assert srv >= 3 * max(1, ws)

    def test_server_reduces_llc_mpki(self, runs):
        """Paper: 0.59x LLC MPKI under server GC."""
        ws = runs[WORKSTATION].counters
        srv = runs[SERVER].counters
        assert srv.mpki(srv.llc_misses) < ws.mpki(ws.llc_misses)

    def test_heap_size_changes_gc_frequency(self):
        # System.Linq: no cold live set, so it runs at every Fig 14 heap
        # size (System.Collections OOMs at 200 MiB, per the paper).
        spec = spec_of("System.Linq")
        triggers = {}
        for heap_mib in (200, 20_000):
            r = run_workload(spec, MACHINE, FID, seed=3,
                             gc_config=GcConfig(flavor=SERVER,
                                                max_heap_bytes=heap_mib
                                                * MB))
            triggers[heap_mib] = r.counters.gc_triggered
        assert triggers[200] > triggers[20_000]

    def test_collections_ooms_at_200mib(self):
        """§VII-B: System.Collections cannot run at the 200 MiB cap."""
        from repro.runtime.gc import OutOfManagedMemory
        for flavor in (WORKSTATION, SERVER):
            with pytest.raises(OutOfManagedMemory):
                run_workload(spec_of("System.Collections"), MACHINE, FID,
                             gc_config=GcConfig(flavor=flavor,
                                                max_heap_bytes=200 * MB))

    def test_cache_light_workload_not_helped(self):
        """Paper: System.MathBenchmarks regresses under server GC (no
        cache activity to improve, pure overhead)."""
        spec = spec_of("System.MathBenchmarks")
        ws = run_workload(spec, MACHINE, FID, seed=3,
                          gc_config=GcConfig(flavor=WORKSTATION,
                                             max_heap_bytes=2_000 * MB))
        srv = run_workload(spec, MACHINE, FID, seed=3,
                           gc_config=GcConfig(flavor=SERVER,
                                              max_heap_bytes=2_000 * MB))
        # Speedup (ws_time / srv_time) below the suite-typical benefit.
        speedup = ws.seconds / srv.seconds
        assert speedup < 1.05


class TestFig13Sampling:
    def test_sampled_run_has_jit_and_counter_series(self):
        r = run_with_sampling(spec_of("Json"), MACHINE, FID,
                              sample_interval=5e-6, seed=1)
        s = r.samples
        assert sum(s["jit_started"]) >= 1
        assert len(s) >= 10

    def test_gc_events_observable_with_small_heap(self):
        r = run_with_sampling(
            spec_of("DbFortunesRaw"), MACHINE, FID, sample_interval=5e-6,
            gc_config=GcConfig(flavor=WORKSTATION,
                               max_heap_bytes=200 * MB),
            seed=1)
        assert sum(r.samples["gc_triggered"]) >= 1


class TestJitColdStartAblation:
    """§VII-A1: cold starts disappear if code pages are reused."""

    def test_reuse_code_pages_reduces_icache_pressure(self):
        spec = spec_of("CscBench")
        fid = Fidelity(warmup_instructions=40_000,
                       measure_instructions=80_000)
        normal = run_workload(spec, MACHINE, fid, seed=5)
        reuse = run_workload(spec, MACHINE, fid, seed=5,
                             reuse_code_pages=True)
        n = normal.counters
        r = reuse.counters
        assert r.mpki(r.l1i_misses) <= n.mpki(n.l1i_misses)
        assert r.page_faults <= n.page_faults


class TestGcCacheBenefit:
    """The §VII-B cache benefit of aggressive GC, independent of flavor
    overheads: frequent collection keeps the hot set dense and the
    nursery recycled, cutting LLC MPKI (the paper's 0.59x claim)."""

    def test_aggressive_gc_cuts_llc_mpki(self):
        spec = spec_of("System.Collections")
        fid = Fidelity(warmup_instructions=100_000,
                       measure_instructions=300_000)
        runs = {}
        for flavor in (WORKSTATION, SERVER):
            r = run_workload(spec, MACHINE, fid, seed=3,
                             gc_config=GcConfig(flavor=flavor,
                                                max_heap_bytes=2_000 * MB))
            c = r.counters
            runs[flavor] = c.mpki(c.llc_misses)
        assert runs[SERVER] < 0.9 * runs[WORKSTATION]

    def test_compaction_controls_fragmentation(self):
        """Mechanism check at the heap level: with compaction disabled the
        live set's fragmentation grows without bound."""
        spec = spec_of("System.Collections")
        gc = GcConfig(flavor=SERVER, max_heap_bytes=2_000 * MB)
        from repro.workloads.program import build_program
        from repro.runtime.heap import HeapConfig
        import itertools

        def final_frag(compaction):
            prog = build_program(
                spec, seed=3,
                heap_config=HeapConfig(max_heap_bytes=gc.max_heap_bytes,
                                       gen0_budget_bytes=gc.gen0_budget()),
                gc_config=gc, compaction_enabled=compaction)
            for _ in itertools.islice(program_ops(prog), 150_000):
                pass
            return prog.clr.live_set.fragmentation

        assert final_frag(False) > final_frag(True)
