"""Ablation: cache replacement policy sensitivity.

DESIGN.md models every cache with true LRU.  This ablation quantifies how
much the suite orderings depend on that choice by re-running
representative benchmarks with FIFO and random replacement in the data
hierarchy: miss counts move, but the cross-suite *orderings* the paper's
claims rest on must not.
"""

from repro.harness.report import format_table
from repro.harness.runner import Fidelity, resolve_engine
from repro.uarch.cache import ReplacementPolicy
from repro.uarch import pipeline as pl
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.speccpu import speccpu_specs

BENCHMARKS = ("System.Runtime", "Json", "mcf")


def _run_with_policy(spec, machine, fid, policy):
    """Run a workload with the data caches using ``policy``.

    The pipeline builds its own caches, so the ablation re-plumbs them
    right after construction via the public attributes.
    """
    from repro.kernel.vm import VirtualMemory
    from repro.perf.counters import collect_counters
    from repro.perf.tracer import LttngTracer
    from repro.trace import TraceBufferStream
    from repro.uarch.cache import Cache
    from repro.workloads.program import build_program

    vm = VirtualMemory()
    core = pl.Core(machine, vm)
    for attr in ("l1d", "l2", "llc"):
        old = getattr(core, attr)
        setattr(core, attr, Cache(old.name, old.size_bytes, old.line_size,
                                  old.ways, policy=policy))
    # Re-wire prefetchers to the replaced caches.
    core.l2_prefetcher.target = core.l2
    core.l1d_prefetcher.target = core.l1d
    core.set_hints(spec.hints())
    tracer = LttngTracer(machine.max_freq_hz)
    core.event_hook = tracer.hook
    program = build_program(spec, seed=3, code_bloat=machine.code_bloat)
    program.premap(vm)
    stream = TraceBufferStream(filler=program.fill_buffer)
    engine = resolve_engine(None)
    core.consume_stream(stream, fid.warmup_instructions, engine=engine)
    core.reset_stats()
    tracer.clear()
    core.consume_stream(stream, fid.measure_instructions, engine=engine)
    return collect_counters(core, tracer.counts)


def test_ablation_replacement_policy(benchmark, fidelity, machine_i9,
                                     emit):
    fid = Fidelity(warmup_instructions=60_000,
                   measure_instructions=120_000)
    specs = {s.name: s for s in (dotnet_category_specs() + aspnet_specs()
                                 + speccpu_specs())}

    def run():
        out = {}
        for name in BENCHMARKS:
            for policy in ReplacementPolicy.ALL:
                out[(name, policy)] = _run_with_policy(
                    specs[name], machine_i9, fid, policy)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name in BENCHMARKS:
        for policy in ReplacementPolicy.ALL:
            c = data[(name, policy)]
            rows.append([name, policy, c.mpki(c.l1d_misses),
                         c.mpki(c.l2_misses), c.mpki(c.llc_misses), c.cpi])
    text = format_table(["benchmark", "policy", "l1d", "l2", "llc", "cpi"],
                        rows)
    emit("ablation_replacement_policy", text)

    # The headline cross-suite ordering must be policy-robust: SPEC's
    # memory monster out-misses the managed workloads at the LLC under
    # every policy.
    for policy in ReplacementPolicy.ALL:
        mcf = data[("mcf", policy)]
        micro = data[("System.Runtime", policy)]
        assert mcf.mpki(mcf.llc_misses) > micro.mpki(micro.llc_misses), \
            policy
    # LRU should not be materially worse than random anywhere.
    for name in BENCHMARKS:
        lru = data[(name, ReplacementPolicy.LRU)]
        rnd = data[(name, ReplacementPolicy.RANDOM)]
        assert lru.mpki(lru.l1d_misses) \
            <= rnd.mpki(rnd.l1d_misses) * 1.15, name
