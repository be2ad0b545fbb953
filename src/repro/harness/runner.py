"""Run one workload on one machine and collect everything (§III-A policy).

The measurement protocol mirrors the paper:

* .NET microbenchmarks are short — the paper runs them 15 times and
  discards the first run to amortize warmup.  Here warmup = consuming
  ``Fidelity.warmup_instructions`` (JIT of the hot paths, cache/TLB/
  predictor training) and then zeroing the books
  (:meth:`Core.reset_stats`), which keeps microarchitectural state warm
  exactly like a discarded first run does.
* ASP.NET runs to steady state; a longer warmup serves the same role.

Simulated time = cycles / max frequency (the machines run turbo under
load), which feeds the §IV-C score validation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.perf.counters import CounterSnapshot, collect_counters
from repro.perf.sampler import CounterSampler, SampleSeries
from repro.perf.trace_io import TraceFormatError
from repro.perf.tracer import LttngTracer
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.trace import TraceBufferStream
from repro.uarch.machine import MachineConfig
from repro.uarch.multicore import MulticoreRunner, MulticoreResult
from repro.uarch.pipeline import Core
from repro.uarch.topdown import TopDownProfile, profile_core
from repro.workloads.program import build_program
from repro.workloads.spec import SuiteName, WorkloadSpec


ENGINES = ("legacy", "batched", "vector")


def resolve_engine(engine: str | None) -> str:
    """Resolve the consume-engine choice to one of :data:`ENGINES`.

    Priority: explicit ``engine`` argument > ``REPRO_ENGINE`` env var >
    ``REPRO_LEGACY_CONSUME=1`` (the historical toggle) > ``"vector"``.
    ``"vector"``, the default, selects the native C kernel
    (:mod:`repro.uarch.native`), compiled with the system compiler on
    first use and cached.  When the kernel is unavailable (no compiler,
    ``REPRO_NATIVE=0``) or the core uses a configuration the kernel does
    not model, the run falls back to the batched Python engine — loudly:
    one :class:`~repro.uarch.native.NativeFallbackWarning` per process
    per reason, a ``native.delegated{reason=...}`` counter, and
    ``RunResult.engine`` names the engine that actually ran.  On hosts
    with no compiler, ``REPRO_ENGINE=batched`` selects the Python
    engine outright.  Resolution never fails on availability at this
    layer.  All engines are bit-identical (enforced by
    tests/integration/test_batched_equivalence.py).
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or None
    if engine is None and os.environ.get("REPRO_LEGACY_CONSUME",
                                         "0") not in ("", "0"):
        engine = "legacy"
    engine = engine or "vector"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    return engine


@dataclass(frozen=True)
class Fidelity:
    """Scale knob between test speed and paper-scale accuracy."""

    warmup_instructions: int = 60_000
    measure_instructions: int = 150_000
    #: extra warmup factor for ASP.NET (steady state takes longer, §III-A)
    aspnet_warmup_factor: float = 1.5
    #: workloads per category in full-corpus experiments (None = all)
    workloads_per_category: int | None = 8

    @classmethod
    def test(cls) -> "Fidelity":
        return cls(warmup_instructions=12_000, measure_instructions=25_000,
                   workloads_per_category=2)

    @classmethod
    def default(cls) -> "Fidelity":
        return cls()

    @classmethod
    def paper(cls) -> "Fidelity":
        return cls(warmup_instructions=150_000,
                   measure_instructions=400_000,
                   workloads_per_category=None)


@dataclass(frozen=True)
class RunResult:
    """Everything one measured run produces."""

    spec: WorkloadSpec
    machine: MachineConfig
    counters: CounterSnapshot
    topdown: TopDownProfile
    seconds: float
    samples: SampleSeries | None = None
    #: engine the measure phase actually ran ("legacy", "batched" or
    #: "vector"); not compared, so results from different engines that
    #: agree bit-for-bit stay equal
    engine: str | None = field(default=None, compare=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def ipc(self) -> float:
        return self.counters.ipc


def _heap_and_gc(spec: WorkloadSpec,
                 heap_config: HeapConfig | None,
                 gc_config: GcConfig | None) -> tuple[HeapConfig, GcConfig]:
    gc_config = gc_config or GcConfig()
    if heap_config is None:
        heap_config = HeapConfig(
            max_heap_bytes=gc_config.max_heap_bytes,
            gen0_budget_bytes=gc_config.gen0_budget())
    return heap_config, gc_config


def run_workload(spec: WorkloadSpec, machine: MachineConfig,
                 fidelity: Fidelity | None = None, *,
                 gc_config: GcConfig | None = None,
                 heap_config: HeapConfig | None = None,
                 sampling: bool = False,
                 sample_interval: float = 1e-3,
                 reuse_code_pages: bool = False,
                 compaction_enabled: bool = True,
                 seed: int = 0,
                 trace_store=None,
                 engine: str | None = None) -> RunResult:
    """Warm up, measure, and package one workload run.

    ``trace_store`` (a :class:`repro.exec.traces.TraceStore`) makes the
    run record-once/replay-many: on a warm store the op stream is
    replayed from disk and the workload program is never built.  A
    stored trace that fails to decode (corruption that slipped past the
    store's checksum — e.g. a legacy entry without one) is quarantined
    and the run falls back to regenerating the trace instead of
    propagating the decode error.  With the per-worker warm cache
    (:mod:`repro.exec.warm`), a trace whose file and sidecar keep their
    identity is replayed from the decoded chunks cached with its
    sidecar metadata, without reading the file again.  Invariant: every
    byte decoded from disk was CRC-checked against the sidecar first
    (:meth:`~repro.exec.traces.TraceStore.ensure`), and a file whose
    identity changed (rewritten, truncated, bit-flipped in place) misses
    the cache and is verified again.  ``engine`` selects the consume path
    (see :func:`resolve_engine`; default ``"vector"``, the native C
    kernel, falling back to batched; legacy when
    ``REPRO_LEGACY_CONSUME=1``).  ``RunResult.engine`` records the engine
    that actually ran.
    """
    fidelity = fidelity or Fidelity.default()
    heap_config, gc_config = _heap_and_gc(spec, heap_config, gc_config)
    warmup = fidelity.warmup_instructions
    if spec.suite == SuiteName.ASPNET:
        warmup = int(warmup * fidelity.aspnet_warmup_factor)
    measure = int(fidelity.measure_instructions
                  * machine.dynamic_instr_bloat)

    def make_program():
        return build_program(
            spec, seed=seed, heap_config=heap_config, gc_config=gc_config,
            code_bloat=machine.code_bloat,
            reuse_code_pages=reuse_code_pages,
            compaction_enabled=compaction_enabled)

    engine = resolve_engine(engine)
    legacy = engine == "legacy"
    trace_key = None
    if trace_store is not None and not legacy:
        trace_key = trace_store.key_for(
            spec, seed=seed, code_bloat=machine.code_bloat,
            gc_config=gc_config, heap_config=heap_config,
            reuse_code_pages=reuse_code_pages,
            compaction_enabled=compaction_enabled)

    # Warm-worker reuse (repro.exec.warm): rehydrate a pristine
    # (vm, core) snapshot for this machine config instead of
    # reconstructing, and reuse decoded trace chunks across jobs that
    # replay the same store entry.  Both are bit-identity-preserving;
    # the pool evicts the cache on any job failure.  Imported lazily —
    # repro.exec.jobs imports this module at its top level.
    from repro.exec import warm as _warm
    warm_cache = _warm.get_cache()

    def trace_identity() -> tuple:
        return (_warm.file_identity(trace_store.trace_path(trace_key)),
                _warm.file_identity(trace_store.meta_path(trace_key)))

    def attempt() -> RunResult:
        pair = warm_cache.model(machine) if warm_cache is not None else None
        if pair is None:
            vm = VirtualMemory()
            core = Core(machine, vm)
            if warm_cache is not None:
                warm_cache.put_model(machine, vm, core)
        else:
            vm, core = pair
        core.set_hints(spec.hints())
        tracer = LttngTracer(machine.max_freq_hz)
        core.event_hook = tracer.hook
        if legacy:
            with obs.span("run.build_program", workload=spec.name):
                program = make_program()
            program.premap(vm)
            source = program.ops()
            consume = core.consume
        else:
            def consume(source, max_instructions=None, _core=core):
                return _core.consume_stream(source, max_instructions,
                                            engine=engine)
            if trace_key is not None:
                required = warmup + measure
                # Taken before ensure() verifies the files: if they change
                # in between, the recorded identity is stale and the next
                # lookup verifies again.
                identity = (trace_identity()
                            if warm_cache is not None else None)
                cached = (warm_cache.buffers(trace_key, identity)
                          if warm_cache is not None else None)
                if (cached is not None
                        and cached[1]["n_instructions"] >= required):
                    bufs, meta = cached
                else:
                    with obs.span("run.trace_ensure", workload=spec.name):
                        meta, generated = trace_store.ensure(
                            trace_key, required, make_program)
                    bufs = None
                    if (warm_cache is not None
                            and meta.get("n_instructions", 0)
                            <= warm_cache.max_buffer_ops):
                        if generated:
                            identity = trace_identity()
                        bufs = list(trace_store.replay(trace_key))
                        warm_cache.put_buffers(trace_key, bufs, identity,
                                               meta)
                for start, length in meta["premap_ranges"]:
                    vm.premap_range(start, length)
                if bufs is not None:
                    source = TraceBufferStream(buffers=iter(bufs))
                else:
                    source = TraceBufferStream(
                        buffers=trace_store.replay(trace_key))
            else:
                with obs.span("run.build_program", workload=spec.name):
                    program = make_program()
                program.premap(vm)
                source = TraceBufferStream(filler=program.fill_buffer)
        with obs.span("run.warmup", workload=spec.name,
                      instructions=warmup):
            consume(source, max_instructions=warmup)
        core.reset_stats()
        tracer.clear()
        sampler = None
        if sampling:
            sampler = CounterSampler(core, tracer.counts,
                                     interval_seconds=sample_interval)
        with obs.span("run.measure", workload=spec.name,
                      instructions=measure):
            consume(source, max_instructions=measure)
        samples = sampler.finish() if sampler is not None else None
        counters = collect_counters(core, tracer.counts,
                                    cpu_utilization=spec.cpu_utilization)
        if obs.enabled():
            # GC/JIT/exception replay volume (Table I events 19-23).
            for kind, n in tracer.counts.as_dict().items():
                if n:
                    obs.add(f"runner.events.{kind}", float(n))
            obs.observe("runner.simulated_seconds", counters.seconds)
        return RunResult(
            spec=spec, machine=machine, counters=counters,
            topdown=profile_core(core),
            seconds=counters.seconds, samples=samples,
            engine=core.last_engine)

    if trace_key is None:
        return attempt()
    try:
        return attempt()
    except TraceFormatError:
        trace_store.quarantine(trace_key)
        return attempt()


def run_with_sampling(spec: WorkloadSpec, machine: MachineConfig,
                      fidelity: Fidelity | None = None,
                      **kwargs) -> RunResult:
    """Convenience wrapper for the §VII-A correlation studies."""
    return run_workload(spec, machine, fidelity, sampling=True, **kwargs)


#: Address ranges that are private per thread/worker in a threaded server
#: (nursery + stacks + request buffers + per-connection kernel buffers);
#: code and long-lived shared state keep common addresses across cores.
from repro.trace import (OP_LOAD as _OPL, OP_STORE as _OPS,
                         REGION_HEAP_BASE as _HEAP,
                         REGION_STACK_BASE as _STACK)

#: Heap (worker allocation contexts) and stacks are thread-private;
#: code, long-lived shared state and kernel slab buffers are shared.
_PRIVATE_SPANS = ((_HEAP, _HEAP + (1 << 34)),
                  (_STACK, _STACK + (1 << 28)))


def _color_ops(ops, core_id: int):
    """Offset per-thread-private data addresses by a per-core color.

    Threads of one server process share code (same PCs) and the long-
    lived heap structure, but each worker has its own allocation context,
    stack and connection buffers.  Coloring those ranges keeps the shared
    LLC seeing distinct lines per core, as real servers do.
    """
    if core_id == 0:
        yield from ops
        return
    color = core_id << 40
    spans = _PRIVATE_SPANS
    for op in ops:
        kind = op[0]
        if kind == _OPL or kind == _OPS:
            addr = op[1]
            for lo, hi in spans:
                if lo <= addr < hi:
                    op = (kind, addr + color)
                    break
        yield op


def run_multicore(spec: WorkloadSpec, machine: MachineConfig,
                  n_cores: int, fidelity: Fidelity | None = None,
                  seed: int = 0, engine: str | None = None,
                  trace_store=None, sampling: bool = False,
                  sample_interval: float = 1e-3
                  ) -> tuple[MulticoreResult, TopDownProfile,
                             CounterSnapshot]:
    """Run one ASP.NET-style workload replicated across ``n_cores``.

    Cores model worker threads of one server process: identical code
    (same seed -> same method layout, so code lines are shared in the
    LLC) with per-core private data (see :func:`_color_ops`).  Warm up
    all cores, reset, then measure — returns the multicore result plus
    the Top-Down profile and counters of core 0 (cores are symmetric).

    On the batched engine, per-core address coloring is one vectorized
    mask per chunk (:meth:`repro.trace.TraceBuffer.color_private`)
    instead of one tuple rebuild per memory op.  ``engine="vector"``
    runs the whole interleaved round loop on the native kernel: per-core
    images stay resident across quanta, the shared LLC (slice-hashed
    epoch counters, contention-folded latency) is modeled in C, and
    Python's M/M/1 ``update_contention`` runs unchanged at every epoch
    boundary — bit-identical to batched at any core count.

    ``trace_store`` makes the per-core op streams record-once/
    replay-many (keys are suffixed per core, since each core's program
    diverges by RNG jump); ``sampling`` attaches a
    :class:`~repro.perf.sampler.CounterSampler` to core 0 for the
    measure phase — on the vector engine its cycle hook runs through
    the kernel's trampoline.
    """
    fidelity = fidelity or Fidelity.default()
    heap_config, gc_config = _heap_and_gc(spec, None, None)
    programs = {}
    engine = resolve_engine(engine)
    legacy = engine == "legacy"
    warmup = int(fidelity.warmup_instructions
                 * fidelity.aspnet_warmup_factor)
    measure = fidelity.measure_instructions

    def make_program(core_id: int):
        program = build_program(
            spec, seed=seed, heap_config=heap_config,
            gc_config=gc_config, code_bloat=machine.code_bloat)
        # Per-core divergence of the *pattern* without changing the code
        # layout: jump the program's RNG ahead by a core-specific amount.
        program.rng.seed((seed << 8) ^ core_id)
        return program

    def color_transform(core_id: int):
        if not core_id:
            return None
        color = core_id << 40
        return (lambda buf, _c=color:
                buf.color_private(_PRIVATE_SPANS, _c))

    premap_ranges = {}

    def factory(core_id: int):
        if legacy:
            program = make_program(core_id)
            programs[core_id] = program
            return _color_ops(program.ops(), core_id), spec.hints()
        if trace_store is not None:
            from repro.exec.traces import trace_fingerprint
            key = trace_store.key_for(
                spec, seed=seed, code_bloat=machine.code_bloat,
                gc_config=gc_config, heap_config=heap_config,
                fingerprint=trace_fingerprint() + f"/mc{core_id}")
            meta, _ = trace_store.ensure(
                key, warmup + measure, lambda: make_program(core_id))
            premap_ranges[core_id] = meta["premap_ranges"]
            return (TraceBufferStream(
                buffers=trace_store.replay(key),
                transform=color_transform(core_id)), spec.hints())
        program = make_program(core_id)
        programs[core_id] = program
        return (TraceBufferStream(filler=program.fill_buffer,
                                  transform=color_transform(core_id)),
                spec.hints())

    runner = MulticoreRunner(machine, n_cores, factory, engine=engine)
    for core_id, core in enumerate(runner.cores):
        if core_id in programs:
            programs[core_id].premap(core.vm)
        else:
            for start, length in premap_ranges[core_id]:
                core.vm.premap_range(start, length)
    runner.run(warmup)
    for core in runner.cores:
        core.reset_stats()
    runner.llc.cache.reset_stats()
    core0 = runner.cores[0]
    sampler = None
    if sampling:
        sampler = CounterSampler(core0, None,
                                 interval_seconds=sample_interval)
    result = runner.run(measure)
    samples = sampler.finish() if sampler is not None else None
    counters = collect_counters(core0, None,
                                cpu_utilization=min(
                                    1.0, n_cores / machine.logical_cores))
    result.samples = samples
    return result, profile_core(core0), counters
