"""Steady-state detection and measurement-variance analysis (§III-A).

The paper's protocol: ".NET microbenchmarks ... we ran them 15 times and
discarded the data from the first run.  To measure steady state
performance for ASP.NET ... we ran the benchmarks in warmup mode for a
long duration and progressively reduced the warmup period while ensuring
the steady state measurements had a variance of less than 5%."

This module implements both halves against the simulator, on the
default engine (:func:`repro.harness.runner.resolve_engine`): one
:class:`~repro.trace.TraceBufferStream` per process feeds every window,
so each window resumes exactly where the previous one stopped.

* :func:`repeated_runs` — the microbenchmark protocol: k measurement
  windows over one warm process, first window discarded;
* :func:`find_min_warmup` — the ASP.NET protocol: progressively shrink
  the warmup until window-to-window variance exceeds the threshold, and
  return the smallest warmup that still satisfies it;
* :func:`coefficient_of_variation` / :class:`VarianceReport` — the
  variance accounting used by both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.harness.runner import resolve_engine
from repro.kernel.vm import VirtualMemory
from repro.perf.counters import collect_counters
from repro.perf.tracer import LttngTracer
from repro.trace import TraceBufferStream
from repro.uarch.machine import MachineConfig
from repro.uarch.pipeline import Core
from repro.workloads.program import build_program
from repro.workloads.spec import WorkloadSpec


def coefficient_of_variation(values) -> float:
    """std / mean (0 for degenerate input) — the paper's 'variance'."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var) / abs(mean)


@dataclass(frozen=True)
class WindowMeasurement:
    """One measurement window's summary."""

    index: int
    instructions: int
    cycles: float
    cpi: float
    l1i_mpki: float
    llc_mpki: float
    jit_started: int


@dataclass(frozen=True)
class VarianceReport:
    """Outcome of a repeated-window measurement."""

    windows: tuple[WindowMeasurement, ...]
    discarded_first: bool

    @property
    def measured(self) -> tuple[WindowMeasurement, ...]:
        return self.windows[1:] if self.discarded_first else self.windows

    @property
    def cpi_cv(self) -> float:
        return coefficient_of_variation([w.cpi for w in self.measured])

    @property
    def mean_cpi(self) -> float:
        ms = self.measured
        return sum(w.cpi for w in ms) / len(ms)

    def is_steady(self, threshold: float = 0.05) -> bool:
        """The paper's acceptance criterion: variance below 5%."""
        return self.cpi_cv < threshold


def _process(spec: WorkloadSpec, machine: MachineConfig, seed: int):
    """One warm process: core, tracer and the program's op stream."""
    vm = VirtualMemory()
    core = Core(machine, vm)
    core.set_hints(spec.hints())
    tracer = LttngTracer(machine.max_freq_hz)
    core.event_hook = tracer.hook
    program = build_program(spec, seed=seed,
                            code_bloat=machine.code_bloat)
    program.premap(vm)
    return core, tracer, TraceBufferStream(filler=program.fill_buffer)


def _window(core: Core, tracer: LttngTracer, stream, n: int,
            index: int) -> WindowMeasurement:
    core.reset_stats()
    tracer.clear()
    core.consume_stream(stream, n, engine=resolve_engine(None))
    c = collect_counters(core, tracer.counts)
    return WindowMeasurement(
        index=index, instructions=c.instructions, cycles=c.cycles,
        cpi=c.cpi, l1i_mpki=c.mpki(c.l1i_misses),
        llc_mpki=c.mpki(c.llc_misses), jit_started=c.jit_started)


def repeated_runs(spec: WorkloadSpec, machine: MachineConfig,
                  runs: int = 15, window_instructions: int = 50_000,
                  seed: int = 0) -> VarianceReport:
    """§III-A microbenchmark protocol: run ``runs`` windows, drop the
    first (cold) one.  All windows execute in one warm process, exactly
    like BenchmarkDotNet iterations."""
    core, tracer, stream = _process(spec, machine, seed)
    windows = tuple(_window(core, tracer, stream, window_instructions, i)
                    for i in range(runs))
    return VarianceReport(windows=windows, discarded_first=True)


def measure_after_warmup(spec: WorkloadSpec, machine: MachineConfig,
                         warmup_instructions: int, windows: int = 4,
                         window_instructions: int = 50_000,
                         seed: int = 0) -> VarianceReport:
    """Warm up for ``warmup_instructions``, then measure several windows
    (no discard — the warmup replaces it)."""
    core, tracer, stream = _process(spec, machine, seed)
    core.consume_stream(stream, warmup_instructions,
                        engine=resolve_engine(None))
    measured = tuple(_window(core, tracer, stream, window_instructions, i)
                     for i in range(windows))
    return VarianceReport(windows=measured, discarded_first=False)


@dataclass(frozen=True)
class WarmupSearchResult:
    """Outcome of the progressive warmup reduction (§III-A, ASP.NET)."""

    min_warmup_instructions: int
    reports: tuple[tuple[int, VarianceReport], ...]   # (warmup, report)

    def accepted(self, threshold: float = 0.05):
        return [(w, r) for w, r in self.reports if r.is_steady(threshold)]


def find_min_warmup(spec: WorkloadSpec, machine: MachineConfig,
                    max_warmup: int = 400_000, min_warmup: int = 12_500,
                    threshold: float = 0.05, windows: int = 4,
                    window_instructions: int = 40_000,
                    seed: int = 0) -> WarmupSearchResult:
    """Progressively halve the warmup period while steady-state variance
    stays under ``threshold``; return the smallest acceptable warmup.

    Mirrors the paper's ASP.NET methodology: start long, shrink until the
    measurements stop being steady, keep the last good value.
    """
    reports: list[tuple[int, VarianceReport]] = []
    best = max_warmup
    warmup = max_warmup
    while warmup >= min_warmup:
        report = measure_after_warmup(
            spec, machine, warmup, windows=windows,
            window_instructions=window_instructions, seed=seed)
        reports.append((warmup, report))
        if report.is_steady(threshold):
            best = warmup
            warmup //= 2
        else:
            break
    return WarmupSearchResult(min_warmup_instructions=best,
                              reports=tuple(reports))
