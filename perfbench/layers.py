"""Which entry points are wrapped, which layer each belongs to, and the
per-layer metrics derived from the recorded spans and counts.

The layers are the simulator's modules: workload generation, trace
encode/decode, the VM model, the Python pipeline, the native kernel and
its export/writeback boundary, the multicore round loop, counters and
Top-Down, and the analysis, plus the ``exec`` job engine and the
``harness`` glue around them.
``PER_LAYER`` records, for every per-layer metric, the end-to-end metric
and the workloads it is expected to move; ``BENCHMARK.json`` lists the
same names, units and directions.
"""

from __future__ import annotations

import statistics

from repro.uarch import native
from tracing import Recorder, Target, has_ancestor, self_times, top_level_ns

# ---------------------------------------------------------------------------
# Hooks run around wrapped calls (counts recorded at the boundary).


def _count_generated(rec: Recorder, state, args, kwargs, result) -> None:
    rec.counts["workloads.instr"] += args[1].n_instructions - state


def _instr_before(rec: Recorder, args, kwargs):
    return args[1].n_instructions


def _trace_ensure(rec: Recorder, state, args, kwargs, result) -> None:
    rec.counts["exec.traces.misses" if result[1]
               else "exec.traces.hits"] += 1


def _warm_model(rec: Recorder, state, args, kwargs, result) -> None:
    rec.counts["exec.warm.model_hits" if result is not None
               else "exec.warm.model_misses"] += 1


def _warm_buffers(rec: Recorder, state, args, kwargs, result) -> None:
    rec.counts["exec.warm.buffer_hits" if result is not None
               else "exec.warm.buffer_misses"] += 1


def _native_entry(rec: Recorder, args, kwargs):
    rec.counts["uarch.native.entries"] += 1


def _consume_before(rec: Recorder, args, kwargs):
    return rec.counts["uarch.native.entries"]


def _consume_after(rec: Recorder, state, args, kwargs, result) -> None:
    # A vector request that never reached the kernel is a silent
    # fallback: count it and fail the job it happened in.
    if kwargs.get("engine") == "vector" \
            and rec.counts["uarch.native.entries"] == state:
        rec.counts["uarch.native.delegated"] += 1
        rec.fail_job()


def _dispatch_after(rec: Recorder, state, args, kwargs, result) -> None:
    next_pos, status = result
    rec.counts["uarch.native.ops_retired"] += next_pos - args[2]
    if status == native._STATUS_HOOK:
        rec.counts["uarch.native.hook_exits"] += 1


def _epochs(rec: Recorder, state, args, kwargs, result) -> None:
    rec.counts["uarch.multicore.epochs"] += result.epochs


def _kernel_symbol():
    lib = native.get_lib()
    return [] if lib is None else [(lib, "repro_sim_run")]


#: Always installed, traced or not: job timing and the delegation check
#: add a few calls per job, far below the timing noise.
PROBES = (
    Target("harness.run_workload", "harness",
           "repro.harness.runner:run_workload", job=True),
    Target("harness.run_multicore", "harness",
           "repro.harness.runner:run_multicore", job=True),
    Target("uarch.pipeline.consume", "uarch.pipeline",
           "repro.uarch.pipeline:Core.consume_stream",
           before=_consume_before, after=_consume_after),
    Target("uarch.native.consume", "uarch.native",
           "repro.uarch.native:consume_stream_native",
           before=_native_entry),
)

#: Installed for the traced run only.
LAYERS = (
    Target("harness.characterize_suite", "harness",
           "repro.harness.suite:characterize_suite"),
    Target("harness.sweep", "harness", "repro.harness.sweep:sweep"),
    Target("exec.run_jobs", "exec", "repro.exec.pool:run_jobs"),
    Target("exec.execute_job", "exec", "repro.exec.jobs:execute_job"),
    Target("exec.warm.model", "exec", "repro.exec.warm:WarmCache.model",
           after=_warm_model),
    Target("exec.warm.put_model", "exec",
           "repro.exec.warm:WarmCache.put_model"),
    Target("exec.warm.buffers", "exec", "repro.exec.warm:WarmCache.buffers",
           after=_warm_buffers),
    Target("exec.warm.put_buffers", "exec",
           "repro.exec.warm:WarmCache.put_buffers"),
    Target("workloads.build_program", "workloads",
           "repro.workloads.program:build_program"),
    Target("workloads.fill", "workloads",
           "repro.workloads.program:NativeProgram.fill_buffer",
           before=_instr_before, after=_count_generated),
    Target("workloads.fill", "workloads",
           "repro.workloads.program:ManagedProgram.fill_buffer",
           before=_instr_before, after=_count_generated),
    Target("exec.traces.lookup", "trace_io",
           "repro.exec.traces:TraceStore.ensure", after=_trace_ensure),
    Target("exec.traces.lookup", "trace_io",
           "repro.exec.traces:TraceStore.key_for"),
    Target("trace_io.encode", "trace_io",
           "repro.perf.trace_io:record_buffers"),
    Target("trace_io.decode", "trace_io",
           "repro.perf.trace_io:replay_buffers", iterator=True),
    Target("kernel.vm.premap", "kernel",
           "repro.kernel.vm:VirtualMemory.premap_range"),
    Target("uarch.pipeline.core_build", "uarch.pipeline",
           "repro.uarch.pipeline:Core.__init__"),
    Target("uarch.native.export", "uarch.native",
           "repro.uarch.native:CoreImage.__init__"),
    Target("uarch.native.writeback", "uarch.native",
           "repro.uarch.native:CoreImage.writeback"),
    Target("uarch.native.dispatch", "uarch.native",
           "repro.uarch.native:CoreImage.run_buffer", after=_dispatch_after),
    Target("uarch.native.kernel", "uarch.native", _kernel_symbol),
    Target("uarch.multicore.build", "uarch.multicore",
           "repro.uarch.multicore:MulticoreRunner.__init__"),
    Target("uarch.multicore.run", "uarch.multicore",
           "repro.uarch.multicore:MulticoreRunner.run", after=_epochs),
    Target("uarch.multicore.session", "uarch.multicore",
           "repro.uarch.native:NativeMulticoreSession.consume"),
    Target("uarch.multicore.contention", "uarch.multicore",
           "repro.uarch.multicore:SharedLlc.update_contention"),
    Target("uarch.multicore.contention", "uarch.multicore",
           "repro.uarch.native:NativeMulticoreSession.sync_epoch"),
    Target("uarch.multicore.contention", "uarch.multicore",
           "repro.uarch.native:NativeMulticoreSession.refresh_contention"),
    Target("perf.counters.collect", "perf",
           "repro.perf.counters:collect_counters"),
    Target("perf.sampler.tick", "perf",
           "repro.perf.sampler:CounterSampler._on_tick"),
    Target("uarch.topdown.profile", "perf",
           "repro.uarch.topdown:profile_core"),
    Target("core.analysis", "core", "repro.harness.suite:SuiteResult"
           ".metric_matrix"),
    Target("core.analysis", "core",
           "repro.core.characterize:characterization_pca"),
    Target("core.analysis", "core", "repro.core.subset:pca_scores"),
    Target("core.analysis", "core",
           "repro.core.subset:select_representatives"),
)

LAYER_OF = {t.name: t.layer for t in PROBES + LAYERS}

#: Table rows, in the order the op stream flows through them.
LAYER_ORDER = ("harness", "exec", "workloads", "trace_io", "kernel",
               "uarch.pipeline", "uarch.native", "uarch.multicore", "perf",
               "core")

# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, better, moves, on).

PER_LAYER = {
    "workloads.generate_s": ("s", "lower", "wall_s", "suite_cold"),
    "workloads.instr_generated": ("count", "lower", "wall_s", "suite_cold"),
    "workloads.generate.share": ("ratio", "lower", "wall_s", "suite_cold"),
    "trace_io.encode_s": ("s", "lower", "setup_s",
                          "sweep_warm, multicore_sampled"),
    "trace_io.decode_s": ("s", "lower", "wall_s",
                          "sweep_warm, multicore_sampled"),
    "exec.traces.lookup_s": ("s", "lower", "job_p50_ms", "sweep_warm"),
    "exec.traces.hits": ("count", "higher", "wall_s", "sweep_warm"),
    "exec.traces.misses": ("count", "lower", "wall_s", "sweep_warm"),
    "exec.job_overhead_s": ("s", "lower", "job_p50_ms", "sweep_warm"),
    "exec.warm_s": ("s", "lower", "job_p50_ms", "sweep_warm"),
    "exec.warm.model_hits": ("count", "higher", "job_p50_ms", "sweep_warm"),
    "exec.warm.buffer_hits": ("count", "higher", "job_p50_ms", "sweep_warm"),
    "exec.warm.buffer_hit_ratio": ("ratio", "higher", "job_p50_ms",
                                   "sweep_warm"),
    "harness.self_s": ("s", "lower", "job_p50_ms", "all"),
    "kernel.vm.premap_s": ("s", "lower", "job_p50_ms", "sweep_warm"),
    "uarch.pipeline.core_build_s": ("s", "lower", "wall_s", "sweep_warm"),
    "uarch.pipeline.consume_s": ("s", "lower", "wall_s", "suite_cold"),
    "uarch.pipeline.consume.share": ("ratio", "lower", "wall_s",
                                     "suite_cold"),
    "uarch.native.export_s": ("s", "lower", "sim_instr_per_s",
                              "sweep_warm, multicore_sampled"),
    "uarch.native.exports": ("count", "lower", "sim_instr_per_s",
                             "sweep_warm, multicore_sampled"),
    "uarch.native.kernel_s": ("s", "lower", "sim_instr_per_s",
                              "sweep_warm, multicore_sampled"),
    "uarch.native.kernel_calls": ("count", "lower", "sim_instr_per_s",
                                  "sweep_warm, multicore_sampled"),
    "uarch.native.dispatch_s": ("s", "lower", "sim_instr_per_s",
                                "sweep_warm, multicore_sampled"),
    "uarch.native.ops_retired": ("count", "higher", "sim_instr_per_s",
                                 "sweep_warm, multicore_sampled"),
    "uarch.native.writeback_s": ("s", "lower", "sim_instr_per_s",
                                 "sweep_warm, multicore_sampled"),
    "uarch.native.writebacks": ("count", "lower", "sim_instr_per_s",
                                "sweep_warm, multicore_sampled"),
    "uarch.native.hook_exits": ("count", "lower", "sim_instr_per_s",
                                "multicore_sampled"),
    "uarch.native.delegated": ("count", "lower", "ok_rate",
                               "sweep_warm, multicore_sampled"),
    "uarch.native.native_share": ("ratio", "higher", "sim_instr_per_s",
                                  "sweep_warm, multicore_sampled"),
    "uarch.native.boundary.share": ("ratio", "lower", "sim_instr_per_s",
                                    "sweep_warm, multicore_sampled"),
    "uarch.multicore.run_s": ("s", "lower", "wall_s", "multicore_sampled"),
    "uarch.multicore.contention_s": ("s", "lower", "wall_s",
                                     "multicore_sampled"),
    "uarch.multicore.epochs": ("count", "lower", "wall_s",
                               "multicore_sampled"),
    "perf.counters.collect_s": ("s", "lower", "job_p50_ms", "all"),
    "perf.sampler.tick_s": ("s", "lower", "job_p50_ms", "multicore_sampled"),
    "perf.sampler.samples": ("count", "higher", "job_p50_ms",
                             "multicore_sampled"),
    "uarch.topdown.profile_s": ("s", "lower", "job_p50_ms", "all"),
    "core.analysis_s": ("s", "lower", "wall_s", "suite_cold"),
    "trace.wall_s": ("s", "lower", "wall_s", "all"),
    "trace.overhead_pct": ("%", "lower", "-", "all"),
    "other_s": ("s", "lower", "-", "all"),
}


def _ns(x: int) -> float:
    return x * 1e-9


def pass_layers(spans: list[list], counts, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass (times in seconds)."""
    selfs = self_times(spans)
    by_name: dict[str, int] = {}
    n_by_name: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        by_name[s[0]] = by_name.get(s[0], 0) + t
        n_by_name[s[0]] = n_by_name.get(s[0], 0) + 1
    layer_s = {layer: 0.0 for layer in LAYER_ORDER}
    for name, t in by_name.items():
        layer_s[LAYER_OF[name]] += _ns(t)

    def st(name: str) -> float:
        return _ns(by_name.get(name, 0))

    def n(name: str) -> int:
        return n_by_name.get(name, 0)

    job_in_pool = sum(s[2] - s[1] for i, s in enumerate(spans)
                      if s[0] == "harness.run_workload"
                      and has_ancestor(spans, i, "exec.run_jobs"))
    pool = sum(s[2] - s[1] for s in spans if s[0] == "exec.run_jobs")
    lookups = counts["exec.warm.buffer_hits"] \
        + counts["exec.warm.buffer_misses"]

    def share(x: float) -> float:
        return x / wall_s

    m = {
        "workloads.generate_s": layer_s["workloads"],
        "workloads.instr_generated": counts["workloads.instr"],
        "workloads.generate.share": share(layer_s["workloads"]),
        "trace_io.encode_s": st("trace_io.encode"),
        "trace_io.decode_s": st("trace_io.decode"),
        "exec.traces.lookup_s": st("exec.traces.lookup"),
        "exec.traces.hits": counts["exec.traces.hits"],
        "exec.traces.misses": counts["exec.traces.misses"],
        "exec.job_overhead_s": _ns(pool - job_in_pool),
        "exec.warm_s": sum(st(k) for k in (
            "exec.warm.model", "exec.warm.put_model", "exec.warm.buffers",
            "exec.warm.put_buffers")),
        "exec.warm.model_hits": counts["exec.warm.model_hits"],
        "exec.warm.buffer_hits": counts["exec.warm.buffer_hits"],
        "exec.warm.buffer_hit_ratio": (counts["exec.warm.buffer_hits"]
                                       / lookups if lookups else 0.0),
        "harness.self_s": layer_s["harness"],
        "kernel.vm.premap_s": st("kernel.vm.premap"),
        "uarch.pipeline.core_build_s": st("uarch.pipeline.core_build"),
        "uarch.pipeline.consume_s": st("uarch.pipeline.consume"),
        "uarch.pipeline.consume.share": share(st("uarch.pipeline.consume")),
        "uarch.native.export_s": st("uarch.native.export"),
        "uarch.native.exports": n("uarch.native.export"),
        "uarch.native.kernel_s": st("uarch.native.kernel"),
        "uarch.native.kernel_calls": n("uarch.native.kernel"),
        "uarch.native.dispatch_s": st("uarch.native.dispatch"),
        "uarch.native.ops_retired": counts["uarch.native.ops_retired"],
        "uarch.native.writeback_s": st("uarch.native.writeback"),
        "uarch.native.writebacks": n("uarch.native.writeback"),
        "uarch.native.hook_exits": counts["uarch.native.hook_exits"],
        "uarch.native.delegated": counts["uarch.native.delegated"],
        "uarch.native.native_share": share(st("uarch.native.kernel")),
        "uarch.native.boundary.share": share(
            st("uarch.native.export") + st("uarch.native.writeback")),
        "uarch.multicore.run_s": (layer_s["uarch.multicore"]
                                  - st("uarch.multicore.contention")),
        "uarch.multicore.contention_s": st("uarch.multicore.contention"),
        "uarch.multicore.epochs": counts["uarch.multicore.epochs"],
        "perf.counters.collect_s": st("perf.counters.collect"),
        "perf.sampler.tick_s": st("perf.sampler.tick"),
        "perf.sampler.samples": n("perf.sampler.tick"),
        "uarch.topdown.profile_s": st("uarch.topdown.profile"),
        "core.analysis_s": st("core.analysis"),
        "trace.wall_s": wall_s,
        "other_s": wall_s - _ns(top_level_ns(spans)),
    }
    return {"metrics": m, "layer_s": layer_s, "spans": n_by_name}


def median_layers(passes: list[dict]) -> dict:
    """Median of each per-pass number over the traced passes (counts stay
    whole numbers: they repeat exactly from pass to pass)."""
    first = passes[0]

    def median(values: list):
        if isinstance(values[0], int):
            return statistics.median_low(values)
        return statistics.median(values)

    return {
        "metrics": {k: median([p["metrics"][k] for p in passes])
                    for k in first["metrics"]},
        "layer_s": {k: median([p["layer_s"][k] for p in passes])
                    for k in first["layer_s"]},
        "spans": first["spans"],
    }


def layer_notes(stats: dict) -> dict:
    """The counts column of the layer table, one string per layer."""
    m = stats["metrics"]

    def n(name: str) -> int:
        return stats["spans"].get(name, 0)

    lookups = n("exec.warm.buffers")
    return {
        "harness": (f"jobs={n('harness.run_workload')}"
                    f"+{n('harness.run_multicore')}"),
        "exec": (f"model_hits={m['exec.warm.model_hits']} "
                 f"buffer_hits={m['exec.warm.buffer_hits']}/{lookups}"),
        "workloads": f"instr={m['workloads.instr_generated']}",
        "trace_io": (f"encode={m['trace_io.encode_s']:.3f}s "
                     f"decode={m['trace_io.decode_s']:.3f}s/"
                     f"{n('trace_io.decode')} "
                     f"hits={m['exec.traces.hits']} "
                     f"misses={m['exec.traces.misses']}"),
        "kernel": f"premaps={n('kernel.vm.premap')}",
        "uarch.pipeline": (f"cores={n('uarch.pipeline.core_build')} "
                           f"consumes={n('uarch.pipeline.consume')}"),
        "uarch.native": (f"kernel={m['uarch.native.kernel_s']:.3f}s/"
                         f"{m['uarch.native.kernel_calls']} "
                         f"export={m['uarch.native.export_s']:.3f}s/"
                         f"{m['uarch.native.exports']} "
                         f"writeback={m['uarch.native.writeback_s']:.3f}s/"
                         f"{m['uarch.native.writebacks']} "
                         f"hooks={m['uarch.native.hook_exits']} "
                         f"delegated={m['uarch.native.delegated']}"),
        "uarch.multicore": f"epochs={m['uarch.multicore.epochs']}",
        "perf": f"samples={m['perf.sampler.samples']}",
        "core": f"calls={n('core.analysis')}",
    }
