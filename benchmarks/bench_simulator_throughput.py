"""Simulator throughput: batched trace engine vs the legacy interpreter.

Not a paper figure — infrastructure tracking.  Measures sustained
simulated instructions per wall-clock second for one representative
workload per suite on both deployed consume paths:

* ``legacy`` — the tuple-at-a-time path (``REPRO_LEGACY_CONSUME=1``):
  build the workload program and generate + consume per-op tuples,
  every run.
* ``batched`` — the Python fallback path against a *warm* trace store: the op
  stream is decoded from the recorded SoA chunks and run through
  ``Core.consume_stream``; the workload program is never built.  This
  is what a second machine config of a multi-machine suite pays.
* ``vector`` — the same warm-replay path through the native columnar
  kernel (``repro.uarch.native``), the engine behind
  ``consume_stream(engine="vector")`` and the default.

All paths produce bit-identical results (asserted here per workload,
and exhaustively by tests/integration/test_batched_equivalence.py), so
the ratios are pure engine speed.  Timings use best-of-``_ROUNDS`` to
shave scheduler noise.

Results land in ``benchmarks/results/simulator_throughput.txt`` and —
for the perf trajectory from PR 2 on — in ``BENCH_throughput.json`` at
the repo root (uploaded as a CI artifact).
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc
from pathlib import Path

from repro.exec.store import ResultStore
from repro.exec.traces import TraceStore
from repro.harness.report import format_table
from repro.harness.runner import run_workload
from repro.harness.suite import characterize_suite
from repro.perf.trace_io import record, replay_buffers
from repro.trace import OP_BLOCK
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.speccpu import speccpu_specs

REPO_ROOT = Path(__file__).parent.parent
JSON_PATH = REPO_ROOT / "BENCH_throughput.json"

#: one representative workload per suite (paper suites: micro / ASP.NET /
#: SPEC CPU17)
_REPRESENTATIVES = (
    ("dotnet", dotnet_category_specs, "System.Runtime"),
    ("aspnet", aspnet_specs, "Json"),
    ("speccpu", speccpu_specs, "mcf"),
)

_ROUNDS = 5


def _best_of(fn, rounds: int = _ROUNDS) -> tuple[float, object]:
    """Best-of-N CPU seconds (robust against scheduler noise)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        t0 = time.process_time()
        out = fn()
        dt = time.process_time() - t0
        if dt < best:
            best, result = dt, out
    return best, result


#: top-level keys of BENCH_throughput.json, one per bench function
#: (``micro`` is shared by the two bench_micro_structures functions;
#: ``multicore`` is written by bench_fig11_fig12_core_scaling)
_SECTIONS = ("engine", "micro", "multicore", "suite_wall_clock",
             "data_plane", "observability")


def _merge_json(section: str, data, merge_section: bool = False) -> dict:
    """Update one section of ``BENCH_throughput.json`` in place.

    The bench is several pytest functions writing one artifact; each
    owns a top-level key so partial runs never clobber the others.
    Keys outside ``_SECTIONS`` (pre-section layouts) are dropped.
    ``merge_section`` updates the section's existing dict instead of
    replacing it — for sections owned by more than one bench function.
    """
    try:
        payload = json.loads(JSON_PATH.read_text())
    except (OSError, ValueError):
        payload = {}
    payload = {k: v for k, v in payload.items() if k in _SECTIONS}
    if merge_section and isinstance(payload.get(section), dict):
        payload[section].update(data)
    else:
        payload[section] = data
    JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                         + "\n")
    return payload


def test_simulator_throughput(fidelity, machine_i9, emit, tmp_path):
    store = TraceStore(tmp_path / "traces")
    rows = []
    payload = {
        "machine": machine_i9.name,
        "fidelity": {
            "warmup_instructions": fidelity.warmup_instructions,
            "measure_instructions": fidelity.measure_instructions,
        },
        "rounds": _ROUNDS,
        "workloads": {},
    }
    from repro.uarch import native
    for suite, specs_fn, name in _REPRESENTATIVES:
        spec = next(s for s in specs_fn() if s.name == name)
        # Warm the trace store once (records the stream), so the timed
        # batched/vector runs below measure the replay path.
        warm = run_workload(spec, machine_i9, fidelity, trace_store=store)
        # Interleave the engines round by round so slow system phases
        # penalize all paths alike.
        t_leg = t_bat = t_vec = float("inf")
        legacy = batched = vector = None
        for _ in range(_ROUNDS):
            dt, res = _best_of(
                lambda: run_workload(spec, machine_i9, fidelity,
                                     engine="legacy"), rounds=1)
            if dt < t_leg:
                t_leg, legacy = dt, res
            dt, res = _best_of(
                lambda: run_workload(spec, machine_i9, fidelity,
                                     trace_store=store), rounds=1)
            if dt < t_bat:
                t_bat, batched = dt, res
            dt, res = _best_of(
                lambda: run_workload(spec, machine_i9, fidelity,
                                     trace_store=store, engine="vector"),
                rounds=1)
            if dt < t_vec:
                t_vec, vector = dt, res
        # The engines must agree exactly before their speeds are
        # comparable at all.
        assert batched.counters == legacy.counters == warm.counters
        assert vector.counters == legacy.counters
        assert batched.topdown == legacy.topdown == vector.topdown
        instr = batched.counters.instructions
        ips_leg = instr / t_leg
        ips_bat = instr / t_bat
        ips_vec = instr / t_vec
        ratio = ips_bat / ips_leg
        vec_ratio = ips_vec / ips_leg
        rows.append([suite, name, f"{ips_leg:,.0f}", f"{ips_bat:,.0f}",
                     f"{ips_vec:,.0f}", f"{ratio:.2f}x",
                     f"{vec_ratio:.2f}x"])
        payload["workloads"][name] = {
            "suite": suite,
            "instructions": instr,
            "legacy_instr_per_s": round(ips_leg),
            "batched_instr_per_s": round(ips_bat),
            "vector_instr_per_s": round(ips_vec),
            "speedup": round(ratio, 3),
            "vector_speedup": round(vec_ratio, 3),
        }
    ratios = [w["speedup"] for w in payload["workloads"].values()]
    payload["min_speedup"] = min(ratios)
    vec_ratios = [w["vector_speedup"] for w in payload["workloads"].values()]
    payload["min_vector_speedup"] = min(vec_ratios)
    payload["native_kernel"] = native.available()
    _merge_json("engine", payload)

    text = ("Simulator throughput (measured instructions / CPU "
            f"second, best of {_ROUNDS}):\n"
            + format_table(
                ["suite", "workload", "legacy instr/s", "batched instr/s",
                 "vector instr/s", "batched", "vector"], rows))
    text += ("\n\nlegacy = build + generate + consume per run; batched/"
             "vector = warm-trace-store replay\n(the second machine "
             "config of a multi-machine suite never regenerates).\n"
             f"JSON written to {JSON_PATH.name}")
    emit("simulator_throughput", text)

    # Regression guard: the batched engine must beat the legacy
    # interpreter on every suite.  The bound is deliberately below the
    # steady-state speedup (~1.3-2x per suite on an idle machine, on
    # top of the shared-model optimizations that lifted the legacy
    # baseline itself ~1.6x over the PR-1 interpreter) because CI boxes
    # are noisy; the JSON artifact carries the exact numbers.
    assert payload["min_speedup"] > 1.05
    if native.available():
        # The native columnar kernel targets >=10x over legacy at
        # default fidelity (the committed JSON carries the measured
        # numbers, and the compare job gates the ratios PR over PR).
        # This inline gate is much looser: quick fidelity amortizes
        # the per-run export/writeback cost over ~4x fewer
        # instructions (mcf barely clears 4x there) and CI runners
        # are noisy.
        assert payload["min_vector_speedup"] > 3.0


def test_suite_wall_clock(fidelity, machine_i9, emit, tmp_path,
                          monkeypatch):
    """End-to-end ``characterize_suite`` wall clock at jobs=1 vs jobs=4.

    Measures what a campaign user sees: cold result stores (every job a
    miss), a shared warm trace store (generation excluded — it is paid
    once per trace regardless of scheduling), LPT ordering and warm
    workers active as deployed.  Workloads span all three paper suites
    so per-job runtimes are genuinely skewed.
    """
    dotnet = {"System.Runtime", "System.Linq", "System.Text.Json"}
    specs = [s for s in dotnet_category_specs() if s.name in dotnet]
    specs += [s for s in aspnet_specs() if s.name in ("Json", "Plaintext")]
    specs += [s for s in speccpu_specs() if s.name == "mcf"]
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    # Record every trace once so both job counts measure pure replay.
    warm = characterize_suite(specs, machine_i9, fidelity,
                              store=ResultStore(tmp_path / "warm"))
    assert not warm.failures
    wall = {}
    for n_jobs in (1, 4):
        store = ResultStore(tmp_path / f"store-j{n_jobs}")
        t0 = time.perf_counter()
        result = characterize_suite(specs, machine_i9, fidelity,
                                    jobs=n_jobs, store=store)
        wall[n_jobs] = time.perf_counter() - t0
        assert not result.failures
        assert result.times() == warm.times()
    speedup = wall[1] / wall[4]
    cores = len(os.sched_getaffinity(0))
    _merge_json("suite_wall_clock", {
        "workloads": len(specs),
        "cpu_cores": cores,
        "jobs_1_seconds": round(wall[1], 3),
        "jobs_4_seconds": round(wall[4], 3),
        "parallel_speedup": round(speedup, 3),
    })
    emit("suite_wall_clock",
         f"characterize_suite, {len(specs)} workloads, warm traces, "
         f"cold results, {cores} cores:\n"
         f"  jobs=1  {wall[1]:7.2f} s\n"
         f"  jobs=4  {wall[4]:7.2f} s   ({speedup:.2f}x)\n"
         f"JSON written to {JSON_PATH.name}")
    # 6 independent jobs on 4 workers: even with fork + IPC overhead a
    # real win must show — when the hardware can express one.  On a
    # core-starved box (1-2 CPUs) parallelism can only add overhead, so
    # there the numbers are report-only; the speedup bound is loose for
    # noisy CI runners.
    if cores >= 4:
        assert speedup > 1.2
    else:
        assert speedup > 0.5          # overhead must still be bounded


def test_observability_overhead(fidelity, machine_i9, emit, tmp_path):
    """Instrumentation cost: obs disabled (the default) vs fully enabled.

    The obs layer's contract is "observe, never perturb": the disabled
    guard is one module-global ``is`` check, and even fully enabled
    (span JSONL + phase-timer histograms on every decode/consume/seal)
    the same workload must stay bit-identical and cost < 2% of the
    disabled run's throughput.

    Methodology: call census x per-primitive cost.  Two earlier
    revisions tried to read the overhead off end-to-end A/B timings —
    first adaptive best-of (compares two *minima*, whose gap is itself
    noise-distributed; the committed artifact once showed -3.09%
    "overhead"), then an interleaved median-of-16 with paired rounds.
    An A/A control (both arms disabled, same schedule) still showed a
    ±5% phantom: run-to-run CPU-time variance of the full workload is
    ~25%, so no arrangement of ~0.6s runs resolves a quantity that a
    call census puts near 0.01%.  Instead this bench measures the two
    ingredients separately, each where it is actually measurable:

    * the **census** — spans emitted, histogram samples, counter
      increments in one enabled run — is deterministic (same trace,
      same chunking, every time);
    * the **per-call primitive cost** comes from a tight loop over the
      real span/observe paths (JSONL emission included), stable to a
      few percent because each sample is microseconds, not seconds.

    ``overhead = census x cost / median run time`` then has noise only
    in the denominator, where ±5% on a ~0.01% quantity is irrelevant.
    A gross regression (say a per-op span — 300k extra calls) shows up
    in the census itself, not in timing luck.
    """
    import statistics

    from repro import obs

    spec = next(s for s in dotnet_category_specs()
                if s.name == "System.Runtime")
    store = TraceStore(tmp_path / "traces")
    warm = run_workload(spec, machine_i9, fidelity, trace_store=store)
    run_workload(spec, machine_i9, fidelity, trace_store=store)

    # Denominator: median CPU time of the disabled (default) config.
    rounds = 5
    samples = []
    for _ in range(rounds):
        t0 = time.process_time()
        off = run_workload(spec, machine_i9, fidelity, trace_store=store)
        samples.append(time.process_time() - t0)
    t_run = statistics.median(samples)

    # Census run with the FULL observatory: spans + metrics + the
    # time-series sampler, plus (when the native kernel is present)
    # the vector engine's per-op-kind retirement telemetry — every
    # collector this repo has, all at once, and still bit-identical.
    from repro.obs import timeseries
    from repro.uarch import native as native_mod

    obs_dir = tmp_path / "obs"
    obs.configure(obs_dir, series=True)
    try:
        on = run_workload(spec, machine_i9, fidelity, trace_store=store)
        on_vec = None
        if native_mod.available():
            on_vec = run_workload(spec, machine_i9, fidelity,
                                  trace_store=store, engine="vector")
        snap = obs.metrics_snapshot()
        obs.flush()
        span_calls = sum(len(p.read_text().splitlines())
                         for p in obs_dir.glob("spans-*.jsonl"))
        hist_samples = sum(h["count"]
                           for h in snap["histograms"].values())
        # Runner counters are unit increments, so the summed value is
        # the call count — except the native retirement counters,
        # which bulk-add thousands of ops in one call per writeback
        # drain (that batching is exactly why per-op telemetry is
        # affordable).  Census those by call count: one drain per
        # writeback, <= 6 adds each.
        counter_adds = round(sum(
            v for k, v in snap["counters"].items()
            if not k.startswith("native.ops_retired")))
        drains = snap["histograms"].get(
            "native.writeback_seconds", {}).get("count", 0)
        counter_adds += 6 * drains

        # Per-call primitive costs over the live paths (span cost
        # includes serialization + buffered JSONL emission; the timer
        # pattern around observe matches the phase-timer call sites).
        n = 20_000
        t0 = time.process_time()
        for _ in range(n):
            with obs.span("bench.overhead_probe"):
                pass
        span_s = (time.process_time() - t0) / n
        t0 = time.process_time()
        for _ in range(n):
            t = time.perf_counter()
            obs.observe("bench.overhead_probe_seconds",
                        time.perf_counter() - t)
        observe_s = (time.process_time() - t0) / n
    finally:
        obs.shutdown(dump=False)

    # Observation must not perturb: identical counters either way —
    # including the native vector engine with retirement telemetry on.
    assert off.counters == on.counters == warm.counters
    assert off.topdown == on.topdown
    if on_vec is not None:
        assert on_vec.counters == off.counters
        assert on_vec.topdown == off.topdown
        # the kernel's per-kind retirement census landed in the registry
        # and tallies exactly the instruction count it simulated
        assert snap["counters"]["native.ops_retired"] > 0
    # The census run really did record: spans on disk, phase samples
    # in the registry, and the sampler's final flush in the ring.
    assert span_calls > 0
    assert snap["histograms"]["sim.consume_buffer_seconds"]["count"] > 0
    series_samples = sum(
        len(timeseries.load_series(p))
        for p in timeseries.series_files(obs_dir))
    assert series_samples > 0

    instr = off.counters.instructions
    # add() is a dict upsert like observe() minus the two clock reads;
    # observe_s upper-bounds it.
    # A ring sample is one registry snapshot JSON-serialized and
    # appended — the same order of work as a span emission, and there
    # is roughly one per second of run regardless of workload size.
    overhead_s = (span_calls * span_s
                  + (hist_samples + counter_adds) * observe_s
                  + series_samples * span_s)
    overhead_pct = overhead_s / t_run * 100.0
    _merge_json("observability", {
        "workload": spec.name,
        "instructions": instr,
        "rounds": rounds,
        "disabled_instr_per_s": round(instr / t_run),
        "span_calls": span_calls,
        "histogram_samples": hist_samples,
        "counter_adds": counter_adds,
        "series_samples": series_samples,
        "native_telemetry": on_vec is not None,
        "span_us": round(span_s * 1e6, 2),
        "observe_us": round(observe_s * 1e6, 3),
        "overhead_pct": round(overhead_pct, 4),
    })
    emit("observability_overhead",
         f"Observability overhead ({spec.name}, census x primitive "
         f"cost over median-of-{rounds} run time):\n"
         f"  disabled  {instr / t_run:12,.0f} instr/s\n"
         f"  census    {span_calls} spans x {span_s * 1e6:.1f}us + "
         f"{hist_samples + counter_adds} metric calls x "
         f"{observe_s * 1e6:.2f}us\n"
         f"  overhead  {overhead_pct:.4f}% of run time\n"
         f"JSON written to {JSON_PATH.name}")
    # The acceptance bar: enabled observability costs < 2% of run
    # time.  The measured figure is ~0.01-0.05%; the headroom is for
    # slower span sinks, not for new per-op call sites.
    assert overhead_pct < 2.0


def _synthetic_trace(path, n_ops: int) -> None:
    """A block-op trace of ``n_ops`` records (~25 bytes each on disk)."""
    def ops():
        base = 0x4000_0000
        for i in range(n_ops):
            yield (OP_BLOCK, base + (i % 1024) * 64, 10, 48, False)
    record(ops(), path)


def _replay_peak_bytes(path, use_mmap: bool) -> tuple[int, int]:
    """(peak traced heap bytes, instructions) for one full streaming
    replay.

    ``tracemalloc`` counts allocations through the Python allocator —
    the whole-file ``read()`` of the in-memory path shows up, while
    mmap-backed pages (reclaimable page cache, dropped chunk by chunk
    via ``MADV_DONTNEED``) do not.  That is exactly the resident-set
    distinction the streaming path exists for.
    """
    gc.collect()
    tracemalloc.start()
    instructions = 0
    for buf in replay_buffers(path, use_mmap=use_mmap):
        instructions += buf.n_instructions
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, instructions


def test_data_plane_memory_and_latency(emit, tmp_path):
    """mmap streaming: bounded peak memory on long traces, no decode
    wall-clock regression on short ones."""
    long_path = tmp_path / "long.trace"
    short_path = tmp_path / "short.trace"
    _synthetic_trace(long_path, n_ops=400_000)      # ~10 MB on disk
    _synthetic_trace(short_path, n_ops=8_000)

    peak_mem, n_mem = _replay_peak_bytes(long_path, use_mmap=False)
    peak_map, n_map = _replay_peak_bytes(long_path, use_mmap=True)
    assert n_mem == n_map
    rss_ratio = peak_mem / peak_map

    t_mem, _ = _best_of(lambda: sum(
        b.n_instructions for b in replay_buffers(short_path,
                                                 use_mmap=False)))
    t_map, _ = _best_of(lambda: sum(
        b.n_instructions for b in replay_buffers(short_path,
                                                 use_mmap=True)))

    _merge_json("data_plane", {
        "long_trace_bytes": long_path.stat().st_size,
        "long_trace_instructions": n_map,
        "peak_heap_inmemory_bytes": peak_mem,
        "peak_heap_mmap_bytes": peak_map,
        "peak_reduction": round(rss_ratio, 2),
        "short_trace_bytes": short_path.stat().st_size,
        "short_decode_inmemory_s": round(t_mem, 6),
        "short_decode_mmap_s": round(t_map, 6),
    })
    emit("data_plane_memory",
         "Streaming replay peak heap (tracemalloc), "
         f"{long_path.stat().st_size / 1e6:.1f} MB trace:\n"
         f"  in-memory  {peak_mem / 1e6:8.2f} MB\n"
         f"  mmap       {peak_map / 1e6:8.2f} MB   "
         f"({rss_ratio:.0f}x smaller)\n"
         f"Short-trace decode (best of {_ROUNDS}): "
         f"in-memory {t_mem * 1e3:.2f} ms, mmap {t_map * 1e3:.2f} ms\n"
         f"JSON written to {JSON_PATH.name}")
    # The acceptance bar: >= 2x peak reduction on the long trace, and
    # the mmap path must not slow down short-trace decode (generous 2x
    # bound — both decode the same zero-copy columns; only the read
    # syscall pattern differs, and the times are sub-millisecond).
    assert rss_ratio >= 2.0
    assert t_map <= max(t_mem * 2.0, t_mem + 0.005)
