"""Command-line entry point: characterize benchmarks from the shell.

Examples::

    repro-characterize System.Runtime
    repro-characterize Plaintext --machine arm --instructions 200000
    repro-characterize Json Plaintext mcf --jobs 4 --cache-dir ~/.repro
    repro-characterize --suite dotnet --jobs 8 --cache-dir ~/.repro
    repro-characterize --list

With ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) results are served from
and persisted to a content-addressed store: a repeated invocation with
an unchanged source tree simulates nothing, and any edit under
``src/repro/`` automatically invalidates the affected entries.
``--no-cache`` bypasses the store for one invocation.

Long campaigns add the resilience surface: ``--on-error skip|retry``
degrades failed workloads into a per-workload summary (exit status 1)
instead of aborting, ``--max-retries`` sizes the transient retry
budget, ``--manifest PATH`` journals every outcome to an append-only
JSONL file, and ``--resume PATH`` continues an interrupted campaign —
completed work is served from the store, transient failures are
re-attempted, deterministic ones are skipped.  The first Ctrl-C stops
gracefully (journal written, exit 130); the second kills the run.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.metrics import METRICS, metric_vector
from repro.harness.report import format_table
from repro.harness.runner import Fidelity
from repro.uarch.machine import get_machine
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.speccpu import speccpu_specs


def _all_specs():
    return dotnet_category_specs() + aspnet_specs() + speccpu_specs()


def _make_store(args):
    if args.no_cache or not args.cache_dir:
        return None
    from repro.exec.store import ResultStore
    return ResultStore(os.path.expanduser(args.cache_dir))


def _print_single(result, args) -> None:
    vec = metric_vector(result.counters)
    rows = [[m.id, m.name, f"{vec[m.id]:.4g}", m.unit] for m in METRICS]
    print(f"# {result.spec.name} on {result.machine.name}")
    print(format_table(["id", "metric", "value", "unit"], rows))
    td = result.topdown
    print(f"\nTop-Down L1: retiring={td.retiring:.1%} "
          f"bad_spec={td.bad_speculation:.1%} "
          f"frontend={td.frontend_bound:.1%} "
          f"backend={td.backend_bound:.1%}")
    if args.topdown:
        print("\nFrontend breakdown (share of FE-bound slots):")
        for k, v in td.frontend_breakdown().items():
            print(f"  {k:22s} {v:6.1%}")
        print("Backend breakdown (share of BE-bound slots):")
        for k, v in td.backend_breakdown().items():
            print(f"  {k:22s} {v:6.1%}")
    if args.toplev:
        from repro.perf.toplev import render
        print("\n" + render(td))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-characterize",
        description="Characterize benchmarks on a simulated machine "
                    "(ISPASS'21 .NET characterization reproduction).")
    parser.add_argument("benchmark", nargs="*",
                        help="benchmark name(s) (see --list); several "
                             "names are run as one suite")
    parser.add_argument("--suite", choices=["dotnet", "aspnet", "speccpu"],
                        help="characterize every benchmark of one suite")
    parser.add_argument("--machine", default="i9",
                        choices=["xeon", "i9", "arm"])
    parser.add_argument("--engine",
                        choices=["batched", "vector"],
                        default=os.environ.get("REPRO_ENGINE") or None,
                        help="consume engine: the Python reference "
                             "(batched) or the native C kernel (vector, "
                             "the default, which falls back to batched "
                             "with a warning when it cannot run); both "
                             "are bit-identical (default: $REPRO_ENGINE, "
                             "else vector)")
    parser.add_argument("--instructions", type=int, default=150_000,
                        help="measured instruction budget")
    parser.add_argument("--warmup", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes for multi-"
                             "benchmark runs (results are bit-identical "
                             "to --jobs 1)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        default=os.environ.get("REPRO_CACHE_DIR"),
                        help="content-addressed result store (default: "
                             "$REPRO_CACHE_DIR; unset = no caching)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore the result store for this run")
    parser.add_argument("--on-error", choices=["raise", "skip", "retry"],
                        default="raise",
                        help="failure policy: abort on the first failed "
                             "workload (raise, default), record it and "
                             "keep going (skip), or retry transient "
                             "failures with backoff first (retry)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="transient-failure retry budget per "
                             "workload (default: 3 with --on-error "
                             "retry, else 1)")
    parser.add_argument("--manifest", metavar="PATH",
                        help="journal every job outcome to an append-"
                             "only JSONL campaign manifest")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume the campaign journaled at PATH: "
                             "skip completed work (via the result "
                             "store), re-attempt transient failures, "
                             "carry deterministic ones")
    parser.add_argument("--trace-dir", metavar="DIR",
                        default=os.environ.get("REPRO_TRACE_DIR"),
                        help="content-addressed trace store: record each "
                             "workload's op stream once, replay it on "
                             "later runs (default: $REPRO_TRACE_DIR)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile one run of the first benchmark and "
                             "print the top-25 functions by tottime")
    parser.add_argument("--topdown", action="store_true",
                        help="print the full Top-Down breakdown")
    parser.add_argument("--toplev", action="store_true",
                        help="print the toplev-style hierarchy tree")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="also record the measured op stream to PATH")
    parser.add_argument("--obs-dir", metavar="DIR",
                        default=os.environ.get("REPRO_OBS_DIR"),
                        help="enable observability: span JSONL, metrics "
                             "dumps and profiles land here (summarize "
                             "with 'repro-obs report DIR'; default: "
                             "$REPRO_OBS_DIR)")
    parser.add_argument("--bench-history", metavar="PATH",
                        help="append per-workload baseline records "
                             "(simulated seconds, CPI) to a JSONL "
                             "history; check it with 'repro-obs "
                             "regress PATH'")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="also dump merged metrics to PATH "
                             "(.prom = Prometheus textfile, else JSON); "
                             "implies metrics collection")
    parser.add_argument("--trace-spans", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="with --obs-dir, emit span JSONL "
                             "(--no-trace-spans keeps metrics only)")
    parser.add_argument("--obs-profile", choices=["cprofile", "tracemalloc"],
                        help="profile every job (needs --obs-dir for "
                             "the .pstats/heap artifacts)")
    parser.add_argument("--list", action="store_true",
                        help="list all known benchmarks and exit")
    args = parser.parse_args(argv)

    specs = _all_specs()
    if args.list:
        for s in specs:
            print(f"{s.suite:8s} {s.name}")
        return 0
    if args.suite:
        selected = [s for s in specs if s.suite == args.suite]
    else:
        if not args.benchmark:
            parser.error("benchmark name required (or --suite / --list)")
        by_name = {s.name: s for s in specs}
        missing = [n for n in args.benchmark if n not in by_name]
        if missing:
            print(f"error: unknown benchmark {missing[0]!r} "
                  f"(try --list)", file=sys.stderr)
            return 2
        selected = [by_name[n] for n in args.benchmark]

    fidelity = Fidelity(warmup_instructions=args.warmup,
                        measure_instructions=args.instructions)
    store = _make_store(args)
    machine = get_machine(args.machine)
    if args.trace_dir:
        # execute_job picks the store up from the environment, which also
        # covers --jobs worker processes.
        os.environ["REPRO_TRACE_DIR"] = os.path.expanduser(args.trace_dir)
    if args.engine:
        # Same pattern: run_workload resolves REPRO_ENGINE, so the choice
        # propagates through execute_job and --jobs worker processes.
        os.environ["REPRO_ENGINE"] = args.engine

    obs_on = bool(args.obs_dir or args.metrics_out or args.obs_profile)
    if obs_on:
        from repro import obs
        obs.configure(
            os.path.expanduser(args.obs_dir) if args.obs_dir else None,
            spans=args.trace_spans, profile=args.obs_profile)

    def finish_obs() -> None:
        if not obs_on:
            return
        from repro import obs
        if args.metrics_out:
            obs.write_metrics(os.path.expanduser(args.metrics_out))
        obs.shutdown()
        if args.obs_dir:
            print(f"[obs: spans + metrics in {args.obs_dir}; summarize "
                  f"with 'repro-obs report {args.obs_dir}']",
                  file=sys.stderr)

    if args.profile:
        import cProfile
        import pstats
        from repro.harness.runner import run_workload
        trace_store = None
        if args.trace_dir:
            from repro.exec.traces import TraceStore
            trace_store = TraceStore(os.path.expanduser(args.trace_dir))
        profiler = cProfile.Profile()
        profiler.enable()
        result = run_workload(selected[0], machine, fidelity,
                              seed=args.seed, trace_store=trace_store)
        profiler.disable()
        print(f"# cProfile of one {selected[0].name} run on "
              f"{machine.name} ({result.counters.instructions} instr)")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(25)
        return 0

    from repro.exec.campaign import (CampaignInterrupted, CampaignManifest,
                                     graceful_shutdown)
    from repro.exec.progress import ProgressReporter
    from repro.harness.suite import characterize_suite

    manifest = None
    manifest_path = args.resume or args.manifest
    on_error = args.on_error
    if manifest_path:
        manifest = CampaignManifest(os.path.expanduser(manifest_path))
        if args.resume and store is None:
            print("note: --resume without --cache-dir re-runs completed "
                  "work (results were not persisted)", file=sys.stderr)
        if args.resume and on_error == "raise":
            # A resumed campaign is by definition one that hit trouble;
            # aborting on the first failure would defeat the resume.
            on_error = "skip"

    try:
        reporter = ProgressReporter(len(selected))
        with graceful_shutdown() as stop:
            try:
                suite = characterize_suite(
                    selected, machine, fidelity, seed=args.seed,
                    jobs=args.jobs, store=store, reporter=reporter,
                    on_error=on_error, max_retries=args.max_retries,
                    manifest=manifest, should_stop=stop.is_set)
            except CampaignInterrupted as exc:
                print(f"\ninterrupted: {exc}", file=sys.stderr)
                return 130

        if len(selected) == 1 and suite.results:
            _print_single(suite.results[0], args)
        else:
            rows = [[r.spec.suite, r.spec.name, f"{r.counters.cpi:.3f}",
                     f"{r.counters.ipc:.3f}", f"{r.seconds * 1e3:.3f}"]
                    for r in suite.results]
            print(f"# {len(rows)} benchmarks on {machine.name}")
            print(format_table(["suite", "benchmark", "cpi", "ipc", "ms"],
                               rows))
            print(f"\n[{reporter.status_line()}]")
        if store is not None:
            stats = store.stats()
            print(f"[store: {stats.entries} entries, "
                  f"{stats.total_bytes / 1e6:.1f} MB at {stats.root}]")

        if args.bench_history and suite.results:
            from repro.harness.runner import resolve_engine
            from repro.obs.baseline import BaselineStore, records_for_suite
            engine = resolve_engine(args.engine)
            records = records_for_suite(
                suite.results, machine=machine, fidelity=fidelity,
                engine=engine, seed=args.seed)
            BaselineStore(
                os.path.expanduser(args.bench_history)).append(records)
            print(f"[bench-history: {len(records)} record(s) appended to "
                  f"{args.bench_history}]", file=sys.stderr)

        if args.trace_out:
            from repro.perf.trace_io import record_program
            from repro.workloads.program import build_program
            program = build_program(selected[0], seed=args.seed)
            n = record_program(program, args.trace_out, args.instructions)
            print(f"\nrecorded {n} instructions to {args.trace_out}")

        if suite.failures:
            rows = [[f.name, f.error_type, f.classification,
                     str(f.attempts), f.worker_fate]
                    for f in suite.failures]
            print(f"\n# {len(suite.failures)} workload(s) failed",
                  file=sys.stderr)
            print(format_table(["benchmark", "error", "class", "attempts",
                                "worker"], rows), file=sys.stderr)
            if manifest is not None:
                print(f"[failures journaled to {manifest.path}; re-run with "
                      f"--resume {manifest.path} to retry transient ones]",
                      file=sys.stderr)
            return 1
        return 0
    finally:
        finish_obs()


if __name__ == "__main__":
    raise SystemExit(main())
