"""Benchmark of the ``repro`` simulator: end-to-end numbers and a layer split.

Run from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload

``--trace 0`` times untraced passes and ends with the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` additionally repeats the passes with
every layer entry point wrapped (see ``layers.py``) and ends with the
per-layer metrics.  Both print the inputs, the end-to-end numbers, the
output check and (traced) one row per layer.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--workload all`` runs each workload in its own child
process, one after the other.

Scratch files (the kernel build, recorded traces, span dumps) go under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("suite_cold", "sweep_warm", "multicore_sampled")
#: set-ups per run; ``setup_s`` reports imports plus their median
SETUP_REPS = 3
#: offset of the held-out seed whose layer shares are shown next to
#: the requested seed's
HELDOUT = 1000

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "sim_instr_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
}
JOB_SPANS = ("harness.run_workload", "harness.run_multicore")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process, waited for in turn."""
    worst = 0
    for name in WORKLOAD_NAMES:
        sys.stdout.flush()
        code = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# Timed passes.

class Pass:
    __slots__ = ("wall", "output", "spans", "counts", "failed_jobs")

    def __init__(self, wall, output, rec) -> None:
        self.wall = wall
        self.output = output
        self.spans = rec.spans
        self.counts = rec.counts
        self.failed_jobs = rec.failed_jobs

    def job_ns(self) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] in JOB_SPANS]


def timed_passes(workload, state, rec, *, seconds=None, passes=None):
    """Repeat passes for ``seconds`` (whole passes only) or ``passes`` times.

    Every pass starts from the same in-process state: warm caches
    evicted and cyclic garbage collected, so that the peak memory of a
    pass does not depend on when the previous one left the collector.
    A new pass
    starts only if the median pass so far still fits the time budget;
    the first always runs.
    """
    from repro.exec import warm
    out: list[Pass] = []
    start = time.perf_counter()
    while True:
        warm.evict_all()
        gc.collect()
        rec.reset()
        t0 = time.perf_counter()
        output = workload.run_pass(state)
        out.append(Pass(time.perf_counter() - t0, output, rec))
        if passes is not None:
            if len(out) >= passes:
                return out
        elif (time.perf_counter() - start
              + statistics.median(p.wall for p in out)) > seconds:
            return out


def account(passes, reference, label: str) -> tuple[int, list]:
    """Jobs attempted and failures: failed jobs, outputs unlike ``reference``."""
    attempted, failures = 0, []
    for p in passes:
        attempted += len(p.job_ns())
        failures += [("job", j) for j in sorted(p.failed_jobs)]
        if reference is not None and not p.output.same_as(reference):
            failures.append((label, "output differs from the untraced one"))
    return attempted, failures


def _high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (1 - 10 / n))
    return pct, statistics.quantiles(values, n=100)[pct - 1]


# ---------------------------------------------------------------------------
# Reporting.

def _fmt(v) -> str:
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def print_layer_table(layers, heldout, wall: float, heldout_seed: int):
    from layers import LAYER_ORDER, layer_notes
    notes = layer_notes(layers)
    print(f"layers (traced, self time; share = self / traced wall "
          f"{wall:.3f} s; held-out seed {heldout_seed} alongside):")
    print(f"  {'layer':<16}{'self_s':>10}{'share':>9}"
          f"{'share@' + str(heldout_seed):>14}  counts")
    h_wall = heldout["metrics"]["trace.wall_s"]
    for layer in LAYER_ORDER:
        s = layers["layer_s"][layer]
        h = heldout["layer_s"][layer]
        print(f"  {layer:<16}{s:>10.4f}{s / wall:>9.2%}{h / h_wall:>14.2%}"
              f"  {notes[layer]}")
    other = layers["metrics"]["other_s"]
    h_other = heldout["metrics"]["other_s"]
    print(f"  {'(other)':<16}{other:>10.4f}{other / wall:>9.2%}"
          f"{h_other / h_wall:>14.2%}")


def write_spans(passes, stem: str) -> str:
    """Dump the traced passes' spans, one JSON object per line."""
    path = os.path.join(WORK, "spans", f"{stem}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, p in enumerate(passes):
            for name, start, end, parent, job in p.spans:
                fh.write(json.dumps({"pass": i, "name": name,
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # The default user path: no engine or store overrides from outside.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")   # kernel build cache
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    import_s = time.perf_counter() - t0
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) != \
            os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from repro.harness.runner import resolve_engine
    from repro.uarch import native
    native.get_lib()                 # one-time kernel compile, untimed
    from layers import LAYERS, PER_LAYER, PROBES, median_layers, pass_layers
    from tracing import Recorder

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rec = Recorder()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)

        rec.install(PROBES)
        untraced = timed_passes(workload, state, rec, seconds=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            / 1024
        reference = untraced[0].output
        attempted, failures = account(untraced, reference, "repeat")

        traced = layer_stats = heldout_stats = None
        if args.trace:
            rec.install(LAYERS)
            traced = timed_passes(workload, state, rec,
                                  passes=len(untraced))
            layer_stats = median_layers(
                [pass_layers(p.spans, p.counts, p.wall) for p in traced])
            layer_stats["metrics"]["trace.overhead_pct"] = 100.0 * (
                statistics.median(p.wall for p in traced)
                / statistics.median(p.wall for p in untraced) - 1.0)
            h_state = workload.setup(args.seed + HELDOUT, workdir)
            (h_pass,) = timed_passes(workload, h_state, rec, passes=1)
            heldout_stats = pass_layers(h_pass.spans, h_pass.counts,
                                        h_pass.wall)
            for passes, ref in ((traced, reference), ([h_pass], None)):
                n, f = account(passes, ref, "traced")
                attempted += n
                failures += f

        rec.reset()
        check_what, check_ok = workload.check(state, reference)
        attempted += 1
        failures += [("job", j) for j in sorted(rec.failed_jobs)]
        if not check_ok:
            failures.append(("check", check_what))
    finally:
        rec.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [ns * 1e-6 for p in untraced for ns in p.job_ns()]
    walls = [p.wall for p in untraced]
    e2e = {
        "wall_s": statistics.median(walls),
        "sim_instr_per_s": sum(p.output.instructions for p in untraced)
        / sum(walls),
        "job_p50_ms": statistics.median(jobs),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": 1.0 - len(failures) / attempted,
    }

    engine = workload.engine or "default"
    print(f"== {workload.name} seed={args.seed} trace={args.trace} ==")
    print("inputs " + json.dumps(dict(workload.inputs(state),
                                      seed=args.seed), sort_keys=True))
    print(f"engine: requested {engine}, resolves to "
          f"{resolve_engine(workload.engine)}; native kernel "
          f"{'available' if native.available() else 'UNAVAILABLE'}")
    print(f"end-to-end (untraced, {len(untraced)} passes, "
          f"{len(jobs)} jobs):")
    for name, value in e2e.items():
        print(f"  {name:<18}{_fmt(value):>14} {END_TO_END[name][0]}")
    print(f"  (setup_s = imports {import_s:.3f} s + median of "
          f"{SETUP_REPS} set-ups {[round(s, 3) for s in setups]})")
    high = _high_percentile(jobs)
    if high is not None:
        print(f"  job p{high[0]} {high[1]:.3f} ms over {len(jobs)} jobs")
    print(f"  error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} jobs failed)")
    print(f"output check: {check_what} on engine "
          f"{workload.check_engine or 'default'} vs the timed run: "
          f"{'equal' if check_ok else 'DIFFERENT'}")
    for what, detail in failures:
        print(f"  FAILED {what}: {detail}")

    if args.trace:
        m = layer_stats["metrics"]
        print_layer_table(layer_stats, heldout_stats, m["trace.wall_s"],
                          args.seed + HELDOUT)
        print("per-layer metrics (median of traced passes):")
        for name, (unit, _, moves, on) in PER_LAYER.items():
            print(f"  {name:<30}{_fmt(m[name]):>14} {unit:<6}"
                  f" moves {moves} on {on}")
        dump = write_spans(traced, f"{workload.name}-seed{args.seed}")
        print(f"spans written to {os.path.relpath(dump, ROOT)}")
        metrics = {name: {"value": m[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name][0]}
                   for name in END_TO_END}

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
