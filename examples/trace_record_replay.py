#!/usr/bin/env python
"""Trace record / replay: decouple workload generation from simulation.

Records a benchmark's op stream to a compact binary trace, inspects it,
then replays it through two different machine configurations — the
standard trace-driven-simulation workflow, useful when sweeping
microarchitecture parameters against a fixed instruction stream.

Usage::

    python examples/trace_record_replay.py [--benchmark System.Linq]
"""

import argparse
import tempfile
from pathlib import Path

from repro.harness.report import format_table
from repro.kernel.vm import VirtualMemory
from repro.perf.counters import collect_counters
from repro.harness.runner import resolve_engine
from repro.perf.trace_io import record_program, replay_buffers, trace_info
from repro.trace import TraceBufferStream
from repro.uarch.machine import CacheConfig, get_machine, scaled
from repro.uarch.pipeline import Core
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="System.Linq")
    parser.add_argument("--instructions", type=int, default=120_000)
    parser.add_argument("--out", help="trace path (default: temp file)")
    args = parser.parse_args()

    spec = next((s for s in dotnet_category_specs() + aspnet_specs()
                 if s.name == args.benchmark), None)
    if spec is None:
        raise SystemExit(f"unknown benchmark {args.benchmark!r}")

    path = Path(args.out) if args.out else \
        Path(tempfile.mkstemp(suffix=".trace")[1])
    program = build_program(spec, seed=7)
    n = record_program(program, path, args.instructions)
    info = trace_info(path)
    print(f"recorded {n} instructions to {path} "
          f"({info['bytes'] / 1024:.0f} KiB)")
    print(format_table(["records", "count"],
                       [[k, v] for k, v in info.items()]))

    # Replay the same trace against two cache configurations.
    stock = get_machine("i9")
    variants = {
        "i9 (stock)": stock,
        "i9, half L2": scaled(stock, l2=CacheConfig(
            stock.l2.size_bytes // 2, stock.l2.ways,
            latency=stock.l2.latency)),
    }
    rows = []
    for label, machine in variants.items():
        vm = VirtualMemory()
        core = Core(machine, vm)
        core.set_hints(spec.hints())
        core.consume_stream(TraceBufferStream(buffers=replay_buffers(path)),
                            engine=resolve_engine(None))
        c = collect_counters(core)
        rows.append([label, c.cpi, c.mpki(c.l1d_misses),
                     c.mpki(c.l2_misses), c.mpki(c.llc_misses)])
    print("\nsame trace, different machines:")
    print(format_table(["machine", "cpi", "l1d", "l2", "llc"], rows))
    if not args.out:
        path.unlink()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
