"""Per-structure and per-op-kind steady-state cost microbenchmarks.

Not a paper figure — engine-level cost accounting.  Two layers:

* **Structure probes** — tight loops over one microarchitectural
  structure at a time (cache, TLB hierarchy, branch unit, prefetchers),
  split into hit-only and mixed-miss regimes so the steady-state cost of
  the fast path and the eviction/walk path are tracked separately.
* **Engine CPI** — single-op-kind synthetic traces (blocks, hitting
  loads, missing loads, branches) run through the Python engine
  (``batched``) and the vector engine, yielding a simulator-CPI (ns per
  simulated instruction) per op kind per engine and the vector-vs-batched
  speedup.

Timings are best-of-``_ROUNDS`` ns/op; results land in the ``micro``
section of ``BENCH_throughput.json``.  CI gates only on the ``*_speedup``
ratios (see ``compare_throughput.py --gate-suffix``): both sides of a
ratio are measured in the same process on the same box, so machine speed
cancels out, while raw ns/op values are report-only.
"""

from __future__ import annotations

import random
import time

from bench_simulator_throughput import _merge_json

from repro.harness.report import format_table
from repro.kernel.vm import VirtualMemory
from repro.trace import OP_BLOCK, OP_BRANCH, OP_LOAD, TraceBufferStream
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import Cache
from repro.uarch.pipeline import Core
from repro.uarch.prefetch import NextLinePrefetcher, StreamPrefetcher
from repro.uarch.tlb import Tlb, TlbHierarchy

_ROUNDS = 5


def _ns_per_op(fn, n_ops: int, rounds: int = _ROUNDS) -> float:
    """Best-of-N wall time of ``fn()`` (which performs ``n_ops`` ops)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - t0)
    return best / n_ops


# ---------------------------------------------------------------------------
# Structure probes.

def _probe_cache_hits() -> tuple[float, int]:
    cache = Cache("l1d", size_bytes=48 * 1024, ways=12)
    lines = [i * 64 for i in range(256)]         # fits: 768 lines capacity
    for addr in lines:
        cache.access(addr)
    n = 50_000
    idx = [lines[i % 256] for i in range(n)]

    def run():
        access = cache.access
        for addr in idx:
            access(addr)
    return _ns_per_op(run, n), n


def _probe_cache_miss_mix() -> tuple[float, int]:
    cache = Cache("l1d", size_bytes=48 * 1024, ways=12)
    n = 50_000
    rng = random.Random(0)
    # ~8x the capacity: a mix of hits, misses and evictions/writebacks.
    addrs = [rng.randrange(6144) * 64 for _ in range(n)]

    def run():
        access = cache.access
        fill = cache.fill
        for addr in addrs:
            if not access(addr, is_write=addr & 64 != 0):
                fill(addr, dirty=addr & 64 != 0)
    return _ns_per_op(run, n), n


def _probe_tlb() -> tuple[float, float, int]:
    n = 50_000
    hier = TlbHierarchy(Tlb("dtlb", entries=64, ways=4),
                        stlb=Tlb("stlb", entries=1536, ways=12))
    hot = [i << 12 for i in range(32)]
    for a in hot:
        hier.access(a)

    def run_hit():
        access = hier.access
        for i in range(n):
            access(hot[i % 32])
    hit_ns = _ns_per_op(run_hit, n)

    rng = random.Random(1)
    cold = [rng.randrange(1 << 20) << 12 for _ in range(n)]

    def run_walk():
        access = hier.access
        for a in cold:
            access(a)
    return hit_ns, _ns_per_op(run_walk, n), n


def _probe_branch() -> tuple[float, int]:
    n = 50_000
    bu = BranchUnit()
    rng = random.Random(2)
    pcs = [0x400000 + rng.randrange(512) * 4 for _ in range(n)]
    tgts = [pc + (64 if pc & 8 else -64) for pc in pcs]
    takens = [rng.random() < 0.6 for _ in range(n)]

    def run():
        resolve = bu.resolve
        for i in range(n):
            resolve(pcs[i], takens[i], tgts[i])
    return _ns_per_op(run, n), n


def _probe_prefetchers() -> tuple[float, float, int]:
    n = 50_000
    l1 = Cache("l1i", size_bytes=32 * 1024, ways=8)
    nlp = NextLinePrefetcher(l1)
    seq = [(i % 4096) * 64 for i in range(n)]

    def run_nlp():
        observe = nlp.observe
        for a in seq:
            observe(a)
    nlp_ns = _ns_per_op(run_nlp, n)

    l2 = Cache("l2", size_bytes=1 << 20, ways=16)
    spf = StreamPrefetcher(l2, degree=2)
    strided = [(i * 64) % (1 << 22) for i in range(n)]

    def run_spf():
        observe = spf.observe
        for a in strided:
            observe(a)
    return nlp_ns, _ns_per_op(run_spf, n), n


def test_micro_structure_costs(machine_i9, emit):
    cache_hit, n = _probe_cache_hits()
    cache_mix, _ = _probe_cache_miss_mix()
    tlb_hit, tlb_walk, _ = _probe_tlb()
    branch, _ = _probe_branch()
    nlp, spf, _ = _probe_prefetchers()
    probes = {
        "cache_hit_ns_per_op": cache_hit,
        "cache_miss_mix_ns_per_op": cache_mix,
        "tlb_hit_ns_per_op": tlb_hit,
        "tlb_walk_ns_per_op": tlb_walk,
        "branch_resolve_ns_per_op": branch,
        "nlp_observe_ns_per_op": nlp,
        "spf_observe_ns_per_op": spf,
    }
    rows = [[k[:-10], f"{v:8.1f}"] for k, v in probes.items()]
    _merge_json("micro", {"structures": {k: round(v, 2)
                                         for k, v in probes.items()},
                          "ops_per_probe": n},
                merge_section=True)
    emit("micro_structures",
         f"Per-structure steady-state cost (best of {_ROUNDS}, "
         f"{n:,} ops each):\n"
         + format_table(["probe", "ns/op"], rows))
    # Sanity floor, not a perf gate: every probe must have really run.
    assert all(v > 0 for v in probes.values())


# ---------------------------------------------------------------------------
# Engine CPI per op kind.

_N_OPS = 120_000


def _kind_ops(kind: str):
    rng = random.Random(3)
    if kind == "blocks":
        return [(OP_BLOCK, 0x400000 + (i % 512) * 64, 8, 48, False)
                for i in range(_N_OPS // 8)]
    if kind == "loads_hit":
        return [(OP_LOAD, 0x20000000 + (i % 128) * 64)
                for i in range(_N_OPS)]
    if kind == "loads_miss":
        return [(OP_LOAD, 0x20000000 + rng.randrange(1 << 26))
                for i in range(_N_OPS)]
    if kind == "branches":
        return [(OP_BRANCH, 0x400000 + (i % 512) * 4,
                 0x400000 + ((i * 7) % 512) * 4, i % 3 != 0)
                for i in range(_N_OPS)]
    raise KeyError(kind)


_KINDS = ("blocks", "loads_hit", "loads_miss", "branches")


def test_micro_engine_cpi(machine_i9, emit):
    from repro.uarch import native

    payload = {}
    rows = []
    for kind in _KINDS:
        ops = _kind_ops(kind)
        # Shared prebuilt buffers: both engines measure consumption
        # (for vector: export + kernel + writeback), not buffering.
        stream0 = TraceBufferStream(ops=iter(ops))
        bufs = []
        while True:
            buf = stream0.buffer()
            if buf is None:
                break
            bufs.append(buf)
            stream0.pos = len(buf.kinds)

        timing = {}
        state = {}
        for engine in ("batched", "vector"):
            best = float("inf")
            for _ in range(_ROUNDS):
                core = Core(machine_i9, VirtualMemory())
                t0 = time.perf_counter_ns()
                n = core.consume_stream(
                    TraceBufferStream(buffers=iter(bufs)), engine=engine)
                best = min(best, time.perf_counter_ns() - t0)
            timing[engine] = best / n
            state[engine] = (core.counts.instructions, core._ideal_cycles,
                             sum(core.stalls.values()))
        # Identity first, speed second.
        assert state["batched"] == state["vector"], kind
        speedup = timing["batched"] / timing["vector"]
        rows.append([kind, f"{timing['batched']:8.1f}",
                     f"{timing['vector']:8.1f}", f"{speedup:.2f}x"])
        payload[kind] = {
            "batched_ns_per_instr": round(timing["batched"], 2),
            "vector_ns_per_instr": round(timing["vector"], 2),
            "vector_speedup": round(speedup, 3),
        }
    _merge_json("micro", {"ops": payload, "rounds": _ROUNDS},
                merge_section=True)
    emit("micro_engine_cpi",
         f"Simulator ns per instruction by op kind (best of {_ROUNDS}, "
         f"{_N_OPS:,} instructions):\n"
         + format_table(["op kind", "batched ns/i", "vector ns/i",
                         "speedup"], rows))
    if native.available():
        # The native kernel must win on every op kind; the bound is far
        # below steady state (~40-100x) to tolerate noisy CI boxes.
        assert min(p["vector_speedup"] for p in payload.values()) > 2.0
