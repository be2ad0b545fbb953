"""Native consume backend (``engine="vector"``): build + state marshalling.

The vector engine runs the per-op simulation loop in a small C kernel
(``_kernel.c``) compiled on first use with the system compiler and loaded
via ctypes.  A :class:`CoreImage` holds a :class:`~repro.uarch.pipeline.Core`
as flat numpy arrays the kernel mutates in place, in two tiers:

* **Scalars and stats** (counters, stall books, cycle-hook threshold,
  replacement RNG states, every ``.stats`` object, the shared LLC's
  epoch counters): Python is authoritative between kernel calls.  Every
  entry reloads them from the live objects and every exit (end of a
  consume call, each HOOK exit, each multicore quantum) publishes them
  back, so ``reset_stats``, ``set_hints``, ``set_cycle_hook`` and hooks
  that mutate counters just work.
* **Structures** (cache/TLB sets and membership, gshare table, loop
  predictor, BTB, stream-prefetcher streams, DRAM open rows): exported
  once when the image *attaches* to its core, then resident in the
  arrays across consume calls (warmup and measure, multicore runs,
  hook re-entries).  While attached, the Python containers are ``None``
  so a reader that skipped the sync fails loudly instead of reading
  stale state.  ``Core.sync_native()`` (``CoreImage.writeback`` with
  ``sync=True``) imports them back
  with the exact Python object state (including dict insertion order
  where it is semantically observable) and detaches the image.

The VM's demand-faulted pages are drained into Python after every
kernel call, and a premap/unmap between calls is picked up at entry.

Two stateful-callback cases run natively via resume protocols rather
than falling back:

* **Cycle hooks** (the sampler) use a trampoline: the kernel tracks
  ``next_hook_cycles`` and exits with a ``HOOK`` status at the block op
  that crossed the threshold; the consume loop publishes scalars and
  stats, runs the Python hook against the live ``Core``, and re-enters
  the kernel with the same image.
* **The shared LLC** (multicore) is one set of arrays aliased into
  every attached image of the cores sharing it: slice-hashed epoch
  counters and the contention-folded L3 latency live in C, while
  Python's M/M/1 ``update_contention`` runs unchanged between epoch
  quanta.  Syncing any of those cores syncs them all.

When the kernel is unavailable (no compiler, ``REPRO_NATIVE=0``) or the
core uses a configuration the kernel does not model (subclassed shared
LLC, JIT metadata reactions, non-stock geometry), callers fall back to
the batched engine, which is itself bit-identical to legacy.  The
fallback is loud: :func:`note_delegation` counts it and warns once per
process per reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import time
import warnings
from array import array
from operator import attrgetter

import numpy as np

from repro import obs
from repro.kernel.vm import VirtualMemory
from repro.obs.metrics import labeled
from repro.uarch.branch import BranchUnit, Btb, GsharePredictor, LoopPredictor
from repro.uarch.cache import Cache
from repro.uarch.memory import DramModel
from repro.uarch.prefetch import NextLinePrefetcher, StreamPrefetcher
from repro.uarch.tlb import Tlb

# ---------------------------------------------------------------------------
# Layout constants: MUST mirror the enums in _kernel.c exactly.

_NCACHE = 5          # l1i, l1d, l2, llc, dsb
_NTLB = 3            # itlb.l1, dtlb.l1, stlb

P_KINDS, P_A0, P_A1, P_A2, P_EVIDX, P_EVCYC = 0, 1, 2, 3, 4, 5
P_SI, P_SD, P_PD, P_PI = 6, 7, 8, 9
P_CACHE0 = 10                      # 5 x (tags, flags, cnt, stats)
P_TLB0 = P_CACHE0 + 4 * _NCACHE    # 3 x (vpns, cnt, stats)
P_GS_VAL = P_TLB0 + 3 * _NTLB
P_GS_PRES = P_GS_VAL + 1
P_LP_SLAB, P_LP_ORDER, P_LP_HKEY, P_LP_HVAL = (P_GS_PRES + 1,
                                               P_GS_PRES + 2,
                                               P_GS_PRES + 3,
                                               P_GS_PRES + 4)
P_BTB_KEY, P_BTB_TGT, P_BTB_CNT = P_LP_HVAL + 1, P_LP_HVAL + 2, P_LP_HVAL + 3
P_SPF_PAGE, P_SPF_LINE = P_BTB_CNT + 1, P_BTB_CNT + 2
P_DRAM_ROWS, P_DRAM_ST = P_SPF_LINE + 1, P_SPF_LINE + 2
P_VM_HASH, P_VM_LOG = P_DRAM_ST + 1, P_DRAM_ST + 2
P_VM_RANGES = P_VM_LOG + 1         # [start_0, end_0, start_1, end_1, ...]
P_LLC_EPOCH = P_VM_RANGES + 1      # [epoch_total, slice_0..slice_{n-1}]
P_N = P_LLC_EPOCH + 1

(SI_INSTR, SI_KINSTR, SI_BRANCHES, SI_LOADS, SI_STORES,
 SI_DTLB_LWALK, SI_DTLB_SWALK, SI_ITLB_WALK,
 SI_LAST_CODE_LINE, SI_LAST_CODE_PAGE, SI_LAST_DATA_VPN, SI_KMODE,
 SI_GS_HIST,
 SI_BU_BR, SI_BU_MIS, SI_BU_BTBM, SI_BU_TK,
 SI_L1IPF_ISS, SI_L1IPF_PB, SI_L1DPF_ISS, SI_L1DPF_PB,
 SI_L2PF_ISS, SI_L2PF_PB,
 SI_L1IPF_LAST, SI_L1DPF_LAST,
 SI_VM_MIN, SI_VM_MAJ, SI_VM_MAPPED, SI_VM_SEQ, SI_VM_CNT, SI_VM_LOGN,
 SI_LP_CNT, SI_LP_TOMB, SI_SPF_CNT,
 SI_RAND0) = range(35)
SI_EV_N = SI_RAND0 + _NCACHE
SI_NEXT_POS = SI_EV_N + 1
SI_OPS_RETIRED = SI_NEXT_POS + 1   # live progress counter (kernel-owned)
SI_OPK0 = SI_OPS_RETIRED + 1       # 5 per-op-kind retirement counters
SI_N = SI_OPK0 + 5

SD_IDEAL, SD_UOPS, SD_ST0 = 0, 1, 2
SD_NEXT_HOOK = SD_ST0 + 17         # +inf when no cycle hook is armed
SD_N = SD_NEXT_HOOK + 1

(PD_UOP_FACTOR, PD_INV_WIDTH, PD_PORTS_COEFF, PD_DIV_FRAC, PD_DIV_PEN,
 PD_MICRO_FRAC, PD_MS_PEN, PD_MITE_COEFF,
 PD_ITLB_WALK, PD_DTLB_WALK,
 PD_ICACHE_L2, PD_ICACHE_L3, PD_ICACHE_DRAM,
 PD_L1_HIT, PD_BE_L2, PD_BE_L3, PD_BE_DRAM,
 PD_STORE_PEN, PD_MIS_PEN, PD_RESTEER_PEN, PD_TAKEN_BUBBLE,
 PD_PF_DRAM, PD_MINOR_FAULT, PD_MAJOR_FAULT, PD_PORTS_ON,
 PD_WIDTH, PD_HOOK_INTERVAL) = range(27)
PD_N = 27

(PI_HIST_BITS, PI_HIST_MASK, PI_GS_MASK,
 PI_BTB_MASK, PI_BTB_WAYS,
 PI_LP_MAX, PI_LP_HMASK, PI_VM_HMASK, PI_MAJOR_PERIOD,
 PI_DRAM_BANKS, PI_DRAM_ROWSZ, PI_SPF_MAX, PI_SPF_DEG,
 PI_LLC_SLICES, PI_VM_NRANGES) = range(15)
PI_CACHE0 = 15                     # 5 x (mask, ways, lru, evict_head)
PI_TLB0 = PI_CACHE0 + 4 * _NCACHE  # 3 x (mask, ways)
PI_N = PI_TLB0 + 2 * _NTLB

_C_LLC = 3                         # LLC's index in the caches tuple

(_STATUS_DONE, _STATUS_LIMIT, _STATUS_VM_FULL,
 _STATUS_HOOK, _STATUS_BAD) = 0, 1, 2, 3, -1

#: Kernel-entry telemetry for the fallback/guard tests: proves a config
#: really took the native path (and how) without instrumenting the hot
#: loop.  Monotonic per process; tests diff around a call.  The
#: ``ops_*`` keys are retirement counters the kernel itself increments
#: (one aligned int64 add per op) and every exit drains here, so the
#: totals survive image teardown; ``structure_exports`` counts image
#: attaches (structures exported) and ``structure_imports`` the images a
#: sync imported back; ``vm_hash_builds`` counts the page-table
#: exports that missed the page-table cache and rebuilt it from the vm;
#: ``delegated_<reason>`` counts native requests that ran in Python
#: instead (see :func:`note_delegation`).
stats = {"consume_calls": 0, "kernel_calls": 0, "hook_exits": 0,
         "sessions": 0, "ops_retired": 0, "vm_hash_builds": 0,
         "structure_exports": 0, "structure_imports": 0,
         "ops_block": 0, "ops_branch": 0, "ops_load": 0,
         "ops_store": 0, "ops_event": 0,
         "delegated_unavailable": 0, "delegated_unsupported": 0,
         "delegated_generation": 0}

#: Kernel dispatch order: index ``k`` maps to ``stats["ops_<name>"]``
#: and the ``SI_OPK0 + k`` retirement slot.  Must match ``_kernel.c``.
OP_KIND_NAMES = ("block", "branch", "load", "store", "event")

# Images inside a kernel entry (between the reload and the publish).
# ``ops_retired()`` folds their live slots into the drained totals; every
# exit drains the slots and unregisters, so an attached image between
# calls is referenced only by its core and dies with it.
_live_lock = threading.Lock()
_live_images: dict[int, "CoreImage"] = {}


def ops_retired() -> int:
    """Total trace ops the kernel has retired in this process.

    Safe (and cheap) to poll from another thread mid-run: the ctypes
    call into the kernel releases the GIL, and the kernel's increments
    are aligned int64 stores, so the live-slot reads are tear-free on
    every supported target.  Finished images have drained into
    ``stats``; live ones are read straight from their kernel-owned
    scalar slots, so the sum is monotonic and never double-counts.
    """
    with _live_lock:
        live = sum(int(img.si[SI_OPS_RETIRED])
                   for img in _live_images.values())
    return stats["ops_retired"] + live

# ---------------------------------------------------------------------------
# Kernel build & load.

_HERE = os.path.dirname(os.path.abspath(__file__))
#: One library, two translation units: the consume kernel and the trace
#: walker of repro.codegen (``repro/_codegen.c``).
_SRC_PATHS = (os.path.join(_HERE, "_kernel.c"),
              os.path.join(os.path.dirname(_HERE), "_codegen.c"))
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lib = None
_lib_resolved = False
_lib_lock = threading.Lock()


def _compiler_identity(cc: str) -> bytes | None:
    """First line of ``cc --version``, or ``None`` if ``cc`` can't run.

    Cache-key ingredient: a toolchain upgrade (same source, same flags,
    new compiler) must recompile the kernel instead of loading the
    previous compiler's ``.so``.
    """
    try:
        res = subprocess.run([cc, "--version"], capture_output=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    first = res.stdout.splitlines()[0] if res.stdout else b"unknown"
    return cc.encode(errors="replace") + b"\0" + first


def _compile_lib():
    srcs = []
    for path in _SRC_PATHS:
        with open(path, "rb") as f:
            srcs.append(f.read())
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-posix
        uid = 0
    cache_dir = os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    flags = " ".join(_CFLAGS).encode()
    so_path = None
    for cc in [os.environ.get("CC"), "cc", "gcc", "clang"]:
        if not cc:
            continue
        ident = _compiler_identity(cc)
        if ident is None:
            continue
        # Content-addressed by everything that shapes the binary:
        # sources, CFLAGS, and the compiler's identity.
        tag = hashlib.sha256(b"\0".join((*srcs, flags, ident))) \
            .hexdigest()[:16]
        candidate = os.path.join(cache_dir, f"kernel-{tag}.so")
        if os.path.exists(candidate):
            so_path = candidate
            break
        tmp = f"{candidate}.tmp.{os.getpid()}"
        try:
            res = subprocess.run([cc, *_CFLAGS, "-o", tmp, *_SRC_PATHS,
                                  "-lm"], capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            continue
        if res.returncode == 0 and os.path.exists(tmp):
            os.replace(tmp, candidate)   # atomic: racing builds converge
            so_path = candidate
            break
        if os.path.exists(tmp):
            os.unlink(tmp)
    if so_path is None:
        return None
    lib = ctypes.CDLL(so_path)
    ll = ctypes.c_longlong
    lib.repro_sim_run.restype = ll
    lib.repro_sim_run.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                                  ll, ll, ll]
    lib.repro_vm_build.restype = None
    lib.repro_vm_build.argtypes = [ctypes.c_void_p, ll, ctypes.c_void_p, ll]
    lib.repro_vm_rehash.restype = None
    lib.repro_vm_rehash.argtypes = [ctypes.c_void_p, ll, ctypes.c_void_p, ll]
    vp = ctypes.c_void_p
    lib.repro_walk.restype = ll
    lib.repro_walk.argtypes = [vp, vp, vp, vp, vp, ll, ll, ll, vp, ll, vp]
    return lib


def get_lib():
    """The loaded kernel library, or ``None`` if unavailable/disabled."""
    global _lib, _lib_resolved
    if _lib_resolved:
        return _lib
    with _lib_lock:
        if _lib_resolved:
            return _lib
        lib = None
        if os.environ.get("REPRO_NATIVE", "1") != "0":
            try:
                lib = _compile_lib()
            except Exception:
                lib = None
        _lib = lib
        _lib_resolved = True
    return _lib


def available() -> bool:
    return get_lib() is not None


# ---------------------------------------------------------------------------
# Loud fallback.

class NativeFallbackWarning(RuntimeWarning):
    """A native request (vector consume, trace walk) ran in Python."""


_ENGINE_FALLBACK = ("; running the bit-identical batched Python engine "
                    "instead (set REPRO_ENGINE=batched to choose it "
                    "explicitly)")
_FALLBACK_MESSAGES = {
    "unavailable": "engine='vector' requested but the native kernel is "
                   "unavailable (no C compiler found, or REPRO_NATIVE=0)"
                   + _ENGINE_FALLBACK,
    "unsupported": "engine='vector' requested but the core's "
                   "configuration is outside what the native kernel "
                   "models (see repro.uarch.native.nativizable)"
                   + _ENGINE_FALLBACK,
    "generation": "the native trace walker is unavailable (no C compiler "
                  "found, or REPRO_NATIVE=0); generating traces with the "
                  "bit-identical Python walker instead, several times "
                  "slower",
}
_warned: set[str] = set()
_warned_lock = threading.Lock()


def delegation_reason(core) -> str | None:
    """Why ``core`` cannot run on the kernel, or ``None`` when it can.

    ``"unavailable"``: no kernel in this process.  ``"unsupported"``:
    :func:`nativizable` rejects the configuration.
    """
    if not available():
        return "unavailable"
    if not nativizable(core):
        return "unsupported"
    return None


def note_delegation(reason: str) -> None:
    """Record one native request that runs in Python instead.

    ``"unavailable"``/``"unsupported"``: a vector consume call ran on
    the batched engine (see :func:`delegation_reason`).
    ``"generation"``: a code-region walk ran on the Python reference
    walker because the library is not loaded.  Counts it in
    ``stats["delegated_<reason>"]`` and the
    ``native.delegated{reason=...}`` obs counter, and warns once per
    process per reason.
    """
    stats["delegated_" + reason] += 1
    if obs.enabled():
        obs.add(labeled("native.delegated", reason=reason))
    with _warned_lock:
        first = reason not in _warned
        _warned.add(reason)
    if first:
        warnings.warn(_FALLBACK_MESSAGES[reason], NativeFallbackWarning,
                      stacklevel=3)


# ---------------------------------------------------------------------------
# Applicability guard.

def nativizable(core) -> bool:
    """True when ``core``'s configuration is exactly what the kernel models.

    The kernel covers stock single-core configs plus the stock
    :class:`~repro.uarch.multicore.SharedLlc` (slice counting in C,
    contention math in Python between epoch quanta) and armed cycle
    hooks (via the HOOK trampoline).  Anything else (subclassed shared
    LLC, JIT-metadata reactions, non-4K pages, non-64B lines,
    subclassed/custom structures or fetch callbacks) must take the
    batched engine, which handles the full model.
    """
    from repro.uarch.pipeline import Core
    if type(core) is not Core:
        return False
    m = core.machine
    if core.shared_llc is not None:
        from repro.uarch.multicore import SharedLlc
        if type(core.shared_llc) is not SharedLlc:
            return False
    if m.jit_code_prefetch or m.jit_state_transform:
        return False
    for c in (core.l1i, core.l1d, core.l2, core.llc, core.dsb):
        if type(c) is not Cache or c._line_shift != 6:
            return False
    stlb = core.itlb.stlb
    if stlb is None or stlb is not core.dtlb.stlb:
        return False
    for t in (core.itlb.l1, core.dtlb.l1, stlb):
        if type(t) is not Tlb or t.page_shift != 12:
            return False
    pf_i, pf_d = core.l1i_prefetcher, core.l1d_prefetcher
    if type(pf_i) is not NextLinePrefetcher \
            or type(pf_d) is not NextLinePrefetcher:
        return False
    if pf_i.target is not core.l1i or pf_d.target is not core.l1d:
        return False
    if pf_i.fetch is not None:
        return False
    fd = pf_d.fetch
    if getattr(fd, "__self__", None) is not core or \
            getattr(fd, "__func__", None) is not Core._l1_prefetch_backing:
        return False
    if pf_i.page_size != 4096 or pf_d.page_size != 4096 \
            or pf_i.line_size != 64 or pf_d.line_size != 64:
        return False
    pf2 = core.l2_prefetcher
    if type(pf2) is not StreamPrefetcher or pf2.target is not core.l2:
        return False
    f2 = pf2.fetch
    if getattr(f2, "__self__", None) is not core or \
            getattr(f2, "__func__", None) is not Core._prefetch_backing:
        return False
    if pf2.page_size != 4096 or pf2.line_size != 64:
        return False
    bu = core.branch_unit
    if type(bu) is not BranchUnit or type(bu.predictor) is not \
            GsharePredictor or type(bu.btb) is not Btb \
            or type(bu.loop_predictor) is not LoopPredictor:
        return False
    if type(core.dram) is not DramModel or core.dram.line_size != 64:
        return False
    if type(core.vm) is not VirtualMemory or core.vm._page_shift != 12:
        return False
    return True


# ---------------------------------------------------------------------------
# Helpers.

_U64 = (1 << 64) - 1


def _mix(v: int) -> int:
    h = (v * 0x9E3779B97F4A7C15) & _U64
    return h ^ (h >> 29)


def _next_pow2(n: int) -> int:
    return 1 << max(3, (max(n, 1) - 1).bit_length())


def _export_assoc(sets, n_sets, ways, tags, flags):
    """Scatter per-set entry lists into dense (tags, flags?) arrays."""
    cnts = [len(b) for b in sets]
    cnt = np.asarray(cnts, dtype=np.int32)
    total = int(cnt.sum())
    if total:
        cnt64 = cnt.astype(np.int64)
        starts = np.cumsum(cnt64) - cnt64
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt64)
        pos = np.repeat(np.arange(n_sets, dtype=np.int64) * ways,
                        cnt64) + within
        if flags is not None:
            tags[pos] = [e[0] for b in sets for e in b]
            flags[pos] = [(1 if e[1] else 0) | (2 if e[2] else 0)
                          | (4 if e[3] else 0) for b in sets for e in b]
        else:
            tags[pos] = [v for b in sets for v in b]
    return cnt


_CACHE_STATS = ("accesses", "misses", "demand_accesses", "demand_misses",
                "prefetch_fills", "useful_prefetches", "useless_prefetches",
                "evictions", "writebacks")
_TLB_STATS = ("accesses", "misses", "walks")
_DRAM_STATS = ("reads", "writes", "row_hits", "row_misses", "bytes_read",
               "bytes_written")
_get_cache_stats = attrgetter(*_CACHE_STATS)
_get_tlb_stats = attrgetter(*_TLB_STATS)
_get_dram_stats = attrgetter(*_DRAM_STATS)


def _set_fields(obj, names, values) -> None:
    for name, value in zip(names, values):
        setattr(obj, name, value)


def _export_cache(cache):
    n = cache.n_sets * cache.ways
    tags = np.zeros(n, dtype=np.int64)
    flags = np.zeros(n, dtype=np.uint8)
    cnt = _export_assoc(cache._sets, cache.n_sets, cache.ways, tags, flags)
    return tags, flags, cnt, np.zeros(len(_CACHE_STATS), dtype=np.int64)


def _import_cache(cache, tags, flags, cnt) -> None:
    ways = cache.ways
    tl, fl = tags.tolist(), flags.tolist()
    sets = []
    lines = set()
    for si, n in enumerate(cnt.tolist()):
        base = si * ways
        bucket = []
        for k in range(base, base + n):
            t, f = tl[k], fl[k]
            bucket.append([t, bool(f & 1), bool(f & 2), bool(f & 4)])
            lines.add(t)
        sets.append(bucket)
    cache._sets = sets
    cache._lines = lines


def _export_tlb(tlb):
    n = tlb.n_sets * tlb.ways
    vpns = np.zeros(n, dtype=np.int64)
    cnt = _export_assoc(tlb._sets, tlb.n_sets, tlb.ways, vpns, None)
    return vpns, cnt, np.zeros(len(_TLB_STATS), dtype=np.int64)


def _import_tlb(tlb, vpns, cnt) -> None:
    ways = tlb.ways
    vl = vpns.tolist()
    sets = [vl[si * ways:si * ways + n]
            for si, n in enumerate(cnt.tolist())]
    resident = set()
    for bucket in sets:
        resident.update(bucket)
    tlb._sets = sets
    tlb._resident = resident


# ---------------------------------------------------------------------------
# Core state image.

class CoreImage:
    """Flat-array image of a Core's mutable state, shared with the kernel.

    Lifecycle (see the module docstring for the two tiers):

    * ``__init__`` *attaches*: it exports every structure once, loads
      the scalars and stats, sets ``core._native_image`` and empties the
      Python structure containers (``None``) so nothing reads them stale.
    * Each kernel entry (the first :meth:`run_buffer` after an exit)
      reloads scalars, stats and derived constants from Python and
      re-checks the VM's mapping key.
    * Each exit (:meth:`writeback`) publishes scalars and stats, drains
      the retirement counters and unregisters from ``_live_images``.
    * :meth:`writeback` with ``sync=True`` (``Core.sync_native``) also
      imports the structures back and detaches.

    Derived stall constants are evaluated with the *same expression
    shapes* the legacy per-op code uses, so the doubles the kernel
    accumulates are bit-identical.

    Cores sharing one :class:`~repro.uarch.multicore.SharedLlc` form a
    group (``SharedLlc._native_group``): the first image to attach owns
    the LLC arrays (tags/flags/cnt/stats + epoch counters), every later
    one aliases them, so the kernels see one coherent LLC no matter
    which core runs.  Only the owner imports the LLC structures, and a
    sync always covers the whole group.
    """

    def __init__(self, core) -> None:
        from repro.uarch.pipeline import ALL_BUCKETS
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        self.core = core
        self.buckets = ALL_BUCKETS
        self.si = np.zeros(SI_N, dtype=np.int64)
        self.sd = np.zeros(SD_N, dtype=np.float64)
        self.pd = np.zeros(PD_N, dtype=np.float64)
        self.pi = np.zeros(PI_N, dtype=np.int64)
        self.ptab = (ctypes.c_void_p * P_N)()
        self._keep = []            # arrays the pointer table references
        self._entered = False      # between an entry reload and an exit
        self._vm_key = None        # (len(_demand), _map_epoch) exported
        pi = self.pi
        sll = core.shared_llc
        group = sll._native_group if sll is not None else None
        owner = group[0] if group else None
        self._llc_owner = owner is None

        # -- caches -------------------------------------------------------
        self.caches = (core.l1i, core.l1d, core.l2, core.llc, core.dsb)
        self.cache_arrays = []
        for k, cache in enumerate(self.caches):
            if k == _C_LLC and owner is not None:
                arrays = owner.cache_arrays[k]
            else:
                arrays = _export_cache(cache)
            self.cache_arrays.append(arrays)
            for j, arr in enumerate(arrays):
                self._set_ptr(P_CACHE0 + 4 * k + j, arr)
            pi[PI_CACHE0 + 4 * k] = cache._index_mask
            pi[PI_CACHE0 + 4 * k + 1] = cache.ways

        # -- TLBs ---------------------------------------------------------
        self.tlbs = (core.itlb.l1, core.dtlb.l1, core.itlb.stlb)
        self.tlb_arrays = []
        for k, tlb in enumerate(self.tlbs):
            arrays = _export_tlb(tlb)
            self.tlb_arrays.append(arrays)
            for j, arr in enumerate(arrays):
                self._set_ptr(P_TLB0 + 3 * k + j, arr)
            pi[PI_TLB0 + 2 * k] = tlb._index_mask
            pi[PI_TLB0 + 2 * k + 1] = tlb.ways

        # -- branch unit ---------------------------------------------------
        bu = core.branch_unit
        gs = bu.predictor
        pi[PI_HIST_BITS] = gs.history_bits
        pi[PI_HIST_MASK] = ((1 << gs.history_bits) - 1
                            if gs.history_bits else 0)
        pi[PI_GS_MASK] = gs._mask
        self.gs_val = np.ones(gs._mask + 1, dtype=np.int8)
        self.gs_pres = np.zeros(gs._mask + 1, dtype=np.uint8)
        if gs._table:
            idx = np.fromiter(gs._table.keys(), dtype=np.int64,
                              count=len(gs._table))
            val = np.fromiter(gs._table.values(), dtype=np.int8,
                              count=len(gs._table))
            self.gs_val[idx] = val
            self.gs_pres[idx] = 1
        self._set_ptr(P_GS_VAL, self.gs_val)
        self._set_ptr(P_GS_PRES, self.gs_pres)

        lp = bu.loop_predictor
        lp_max = max(1, lp.max_entries)
        pi[PI_LP_MAX] = lp.max_entries
        hsize = _next_pow2(4 * lp_max)
        pi[PI_LP_HMASK] = hsize - 1
        self.lp_slab = np.zeros(lp_max * 4, dtype=np.int64)
        self.lp_order = np.zeros(lp_max, dtype=np.int32)
        self.lp_hkey = np.full(hsize, -1, dtype=np.int64)
        self.lp_hval = np.zeros(hsize, dtype=np.int32)
        self.si[SI_LP_CNT] = len(lp._table)
        for j, (pc, e) in enumerate(lp._table.items()):
            self.lp_slab[4 * j:4 * j + 4] = (pc, e[0], e[1], e[2])
            self.lp_order[j] = j
            hh = _mix(pc) & (hsize - 1)
            while self.lp_hkey[hh] != -1:
                hh = (hh + 1) & (hsize - 1)
            self.lp_hkey[hh] = pc
            self.lp_hval[hh] = j
        self._set_ptr(P_LP_SLAB, self.lp_slab)
        self._set_ptr(P_LP_ORDER, self.lp_order)
        self._set_ptr(P_LP_HKEY, self.lp_hkey)
        self._set_ptr(P_LP_HVAL, self.lp_hval)

        btb = bu.btb
        pi[PI_BTB_MASK] = btb._index_mask
        pi[PI_BTB_WAYS] = btb.ways
        nb = btb.n_sets * btb.ways
        self.btb_key = np.zeros(nb, dtype=np.int64)
        self.btb_tgt = np.zeros(nb, dtype=np.int64)
        self.btb_cnt = np.zeros(btb.n_sets, dtype=np.int32)
        for s_i, bucket in enumerate(btb._sets):
            base = s_i * btb.ways
            self.btb_cnt[s_i] = len(bucket)
            for j, e in enumerate(bucket):
                self.btb_key[base + j] = e[0]
                self.btb_tgt[base + j] = e[1]
        self._set_ptr(P_BTB_KEY, self.btb_key)
        self._set_ptr(P_BTB_TGT, self.btb_tgt)
        self._set_ptr(P_BTB_CNT, self.btb_cnt)

        # -- L2 stream prefetcher ----------------------------------------
        pf2 = core.l2_prefetcher
        pi[PI_SPF_MAX] = pf2.max_streams
        pi[PI_SPF_DEG] = pf2.degree
        spf_cap = max(1, pf2.max_streams)
        self.spf_page = np.zeros(spf_cap, dtype=np.int64)
        self.spf_line = np.zeros(spf_cap, dtype=np.int64)
        self.si[SI_SPF_CNT] = len(pf2._streams)
        for j, (page, line) in enumerate(pf2._streams.items()):
            self.spf_page[j] = page
            self.spf_line[j] = line
        self._set_ptr(P_SPF_PAGE, self.spf_page)
        self._set_ptr(P_SPF_LINE, self.spf_line)

        # -- DRAM ----------------------------------------------------------
        dram = core.dram
        pi[PI_DRAM_BANKS] = dram.n_banks
        pi[PI_DRAM_ROWSZ] = dram.row_size
        self.dram_rows = np.full(dram.n_banks, -1, dtype=np.int64)
        for bank, row in dram._open_rows.items():
            self.dram_rows[bank] = row
        self.dram_st = np.zeros(len(_DRAM_STATS), dtype=np.int64)
        self._set_ptr(P_DRAM_ROWS, self.dram_rows)
        self._set_ptr(P_DRAM_ST, self.dram_st)

        # -- shared-LLC epoch counters ------------------------------------
        # The kernel mirrors SharedLlc.access: bump the epoch total and
        # the slice-hashed bucket on every demand LLC lookup.  Like the
        # stats, they are reloaded at entry and published at exit.
        # Private LLC: a dummy slot with PI_LLC_SLICES = 0 disables
        # counting in C.
        if sll is None:
            self.llc_epoch = np.zeros(1, dtype=np.int64)
        elif owner is not None:
            self.llc_epoch = owner.llc_epoch
            pi[PI_LLC_SLICES] = sll.n_slices
        else:
            self.llc_epoch = np.zeros(1 + sll.n_slices, dtype=np.int64)
            pi[PI_LLC_SLICES] = sll.n_slices
        self._set_ptr(P_LLC_EPOCH, self.llc_epoch)

        self._set_ptr(P_SI, self.si)
        self._set_ptr(P_SD, self.sd)
        self._set_ptr(P_PD, self.pd)
        self._set_ptr(P_PI, self.pi)

        # -- attach ------------------------------------------------------
        self._enter()
        if sll is not None:
            if group is None:
                group = sll._native_group = []
            group.append(self)
        self.group = group
        core._native_image = self
        self._release_containers()
        stats["structure_exports"] += 1
        if _t0 is not None:
            obs.add("native.structure_exports", 1.0)
            obs.observe("native.export_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    # ------------------------------------------------------------------
    def _set_ptr(self, slot: int, arr) -> None:
        self.ptab[slot] = arr.ctypes.data
        self._keep.append(arr)

    def _release_containers(self) -> None:
        """Empty the Python structure containers the arrays now own."""
        core = self.core
        for k, cache in enumerate(self.caches):
            if k != _C_LLC or self._llc_owner:
                cache._sets = cache._lines = None
        for tlb in self.tlbs:
            tlb._sets = tlb._resident = None
        bu = core.branch_unit
        bu.predictor._table = None
        bu.loop_predictor._table = None
        bu.btb._sets = None
        core.l2_prefetcher._streams = None
        core.dram._open_rows = None

    def _import_structures(self) -> None:
        """Rebuild the Python structure containers from the arrays."""
        core = self.core
        for k, cache in enumerate(self.caches):
            if k != _C_LLC or self._llc_owner:
                _import_cache(cache, *self.cache_arrays[k][:3])
        for tlb, arrays in zip(self.tlbs, self.tlb_arrays):
            _import_tlb(tlb, *arrays[:2])
        sil = self.si.tolist()
        bu = core.branch_unit
        idx = np.nonzero(self.gs_pres)[0]
        bu.predictor._table = dict(zip(idx.tolist(),
                                       self.gs_val[idx].tolist()))
        slab = self.lp_slab.tolist()
        table = {}
        for j in self.lp_order[:sil[SI_LP_CNT]].tolist():
            table[slab[4 * j]] = slab[4 * j + 1:4 * j + 4]
        bu.loop_predictor._table = table
        btb = bu.btb
        kl, tl = self.btb_key.tolist(), self.btb_tgt.tolist()
        btb._sets = [[[kl[base + j], tl[base + j]] for j in range(n)]
                     for base, n in zip(range(0, len(kl), btb.ways),
                                        self.btb_cnt.tolist())]
        n_spf = sil[SI_SPF_CNT]
        core.l2_prefetcher._streams = dict(zip(
            self.spf_page[:n_spf].tolist(), self.spf_line[:n_spf].tolist()))
        core.dram._open_rows = {b: r for b, r in
                                enumerate(self.dram_rows.tolist())
                                if r != -1}

    # ------------------------------------------------------------------
    def _export_vm(self, key) -> None:
        """Point the kernel at the vm's current page table.

        The page table goes over as the premapped range list (flat
        [start, end) pairs the kernel binary-searches) plus an
        open-addressing hash of the demand-faulted pages only, so a
        SPEC premap of ~10^6 pages costs two ints, not 4x its size in
        hash slots.  Both are cached on the vm instance keyed by
        ``key`` = (len(_demand), _map_epoch): touches only grow the
        demand set, and every premap/unmap bumps the epoch.  After each
        exit the hash holds exactly ``_demand`` (kernel-added pages are
        inserted and drained), so the exit refreshes the key and a
        later attach reuses the arrays.
        """
        vm = self.core.vm
        demand = vm._demand
        cached = getattr(vm, "_native_page_hash", None)
        if cached is not None and cached[0] == key:
            _, self.vm_hash, self.vm_log, self.vm_ranges = cached
        else:
            stats["vm_hash_builds"] += 1
            if obs.enabled():
                obs.add("native.vm_hash_builds", 1.0)
            cap = _next_pow2(4 * (len(demand) + 64))
            self.vm_hash = np.full(cap, -1, dtype=np.int64)
            if demand:
                keys = np.fromiter(demand, dtype=np.int64,
                                   count=len(demand))
                get_lib().repro_vm_build(keys.ctypes.data, len(keys),
                                         self.vm_hash.ctypes.data, cap - 1)
            # Scratch: the kernel writes entries before bumping the
            # count, so the log never needs zero-filling.
            self.vm_log = np.empty(cap, dtype=np.int64)
            self.vm_ranges = np.zeros(max(2, 2 * len(vm._starts)),
                                      dtype=np.int64)
            self.vm_ranges[0:2 * len(vm._starts):2] = vm._starts
            self.vm_ranges[1:2 * len(vm._ends):2] = vm._ends
            vm._native_page_hash = (key, self.vm_hash, self.vm_log,
                                    self.vm_ranges)
        self.pi[PI_VM_HMASK] = len(self.vm_hash) - 1
        self.pi[PI_VM_NRANGES] = len(vm._starts)
        self.si[SI_VM_CNT] = len(demand)
        self.si[SI_VM_LOGN] = 0
        self._set_ptr(P_VM_HASH, self.vm_hash)
        self._set_ptr(P_VM_LOG, self.vm_log)
        self._set_ptr(P_VM_RANGES, self.vm_ranges)
        self._vm_key = key

    def _grow_vm(self) -> None:
        old = self.vm_hash
        old_mask = int(self.pi[PI_VM_HMASK])
        cap = (old_mask + 1) * 4
        new = np.full(cap, -1, dtype=np.int64)
        get_lib().repro_vm_rehash(old.ctypes.data, old_mask,
                                  new.ctypes.data, cap - 1)
        self.vm_hash = new
        self.vm_log = np.empty(cap, dtype=np.int64)
        self.pi[PI_VM_HMASK] = cap - 1
        self._set_ptr(P_VM_HASH, new)
        self._set_ptr(P_VM_LOG, self.vm_log)

    def _drain_vm_log(self) -> None:
        n = int(self.si[SI_VM_LOGN])
        if n:
            self.core.vm._demand.update(self.vm_log[:n].tolist())
            self.si[SI_VM_LOGN] = 0

    def refresh_contention(self) -> None:
        """Re-derive the L3 stall constants from the live contention term.

        ``SharedLlc.update_contention`` runs in Python between epoch
        quanta; the kernel reads ``extra_latency`` only through these
        two doubles, so refreshing them at the epoch boundary gives
        every access in the next quantum the new latency — exactly when
        the legacy per-op ``_llc_extra()`` read would change value.
        The expression shapes match ``_fetch`` and ``_op_mem``.
        """
        core, m = self.core, self.core.machine
        extra = core._llc_extra()
        self.pd[PD_ICACHE_L3] = (m.llc.latency + extra) * self._icache_vis
        self.pd[PD_BE_L3] = (m.llc.latency + extra - m.l2.latency) \
            * self._hidden

    def _drain_llc_epoch(self) -> None:
        """Copy the kernel's epoch counters into the SharedLlc fields."""
        sll = self.core.shared_llc
        if sll is not None:
            ep = self.llc_epoch
            sll._accesses_this_epoch = int(ep[0])
            sll.slice_accesses = ep[1:].tolist()

    # ------------------------------------------------------------------
    def _load_params(self) -> None:
        """Derived constants (legacy expression shapes) and policy flags
        from the machine, hints, hook interval and vm settings."""
        core = self.core
        m, h, pd, pi = core.machine, core.hints, self.pd, self.pi
        width = m.pipeline_width
        pd[PD_UOP_FACTOR] = h.uop_factor
        pd[PD_INV_WIDTH] = 1.0 / width
        pd[PD_WIDTH] = float(width)
        ilp = min(h.ilp, width)
        ports_on = ilp < width
        pd[PD_PORTS_ON] = 1.0 if ports_on else 0.0
        pd[PD_PORTS_COEFF] = (1.0 / ilp - 1.0 / width) if ports_on else 0.0
        pd[PD_DIV_FRAC] = h.div_frac
        pd[PD_DIV_PEN] = core.DIV_PENALTY
        pd[PD_MICRO_FRAC] = h.microcode_frac
        pd[PD_MS_PEN] = float(m.ms_switch_penalty)
        pd[PD_MITE_COEFF] = (1.0 / (m.decode_width * core.MITE_EFFICIENCY)
                             - 1.0 / width)
        pd[PD_ITLB_WALK] = m.page_walk_latency * (1 - core.ITLB_OVERLAP)
        pd[PD_DTLB_WALK] = m.page_walk_latency / h.mlp
        icache_vis = 1 - core.ICACHE_OVERLAP
        hidden = (1 - core.DATA_OVERLAP) / h.mlp
        self._icache_vis = icache_vis
        self._hidden = hidden
        pd[PD_ICACHE_L2] = m.l2.latency * icache_vis
        pd[PD_ICACHE_DRAM] = m.dram_latency * icache_vis
        pd[PD_L1_HIT] = m.l1d.latency * core.L1_VISIBLE
        pd[PD_BE_L2] = (m.l2.latency - m.l1d.latency) * hidden
        pd[PD_BE_DRAM] = (m.dram_latency - m.llc.latency) * hidden
        # L3 latencies fold in the shared LLC's current contention term
        # (0.0 for a private LLC).
        self.refresh_contention()
        pd[PD_HOOK_INTERVAL] = core.cycle_hook_interval
        pd[PD_STORE_PEN] = core.STORE_MISS_PENALTY
        pd[PD_MIS_PEN] = float(m.mispredict_penalty)
        pd[PD_RESTEER_PEN] = float(m.btb_resteer_penalty)
        pd[PD_TAKEN_BUBBLE] = core.TAKEN_BRANCH_BUBBLE
        pd[PD_PF_DRAM] = m.dram_latency * 0.22 / h.mlp
        vm = core.vm
        pd[PD_MINOR_FAULT] = float(vm.MINOR_FAULT_CYCLES)
        pd[PD_MAJOR_FAULT] = float(vm.MAJOR_FAULT_CYCLES)
        frac = vm.major_fault_fraction
        pi[PI_MAJOR_PERIOD] = (max(1, round(1 / frac)) if frac > 0 else 0)
        for k, cache in enumerate(self.caches):
            pi[PI_CACHE0 + 4 * k + 2] = int(cache._lru)
            pi[PI_CACHE0 + 4 * k + 3] = int(cache._evict_head)

    def _load_scalars(self) -> None:
        """Scalars and stats, Python -> arrays (the entry reload)."""
        core = self.core
        si, sd = self.si, self.sd
        c = core.counts
        bu = core.branch_unit
        bst = bu.stats
        pf_i, pf_d, pf2 = (core.l1i_prefetcher, core.l1d_prefetcher,
                           core.l2_prefetcher)
        vm = core.vm
        vst = vm.stats
        si[SI_INSTR:SI_GS_HIST + 1] = (
            c.instructions, c.kernel_instructions, c.branches, c.loads,
            c.stores, c.dtlb_load_walks, c.dtlb_store_walks, c.itlb_walks,
            core._last_code_line, core._last_code_page,
            core._last_data_vpn, int(core._kernel_mode),
            bu.predictor._history)
        si[SI_BU_BR:SI_L1DPF_LAST + 1] = (
            bst.branches, bst.mispredicts, bst.btb_misses, bst.taken,
            pf_i.stats.issued, pf_i.stats.page_bounded,
            pf_d.stats.issued, pf_d.stats.page_bounded,
            pf2.stats.issued, pf2.stats.page_bounded,
            pf_i._last_line, pf_d._last_line)
        si[SI_VM_MIN:SI_VM_SEQ + 1] = (vst.minor_faults, vst.major_faults,
                                       vst.mapped_pages, vm._fault_seq)
        si[SI_RAND0:SI_RAND0 + _NCACHE] = [c_._rand_state
                                           for c_ in self.caches]
        sd[SD_IDEAL] = core._ideal_cycles
        sd[SD_UOPS] = c.uops
        stalls = core.stalls
        sd[SD_ST0:SD_ST0 + len(self.buckets)] = [stalls[b]
                                                 for b in self.buckets]
        sd[SD_NEXT_HOOK] = core._next_hook_cycles
        for cache, arrays in zip(self.caches, self.cache_arrays):
            arrays[3][:] = _get_cache_stats(cache.stats)
        for tlb, arrays in zip(self.tlbs, self.tlb_arrays):
            arrays[2][:] = _get_tlb_stats(tlb.stats)
        self.dram_st[:] = _get_dram_stats(core.dram.stats)
        sll = core.shared_llc
        if sll is not None:
            self.llc_epoch[0] = sll._accesses_this_epoch
            self.llc_epoch[1:] = sll.slice_accesses

    def _enter(self) -> None:
        """Kernel entry: reload what Python owns between calls."""
        vm = self.core.vm
        key = (len(vm._demand), vm._map_epoch)
        if key != self._vm_key:
            self._export_vm(key)
        self._load_params()
        self._load_scalars()
        with _live_lock:
            _live_images[id(self)] = self
        self._entered = True

    def _publish(self) -> None:
        """Kernel exit: scalars and stats, arrays -> Python."""
        core = self.core
        sil = self.si.tolist()
        sdl = self.sd.tolist()
        c = core.counts
        (c.instructions, c.kernel_instructions, c.branches, c.loads,
         c.stores, c.dtlb_load_walks, c.dtlb_store_walks,
         c.itlb_walks) = sil[SI_INSTR:SI_ITLB_WALK + 1]
        core._last_code_line = sil[SI_LAST_CODE_LINE]
        core._last_code_page = sil[SI_LAST_CODE_PAGE]
        core._last_data_vpn = sil[SI_LAST_DATA_VPN]
        core._kernel_mode = bool(sil[SI_KMODE])
        c.uops = sdl[SD_UOPS]
        core._ideal_cycles = sdl[SD_IDEAL]
        stalls = core.stalls
        for k, b in enumerate(self.buckets):
            stalls[b] = sdl[SD_ST0 + k]
        core._next_hook_cycles = sdl[SD_NEXT_HOOK]

        for k, cache in enumerate(self.caches):
            _set_fields(cache.stats, _CACHE_STATS,
                        self.cache_arrays[k][3].tolist())
            cache._rand_state = sil[SI_RAND0 + k]
        for tlb, arrays in zip(self.tlbs, self.tlb_arrays):
            _set_fields(tlb.stats, _TLB_STATS, arrays[2].tolist())
        self._drain_llc_epoch()

        bu = core.branch_unit
        bst = bu.stats
        (bst.branches, bst.mispredicts, bst.btb_misses,
         bst.taken) = sil[SI_BU_BR:SI_BU_TK + 1]
        bu.predictor._history = sil[SI_GS_HIST]
        pf_i, pf_d, pf2 = (core.l1i_prefetcher, core.l1d_prefetcher,
                           core.l2_prefetcher)
        pf_i.stats.issued = sil[SI_L1IPF_ISS]
        pf_i.stats.page_bounded = sil[SI_L1IPF_PB]
        pf_d.stats.issued = sil[SI_L1DPF_ISS]
        pf_d.stats.page_bounded = sil[SI_L1DPF_PB]
        pf2.stats.issued = sil[SI_L2PF_ISS]
        pf2.stats.page_bounded = sil[SI_L2PF_PB]
        pf_i._last_line = sil[SI_L1IPF_LAST]
        pf_d._last_line = sil[SI_L1DPF_LAST]
        _set_fields(core.dram.stats, _DRAM_STATS, self.dram_st.tolist())

        vm = core.vm
        self._drain_vm_log()
        vm.stats.minor_faults = sil[SI_VM_MIN]
        vm.stats.major_faults = sil[SI_VM_MAJ]
        vm.stats.mapped_pages = sil[SI_VM_MAPPED]
        vm._fault_seq = sil[SI_VM_SEQ]
        # The hash now holds exactly ``_demand``: refresh the reuse key.
        key = (len(vm._demand), vm._map_epoch)
        self._vm_key = key
        vm._native_page_hash = (key, self.vm_hash, self.vm_log,
                                self.vm_ranges)

        self._drain_retired(sil)
        self._entered = False

    # ------------------------------------------------------------------
    def writeback(self, sync: bool = False) -> None:
        """Publish scalars and stats to the Python Core (a kernel exit).

        A no-op for the scalars when the image has not been entered
        since its last exit: Python is authoritative then.  With
        ``sync=True`` it also imports the structures of this image and
        of every image sharing its LLC, and detaches them all; the
        cores' next vector consume attaches afresh.
        """
        _t0 = time.perf_counter_ns() if obs.enabled() else None
        if self._entered:
            self._publish()
        if sync and self.core._native_image is self:
            images = tuple(self.group) if self.group is not None \
                else (self,)
            for img in images:
                img._import_structures()
                img.core._native_image = None
            if self.group is not None:
                self.core.shared_llc._native_group = None
            stats["structure_imports"] += len(images)
            if _t0 is not None:
                obs.add("native.structure_imports", float(len(images)))
        if _t0 is not None:
            obs.observe("native.writeback_seconds",
                        (time.perf_counter_ns() - _t0) * 1e-9)

    def _drain_retired(self, sil) -> None:
        """Fold the kernel's retirement counters into the module stats.

        Zeroing the slots keeps a second writeback idempotent (the
        BAD-status path writes back before raising, then the caller's
        ``finally`` writes back again), and dropping the image from the
        live registry keeps ``ops_retired()`` from counting the drained
        span twice — and keeps the registry from holding an attached
        image alive after its core is dropped.
        """
        retired = sil[SI_OPS_RETIRED]
        if retired:
            stats["ops_retired"] += retired
            for k, name in enumerate(OP_KIND_NAMES):
                stats["ops_" + name] += sil[SI_OPK0 + k]
            if obs.enabled():
                obs.add("native.ops_retired", float(retired))
                for k, name in enumerate(OP_KIND_NAMES):
                    if sil[SI_OPK0 + k]:
                        obs.add("native.ops_retired." + name,
                                float(sil[SI_OPK0 + k]))
            self.si[SI_OPS_RETIRED:SI_N] = 0
        with _live_lock:
            _live_images.pop(id(self), None)

    # ------------------------------------------------------------------
    def run_buffer(self, buf, start: int, limit) -> tuple[int, int]:
        """Run the kernel over one sealed trace buffer from ``start``.

        The first call after an exit is the kernel entry: it reloads the
        scalars and stats Python owns (see :meth:`_enter`).  Returns
        ``(next_pos, status)`` where status is ``_STATUS_DONE`` (chunk
        exhausted), ``_STATUS_LIMIT`` (instruction limit reached) or
        ``_STATUS_HOOK`` (the cycle-hook threshold fired: the caller
        must publish state, run the Python hook against the live core,
        and re-enter from ``next_pos``).  Event-hook callbacks are
        replayed from the kernel's event log with the exact cycle stamps
        the legacy engine would have produced.
        """
        if not self._entered:
            self._enter()
        lib = get_lib()
        kinds, a0, a1, a2, n_ev = _columns(buf)
        n_ops = len(kinds)
        ptab = self.ptab
        ptab[P_KINDS] = kinds.ctypes.data
        ptab[P_A0] = a0.ctypes.data
        ptab[P_A1] = a1.ctypes.data
        ptab[P_A2] = a2.ctypes.data
        evidx = np.zeros(max(1, n_ev), dtype=np.int64)
        evcyc = np.zeros(max(1, n_ev), dtype=np.float64)
        ptab[P_EVIDX] = evidx.ctypes.data
        ptab[P_EVCYC] = evcyc.ctypes.data
        hook = self.core.event_hook
        events = buf.events
        limit_c = -1 if limit is None else limit
        pos = start
        while True:
            stats["kernel_calls"] += 1
            _t0 = time.perf_counter_ns() if obs.enabled() else None
            status = int(lib.repro_sim_run(ptab, pos, n_ops, limit_c))
            if _t0 is not None:
                obs.add("native.kernel_calls", 1.0)
                obs.observe("native.run_seconds",
                            (time.perf_counter_ns() - _t0) * 1e-9)
            next_pos = int(self.si[SI_NEXT_POS])
            self._drain_vm_log()
            if hook is not None:
                a0l = a0
                for k in range(int(self.si[SI_EV_N])):
                    ev, payload = events[int(a0l[int(evidx[k])])]
                    hook(ev, payload, float(evcyc[k]))
            if status == _STATUS_VM_FULL:
                self._grow_vm()
                pos = next_pos
                continue
            if status == _STATUS_BAD:
                self.writeback()
                raise ValueError(
                    f"unknown op kind {int(kinds[next_pos])!r}")
            return next_pos, status


# ---------------------------------------------------------------------------
# Column extraction (cached on the buffer).

def _int64_column(col):
    """One trace column as a contiguous int64 numpy array.

    ``array('q')`` columns are copied (one memcpy): a cached view would
    lock the array against resizing.  Replayed memoryview columns are
    aliased, except the one-byte opcode column, which widens.
    """
    if isinstance(col, array):
        return np.array(col, dtype=np.int64)
    return np.ascontiguousarray(np.asarray(col, dtype=np.int64))


def _columns(buf):
    """Contiguous int64 column arrays for a sealed trace buffer.

    Cached on ``buf._vcols`` keyed by op count, so replayed buffers pay
    the conversion once; ``color_private`` invalidates the cache.
    """
    n = len(buf.kinds)
    cached = buf._vcols
    if cached is not None and cached[0] == n:
        return cached[1]
    kinds, a0, a1, a2 = map(_int64_column,
                            (buf.kinds, buf.a0, buf.a1, buf.a2))
    n_ev = int(np.count_nonzero(kinds == 4))
    cols = (kinds, a0, a1, a2, n_ev)
    buf._vcols = (n, cols)
    return cols


# ---------------------------------------------------------------------------
# Driver.

def attach(core) -> CoreImage:
    """``core``'s attached image, exporting a new one if it has none."""
    return core._native_image or CoreImage(core)


def _drive(core, stream, limit) -> bool:
    """Run ``core``'s attached image over ``stream`` up to ``limit``.

    Each HOOK exit publishes scalars and stats, runs the Python hook
    against the live ``Core`` (it may read or mutate any of them, or
    call ``core.sync_native()`` to read structures), and re-enters with
    the same image — preserving the legacy hook-before-limit ordering.
    Returns ``False`` when a hook left the core in a configuration the
    kernel does not model; the caller finishes on the Python engine.
    """
    counts = core.counts
    img = attach(core)
    try:
        while True:
            buf = stream.buffer()
            if buf is None:
                return True
            _t0 = time.perf_counter() if obs.enabled() else None
            next_pos, status = img.run_buffer(buf, stream.pos, limit)
            if _t0 is not None:
                obs.observe("sim.consume_buffer_seconds",
                            time.perf_counter() - _t0)
            stream.pos = next_pos
            if status == _STATUS_HOOK:
                stats["hook_exits"] += 1
                if obs.enabled():
                    obs.add("native.hook_exits", 1.0)
                img.writeback()
                core.cycle_hook(core)
                if limit is not None and counts.instructions >= limit:
                    return True
                if delegation_reason(core) is not None:
                    return False
                img = attach(core)
            elif status == _STATUS_LIMIT:
                return True
    finally:
        img.writeback()


def consume_stream_native(core, stream, max_instructions=None) -> int:
    """Vector-engine counterpart of ``Core.consume_stream``.

    Callers must have checked :func:`available` and :func:`nativizable`.
    Returns the number of instructions executed.  Counters, stalls and
    stats land in the Python ``Core`` on return, bit-identical to what
    the legacy engine would have produced over the same ops; caches,
    predictors and the other structures stay resident in the core's
    image until ``core.sync_native()``.  Armed cycle hooks run through
    the trampoline (see :func:`_drive`).
    """
    return _consume(core, stream, max_instructions)


def _consume(core, stream, max_instructions) -> int:
    """The body of one consume request or multicore quantum.

    Separate from :func:`consume_stream_native` so that a quantum is
    not counted or timed as a ``Core.consume_stream`` request.
    """
    counts = core.counts
    start_instr = counts.instructions
    limit = (start_instr + max_instructions
             if max_instructions is not None else None)
    stats["consume_calls"] += 1
    if _drive(core, stream, limit):
        return counts.instructions - start_instr
    done = counts.instructions - start_instr
    rest = None if limit is None else limit - counts.instructions
    return done + core.consume_stream(stream, rest, engine="vector")


# ---------------------------------------------------------------------------
# Multicore session: interleaved quanta over the attached images.

class NativeMulticoreSession:
    """One ``MulticoreRunner.run`` round loop on the kernel.

    A fresh export + writeback per 4k-instruction quantum would dominate
    the run.  The session attaches every core once (the images, with the
    shared LLC's arrays aliased into all of them, stay attached across
    quanta, hook exits and later runs) and each quantum is one kernel
    entry and exit: the exit publishes the scalars, stats and epoch
    counters the round loop and the sampler read.  The shared LLC's
    eviction RNG state is one of those scalars, so each quantum hands
    it from the core that last ran to the next through
    ``SharedLlc.cache._rand_state``.

    ``SharedLlc.update_contention`` stays in Python, unchanged: call
    :meth:`sync_epoch` just before it (publishes + zeroes the epoch
    counters) and :meth:`refresh_contention` right after (re-derives the
    L3 stall constants in every image).
    """

    def __init__(self, cores) -> None:
        self.cores = list(cores)
        self.llc = self.cores[0].shared_llc
        stats["sessions"] += 1
        for core in self.cores:
            attach(core)

    def sync_epoch(self) -> None:
        """Publish epoch counters to the SharedLlc and restart the epoch.

        Call immediately before ``SharedLlc.update_contention`` — which
        consumes and zeroes the Python fields, while the array restarts
        from zero for the next epoch's kernel increments.
        """
        group = self.llc._native_group
        if group:
            owner = group[0]
            owner._drain_llc_epoch()
            owner.llc_epoch[:] = 0

    def refresh_contention(self) -> None:
        """Re-derive every image's L3 constants after update_contention."""
        for core in self.cores:
            if core._native_image is not None:
                core._native_image.refresh_contention()

    def consume(self, core_index: int, stream, max_instructions: int) -> int:
        """Quantum-interleaved counterpart of ``consume_stream_native``."""
        core = self.cores[core_index]
        if core._native_image is None and delegation_reason(core):
            return core.consume_stream(stream, max_instructions,
                                       engine="vector")
        return _consume(core, stream, max_instructions)


def multicore_session(cores, streams):
    """A :class:`NativeMulticoreSession` when every core and stream
    qualifies for it, else ``None`` (callers fall back per quantum)."""
    from repro.trace import TraceBufferStream
    if not available() or not cores:
        return None
    llc = cores[0].shared_llc
    if llc is None:
        return None
    if not all(c.shared_llc is llc for c in cores):
        return None
    if not all(isinstance(s, TraceBufferStream) for s in streams):
        return None
    if not all(nativizable(c) for c in cores):
        return None
    return NativeMulticoreSession(cores)
