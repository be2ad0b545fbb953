"""Content-addressed trace store: generate each trace once, replay many.

Multi-machine experiments (cross-machine validation, x86-vs-Arm, machine
sweeps) run the *same* op stream through different core geometries — the
stream depends only on the workload model, not on the microarchitecture.
This store keys recorded traces (:mod:`repro.perf.trace_io`) by exactly
the trace-relevant inputs:

* workload spec, seed, ablation flags (``reuse_code_pages``,
  ``compaction_enabled``),
* generation-side sizing (``code_bloat`` — the only machine parameter
  that reaches the generator — plus GC/heap config),
* a fingerprint of the generation-side sources
  (:func:`trace_fingerprint`).

Crucially the key excludes the microarchitectural model, so editing
``uarch/`` or re-running on a second machine config replays the cached
trace instead of regenerating it.  Entries carry a JSON sidecar with the
instruction count and the program's premap ranges, so replay can
reconstruct the initial VM state without building the program at all.

Layout mirrors :class:`repro.exec.store.ResultStore`:
``<root>/traces/v1/<key[:2]>/<key>.trace`` + ``<key>.json``, published
atomically with ``os.replace``.  The sidecar records the CRC32 and byte
length of the trace file; :meth:`TraceStore.lookup` validates both, so
a truncated or bit-rotted trace is quarantined to
``<root>/traces/corrupt/`` and regenerated instead of feeding a decode
error into the runner mid-replay.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path

from repro import obs
from repro.exec.jobs import canonical_encode
from repro.perf.trace_io import record_program, replay_buffers

TRACE_LAYOUT_VERSION = "v1"

#: bump when the key schema changes (invalidates every old trace)
TRACE_KEY_VERSION = "1"

#: headroom recorded beyond the first requester's need, so machine
#: configs with slightly larger dynamic instruction budgets still hit
_SLACK = 1.10

#: generation-side subtrees/modules, relative to the ``repro`` package —
#: the microarchitecture (uarch/, most of perf/, harness/, exec/) never
#: influences the op stream and must not invalidate traces.  The native
#: walker (``_codegen.c``) generates the op stream by default, so it is
#: one of them; the consume kernel (``uarch/_kernel.c``) is not.
_TRACE_SOURCES = ("trace.py", "seeding.py", "codegen.py", "_codegen.c",
                  "workloads", "runtime", "kernel", "perf/trace_io.py")

_TRACE_FPRINT: dict[Path, str] = {}


def trace_fingerprint(root: str | Path | None = None, *,
                      refresh: bool = False) -> str:
    """Stable hash of the trace-*generation* sources only.

    The deliberate counterpart of
    :func:`repro.exec.jobs.code_fingerprint` (which hashes the whole
    tree): a pipeline-model edit changes result-cache keys but keeps
    recorded traces valid.
    """
    if root is None:
        import repro
        root = Path(repro.__file__).parent
    root = Path(root).resolve()
    if not refresh and root in _TRACE_FPRINT:
        return _TRACE_FPRINT[root]
    digest = hashlib.sha256()
    for rel in _TRACE_SOURCES:
        path = root / rel
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            if not f.exists():
                continue
            digest.update(f.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(f.read_bytes())
            digest.update(b"\0")
    _TRACE_FPRINT[root] = digest.hexdigest()
    return _TRACE_FPRINT[root]


class TraceStore:
    """Content-addressed store of recorded op-stream traces.

    ``backend`` (:mod:`repro.exec.backend`) selects the physical
    discipline exactly as for :class:`~repro.exec.store.ResultStore`:
    local directory by default, shared-directory semantics (rename
    durability, stale-handle-tolerant reads) when a fleet of hosts
    shares one trace store.
    """

    def __init__(self, root: str | Path | None = None, *,
                 backend=None):
        from repro.exec.backend import LocalDirBackend, backend_for
        if backend is None:
            if root is None:
                raise TypeError("TraceStore needs a root or a backend")
            backend = LocalDirBackend(root)
        else:
            backend = backend_for(backend)
        self.backend = backend
        self.root = backend.root

    @property
    def _base(self) -> Path:
        return self.root / "traces" / TRACE_LAYOUT_VERSION

    def trace_path(self, key: str) -> Path:
        return self._base / key[:2] / f"{key}.trace"

    def meta_path(self, key: str) -> Path:
        return self._base / key[:2] / f"{key}.json"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "traces" / "corrupt"

    # ------------------------------------------------------------------
    def key_for(self, spec, *, seed: int, code_bloat: float,
                gc_config, heap_config,
                reuse_code_pages: bool = False,
                compaction_enabled: bool = True,
                fingerprint: str | None = None) -> str:
        """Content hash identifying one workload's op stream."""
        if fingerprint is None:
            fingerprint = trace_fingerprint()
        payload = canonical_encode(
            (TRACE_KEY_VERSION, fingerprint, spec, seed,
             round(code_bloat, 6), gc_config, heap_config,
             reuse_code_pages, compaction_enabled))
        return hashlib.sha256(payload).hexdigest()

    def meta(self, key: str) -> dict | None:
        """The entry's sidecar metadata, or ``None`` on miss/corruption."""
        try:
            with self.meta_path(key).open() as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            self.quarantine(key)
            return None

    def _verify(self, key: str, meta: dict) -> bool:
        """Check the trace file against the sidecar's size and CRC32.

        Entries written before checksums existed (no ``crc32`` field)
        pass — the runner-level :class:`TraceFormatError` fallback still
        covers them.
        """
        expected_crc = meta.get("crc32")
        if expected_crc is None:
            return True
        path = self.trace_path(key)
        try:
            if (meta.get("bytes") is not None
                    and path.stat().st_size != meta["bytes"]):
                return False
            crc = 0
            with path.open("rb") as fh:
                while chunk := fh.read(1 << 20):
                    crc = zlib.crc32(chunk, crc)
            return crc == expected_crc
        except OSError:
            return False

    def quarantine(self, key: str) -> None:
        """Move a bad entry out of the addressable namespace."""
        qdir = self.corrupt_dir
        for path in (self.trace_path(key), self.meta_path(key)):
            if not path.exists():
                continue
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / path.name
            n = 0
            while dest.exists():
                n += 1
                dest = qdir / f"{path.name}.{n}"
            self.backend.publish(path, dest)

    def lookup(self, key: str, required_instructions: int) -> dict | None:
        """Metadata if a long-enough *valid* trace exists, else ``None``.

        A trace whose bytes no longer match the recorded checksum —
        truncated by a killed writer, corrupted on disk — is quarantined
        and reported as a miss, so :meth:`ensure` regenerates it.
        """
        meta = self.meta(key)
        if meta is None or not self.trace_path(key).exists():
            return None
        if meta.get("n_instructions", 0) < required_instructions:
            return None
        if not self._verify(key, meta):
            self.quarantine(key)
            obs.add("traces.corrupt_quarantined")
            return None
        return meta

    def ensure(self, key: str, required_instructions: int,
               make_program) -> tuple[dict, bool]:
        """Guarantee a trace of ≥ ``required_instructions`` under ``key``.

        ``make_program`` is a zero-argument callable building the
        workload program (only invoked on miss).  Returns ``(meta,
        generated)`` — ``generated`` is ``False`` on a warm hit, which
        is what lets the second machine config of a multi-machine suite
        skip trace generation entirely.
        """
        meta = self.lookup(key, required_instructions)
        if meta is not None:
            obs.add("traces.store_hits")
            return meta, False
        obs.add("traces.store_misses")
        with obs.span("trace.generate", key=key[:12],
                      instructions=required_instructions):
            return self._generate(key, required_instructions, make_program)

    def _generate(self, key: str, required_instructions: int,
                  make_program) -> tuple[dict, bool]:
        program = make_program()
        target = int(required_instructions * _SLACK)
        path = self.trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.trace.tmp"
        try:
            n_instr = record_program(program, tmp, target)
            crc = 0
            size = 0
            with tmp.open("rb") as fh:
                while chunk := fh.read(1 << 20):
                    crc = zlib.crc32(chunk, crc)
                    size += len(chunk)
            self.backend.publish(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        meta = {
            "n_instructions": n_instr,
            "premap_ranges": [list(r) for r in program.premap_ranges()],
            "crc32": crc,
            "bytes": size,
        }
        mtmp = path.parent / f".{key}.{os.getpid()}.json.tmp"
        try:
            mtmp.write_text(json.dumps(meta))
            self.backend.publish(mtmp, self.meta_path(key))
        finally:
            mtmp.unlink(missing_ok=True)
        return meta, True

    def replay(self, key: str, *, use_mmap: bool | None = None):
        """:class:`~repro.trace.TraceBuffer` chunks of the stored trace.

        ``use_mmap`` forwards to
        :func:`~repro.perf.trace_io.replay_buffers`: default (None)
        memory-maps and streams the file so peak RSS stays bounded by
        one chunk; ``False`` forces the whole-file in-memory read.
        """
        return replay_buffers(self.trace_path(key), use_mmap=use_mmap)

    def delete(self, key: str) -> bool:
        removed = False
        for path in (self.trace_path(key), self.meta_path(key)):
            if path.exists():
                path.unlink()
                removed = True
        return removed

    def keys(self):
        if not self._base.exists():
            return
        for path in sorted(self._base.glob("*/*.trace")):
            yield path.stem

    def __repr__(self) -> str:
        return f"TraceStore({str(self.root)!r})"
