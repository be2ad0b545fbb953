"""Tests for the content-addressed trace store."""

import itertools
from pathlib import Path

import pytest

from repro.exec.traces import TraceStore, trace_fingerprint
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.trace import OP_BLOCK, OP_LOAD
from repro.workloads.dotnet import dotnet_category_specs


def _spec():
    return next(s for s in dotnet_category_specs()
                if s.name == "System.Runtime")


def _configs():
    gc = GcConfig()
    return gc, HeapConfig(max_heap_bytes=gc.max_heap_bytes,
                          gen0_budget_bytes=gc.gen0_budget())


class FakeProgram:
    """Deterministic synthetic op source (10-instr block + load pairs)."""

    def ops(self):
        pc = 0x4000_0000
        while True:
            yield (OP_BLOCK, pc, 10, 48, False)
            yield (OP_LOAD, 0xC000_0000 + (pc & 0xFFFF))
            pc += 64

    def premap_ranges(self):
        return [(0x4000_0000, 0x4010_0000), (0xC000_0000, 0xC001_0000)]


class FakeProgramPush(FakeProgram):
    """Same stream through the push-style ``fill_buffer`` protocol."""

    def __init__(self):
        self._ops = self.ops()

    def fill_buffer(self, buf, n_instructions):
        return buf.fill_from(self._ops, n_instructions)


def _key(store, **over):
    gc, heap = _configs()
    kw = dict(seed=0, code_bloat=1.0, gc_config=gc, heap_config=heap,
              fingerprint="fp0")
    kw.update(over)
    return store.key_for(_spec(), **kw)


class TestKeying:
    def test_key_is_deterministic(self, tmp_path):
        store = TraceStore(tmp_path)
        assert _key(store) == _key(store)

    @pytest.mark.parametrize("over", [
        {"seed": 1},
        {"code_bloat": 1.5},
        {"reuse_code_pages": True},
        {"compaction_enabled": False},
        {"fingerprint": "fp1"},
    ])
    def test_trace_relevant_inputs_change_key(self, tmp_path, over):
        store = TraceStore(tmp_path)
        assert _key(store, **over) != _key(store)


class TestEnsure:
    def test_cold_generates_warm_replays(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        calls = []

        def make():
            calls.append(1)
            return FakeProgram()

        meta, generated = store.ensure(key, 10_000, make)
        assert generated and len(calls) == 1
        assert meta["n_instructions"] >= 11_000          # 10% slack
        assert meta["premap_ranges"] == [[0x4000_0000, 0x4010_0000],
                                         [0xC000_0000, 0xC001_0000]]
        # Warm hit: the second machine config never builds the program.
        meta2, generated2 = store.ensure(key, 10_000, make)
        assert not generated2 and len(calls) == 1
        assert meta2 == meta
        assert list(store.keys()) == [key]

    def test_too_short_entry_is_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 1_000, FakeProgram)
        short = meta["n_instructions"]
        meta, generated = store.ensure(key, short * 4, FakeProgram)
        assert generated
        assert meta["n_instructions"] >= short * 4

    def test_push_and_pull_programs_record_same_stream(self, tmp_path):
        store = TraceStore(tmp_path)
        ka, kb = _key(store), _key(store, seed=1)
        store.ensure(ka, 5_000, FakeProgram)
        store.ensure(kb, 5_000, FakeProgramPush)

        def ops_of(key, n):
            ops = itertools.chain.from_iterable(
                buf.iter_ops() for buf in store.replay(key))
            return list(itertools.islice(ops, n))

        assert ops_of(ka, 500) == ops_of(kb, 500) \
            == list(itertools.islice(FakeProgram().ops(), 500))

    def test_corrupt_meta_reads_as_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        store.meta_path(key).write_text("{not json")
        assert store.meta(key) is None
        # corruption deletes the entry so lookup is a clean miss
        assert store.lookup(key, 1) is None
        assert not store.trace_path(key).exists()

    def test_delete(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        assert store.delete(key)
        assert store.lookup(key, 1) is None
        assert not store.delete(key)


class TestFingerprint:
    def _tree(self, tmp_path, name, uarch="x = 1", workloads="y = 1"):
        root = tmp_path / name
        (root / "workloads").mkdir(parents=True)
        (root / "uarch").mkdir()
        (root / "trace.py").write_text("# trace\n")
        (root / "workloads" / "gen.py").write_text(workloads)
        (root / "uarch" / "pipeline.py").write_text(uarch)
        return root

    def test_uarch_edits_do_not_invalidate(self, tmp_path):
        """The point of the split fingerprint: pipeline-model edits keep
        recorded traces valid."""
        a = self._tree(tmp_path, "a")
        b = self._tree(tmp_path, "b", uarch="x = 2")
        assert trace_fingerprint(a, refresh=True) \
            == trace_fingerprint(b, refresh=True)

    def test_generator_edits_invalidate(self, tmp_path):
        a = self._tree(tmp_path, "a")
        b = self._tree(tmp_path, "b", workloads="y = 2")
        assert trace_fingerprint(a, refresh=True) \
            != trace_fingerprint(b, refresh=True)

    def test_default_root_is_cached_and_stable(self):
        assert trace_fingerprint() == trace_fingerprint()

    def test_native_walker_source_invalidates_kernel_does_not(self,
                                                              tmp_path):
        """The C walker generates the op stream, so a byte of
        ``_codegen.c`` changes the fingerprint; the consume kernel's
        source does not."""
        import shutil
        import repro
        root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = trace_fingerprint(root, refresh=True)

        def flip_one_byte(path):
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))

        kernel = root / "uarch" / "_kernel.c"
        original = kernel.read_bytes()
        flip_one_byte(kernel)
        assert trace_fingerprint(root, refresh=True) == base
        kernel.write_bytes(original)
        flip_one_byte(root / "_codegen.c")
        assert trace_fingerprint(root, refresh=True) != base


class TestTraceIntegrity:
    def test_sidecar_records_checksum(self, tmp_path):
        import zlib
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        data = store.trace_path(key).read_bytes()
        assert meta["bytes"] == len(data)
        assert meta["crc32"] == zlib.crc32(data)

    def test_bit_rot_is_quarantined_and_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        path = store.trace_path(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.lookup(key, 1) is None
        assert not path.exists()            # moved out of the namespace
        assert any(store.corrupt_dir.iterdir())
        meta2, generated = store.ensure(key, 2_000, FakeProgram)
        assert generated
        assert store.lookup(key, 2_000) == meta2

    def test_truncation_detected_by_size(self, tmp_path):
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgram)
        path = store.trace_path(key)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        assert store.lookup(key, 1) is None
        assert any(store.corrupt_dir.iterdir())

    def test_legacy_meta_without_checksum_still_replays(self, tmp_path):
        import json
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, _ = store.ensure(key, 2_000, FakeProgram)
        legacy = {k: v for k, v in meta.items()
                  if k not in ("crc32", "bytes")}
        store.meta_path(key).write_text(json.dumps(legacy))
        assert store.lookup(key, 2_000) == legacy


class TestRunnerFallback:
    def test_corrupt_legacy_trace_regenerates_not_raises(self, tmp_path):
        """Satellite: a corrupted trace chunk that slips past the store
        checksum (legacy entry without one) must fall back to
        regeneration inside run_workload, not propagate the decode
        error — and the recovered run is bit-identical."""
        import json
        from repro.harness.runner import Fidelity, run_workload
        from repro.uarch.machine import get_machine

        fid = Fidelity(warmup_instructions=6_000,
                       measure_instructions=10_000)
        spec = _spec()
        machine = get_machine("i9")
        store = TraceStore(tmp_path)
        clean = run_workload(spec, machine, fid, trace_store=store)
        (key,) = store.keys()

        # Age the entry to the pre-checksum format, then damage it.
        meta = json.loads(store.meta_path(key).read_text())
        del meta["crc32"], meta["bytes"]
        store.meta_path(key).write_text(json.dumps(meta))
        data = store.trace_path(key).read_bytes()
        store.trace_path(key).write_bytes(data[:len(data) // 2])

        rerun = run_workload(spec, machine, fid, trace_store=store)
        assert rerun.counters == clean.counters
        assert any(store.corrupt_dir.iterdir())
        # the store now holds a fresh valid entry under the same key
        assert store.lookup(key, 1) is not None

    def test_bit_flip_between_warm_runs_is_quarantined(self, tmp_path,
                                                       monkeypatch):
        """Warm runs replay the worker's decoded chunks without reading
        the file; a byte flipped in place changes the file's identity,
        so the next run verifies it again, quarantines it and
        regenerates — and the result equals the clean run."""
        from repro.exec import warm
        from repro.harness.runner import Fidelity, run_workload
        from repro.uarch.machine import get_machine

        monkeypatch.delenv("REPRO_WARM_MODELS", raising=False)
        cache = warm.WarmCache()
        monkeypatch.setattr(warm, "_CACHE", cache)
        fid = Fidelity(warmup_instructions=6_000,
                       measure_instructions=10_000)
        spec = _spec()
        machine = get_machine("i9")
        store = TraceStore(tmp_path)
        clean = run_workload(spec, machine, fid, trace_store=store)
        (key,) = store.keys()
        path = store.trace_path(key)

        warm_run = run_workload(spec, machine, fid, trace_store=store)
        assert cache.buffer_hits == 1
        assert warm_run.counters == clean.counters
        assert not store.corrupt_dir.exists()

        before = warm.file_identity(path)
        size = path.stat().st_size
        with path.open("r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)[0]
            fh.seek(size // 2)
            fh.write(bytes([byte ^ 0xFF]))
        assert warm.file_identity(path) != before

        rerun = run_workload(spec, machine, fid, trace_store=store)
        assert cache.buffer_hits == 1            # the flip forced a miss
        assert any(store.corrupt_dir.iterdir())  # quarantined
        assert store.lookup(key, 1) is not None  # regenerated, valid
        assert rerun.counters == clean.counters
        assert rerun.topdown == clean.topdown


class TestArrayColumns:
    """Generated buffers carry ``array('q')`` columns; the store must
    record and replay them byte for byte."""

    def test_record_replay_round_trip(self, tmp_path):
        from repro.trace import TraceBuffer
        from repro.workloads.program import build_program
        store = TraceStore(tmp_path)
        key = _key(store)
        meta, generated = store.ensure(
            key, 100_000, lambda: build_program(_spec(), seed=3))
        assert generated
        program = build_program(_spec(), seed=3)
        replayed = list(store.replay(key))
        total = 0
        for buf in replayed:
            fresh = TraceBuffer()
            program.fill_buffer(fresh, 65536)
            assert (bytes(fresh.a0), bytes(fresh.a1), bytes(fresh.a2)) \
                == (bytes(buf.a0), bytes(buf.a1), bytes(buf.a2))
            assert list(fresh.kinds) == list(buf.kinds)
            assert fresh.events == buf.events
            assert fresh.n_instructions == buf.n_instructions
            total += buf.n_instructions
        assert total == meta["n_instructions"] >= 100_000

    def test_warm_copy_keeps_formats(self, tmp_path):
        """Cached copies of replayed chunks keep the one-byte opcode
        column; array-backed chunks are cached as they are."""
        from repro.exec.warm import _owned_copy
        from repro.trace import TraceBuffer
        store = TraceStore(tmp_path)
        key = _key(store)
        store.ensure(key, 2_000, FakeProgramPush)
        (buf,) = list(store.replay(key))
        copy = _owned_copy(buf)
        assert copy is not buf
        assert copy.kinds.format == "B" and copy.a0.format == "q"
        assert list(copy.iter_ops()) == list(buf.iter_ops())
        fresh = TraceBuffer()
        FakeProgramPush().fill_buffer(fresh, 100)
        assert _owned_copy(fresh) is fresh
