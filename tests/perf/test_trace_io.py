"""Tests for trace record / replay."""

import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.trace_io import (TraceFormatError, TraceWriteError, record,
                                 record_buffers, replay, replay_buffers,
                                 trace_info)
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         EV_GC_TRIGGERED, EV_JIT_STARTED, TraceBuffer)
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program

from tests.opstream import consume, program_ops

SAMPLE_OPS = [
    (OP_BLOCK, 0x4000_0000, 10, 48, False),
    (OP_LOAD, 0x8000_0000),
    (OP_STORE, 0x8000_0040),
    (OP_BRANCH, 0x4000_0030, 0x4000_0000, True),
    (OP_EVENT, EV_JIT_STARTED, 42),
    (OP_BLOCK, 0xFFFF_8000_0000, 5, 24, True),
    (OP_EVENT, EV_GC_TRIGGERED, None),
]


class TestRoundTrip:
    def test_ops_survive_roundtrip(self, tmp_path):
        path = tmp_path / "t.trace"
        record(iter(SAMPLE_OPS), path)
        out = list(replay(path))
        assert len(out) == len(SAMPLE_OPS)
        for orig, back in zip(SAMPLE_OPS, out):
            assert back[0] == orig[0]
            if orig[0] in (OP_LOAD, OP_STORE):
                assert back[1] == orig[1]
            elif orig[0] == OP_BLOCK:
                assert back[1:] == orig[1:]
            elif orig[0] == OP_BRANCH:
                assert back[1:] == (orig[1], orig[2], orig[3])
            elif orig[0] == OP_EVENT:
                assert back[1] == orig[1]     # kind preserved

    def test_instruction_count_returned(self, tmp_path):
        path = tmp_path / "t.trace"
        n = record(iter(SAMPLE_OPS), path)
        assert n == 10 + 1 + 1 + 1 + 5

    def test_max_instructions_bounds_recording(self, tmp_path):
        path = tmp_path / "t.trace"
        ops = ((OP_BLOCK, 0x4000_0000 + i * 64, 10, 48, False)
               for i in range(1000))
        n = record(ops, path, max_instructions=55)
        assert 55 <= n <= 65

    def test_real_workload_trace_replays_identically(self, tmp_path):
        spec = next(s for s in dotnet_category_specs()
                    if s.name == "System.Runtime")
        prog = build_program(spec, seed=4)
        ops = list(itertools.islice(program_ops(prog), 5000))
        path = tmp_path / "w.trace"
        record(iter(ops), path)
        replayed = list(replay(path))
        # Version 2 round-trips *everything*, event payloads included
        # (the pickled side-table).
        assert replayed == [tuple(op) for op in ops]

    def test_replayed_trace_drives_core_identically(self, tmp_path):
        from repro.kernel.vm import VirtualMemory
        from repro.uarch.machine import i9_9980xe
        from repro.uarch.pipeline import Core
        spec = next(s for s in dotnet_category_specs()
                    if s.name == "System.Linq")
        prog = build_program(spec, seed=4)
        ops = list(itertools.islice(program_ops(prog), 8000))
        path = tmp_path / "w.trace"
        record(iter(ops), path)

        def run(op_iter):
            core = Core(i9_9980xe(), VirtualMemory())
            core.set_hints(spec.hints())
            consume(core, op_iter)
            return (core.counts.instructions, core.counts.loads,
                    core.l1d.stats.demand_misses,
                    core.branch_unit.stats.mispredicts)

        assert run(iter(ops)) == run(replay(path))


class TestEventSideChannel:
    """Version-2 event payloads must survive the round trip bit-for-bit —
    the pipeline consumes JIT metadata ``(base, size)`` payloads, so a
    lossy side-channel would silently break replay equivalence."""

    def test_structured_payloads_roundtrip(self, tmp_path):
        from repro.trace import EV_JIT_CODE_EMITTED, EV_JIT_CODE_MOVED
        ops = [
            (OP_BLOCK, 0x4000_0000, 8, 32, False),
            (OP_EVENT, EV_JIT_CODE_EMITTED, (0x7F00_0000, 1024)),
            (OP_EVENT, EV_GC_TRIGGERED, {"gen": 2, "reason": "budget"}),
            (OP_LOAD, 0x8000_0000),
            (OP_EVENT, EV_JIT_CODE_MOVED, (0x7F00_0000, 0x7F10_0000, 512)),
        ]
        path = tmp_path / "t.trace"
        record(iter(ops), path)
        assert list(replay(path)) == ops

    def test_real_suite_event_stream_identical(self, tmp_path):
        """Consume a real ASP.NET op stream directly and via a recorded
        trace; the tracer event streams (kind, payload, cycle) and the
        counters must match exactly."""
        from repro.kernel.vm import VirtualMemory
        from repro.uarch.machine import i9_9980xe
        from repro.uarch.pipeline import Core
        from repro.workloads.aspnet import aspnet_specs
        spec = next(s for s in aspnet_specs() if s.name == "Json")
        prog = build_program(spec, seed=7)
        ops = list(itertools.islice(program_ops(prog), 20000))
        path = tmp_path / "w.trace"
        record(iter(ops), path)

        def run(op_iter):
            core = Core(i9_9980xe(), VirtualMemory())
            core.set_hints(spec.hints())
            events = []
            core.event_hook = lambda k, p, c: events.append((k, p, c))
            consume(core, op_iter)
            return events, (core.counts.instructions, core.counts.loads,
                            core.l1d.stats.demand_misses,
                            core.itlb.l1.stats.walks)

        ev_direct, ctr_direct = run(iter(ops))
        ev_replay, ctr_replay = run(replay(path))
        assert ev_direct, "suite stream produced no runtime events"
        assert ev_direct == ev_replay
        assert ctr_direct == ctr_replay

    def test_replay_buffers_preserves_chunking(self, tmp_path):
        bufs = []
        ops_iter = iter(SAMPLE_OPS * 40)
        while True:
            buf = TraceBuffer()
            done = buf.fill_from(ops_iter, 64)
            if buf.kinds:
                bufs.append(buf)
            if done:
                break
        path = tmp_path / "t.trace"
        n = record_buffers(bufs, path)
        assert n == sum(b.n_instructions for b in bufs)
        back = list(replay_buffers(path))
        # Replay hands back zero-copy memoryview columns; normalize to
        # lists for value comparison (indexing either yields plain ints).
        assert [(list(b.kinds), list(b.a0), list(b.a1), list(b.a2),
                 b.n_instructions) for b in back] \
            == [(list(b.kinds), list(b.a0), list(b.a1), list(b.a2),
                 b.n_instructions) for b in bufs]
        assert [b.events for b in back] == [b.events for b in bufs]
        assert all(type(b.kinds[0]) is int and type(b.a0[0]) is int
                   for b in back)


class TestInfoAndErrors:
    def test_trace_info(self, tmp_path):
        path = tmp_path / "t.trace"
        record(iter(SAMPLE_OPS), path)
        info = trace_info(path)
        assert info["blocks"] == 2
        assert info["loads"] == 1 and info["stores"] == 1
        assert info["events"] == 2
        assert info["instructions"] == 18
        assert info["kernel_instructions"] == 5
        assert info["bytes"] > 16

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOTATRACExxxxxxx")
        with pytest.raises(TraceFormatError):
            list(replay(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.trace"
        path.write_bytes(b"RPR")
        with pytest.raises(TraceFormatError):
            list(replay(path))

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        record(iter(SAMPLE_OPS[:1]), path)
        with open(path, "ab") as fh:
            fh.write(b"\x7f")
        with pytest.raises(TraceFormatError):
            list(replay(path))

    def test_oversized_block_rejected(self, tmp_path):
        with pytest.raises(TraceWriteError):
            record(iter([(OP_BLOCK, 0, 1 << 17, 48, False)]),
                   tmp_path / "t.trace")

    def test_unknown_op_rejected(self, tmp_path):
        with pytest.raises(TraceWriteError):
            record(iter([(99, 0)]), tmp_path / "t.trace")

    def test_truncated_chunk_body_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        record(iter(SAMPLE_OPS), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TraceFormatError, match="truncated chunk"):
            list(replay(path))

    def test_truncated_mmap_replay_raises_not_crashes(self, tmp_path):
        """The zero-copy path bounds-checks every chunk before slicing,
        so a truncated file raises the same error as the in-memory path
        (never a SIGBUS from dereferencing past the mapping)."""
        path = tmp_path / "t.trace"
        record(iter(SAMPLE_OPS), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TraceFormatError, match="truncated chunk"):
            list(replay_buffers(path, use_mmap=True))

    def test_truncated_tail_chunk_raises_after_good_chunks(self, tmp_path):
        bufs = []
        for start in (0, 3):
            b = TraceBuffer()
            b.fill_from(iter(SAMPLE_OPS[start:]), 10_000)
            bufs.append(b)
        path = tmp_path / "t.trace"
        record_buffers(iter(bufs), path)
        path.write_bytes(path.read_bytes()[:-10])
        stream = replay_buffers(path, use_mmap=True)
        first = next(stream)              # intact chunk still decodes
        assert len(first) == len(SAMPLE_OPS)
        with pytest.raises(TraceFormatError, match="truncated chunk"):
            list(stream)

    def test_header_only_file_yields_no_chunks_under_mmap(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_bytes(struct.pack("<8sII", b"RPRTRACE", 2, 0))
        assert list(replay_buffers(path, use_mmap=True)) == []

    def test_corrupt_event_table_rejected(self, tmp_path):
        path = tmp_path / "t.trace"
        header = struct.pack("<8sII", b"RPRTRACE", 2, 0)
        # empty chunk whose 4-byte event blob is not a valid pickle
        chunk = b"\x10" + struct.pack("<IQI", 0, 0, 4) + b"\xff\xff\xff\xff"
        path.write_bytes(header + chunk)
        with pytest.raises(TraceFormatError, match="corrupt event table"):
            list(replay(path))

    def test_v1_trace_still_readable(self, tmp_path):
        """Pre-SoA traces (fixed-width records, payload-less events)
        decode through the same API."""
        from repro.trace import RUNTIME_EVENT_KINDS
        path = tmp_path / "v1.trace"
        body = (b"\x01" + struct.pack("<QHHB", 0x4000_0000, 10, 48, 0)
                + b"\x03" + struct.pack("<Q", 0x8000_0000)
                + b"\x02" + struct.pack("<QQB", 0x4000_0030,
                                        0x4000_0000, 1)
                + b"\x05" + struct.pack("<B", 0))
        path.write_bytes(struct.pack("<8sII", b"RPRTRACE", 1, 0) + body)
        assert list(replay(path)) == [
            (OP_BLOCK, 0x4000_0000, 10, 48, False),
            (OP_LOAD, 0x8000_0000),
            (OP_BRANCH, 0x4000_0030, 0x4000_0000, True),
            (OP_EVENT, RUNTIME_EVENT_KINDS[0], None),
        ]


@given(st.lists(st.one_of(
    st.tuples(st.just(OP_LOAD), st.integers(0, (1 << 48) - 1)),
    st.tuples(st.just(OP_STORE), st.integers(0, (1 << 48) - 1)),
    st.tuples(st.just(OP_BRANCH), st.integers(0, (1 << 48) - 1),
              st.integers(0, (1 << 48) - 1), st.booleans()),
    st.tuples(st.just(OP_BLOCK), st.integers(0, (1 << 48) - 1),
              st.integers(0, 65535), st.integers(1, 65535),
              st.booleans())),
    max_size=80))
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_identity(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("traces") / "p.trace"
    record(iter(ops), path)
    assert list(replay(path)) == [tuple(op) for op in ops]
