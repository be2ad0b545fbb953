"""Tests for the SoA trace buffers (repro.trace)."""

import pytest

from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         EV_GC_TRIGGERED, EV_JIT_CODE_EMITTED, TraceBuffer,
                         TraceBufferStream)

from tests.opstream import stream_ops

OPS = [
    (OP_BLOCK, 0x4000_0000, 10, 48, False),
    (OP_LOAD, 0xC000_0040),
    (OP_STORE, 0xC000_0080),
    (OP_BRANCH, 0x4000_0030, 0x4000_0000, True),
    (OP_EVENT, EV_JIT_CODE_EMITTED, (0x8000_0000, 1024)),
    (OP_BLOCK, 0xFFFF_8000_0000, 5, 24, True),
    (OP_EVENT, EV_GC_TRIGGERED, None),
]


def _columns(buf):
    return (buf.kinds, buf.a0, buf.a1, buf.a2, buf.events,
            buf.n_instructions)


class TestTraceBuffer:
    def test_push_emitters_match_fill_from(self):
        """The push API and the tuple adapter must build identical
        buffers — workload generators use the former, trace replay and
        the test builders the latter."""
        pushed = TraceBuffer()
        pushed.block(0x4000_0000, 10, 48, False)
        pushed.load(0xC000_0040)
        pushed.store(0xC000_0080)
        pushed.branch(0x4000_0030, 0x4000_0000, True)
        pushed.event(EV_JIT_CODE_EMITTED, (0x8000_0000, 1024))
        pushed.block(0xFFFF_8000_0000, 5, 24, True)
        pushed.event(EV_GC_TRIGGERED, None)
        filled = TraceBuffer()
        assert filled.fill_from(iter(OPS), None) is True
        assert _columns(pushed) == _columns(filled)

    def test_iter_ops_roundtrip(self):
        buf = TraceBuffer()
        buf.extend(OPS)
        assert list(buf.iter_ops()) == OPS

    def test_fill_from_bounds_never_split_an_op(self):
        # 10-instruction blocks; a 15-instruction bound must stop after
        # the second block (20 instructions), not mid-block.
        ops = iter([(OP_BLOCK, 0x4000_0000 + i * 64, 10, 48, False)
                    for i in range(5)])
        buf = TraceBuffer()
        assert buf.fill_from(ops, 15) is False
        assert buf.n_instructions == 20
        assert len(buf) == 2

    def test_fill_from_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            TraceBuffer().fill_from(iter([(99, 0)]), None)

    def test_color_private_offsets_only_mem_in_span(self):
        buf = TraceBuffer()
        buf.extend(OPS)
        buf._vcols = (len(buf), None)     # a cached kernel column set
        color = 1 << 40
        buf.color_private([(0xC000_0000, 0xD000_0000)], color)
        assert buf._vcols is None         # invalidated with the column
        out = list(buf.iter_ops())
        assert out[1] == (OP_LOAD, 0xC000_0040 + color)
        assert out[2] == (OP_STORE, 0xC000_0080 + color)
        # code addresses (blocks/branches) and out-of-span ops untouched
        assert out[0] == OPS[0] and out[3] == OPS[3]

    def test_color_private_zero_color_is_noop(self):
        buf = TraceBuffer()
        buf.extend(OPS)
        a0 = buf.a0
        buf.color_private([(0, 1 << 48)], 0)
        assert buf.a0 is a0


class TestTraceBufferStream:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            TraceBufferStream()
        with pytest.raises(ValueError):
            TraceBufferStream(ops=iter(()), buffers=iter(()))

    def test_chunks_ops_and_replays_all(self):
        many = OPS * 30
        stream = TraceBufferStream(ops=iter(many), chunk_instructions=64)
        assert stream_ops(stream) == many

    def test_resume_mid_chunk(self):
        stream = TraceBufferStream(ops=iter(OPS), chunk_instructions=1024)
        buf = stream.buffer()
        assert buf is not None and stream.pos == 0
        stream.pos = 3                    # consumer stopped mid-chunk
        assert stream_ops(stream) == OPS[3:]

    def test_filler_source(self):
        ops_iter = iter(OPS * 10)

        def filler(buf, n_instructions):
            return buf.fill_from(ops_iter, n_instructions)

        stream = TraceBufferStream(filler=filler, chunk_instructions=32)
        assert stream_ops(stream) == OPS * 10

    def test_buffers_source_applies_transform(self):
        chunks = []
        for lo in range(0, len(OPS), 4):
            buf = TraceBuffer()
            buf.extend(OPS[lo:lo + 4])
            chunks.append(buf)
        color = 1 << 40
        stream = TraceBufferStream(
            buffers=iter(chunks),
            transform=lambda b: b.color_private(
                [(0xC000_0000, 0xD000_0000)], color))
        out = stream_ops(stream)
        assert out[1] == (OP_LOAD, 0xC000_0040 + color)
        assert [o for o in out if o[0] == OP_BLOCK] \
            == [o for o in OPS if o[0] == OP_BLOCK]
