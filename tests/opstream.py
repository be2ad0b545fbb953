"""Op-tuple conveniences for tests, on top of the push/stream API.

Generators push ops into :class:`~repro.trace.TraceBuffer` objects and
the core consumes :class:`~repro.trace.TraceBufferStream` chunks; tests
often want plain op tuples instead, to build inputs by hand or to make
assertions about what was emitted.
"""

from __future__ import annotations

from repro.trace import TraceBuffer, TraceBufferStream


def pull(fill, *args, **kwargs) -> list:
    """The ops ``fill(buf, *args, **kwargs)`` pushes, as tuples."""
    buf = TraceBuffer()
    fill(buf, *args, **kwargs)
    return list(buf.iter_ops())


def program_ops(program, chunk_instructions: int = 4096):
    """A workload program's infinite op stream as tuples.

    Chunks are pushed through ``program.fill_buffer``; the program's
    state runs up to one chunk ahead of the ops yielded so far.
    """
    while True:
        buf = TraceBuffer()
        program.fill_buffer(buf, chunk_instructions)
        yield from buf.iter_ops()


def stream_ops(stream) -> list:
    """Every op ``stream`` has left, as tuples (drains the stream)."""
    out = []
    while (buf := stream.buffer()) is not None:
        out.extend(list(buf.iter_ops())[stream.pos:])
        stream.pos = len(buf)
    return out


def consume(core, ops, max_instructions: int | None = None,
            engine: str = "batched") -> int:
    """Drive ``core`` with op tuples through ``Core.consume_stream``.

    ``ops`` may also be a :class:`~repro.trace.TraceBufferStream`, which
    resumes across calls where a fresh wrapper around a shared iterator
    would drop the ops buffered past the limit.
    """
    if not isinstance(ops, TraceBufferStream):
        ops = TraceBufferStream(ops=ops)
    return core.consume_stream(ops, max_instructions, engine=engine)
