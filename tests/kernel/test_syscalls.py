"""Tests for the syscall / network-stack model."""

import random

from repro.kernel.syscalls import SyscallKind, SyscallModel
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE,
                         REGION_KERNEL_CODE_BASE)

from tests.opstream import pull


def run_emit(model, kind, payload=0, ubuf=0x7F000000):
    return pull(model.emit_into, kind, random.Random(1),
                payload_bytes=payload, user_buffer=ubuf)


def count_instructions(ops):
    n = 0
    for op in ops:
        if op[0] == OP_BLOCK:
            n += op[2]
        elif op[0] in (OP_LOAD, OP_STORE, OP_BRANCH):
            n += 1
    return n


class TestHandlers:
    def test_all_kinds_emit_kernel_ops(self):
        m = SyscallModel()
        for kind in SyscallKind.ALL:
            ops = run_emit(m, kind)
            blocks = [op for op in ops if op[0] == OP_BLOCK]
            assert blocks, kind
            assert all(op[4] for op in blocks), f"{kind}: non-kernel block"

    def test_handler_code_is_in_kernel_region(self):
        m = SyscallModel()
        ops = run_emit(m, SyscallKind.RECV)
        for op in ops:
            if op[0] == OP_BLOCK:
                assert op[1] >= REGION_KERNEL_CODE_BASE

    def test_instruction_estimate_in_ballpark(self):
        m = SyscallModel()
        for kind in (SyscallKind.RECV, SyscallKind.FUTEX,
                     SyscallKind.EPOLL_WAIT):
            actual = count_instructions(run_emit(m, kind))
            estimate = m.instructions_estimate(kind)
            assert 0.4 * estimate < actual < 2.5 * estimate

    def test_distinct_kinds_have_distinct_code(self):
        m = SyscallModel()
        recv = m.handler_region(SyscallKind.RECV)
        send = m.handler_region(SyscallKind.SEND)
        assert recv.base != send.base

    def test_regions_cached_across_instances(self):
        a = SyscallModel()
        b = SyscallModel()
        assert a.handler_region(SyscallKind.RECV) \
            is b.handler_region(SyscallKind.RECV)


class TestCopyLoop:
    def test_payload_drives_copy_volume(self):
        m = SyscallModel()
        small = count_instructions(run_emit(m, SyscallKind.RECV, 512))
        large = count_instructions(run_emit(m, SyscallKind.RECV, 64 * 1024))
        assert large > small * 2

    def test_recv_copies_to_user_buffer(self):
        m = SyscallModel()
        ubuf = 0x7F00_0000
        ops = run_emit(m, SyscallKind.RECV, payload=1024, ubuf=ubuf)
        user_stores = [op for op in ops if op[0] == OP_STORE
                       and ubuf <= op[1] < ubuf + 4096]
        assert len(user_stores) == 1024 // 64

    def test_send_copies_from_user_buffer(self):
        m = SyscallModel()
        ubuf = 0x7F00_0000
        ops = run_emit(m, SyscallKind.SEND, payload=1024, ubuf=ubuf)
        user_loads = [op for op in ops if op[0] == OP_LOAD
                      and ubuf <= op[1] < ubuf + 4096]
        assert len(user_loads) == 1024 // 64

    def test_buffer_pool_wraps(self):
        m = SyscallModel(buffer_pool_size=2, buffer_bytes=4096)
        b1 = m._acquire_buffer()
        b2 = m._acquire_buffer()
        b3 = m._acquire_buffer()
        assert b1 != b2
        assert b3 == b1

    def test_non_payload_kind_ignores_payload(self):
        m = SyscallModel()
        with_payload = count_instructions(
            run_emit(m, SyscallKind.FUTEX, 64 * 1024))
        without = count_instructions(run_emit(m, SyscallKind.FUTEX, 0))
        assert abs(with_payload - without) < without * 0.5


class TestKernelDataSpan:
    def test_span_covers_buffers(self):
        m = SyscallModel(buffer_pool_size=4, buffer_bytes=8192)
        start, length = m.kernel_data_span()
        last_buf = m._buf_base + 3 * 8192
        assert start <= last_buf < start + length
