"""Property-based tests: pipeline invariants under arbitrary op streams."""

from hypothesis import given, settings, strategies as st

from repro.kernel.vm import VirtualMemory
from repro.trace import OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE
from repro.uarch.machine import arm_server, i9_9980xe, xeon_e5_2620v4
from repro.uarch.pipeline import Core, WorkloadHints
from repro.uarch.topdown import profile_core

from tests.opstream import consume

ADDR = st.integers(min_value=0, max_value=(1 << 44) - 1)

OPS = st.one_of(
    st.tuples(st.just(OP_LOAD), ADDR),
    st.tuples(st.just(OP_STORE), ADDR),
    st.tuples(st.just(OP_BLOCK), ADDR, st.integers(1, 200),
              st.integers(4, 1024), st.booleans()),
    st.tuples(st.just(OP_BRANCH), ADDR, ADDR, st.booleans()),
    st.tuples(st.just(OP_EVENT), st.just("gc/triggered"), st.none()),
)


def run_stream(ops, machine=None, hints=None):
    core = Core(machine or i9_9980xe(), VirtualMemory())
    core.set_hints(hints or WorkloadHints())
    consume(core, list(ops))
    return core


@given(st.lists(OPS, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_topdown_sums_to_one(ops):
    core = run_stream(ops)
    if core.counts.instructions == 0:
        return
    td = profile_core(core)
    total = (td.retiring + td.bad_speculation + td.frontend_bound
             + td.backend_bound)
    assert abs(total - 1.0) < 1e-6
    for value in (td.retiring, td.bad_speculation, td.frontend_bound,
                  td.backend_bound):
        assert value >= -1e-12


@given(st.lists(OPS, min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_counts_consistent(ops):
    core = run_stream(ops)
    c = core.counts
    expected = sum(op[2] if op[0] == OP_BLOCK else 1
                   for op in ops if op[0] != OP_EVENT)
    assert c.instructions == expected
    assert c.kernel_instructions <= c.instructions
    assert c.loads == sum(1 for op in ops if op[0] == OP_LOAD)
    assert c.stores == sum(1 for op in ops if op[0] == OP_STORE)
    assert c.branches == sum(1 for op in ops if op[0] == OP_BRANCH)
    assert core.cycles >= c.uops / core.machine.pipeline_width - 1e-9


@given(st.lists(OPS, min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_property_deterministic_across_runs(ops):
    a = run_stream(ops)
    b = run_stream(ops)
    assert a.counts == b.counts
    assert a.cycles == b.cycles
    assert a.stalls == b.stalls


@given(st.lists(OPS, min_size=1, max_size=150))
@settings(max_examples=30, deadline=None)
def test_property_all_machines_accept_any_stream(ops):
    for machine in (i9_9980xe(), xeon_e5_2620v4(), arm_server()):
        core = run_stream(ops, machine=machine)
        assert core.cycles >= 0


@given(st.lists(OPS, min_size=10, max_size=200))
@settings(max_examples=30, deadline=None)
def test_property_reset_stats_idempotent_books(ops):
    core = run_stream(ops)
    core.reset_stats()
    assert core.counts.instructions == 0
    assert core.cycles == 0.0
    assert all(v == 0.0 for v in core.stalls.values())
    # The same stream still runs after a reset (state stays coherent).
    consume(core, list(ops))
    assert core.counts.instructions > 0


@given(st.lists(OPS, min_size=1, max_size=200),
       st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=30, deadline=None)
def test_property_hints_scale_sanely(ops, ilp, mlp):
    base = run_stream(ops, hints=WorkloadHints(ilp=2.0, mlp=2.0))
    varied = run_stream(ops, hints=WorkloadHints(ilp=ilp, mlp=mlp))
    # Higher ILP/MLP never increases cycles for the identical stream.
    if ilp >= 2.0 and mlp >= 2.0:
        assert varied.cycles <= base.cycles + 1e-6
