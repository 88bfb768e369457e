"""The vectorised record check and the bulk append that relies on it.

``row_by_row`` applies the recorder's per-record checks to one row at a
time and is the oracle: ``check_columns`` must raise the same error, with
the same message, for the same first offending row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmk.errors import PhaseOverlap, SessionSealed, TimestampOrderViolation
from lmmk.recorder import (
    INT64_MAX,
    INT64_MIN,
    PhaseKind,
    RecordColumns,
    TraceSession,
    _check_kernel,
    _check_phase,
    check_columns,
)
from lmmk.sim_engine import VirtualClock

KINDS = tuple(PhaseKind)


def row_by_row(phases, names, kernels):
    for kind, turn, token, start, end in zip(*(c.tolist() for c in phases)):
        _check_phase(KINDS[kind], turn, None if token == -1 else token, start, end)
    for code, *rest in zip(*(c.tolist() for c in kernels)):
        _check_kernel(names[code], *rest)


def raised(check, *args):
    try:
        check(*args)
    except (ValueError, TimestampOrderViolation) as exc:
        return type(exc), str(exc)
    return None


def columns(rows, width):
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, width).T)


extremes = st.sampled_from([INT64_MIN, -3, -2, -1, 0, 1, 2, 5, INT64_MAX])


@st.composite
def phase_rows(draw):
    """A valid phase row, the same with one field replaced, or a row of
    arbitrary values: token -1 (none) and below -1 on both kinds of phase."""
    kind = draw(st.integers(0, 5))
    if draw(st.integers(0, 3)) == 0:
        return [kind] + [draw(extremes) for _ in range(4)]
    start = draw(st.integers(0, 100))
    token = -1 if KINDS[kind] in (PhaseKind.EMBEDDING, PhaseKind.PREFILL) else draw(
        st.integers(0, 5))
    row = [kind, draw(st.integers(0, 3)), token, start, start + draw(st.integers(0, 9))]
    if draw(st.booleans()):
        row[draw(st.integers(1, 4))] = draw(extremes)
    return row


@st.composite
def kernel_rows(draw):
    """Like ``phase_rows`` for kernels; code 0 may name the empty string."""
    code = draw(st.integers(0, 2))
    if draw(st.integers(0, 3)) == 0:
        return [code] + [draw(extremes) for _ in range(6)]
    stamps = sorted(draw(st.lists(st.integers(0, 100), min_size=4, max_size=4)))
    row = [code, draw(st.integers(0, 3)), draw(st.integers(0, 100)), *stamps]
    if draw(st.booleans()):
        row[draw(st.integers(1, 6))] = draw(extremes)
    return row


@settings(max_examples=400, deadline=None)
@given(st.lists(phase_rows(), max_size=8),
       st.tuples(st.sampled_from(["", "gemm"]), st.just("norm"), st.just("rope")),
       st.lists(kernel_rows(), max_size=8))
def test_check_columns_matches_row_by_row(phase_list, names, kernel_list):
    phases, kernels = columns(phase_list, 5), columns(kernel_list, 7)
    assert raised(check_columns, phases, names, kernels) == raised(row_by_row, phases, names,
                                                                  kernels)


def test_check_columns_reports_the_lowest_row_first_rule():
    phases = columns([[0, 0, -1, 0, 5], [2, -1, -1, -1, -2], [2, 0, 0, -1, 3]], 5)
    with pytest.raises(ValueError, match="^turn must be nonnegative$"):
        check_columns(phases, [], columns([], 7))
    kernels = columns([[0, 0, 0, 1, 2, 3, 4], [0, 0, 0, 5, 4, 3, 2], [0, -1, 0, 0, 0, 0, 0]], 7)
    with pytest.raises(TimestampOrderViolation, match="^t_submit_ns < t_queued_ns$"):
        check_columns(columns([], 5), ["k"], kernels)


def _record_calls(session, clock, phase_list, names, kernel_list):
    for kind, turn, token, start, end in phase_list:
        clock.advance_to(start)
        handle = session.begin_phase(KINDS[kind], turn, None if token == -1 else token)
        clock.advance_to(end)
        session.end_phase(handle)
    for code, *rest in kernel_list:
        session.record_kernel(names[code], *rest)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(0, 300), st.randoms(use_true_random=False))
def test_record_columns_appends_what_the_record_calls_append(phase_count, kernel_count, rnd):
    names = ["b", "a", "c"]
    phase_list, t = [], 0
    for _ in range(phase_count):
        kind = rnd.randrange(6)
        token = -1 if kind < 2 else rnd.randrange(5)
        phase_list.append([kind, 0, token, t, t + rnd.randrange(4)])
        t = phase_list[-1][4]
    kernel_list = []
    for _ in range(kernel_count):
        stamps = sorted(rnd.randrange(50) for _ in range(4))
        kernel_list.append([rnd.randrange(3), 0, rnd.randrange(50), *stamps])
    clock = VirtualClock()
    by_call = TraceSession(clock=clock, capacity=16)
    by_call.record_kernel("a", 0, 0, 0, 0, 0, 0)
    _record_calls(by_call, clock, phase_list, names, kernel_list)
    # record_columns interns the names in the order given: give the ones
    # the rows use, in the order the rows first use them
    used = list(dict.fromkeys(names[code] for code, *_ in kernel_list))
    for row in kernel_list:
        row[0] = used.index(names[row[0]])
    bulk = TraceSession(capacity=16)
    bulk.record_kernel("a", 0, 0, 0, 0, 0, 0)
    bulk.record_columns(columns(phase_list, 5), used, columns(kernel_list, 7))
    expected, trace = by_call.seal(), bulk.seal()
    assert trace == expected
    assert trace.kernels.names == expected.kernels.names


def test_record_columns_raises_before_appending():
    session = TraceSession(clock=VirtualClock(7))
    good = columns([[0, 0, -1, 0, 5]], 5), ["k"], columns([[0, 0, 0, 1, 2, 3, 4]], 7)
    with pytest.raises(ValueError, match="kernel name must be non-empty"):
        session.record_columns(good[0], [""], good[2])
    handle = session.begin_phase(PhaseKind.PREFILL, 0)
    with pytest.raises(PhaseOverlap):
        session.record_columns(*good)
    session.end_phase(handle)
    trace = session.seal()
    assert len(trace.phases) == 1 and len(trace.kernels) == 0
    with pytest.raises(SessionSealed):
        session.record_columns(*good)


def test_extend_grows_past_capacity_in_one_call():
    rows = RecordColumns(capacity=16)
    kernels = columns([[i % 2, 0, i, i, i, i, i] for i in range(1000)], 7)
    rows.extend(columns([], 5), ["x", "y"], kernels)
    _, table = rows.tables()
    assert table.names == ("x", "y")
    assert table.t_start_ns.tolist() == list(range(1000))
    assert table.name_code.tolist() == [i % 2 for i in range(1000)]
