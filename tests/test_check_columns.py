"""The vectorised record check and the bulk append that relies on it.

``row_by_row`` applies the recorder's per-record checks to one row at a
time and is the oracle: ``check_columns`` must raise the same error, with
the same message, for the same first offending row.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ManualClock
from lmmk.errors import PhaseOverlap, SessionSealed, TimestampOrderViolation
from lmmk.recorder import (
    INT64_MAX,
    INT64_MIN,
    KernelTable,
    PhaseKind,
    PhaseTable,
    RecordColumns,
    Trace,
    TraceSession,
    _check_kernel,
    _check_phase,
    check_columns,
)

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


@pytest.mark.parametrize("names, code", [(("k", "m"), -1), (("k", "m"), 2), (("k", "m"), 5),
                                         ((), 0)])
def test_name_code_outside_the_names_is_refused(names, code):
    """Also in a Trace made from tables, where -1 would name the last name
    and 5 be numpy's IndexError. The code is checked before the other rules
    of its row, and after the rows above it."""
    message = f"kernel name code {code} is not in range({len(names)})"
    kernels = columns([[code, -1, 0, 5, 4, 3, 2]], 7)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_columns(columns([], 5), names, kernels)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace("x", 0, PhaseTable(*columns([], 5)), KernelTable(names, *kernels))
    kernels = columns([[0, -1, 0, 0, 0, 0, 0], [code, 0, 0, 0, 0, 0, 0]], 7)
    with pytest.raises(ValueError, match="^queue_id must be nonnegative$"):
        check_columns(columns([], 5), ["k"], kernels)


@pytest.mark.parametrize("code", [-1, 6, 9])
def test_phase_kind_code_outside_the_kinds_is_refused(code):
    """Also in a Trace made from tables, where -1 would read as sampling
    and 6 or 9 be numpy's IndexError. The code is checked before the other
    rules of its row, and after the rows above it."""
    message = f"phase kind code {code} is not in range(6)"
    phases = columns([[code, -1, 0, -5, -9]], 5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_columns(phases, [], columns([], 7))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace("x", 0, PhaseTable(*phases), KernelTable((), *columns([], 7)))
    phases = columns([[0, -1, -1, 0, 0], [code, 0, -1, 0, 0]], 5)
    with pytest.raises(ValueError, match="^turn must be nonnegative$"):
        check_columns(phases, [], columns([], 7))


@pytest.mark.parametrize("code", [INT64_MIN, -2, -1, 6, 7, 9, INT64_MAX])
@pytest.mark.parametrize("token", [-1, 0, 5])
def test_a_code_outside_the_range_is_refused_in_an_otherwise_valid_row(code, token):
    """Whatever token index the row holds; a name code among six names too."""
    message = f"phase kind code {code} is not in range(6)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_columns(columns([[code, 0, token, 0, 0]], 5), [], columns([], 7))
    message = f"kernel name code {code} is not in range(6)"
    kernels = columns([[code, 0, 0, 0, 0, 0, 0]], 7)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_columns(columns([], 5), [f"k{i}" for i in range(6)], kernels)


def _warm_up(session):
    """Record 1,000 empty phases and kernels at time 0, so that the rows
    recorded next cross the end of the first 1,024-row buffer."""
    for _ in range(1_000):
        session.end_phase(session.begin_phase(KINDS[0], 0))
        session.record_kernel("a", 0, 0, 0, 0, 0, 0)


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
    clock = ManualClock()
    by_call = TraceSession(clock=clock)
    _warm_up(by_call)
    _record_calls(by_call, clock, phase_list, names, kernel_list)
    # record_columns interns the names in the order given: give the ones
    # the rows use, in the order the rows first use them
    used = list(dict.fromkeys(names[code] for code, *_ in kernel_list))
    for row in kernel_list:
        row[0] = used.index(names[row[0]])
    bulk = TraceSession(clock=ManualClock())
    _warm_up(bulk)
    bulk.record_columns(columns(phase_list, 5), used, columns(kernel_list, 7))
    expected, trace = by_call.seal(), bulk.seal()
    assert trace == expected
    assert trace.kernels.names == expected.kernels.names


def test_record_columns_raises_before_appending():
    session = TraceSession(clock=ManualClock(7))
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


def test_record_columns_refuses_a_name_that_is_not_a_str():
    session = TraceSession(clock=ManualClock(7))
    kernels = columns([[0, 0, 0, 1, 2, 3, 4], [1, 0, 0, 1, 2, 3, 4]], 7)
    with pytest.raises(TypeError, match="^kernel name must be a str, got 5$"):
        session.record_columns(columns([], 5), ["k", 5], kernels)
    assert len(session.seal().kernels) == 0


def test_extend_grows_past_capacity_in_one_call():
    rows = RecordColumns()
    kernels = columns([[i % 2, 0, i, i, i, i, i] for i in range(3_000)], 7)
    rows.extend(columns([], 5), ["x", "y"], kernels)
    names, table = rows.kernel_columns()
    assert names == ("x", "y")
    assert table[5].tolist() == list(range(3_000))
    assert table[0].tolist() == [i % 2 for i in range(3_000)]
