"""The sealed Trace's column tables against the record tuples they replaced.

``seal`` orders rows with a stable argsort; the oracle below is the
``sorted(records, key=...)`` it replaced, over records built from the
same calls. Tables must yield exactly those rows, with exact ``int`` and
``str`` values, and compare equal to tables converted from them.
"""

import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace, manual_session
from lmmk.recorder import (
    PER_TOKEN_KINDS,
    KernelRecord,
    KernelTable,
    PhaseKind,
    PhaseRecord,
    PhaseTable,
    Trace,
    TraceSession,
)


def oracle_seal(phases, kernels):
    """The seal that built and sorted one record per row."""
    return (
        tuple(sorted(phases, key=lambda r: r.t_start_ns)),
        tuple(sorted(kernels, key=lambda r: r.t_queued_ns)),
    )


# Few distinct values, so most queued times and phase starts tie.
small = st.integers(0, 4)
kernel_calls = st.tuples(
    st.just("kernel"), st.sampled_from(["a", "b", "ffn", "ü"]), st.integers(0, 2),
    small, small, small, small, small, small,
)
phase_calls = st.tuples(
    st.just("phase"), st.sampled_from(list(PhaseKind)), st.integers(0, 2), st.integers(0, 9),
    st.sampled_from([0, 0, 0, 1, 2]), st.sampled_from([0, 0, 1]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(kernel_calls, phase_calls), max_size=80))
def test_seal_matches_sorted_records(calls):
    session, clock = manual_session(start_ns=0, clock_offset_ns=0)
    phases, kernels = [], []
    for call in calls:
        if call[0] == "kernel":
            _, name, queue, enqueue, queued, d_submit, d_start, d_end, _ = call
            stamps = (queued, queued + d_submit, queued + d_submit + d_start,
                      queued + d_submit + d_start + d_end)
            assert session.record_kernel(name, queue, enqueue, *stamps) is None
            kernels.append(KernelRecord(name, queue, enqueue, *stamps))
        else:
            _, kind, turn, token, gap, length = call
            token = token if kind in PER_TOKEN_KINDS else None
            clock.advance_to(clock() + gap)
            start = clock()
            handle = session.begin_phase(kind, turn, token)
            clock.advance_to(start + length)
            assert session.end_phase(handle) is None
            phases.append(PhaseRecord(kind, turn, token, start, start + length))
    trace = session.seal()
    want_phases, want_kernels = oracle_seal(phases, kernels)

    got_phases, got_kernels = tuple(trace.phases), tuple(trace.kernels)
    assert got_phases == want_phases and got_kernels == want_kernels
    for row in got_phases:
        assert isinstance(row, PhaseRecord) and isinstance(row.kind, PhaseKind)
        assert all(type(v) is int for v in (row.turn, row.t_start_ns, row.t_end_ns))
        assert row.token_index is None or type(row.token_index) is int
    for row in got_kernels:
        assert isinstance(row, KernelRecord) and type(row.name) is str
        assert all(type(v) is int for v in dataclasses.astuple(row)[1:])

    assert trace.phases == want_phases and trace.kernels == want_kernels
    assert trace.phases == PhaseTable.from_records(want_phases)
    assert trace.kernels == KernelTable.from_records(want_kernels)
    assert trace == Trace(trace.device_label, 0, want_phases, want_kernels, created_at="x")
    for i in range(-len(want_kernels), len(want_kernels)):
        assert trace.kernels[i] == want_kernels[i]
    assert trace.kernels[1:-1:2] == want_kernels[1:-1:2]


def test_ties_keep_recording_order_past_the_small_sort_cutoff():
    # numpy sorts short arrays by insertion sort, which is stable for any
    # kind; ties only show an unstable sort in longer arrays. The phase
    # clock here is not monotonic, so phase starts arrive out of order too.
    readings = iter([i % 2 for i in range(64) for _ in "be"])
    session = TraceSession(clock=lambda: next(readings))
    names = [f"k{i}" for i in range(64)]
    for i, name in enumerate(names):
        session.record_kernel(name, 0, 0, i % 2, 5, 5, 5)
        session.end_phase(session.begin_phase(PhaseKind.DECODE, 0, i))
    trace = session.seal()
    assert [k.name for k in trace.kernels] == names[0::2] + names[1::2]
    assert [p.token_index for p in trace.phases] == [*range(0, 64, 2), *range(1, 64, 2)]


def test_len_does_not_build_rows():
    trace = build_trace(
        kernels=[("k", 0, 0, i, i, i, i) for i in range(5)],
        phases=[(PhaseKind.PREFILL, 0, None, 0, 1)],
    )
    with mock.patch.object(KernelTable, "_row", side_effect=AssertionError("row built")), \
         mock.patch.object(PhaseTable, "_row", side_effect=AssertionError("row built")):
        assert len(trace.kernels) == 5 and len(trace.phases) == 1
        assert trace.kernels and trace.phases


def test_columns_are_read_only_int64():
    trace = build_trace(kernels=[("k", 0, 0, 1, 2, 3, 4)])
    assert trace.kernels.t_end_ns.dtype == np.int64
    with pytest.raises(ValueError):
        trace.kernels.t_end_ns[0] = 9
    assert trace.kernels.t_end_ns[0] == 4


def test_index_out_of_range():
    trace = build_trace(kernels=[("k", 0, 0, 1, 2, 3, 4)])
    with pytest.raises(IndexError):
        trace.kernels[1]
    with pytest.raises(IndexError):
        trace.kernels[-2]


def test_replace_converts_record_tuples():
    trace = build_trace(kernels=[("a", 0, 0, 1, 2, 3, 4), ("b", 1, 0, 2, 2, 3, 4)])
    kept = (trace.kernels[1],)
    copy = dataclasses.replace(trace, kernels=kept)
    assert isinstance(copy.kernels, KernelTable)
    assert copy.kernels == kept and copy.kernels.names == ("b",)


def test_tables_compare_rows_by_name_not_by_code():
    rows = (KernelRecord("x", 0, 0, 0, 0, 0, 0), KernelRecord("y", 0, 0, 1, 1, 1, 1))
    a = KernelTable.from_records(rows)
    times = ([0, 1],) * 4
    b = KernelTable(("y", "x", "unused"), [1, 0], [0, 0], [0, 0], *times)
    assert a.names != b.names
    assert a == b and b == rows
    assert a != KernelTable(("y", "x"), [0, 1], [0, 0], [0, 0], *times)


def test_conversion_rejects_values_outside_int64():
    message = f"KernelRecord.t_end_ns out of int64 range, got {2**63}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace("x", 0, (), (KernelRecord("k", 0, 0, 0, 0, 0, 2**63),))
    with pytest.raises(ValueError, match=r"^PhaseRecord\.token_index out of int64 range"):
        Trace("x", 0, (PhaseRecord(PhaseKind.DECODE, 0, 2**63, 0, 1),), ())
    edge = Trace("x", 0, (), (KernelRecord("k", 0, 0, 0, 0, 0, 2**63 - 1),))
    assert edge.kernels[0].t_end_ns == 2**63 - 1
