"""The sealed Trace's column tables against the record tuples they replaced.

A Trace copies its rows into columns of its own, sorting them stably only
when they are out of order; the oracle below is the
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
import lmmk.recorder
from lmmk import trace_io
from lmmk.errors import ParseError, PhaseOverlap
from lmmk.recorder import (
    PER_TOKEN_KINDS,
    KernelRecord,
    KernelTable,
    PhaseKind,
    PhaseRecord,
    PhaseTable,
    RecordColumns,
    Trace,
    TraceSession,
)
from lmmk.sim_engine import WindowTable
from lmmk.timeline import GapTable


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
    assert trace == Trace(trace.device_label, 0, want_phases, want_kernels)
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


def test_tables_leave_the_callers_arrays_writeable():
    columns = [np.array([v], dtype=np.int64) for v in (1, 0, -1, 0, 5)]
    table = PhaseTable(*columns)
    assert all(column.flags.writeable for column in columns)
    assert not any(column.flags.writeable for column in table._arrays())


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
    a = Trace("x", 0, (), rows).kernels
    times = ([0, 1],) * 4
    b = KernelTable(("y", "x", "unused"), [1, 0], [0, 0], [0, 0], *times)
    assert a.names != b.names
    assert a == b and b == rows
    assert a != KernelTable(("y", "x"), [0, 1], [0, 0], [0, 0], *times)


def test_kernel_table_refuses_a_repeated_name():
    """Each distinct name is held once, so ``name_mask`` and aggregation
    see every row of a name."""
    message = "KernelTable names hold 'a' more than once"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelTable(("a", "a"), [0, 1], *[[0, 0]] * 6)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelTable(("b", "a", "a", "b"), *[[]] * 7)
    with pytest.raises(TypeError, match=r"^kernel name must be a str, got \[1\]$"):
        Trace("x", 0, PhaseTable(*[[]] * 5), KernelTable(([1], [1]), [0], *[[0]] * 6))


@pytest.mark.parametrize("phases, kernels, error, message", [
    ((), KernelTable(([1],), [0], *[[0]] * 6), TypeError, "kernel name must be a str, got [1]"),
    (PhaseTable([9], [0], [-1], [0], [5]), (), ValueError, "phase kind code 9 is not in range(6)"),
], ids=["kernel-table", "phase-table"])
def test_a_table_beside_records_is_checked_as_a_table(phases, kernels, error, message):
    """Only the side given as records is converted; the table side reaches
    ``check_columns`` as it is."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Trace("x", 0, phases, kernels)


def test_conversion_rejects_values_outside_int64():
    message = f"KernelRecord.t_end_ns out of int64 range, got {2**63}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Trace("x", 0, (), (KernelRecord("k", 0, 0, 0, 0, 0, 2**63),))
    with pytest.raises(ValueError, match=r"^PhaseRecord\.token_index out of int64 range"):
        Trace("x", 0, (PhaseRecord(PhaseKind.DECODE, 0, 2**63, 0, 1),), ())
    edge = Trace("x", 0, (), (KernelRecord("k", 0, 0, 0, 0, 0, 2**63 - 1),))
    assert edge.kernels[0].t_end_ns == 2**63 - 1


@pytest.mark.parametrize("field", ["clock_offset_ns", "prompt_tokens", "output_tokens"])
@pytest.mark.parametrize("bad", [2**63, -(2**64), True, 1.5, np.int64(1)],
                         ids=["2**63", "-2**64", "bool", "float", "numpy"])
def test_trace_refuses_header_fields_when_built(field, bad):
    if type(bad) is int:
        error, message = ValueError, f"Trace.{field} out of int64 range, got {bad!r}"
    else:
        error, message = TypeError, f"Trace.{field} must be an int or None, got {bad!r}"
    header = {"clock_offset_ns": 0, field: bad}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Trace("x", phases=(), kernels=(), **header)
    edge = Trace("x", phases=(), kernels=(), **{**header, field: -(2**63)})
    assert getattr(edge, field) == -(2**63)


@pytest.mark.parametrize("label", [5, None, b"x"], ids=["int", "none", "bytes"])
def test_trace_refuses_a_non_str_device_label(label):
    """Its reader would refuse the file it writes."""
    message = f"Trace.device_label must be a str, got {label!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Trace(label, 0, (), ())


PHASE = PhaseRecord(PhaseKind.DECODE, 0, 0, 0, 1)
KERNEL = KernelRecord("k", 0, 0, 0, 0, 0, 0)
INT_FIELDS = [(PHASE, name) for name in ("turn", "token_index", "t_start_ns", "t_end_ns")] + [
    (KERNEL, name) for name in ("queue_id", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns",
                                "t_start_ns", "t_end_ns")
]


@pytest.mark.parametrize("record, field", INT_FIELDS,
                         ids=[f"{type(r).__name__}.{name}" for r, name in INT_FIELDS])
@pytest.mark.parametrize("bad", [True, 2.0, np.int64(1), 2**63, -(2**63) - 1],
                         ids=["bool", "float", "numpy", "2**63", "-2**63-1"])
def test_records_refuse_non_int64_fields_when_built(record, field, bad):
    """Built directly or by ``dataclasses.replace``. The int check comes
    before the record's own rules, so a value that also breaks one (a
    negative turn, an end before the start) still gets the int message."""
    owner = type(record).__name__
    if type(bad) is int:
        error, message = ValueError, f"{owner}.{field} out of int64 range, got {bad!r}"
    else:
        expected = "an int or None" if field == "token_index" else "an int"
        error, message = TypeError, f"{owner}.{field} must be {expected}, got {bad!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        type(record)(**{**vars(record), field: bad})
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dataclasses.replace(record, **{field: bad})


OVERLAP = "phase records overlap: decode [10, 20] and decode [15, 30]"
NO_KERNELS = KernelTable((), *[[]] * 7)


def test_overlapping_phases_are_refused_however_the_trace_is_made(tmp_path):
    """A session whose clock runs backwards between phases, records in
    either order and tables in either order all give the reader's error,
    and the reader still raises it as a ParseError."""
    clock = iter([10, 20, 15, 30])
    session = TraceSession(clock=lambda: next(clock))
    for token in (0, 1):
        session.end_phase(session.begin_phase(PhaseKind.DECODE, 0, token))
    for _ in range(2):
        with pytest.raises(PhaseOverlap, match=f"^{re.escape(OVERLAP)}$"):
            session.seal()
        assert session._sealed_trace is None
    records = (PhaseRecord(PhaseKind.DECODE, 0, 0, 10, 20),
               PhaseRecord(PhaseKind.DECODE, 0, 1, 15, 30))
    tables = [PhaseTable([2, 2], [0, 0], [0, 1], [10, 15], [20, 30]),
              PhaseTable([2, 2], [0, 0], [1, 0], [15, 10], [30, 20])]
    fine = build_trace()
    for phases in (records, records[::-1], *tables):
        with pytest.raises(PhaseOverlap, match=f"^{re.escape(OVERLAP)}$"):
            Trace("x", 0, phases, NO_KERNELS)
        with pytest.raises(PhaseOverlap, match=f"^{re.escape(OVERLAP)}$"):
            dataclasses.replace(fine, phases=phases)
    path = tmp_path / "overlap.jsonl"
    path.write_text(
        '{"ev":"session","version":1,"device_label":"x","clock_offset_ns":0}\n'
        '{"ev":"phase","kind":"decode","turn":0,"token":0,"t_start_ns":10,"t_end_ns":20}\n'
        '{"ev":"phase","kind":"decode","turn":0,"token":1,"t_start_ns":15,"t_end_ns":30}\n')
    with pytest.raises(ParseError, match=f"^{re.escape(OVERLAP)}$"):
        trace_io.read_jsonl(str(path))


def test_trace_orders_and_copies_the_tables_it_is_given():
    out_of_order = ([1, 0], [0, 0], [-1, -1], [5, 0], [9, 5])
    in_order = ([0, 1], [0, 0], [-1, -1], [0, 5], [5, 9])
    for rows in (out_of_order, in_order):
        phase_columns = [np.array(c) for c in rows]
        trace = Trace("x", 0, PhaseTable(*phase_columns), NO_KERNELS)
        assert trace.phases.t_start_ns.tolist() == [0, 5]
        assert trace.phases.kind_code.tolist() == [0, 1]
        assert not any(np.shares_memory(a, b)
                       for a in trace.phases._arrays() for b in phase_columns)


@st.composite
def keyed_rows(draw, width):
    """``width`` columns of valid phase (5) or kernel (7) rows whose sort
    key, column 3, is in order, reversed, or shuffled among many ties.
    Phase windows are disjoint, so every order of them makes a Trace."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["in order", "reversed", "ties"]))
    gaps = draw(st.lists(st.integers(0, 0 if shape == "ties" else 3), min_size=n, max_size=n))
    keys = np.cumsum(gaps, dtype=np.int64)
    spans = np.append(np.diff(keys), 3)  # a phase ends before the next starts,
    spans[1:][np.diff(keys) == 0] = 0  # and a tied one is empty
    lengths = np.array([draw(st.integers(0, int(span))) for span in spans], dtype=np.int64)
    if width == 5:
        rows = [np.full(n, 2), np.zeros(n), np.arange(n), keys, keys + lengths]
    else:
        codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        rows = [np.array(codes), np.zeros(n), keys, keys, keys + lengths, keys + lengths,
                keys + 2 * lengths]
    order = (np.arange(n) if shape == "in order" else np.arange(n)[::-1] if shape == "reversed"
             else np.array(draw(st.permutations(range(n))), dtype=np.int64))
    return [np.asarray(c, dtype=np.int64)[order] for c in rows]


def buffers_of(rows: RecordColumns) -> list[np.ndarray]:
    """Every array a RecordColumns holds rows in: row buffers and segments."""
    held = [np.frombuffer(b, dtype=np.uint8) for b in (rows._phases, rows._kernels)]
    return held + [c for segment in (*rows._p_segments, *rows._k_segments) for c in segment]


def assert_owned(trace: Trace, *others: np.ndarray) -> None:
    for column in (*trace.phases._arrays(), *trace.kernels._arrays()):
        assert column.dtype == np.int64 and column.ndim == 1 and not column.flags.writeable
        assert not any(np.shares_memory(column, other) for other in others)


@settings(max_examples=200, deadline=None)
@given(keyed_rows(5), keyed_rows(7))
def test_every_trace_owns_stably_sorted_copies_of_its_rows(phase_columns, kernel_columns):
    """Tables, a RecordColumns filled by rows or by columns, and a sealed
    session all give the oracle's stable sort, in read-only int64 columns
    that share no memory with the caller's arrays or the recorded rows."""
    names = ("a", "b", "c")
    phases, kernels = PhaseTable(*phase_columns), KernelTable(names, *kernel_columns)
    want_phases = phases.take(np.argsort(phases.t_start_ns, kind="stable"))
    want_kernels = kernels.take(np.argsort(kernels.t_queued_ns, kind="stable"))
    by_row, by_column = RecordColumns(), RecordColumns()
    for p in phases:
        by_row.add_phase(p.kind, p.turn, p.token_index, p.t_start_ns, p.t_end_ns)
    for k in kernels:
        by_row.add_kernel(*dataclasses.astuple(k))
    by_column.extend(phase_columns, names, kernel_columns)
    readings = iter(np.column_stack(phase_columns[3:]).ravel().tolist())  # start, end, start...
    session = TraceSession(clock=readings.__next__)
    for p in phases:
        session.end_phase(session.begin_phase(p.kind, p.turn, p.token_index))
    for k in kernels:
        session.record_kernel(*dataclasses.astuple(k))
    made = [(Trace("x", 0, phases, kernels), None), (Trace("x", 0, by_row, by_row), by_row),
            (Trace("x", 0, by_column, by_column), by_column), (session.seal(), session._rows)]
    for trace, rows in made:
        assert trace.phases == want_phases and trace.kernels == want_kernels
        held = [*phases._arrays(), *kernels._arrays()] if rows is None else buffers_of(rows)
        assert_owned(trace, *phase_columns, *kernel_columns, *held)


def test_an_in_order_session_seals_without_a_sort():
    """Rows recorded in order, past the first row buffer, are copied as
    they are: no argsort runs, and no column views a buffer or segment.
    ``test_ties_keep_recording_order_past_the_small_sort_cutoff`` covers
    the rows that must be sorted."""
    session, clock = manual_session()
    for token in range(1_100):
        handle = session.begin_phase(PhaseKind.DECODE, 0, token)
        session.record_kernel("k", 0, clock(), clock(), clock(), clock(), clock())
        clock.advance_to(clock() + 5)
        session.end_phase(handle)
    with mock.patch.object(lmmk.recorder.np, "argsort", side_effect=AssertionError):
        trace = session.seal()
    assert trace.phases.t_start_ns.tolist() == list(range(0, 5_500, 5))
    assert trace.kernels.t_queued_ns.tolist() == list(range(0, 5_500, 5))
    assert_owned(trace, *buffers_of(session._rows))


def test_tables_refuse_columns_of_unequal_length():
    message = "PhaseTable columns differ in length: [1, 1, 2, 1, 1]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PhaseTable([2], [0], [0, 1], [0], [5])
    message = "KernelTable columns differ in length: [1, 1, 1, 1, 1, 1, 0]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelTable(("k",), [0], [0], [0], [0], [0], [0], [])


@st.composite
def any_tables(draw):
    """A PhaseTable, KernelTable, WindowTable or GapTable of arbitrary rows
    whose codes name a kind or a name."""
    n = draw(st.integers(0, 8))

    def column(values=st.integers(-(2**63), 2**63 - 1)):
        return draw(st.lists(values, min_size=n, max_size=n))

    kinds = st.integers(0, len(PhaseKind) - 1)
    table = draw(st.sampled_from([PhaseTable, KernelTable, WindowTable, GapTable]))
    if table is PhaseTable:
        return PhaseTable(column(kinds), *[column() for _ in range(4)])
    if table is KernelTable:
        return KernelTable(("a", "b", "c"), column(st.integers(0, 2)), *[column() for _ in range(6)])
    if table is WindowTable:
        return WindowTable(column(kinds), *[column() for _ in range(5)])
    starts = np.array(column(st.integers(-(2**63), 2**62)), dtype=np.int64)
    ends = starts + np.array(column(st.integers(0, 2**62 - 1)), dtype=np.int64)
    return GapTable(np.column_stack((starts, ends)).ravel())


@settings(max_examples=300, deadline=None)
@given(any_tables(), st.data())
def test_an_index_reads_the_row_that_iteration_yields(table, data):
    """Every index in range(-n, n), as an int or a numpy integer, gives the
    row iteration gives, with exact values; an index outside it is numpy's
    IndexError, a float a TypeError; a mask takes exactly its rows."""
    rows, n = tuple(table), len(table)
    for i in range(-n, n):
        assert table[i] == rows[i] == table[np.int64(i)]
        assert all(type(v) in (int, str, type(None), PhaseKind) for v in vars(table[i]).values())
    for i in (n, -n - 1):
        with pytest.raises(IndexError, match="out of bounds"):
            table[i]
    with pytest.raises(TypeError):
        table[1.0]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    kept = table.take(mask)
    assert type(kept) is type(table)
    assert kept == tuple(row for row, keep in zip(rows, mask) if keep)
    assert table[::2] == rows[::2]
