import gc
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import manual_session
from lmmk import recorder
from lmmk.errors import (
    AlreadyEnded,
    OpenPhaseRemaining,
    PhaseOverlap,
    SessionSealed,
    TimestampOrderViolation,
    UnknownHandle,
)
from lmmk.recorder import (
    INT64_MAX,
    INT64_MIN,
    KernelRecord,
    PhaseKind,
    PhaseRecord,
    RecordColumns,
    Trace,
    TraceSession,
    _SEGMENT_ROWS,
    calibrate_timer,
    int_rows,
    now,
)
from lmmk.sim_engine import VirtualClock


class TestNow:
    def test_monotonic_pair(self):
        a = now()
        b = now()
        assert b >= a

    def test_sleep_lower_bound(self):
        a = now()
        time.sleep(0.001)
        b = now()
        assert b - a >= 1_000_000

    def test_back_to_back_deltas_nonnegative(self):
        prev = now()
        for _ in range(10_000):
            cur = now()
            assert cur - prev >= 0
            prev = cur


class TestCalibration:
    def test_minimum_iterations_enforced(self):
        with pytest.raises(ValueError):
            calibrate_timer(999)

    def test_fields_positive_and_finite(self):
        cal = calibrate_timer(10_000)
        assert cal.resolution_ns >= 1
        assert cal.overhead_ns_median >= 0
        assert cal.overhead_ns_median == cal.overhead_ns_median  # not NaN
        assert cal.overhead_ns_median < float("inf")
        assert cal.iterations == 10_000

    def test_allocates_no_more_kernel_rows_than_a_default_session(self, monkeypatch):
        """It records only phases, so its session's kernel rows stay at the default."""
        made = []

        class Spy(TraceSession):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def kernel_bytes(session):
            return len(session._rows._kernels)

        monkeypatch.setattr(recorder, "TraceSession", Spy)
        calibrate_timer(10_000)
        assert len(made) == 1
        assert kernel_bytes(made[0]) <= kernel_bytes(TraceSession())

    def test_repeat_runs_agree_within_order_of_magnitude(self):
        # Environment-dependent soft check: medians of two runs on the same
        # machine should not differ by more than 10x.
        a = calibrate_timer(5_000).overhead_ns_median
        b = calibrate_timer(5_000).overhead_ns_median
        lo, hi = sorted([max(a, 1.0), max(b, 1.0)])
        assert hi / lo <= 10.0


class TestPhases:
    def test_begin_end_roundtrip(self):
        session = TraceSession()
        handle = session.begin_phase(PhaseKind.DECODE, turn=0, token_index=5)
        assert session.end_phase(handle) is None
        (record,) = session.seal().phases
        assert record.kind is PhaseKind.DECODE
        assert record.token_index == 5
        assert record.t_end_ns >= record.t_start_ns

    def test_begin_on_sealed_session(self):
        session = TraceSession()
        session.seal()
        with pytest.raises(SessionSealed):
            session.begin_phase(PhaseKind.PREFILL, turn=0)

    def test_overlapping_phases_rejected(self):
        session = TraceSession()
        session.begin_phase(PhaseKind.DECODE, turn=0, token_index=0)
        with pytest.raises(PhaseOverlap):
            session.begin_phase(PhaseKind.SOFTMAX, turn=0, token_index=0)

    def test_end_twice(self):
        session = TraceSession()
        handle = session.begin_phase(PhaseKind.SAMPLING, turn=0, token_index=0)
        session.end_phase(handle)
        with pytest.raises(AlreadyEnded):
            session.end_phase(handle)

    def test_unknown_handle(self):
        session = TraceSession()
        with pytest.raises(UnknownHandle):
            session.end_phase(17)

    @pytest.mark.parametrize("handle", [True, 1.0, np.int64(1)])
    def test_a_handle_that_is_not_an_int_is_unknown(self, handle):
        session = TraceSession()
        session.end_phase(session.begin_phase(PhaseKind.PREFILL, 0))
        session.begin_phase(PhaseKind.DECODE, 0, 0)
        with pytest.raises(UnknownHandle, match=f"^handle {re.escape(repr(handle))} was not "
                                                "issued by this session$"):
            session.end_phase(handle)
        with pytest.raises(OpenPhaseRemaining):
            session.seal()

    def test_token_index_rules(self):
        session = TraceSession()
        with pytest.raises(ValueError):
            session.begin_phase(PhaseKind.PREFILL, turn=0, token_index=3)
        with pytest.raises(ValueError):
            session.begin_phase(PhaseKind.DECODE, turn=0)

    def test_duration_brackets_busy_wait(self):
        # Wall-time oracle: a phase wrapped around a 2 ms busy wait must
        # last at least 2 ms and at most 2 ms plus a few record costs.
        # Preemption can stretch the upper bound, so allow retries.
        overhead = calibrate_timer(2_000).overhead_ns_median
        upper = 2_000_000 + 10 * max(overhead, 1.0)
        last = None
        for _ in range(5):
            session = TraceSession()
            handle = session.begin_phase(PhaseKind.DECODE, turn=0, token_index=0)
            t_anchor = now()
            while now() < t_anchor + 2_000_000:
                pass
            session.end_phase(handle)
            (record,) = session.seal().phases
            last = record.duration_ns
            assert last >= 2_000_000
            if last <= upper:
                break
        assert last is not None and last <= upper

    def test_begin_order_matches_start_order(self):
        session = TraceSession()
        for i in range(100):
            handle = session.begin_phase(PhaseKind.DECODE, turn=0, token_index=i)
            session.end_phase(handle)
        trace = session.seal()
        tokens = [p.token_index for p in trace.phases]
        assert tokens == sorted(tokens)


class TestKernels:
    def test_accept(self):
        session = TraceSession()
        assert session.record_kernel("k", 0, 100, 110, 115, 122, 160) is None
        (record,) = session.seal().kernels
        assert record.execution_ns == 38

    def test_zero_duration_accepted(self):
        session = TraceSession()
        session.record_kernel("k", 0, 50, 70, 70, 70, 70)
        (record,) = session.seal().kernels
        assert record.execution_ns == 0

    @pytest.mark.parametrize(
        "stamps,expected",
        [
            ((110, 100, 122, 160), "t_submit_ns < t_queued_ns"),
            ((100, 110, 105, 160), "t_start_ns < t_submit_ns"),
            ((100, 110, 122, 121), "t_end_ns < t_start_ns"),
        ],
    )
    def test_order_violation_names_first_inequality(self, stamps, expected):
        session = TraceSession()
        queued, submit, start, end = stamps
        with pytest.raises(TimestampOrderViolation, match=expected):
            session.record_kernel("k", 0, 0, queued, submit, start, end)
        # nothing was appended
        assert len(session.seal().kernels) == 0

    @pytest.mark.parametrize("end, error, message", [
        (2**63, ValueError, "KernelRecord.t_end_ns out of int64 range, got 9223372036854775808"),
        (1.5, TypeError, "KernelRecord.t_end_ns must be an int, got 1.5"),
    ], ids=["past-int64", "float"])
    def test_column_refusal_records_no_name(self, end, error, message):
        session = TraceSession()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            session.record_kernel("k", 0, 0, 0, 0, 0, end)
        kernels = session.seal().kernels
        assert len(kernels) == 0 and kernels.names == ()

    def test_record_on_sealed_session(self):
        session = TraceSession()
        session.seal()
        with pytest.raises(SessionSealed):
            session.record_kernel("k", 0, 0, 0, 0, 0, 0)

    def test_empty_name_rejected(self):
        session = TraceSession()
        with pytest.raises(ValueError):
            session.record_kernel("", 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("name", [5, b"gemm", None])
    def test_name_that_is_not_a_str_rejected(self, name):
        message = f"kernel name must be a str, got {name!r}"
        session = TraceSession()
        with pytest.raises(TypeError) as info:
            session.record_kernel(name, 0, 0, 0, 0, 0, 0)
        assert str(info.value) == message
        assert len(session.seal().kernels) == 0
        with pytest.raises(TypeError) as info:
            KernelRecord(name, 0, 0, 0, 0, 0, 0)
        assert str(info.value) == message
        with pytest.raises(TypeError) as info:
            Trace("x", 0, (), (KernelRecord("k", 0, 0, 0, 0, 0, 0),
                               KernelRecord(name, 0, 0, 0, 0, 0, 0)))
        assert str(info.value) == message


@pytest.mark.parametrize("kind,token", [("decode", 0), ("prefill", None), (None, None), (2, 0)])
def test_phase_kind_that_is_not_a_phase_kind_rejected(kind, token):
    session = TraceSession()
    with pytest.raises(TypeError, match="^kind must be a PhaseKind$"):
        session.begin_phase(kind, 0, token)
    assert len(session.seal().phases) == 0
    with pytest.raises(TypeError, match="^kind must be a PhaseKind$"):
        PhaseRecord(kind, 0, token, 0, 1)
    with pytest.raises(TypeError, match="^kind must be a PhaseKind$"):
        Trace("x", 0, (PhaseRecord(kind, 0, token, 0, 1),), ())


class TestSeal:
    def test_kernels_sorted_by_queued(self):
        session = TraceSession()
        session.record_kernel("late", 0, 0, 300, 310, 320, 330)
        session.record_kernel("early", 0, 0, 100, 110, 120, 130)
        session.record_kernel("mid", 0, 0, 200, 210, 220, 230)
        trace = session.seal()
        assert [k.name for k in trace.kernels] == ["early", "mid", "late"]

    def test_empty_session(self):
        trace = TraceSession().seal()
        assert trace.phases == ()
        assert trace.kernels == ()

    def test_open_phase_blocks_seal(self):
        session = TraceSession()
        session.begin_phase(PhaseKind.EMBEDDING, turn=0)
        with pytest.raises(OpenPhaseRemaining):
            session.seal()

    def test_seal_idempotent(self):
        session = TraceSession()
        session.record_kernel("k", 0, 0, 1, 2, 3, 4)
        assert session.seal() is session.seal()

    @pytest.mark.parametrize("readings, error, message", [
        ((5, 3), TimestampOrderViolation, "phase t_end_ns < t_start_ns"),
        ((-1, 0), ValueError, "timestamps must be nonnegative"),
        ((-1, -5), ValueError, "timestamps must be nonnegative"),
        ((5, 3, -1, 0), TimestampOrderViolation, "phase t_end_ns < t_start_ns"),
        ((-1, 0, 5, 3), ValueError, "timestamps must be nonnegative"),
    ], ids=["backwards", "negative", "both", "backwards-first", "negative-first"])
    def test_seal_checks_clock_readings_lowest_row_first(self, readings, error, message):
        """begin_phase and end_phase store the clock as it reads; seal
        refuses a negative or backwards reading. With two bad phases the
        first recorded decides, although sorting by start would put the
        other first, and the session stays open."""
        clock = iter(readings)
        session = TraceSession(clock=lambda: next(clock))
        for token in range(len(readings) // 2):
            session.end_phase(session.begin_phase(PhaseKind.DECODE, 0, token))
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
                session.seal()
            assert type(caught.value) is error
            assert session._sealed_trace is None

    def test_a_minus_one_clock_reading_ends_the_phase(self):
        """-1 fills the end column while a phase is open, yet a clock that
        reads -1 at end_phase still ends the phase: seal refuses the
        backwards reading, not an open phase, and a second end_phase is
        refused."""
        clock = iter([5, -1, 7])
        session = TraceSession(clock=lambda: next(clock))
        handle = session.begin_phase(PhaseKind.DECODE, 0, 0)
        session.end_phase(handle)
        with pytest.raises(TimestampOrderViolation, match="^phase t_end_ns < t_start_ns$"):
            session.seal()
        with pytest.raises(AlreadyEnded, match=f"^phase handle {handle} was already ended$"):
            session.end_phase(handle)
        assert next(clock) == 7

    def test_grows_past_initial_capacity(self):
        """Past the first buffer's 1,024 rows, and past the next 2,048 too."""
        session = TraceSession()
        for i in range(3_100):
            t = i * 10
            session.record_kernel("k", 0, t, t, t + 1, t + 2, t + 3)
        for i in range(1_040):
            handle = session.begin_phase(PhaseKind.DECODE, turn=0, token_index=i)
            session.end_phase(handle)
        trace = session.seal()
        assert trace.kernels.t_queued_ns.tolist() == [i * 10 for i in range(3_100)]
        assert trace.phases.token_index.tolist() == list(range(1_040))

    def test_concurrent_recording_loses_nothing(self):
        session = TraceSession()
        per_thread = 5_000

        def worker(base):
            for i in range(per_thread):
                t = base + i * 10
                session.record_kernel("k", 0, t, t, t + 1, t + 2, t + 3)

        threads = [
            threading.Thread(target=worker, args=(0,)),
            threading.Thread(target=worker, args=(10 ** 9,)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        trace = session.seal()
        assert len(trace.kernels) == 2 * per_thread
        queued = [k.t_queued_ns for k in trace.kernels]
        assert queued == sorted(queued)
        assert len(set(queued)) == 2 * per_thread


def test_record_hot_path_retains_no_allocation():
    # Allocation-counting harness: once the columnar buffers are warm, a
    # burst of record calls must not grow traced memory (transient objects
    # like the returned record are freed immediately; only slot writes
    # remain). Retaining per-record objects would show up as tens of KB.
    # 1,025 records open the 2,048-row buffer that the burst then fills.
    session = TraceSession()
    name = "steady_state_kernel"
    stamps = [(i * 10, i * 10, i * 10 + 2, i * 10 + 5, i * 10 + 9) for i in range(3_072)]
    for enq, queued, submit, start, end in stamps[:1_025]:
        session.record_kernel(name, 0, enq, queued, submit, start, end)
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for enq, queued, submit, start, end in stamps[1_025:]:
        session.record_kernel(name, 0, enq, queued, submit, start, end)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before < 8_192, f"hot path retained {after - before} bytes"
    assert len(session.seal().kernels) == 3_072


def test_virtual_clock_session_uses_injected_time():
    session, clock = manual_session(start_ns=1_000, clock_offset_ns=0)
    handle = session.begin_phase(PhaseKind.EMBEDDING, turn=0)
    clock.advance_to(5_000)
    session.end_phase(handle)
    (record,) = session.seal().phases
    assert (record.t_start_ns, record.t_end_ns) == (1_000, 5_000)


# -- the session applies the records' rules ------------------------------------

def error_of(call, *args):
    """(type, message) of what ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


# small values often keep the lifecycle order; the rest break one rule each
VALUES = st.one_of(
    st.integers(0, 4),
    st.sampled_from([-1, INT64_MAX, INT64_MAX + 1, INT64_MIN - 1, 10**5000, True, False, 1.5,
                     np.int64(2), None, "3"]),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["k", "", 5, b"k", None]), st.lists(VALUES, min_size=6, max_size=6))
def test_record_kernel_refuses_what_the_record_refuses(name, values):
    session = TraceSession()
    expected = error_of(KernelRecord, name, *values)
    assert error_of(session.record_kernel, name, *values) == expected
    kernels = session.seal().kernels
    assert kernels == (() if expected else (KernelRecord(name, *values),))
    assert kernels.names == (() if expected else (name,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([*PhaseKind, "decode", None, 2]), VALUES, VALUES)
def test_begin_phase_refuses_what_the_record_refuses(kind, turn, token):
    session = TraceSession(clock=VirtualClock(7))
    expected = error_of(PhaseRecord, kind, turn, token, 7, 7)
    assert error_of(session.begin_phase, kind, turn, token) == expected
    if expected is None:
        session.end_phase(0)
    assert session.seal().phases == (() if expected else (PhaseRecord(kind, turn, token, 7, 7),))


@pytest.mark.parametrize("reading, error, message", [
    (1.5, TypeError, "must be an int, got 1.5"),
    ("5", TypeError, "must be an int, got '5'"),
    (2**63, ValueError, "out of int64 range, got 9223372036854775808"),
    (INT64_MIN - 1, ValueError, "out of int64 range, got -9223372036854775809"),
], ids=["float", "str", "past-int64", "below-int64"])
def test_clock_reading_outside_int64_is_refused_by_name(reading, error, message):
    """A clock reading the row cannot hold raises the record's error and
    records nothing: a refused start leaves no phase, a refused end leaves
    the phase open for the next reading."""
    readings = iter([reading, 5, reading, 9])
    session = TraceSession(clock=lambda: next(readings))
    with pytest.raises(error, match=f"^PhaseRecord.t_start_ns {re.escape(message)}$"):
        session.begin_phase(PhaseKind.PREFILL, 0)
    handle = session.begin_phase(PhaseKind.PREFILL, 0)
    with pytest.raises(error, match=f"^PhaseRecord.t_end_ns {re.escape(message)}$"):
        session.end_phase(handle)
    session.end_phase(handle)
    assert session.seal().phases == (PhaseRecord(PhaseKind.PREFILL, 0, None, 5, 9),)


@pytest.mark.parametrize("reading, shown", [
    (True, "True"), (np.int64(5), "np.int64(5)"), (5.0, "5.0"),
], ids=["bool", "numpy-int", "float"])
def test_a_clock_reading_that_is_not_an_exact_int_is_refused(reading, shown):
    """The int rule holds for clock readings too, though struct packs a bool
    or a numpy integer: the record's TypeError, and nothing recorded."""
    readings = iter([reading, 5, reading, 9])
    session = TraceSession(clock=lambda: next(readings))
    message = f"must be an int, got {re.escape(shown)}$"
    with pytest.raises(TypeError, match=f"^PhaseRecord.t_start_ns {message}"):
        session.begin_phase(PhaseKind.PREFILL, 0)
    handle = session.begin_phase(PhaseKind.PREFILL, 0)
    with pytest.raises(TypeError, match=f"^PhaseRecord.t_end_ns {message}"):
        session.end_phase(handle)
    session.end_phase(handle)
    assert session.seal().phases == (PhaseRecord(PhaseKind.PREFILL, 0, None, 5, 9),)


def test_a_refused_reading_at_a_full_buffer_records_nothing():
    """A start the row cannot hold, refused just as the phase buffer fills,
    leaves no row behind in the buffer that takes over."""
    readings = iter([*range(2_048), 1.5, 2_048, 2_049])
    session = TraceSession(clock=lambda: next(readings))
    for token in range(1_024):
        session.end_phase(session.begin_phase(PhaseKind.DECODE, 0, token))
    with pytest.raises(TypeError, match="^PhaseRecord.t_start_ns must be an int, got 1.5$"):
        session.begin_phase(PhaseKind.DECODE, 0, 1_024)
    session.end_phase(session.begin_phase(PhaseKind.DECODE, 0, 1_024))
    assert session.seal().phases.token_index.tolist() == list(range(1_025))


def test_an_int_past_the_digit_limit_is_named():
    """An int too long for CPython to print is reported by its size."""
    message = "KernelRecord.t_end_ns out of int64 range, got a 16610-bit int"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelRecord("k", 0, 0, 0, 0, 0, 10**5000)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TraceSession().record_kernel("k", 0, 0, 0, 0, 0, 10**5000)
    with pytest.raises(ValueError, match="^PhaseRecord.turn out of int64 range, "
                                         "got a negative 16610-bit int$"):
        PhaseRecord(PhaseKind.PREFILL, -10**5000, None, 0, 0)


# -- the row buffers -----------------------------------------------------------

CALLS = st.one_of(
    st.tuples(st.just("phase"), st.sampled_from([*PhaseKind, None]), VALUES, VALUES,
              st.integers(0, 100)),
    st.tuples(st.just("kernel"), st.sampled_from(["a", "b", "c", ""]),
              st.lists(st.integers(0, 3) | VALUES, min_size=6, max_size=6)),
    # one closed phase and these kernels, appended by record_columns
    st.tuples(st.just("columns"), st.lists(st.tuples(st.sampled_from(["b", "z"]),
                                                     st.integers(0, 5)), max_size=30)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(CALLS, st.integers(1, 40)), max_size=20))
def test_session_seals_what_trace_of_the_records_holds(calls):
    """Record calls and column appends that cross the end of the first
    1,024-row buffer seal to the Trace of the records the same calls make;
    a refused call records nothing."""
    clock = VirtualClock(0)
    session = TraceSession(device_label="d", clock_offset_ns=0, clock=clock)
    for _ in range(1_016):  # empty phases and kernels at 0, so 8 more rows open a buffer
        session.end_phase(session.begin_phase(PhaseKind.EMBEDDING, 0))
        session.record_kernel("a", 0, 0, 0, 0, 0, 0)
    phases = [PhaseRecord(PhaseKind.EMBEDDING, 0, None, 0, 0)] * 1_016
    kernels = [KernelRecord("a", 0, 0, 0, 0, 0, 0)] * 1_016
    for call, repeat in calls:
        for _ in range(repeat):
            if call[0] == "phase":
                _, kind, turn, token, duration = call
                start = clock()
                expected = error_of(PhaseRecord, kind, turn, token, start, start + duration)
                try:
                    handle = session.begin_phase(kind, turn, token)
                except Exception as exc:
                    assert (type(exc), str(exc)) == expected
                    continue
                clock.advance_to(start + duration)
                session.end_phase(handle)
                phases.append(PhaseRecord(kind, turn, token, start, start + duration))
            elif call[0] == "columns":
                start = clock()
                clock.advance_to(start + 1)
                names = ["z", "b"]
                rows = [(names.index(name), 0, t, t, t, t, t) for name, t in call[1]]
                session.record_columns(
                    [np.array([value]) for value in (2, 0, 0, start, start + 1)], names,
                    [np.array(column, dtype=np.int64) for column in zip(*rows)] if rows
                    else [np.zeros(0, dtype=np.int64)] * 7)
                phases.append(PhaseRecord(PhaseKind.DECODE, 0, 0, start, start + 1))
                kernels += [KernelRecord(name, 0, t, t, t, t, t) for name, t in call[1]]
            else:
                _, name, values = call
                expected = error_of(KernelRecord, name, *values)
                assert error_of(session.record_kernel, name, *values) == expected
                if expected is None:
                    kernels.append(KernelRecord(name, *values))
    assert session.seal() == Trace("d", 0, phases, kernels)


@pytest.mark.parametrize("n", [1, 16, 1_024, 1_025, 2_047, 2_048, 2_049, 3_072, 3_073, 5_000,
                               10_000, 100_000])
def test_no_row_buffer_exceeds_segment_rows(n):
    """Whatever the number of rows, a table's first row buffer holds 1,024
    rows and each later one _SEGMENT_ROWS (112 KiB of kernel rows), so
    none reaches glibc's 128 KiB mmap threshold; a full buffer is kept
    whole as a segment, and a buffer opens only for a row it takes."""
    rows = RecordColumns()
    assert (len(rows._phases), len(rows._kernels)) == (40_960, 57_344)
    for i in range(n):
        rows.add_kernel("k", 0, i, i, i, i, i)
        rows.add_phase(PhaseKind.DECODE, 0, i, i, i)
    assert _SEGMENT_ROWS == 2_048
    assert (len(rows._phases), len(rows._kernels)) == ((81_920, 114_688) if n > 1_024
                                                       else (40_960, 57_344))
    for buffer, segments, width in ((rows._phases, rows._p_segments, 5),
                                    (rows._kernels, rows._k_segments, 7)):
        sizes = [len(segment[0]) for segment in segments] + [len(buffer) // (8 * width)]
        assert sizes == [1_024] + [_SEGMENT_ROWS] * (len(sizes) - 1)
        assert sum(sizes[:-1]) < n <= sum(sizes)
    rows.extend([np.arange(n, dtype=np.int64)] * 5, ["k"], [np.zeros(n, dtype=np.int64)] * 7)
    phases, (_, kernels) = rows.phase_columns(), rows.kernel_columns()
    assert len(phases[0]) == len(kernels[0]) == 2 * n
    assert kernels[5].tolist() == [*range(n), *[0] * n]


def test_tables_keep_their_rows_through_later_appends():
    """kernel_columns() may view the row buffers, so appends after it, by column or
    by row, must write past the rows it returned."""
    rows = RecordColumns()
    for i in range(3):
        rows.add_kernel("k", 0, i, i, i, i, i)
    _, before = rows.kernel_columns()
    rows.extend([np.zeros(0, dtype=np.int64)] * 5, ["j"], [np.array([0, 0])] + [np.arange(2)] * 6)
    for i in range(1_030):  # past the end of the first buffer
        rows.add_kernel("k", 0, 9, 9, 9, 9, 9)
    assert before[5].tolist() == [0, 1, 2]
    assert rows.kernel_columns()[1][5].tolist() == [0, 1, 2, 0, 1] + [9] * 1_030


def test_a_row_the_buffer_refuses_leaves_no_name():
    """A kernel row that struct refuses is interned under no name: the name
    is stored only once the row is."""
    rows = RecordColumns()
    with pytest.raises(struct.error):
        rows.add_kernel("k", 0, 0, 0, 0, 0, 2**63)
    rows.add_kernel("j", 0, 0, 0, 0, 0, 1)
    names, kernels = rows.kernel_columns()
    assert names == ("j",) and kernels[0].tolist() == [0]


def test_first_row_converts_a_small_chunk():
    """Iterating a table converts rows a growing chunk at a time, so the
    first row of a 4096-token run's 16,386 phase rows converts 16 rows."""

    class Counting(np.ndarray):
        converted = 0

        def tolist(self):
            Counting.converted += len(self)
            return super().tolist()

    column = np.arange(16_386, dtype=np.int64).view(Counting)
    rows = int_rows(column, column)
    assert next(rows) == (0, 0)
    assert Counting.converted == 2 * 16
    assert list(rows) == [(i, i) for i in range(1, 16_386)]
    assert Counting.converted == 2 * 16_386


def test_a_record_that_races_seal_is_in_the_trace_or_refused():
    """Two threads record while a third seals: the Trace holds exactly the
    record_kernel calls that returned, and every later call raised
    SessionSealed. A session whose record path skipped the lock would
    return calls whose rows the Trace lacks."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            session = TraceSession()
            returned, refusals = [0, 0], [[], []]

            def record(queue):
                while not refusals[queue]:
                    try:
                        session.record_kernel("k", queue, 0, 0, 0, 0, 0)
                        returned[queue] += 1
                    except Exception as exc:
                        refusals[queue].append(exc)
                for _ in range(3):
                    try:
                        session.record_kernel("k", queue, 0, 0, 0, 0, 0)
                    except Exception as exc:
                        refusals[queue].append(exc)

            def seal():
                deadline = time.monotonic() + 10
                while min(returned) < 100 and time.monotonic() < deadline:
                    time.sleep(0)
                session.seal()

            threads = [threading.Thread(target=record, args=(queue,)) for queue in (0, 1)]
            threads.append(threading.Thread(target=seal))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            trace = session.seal()
            assert [int((trace.kernels.queue_id == q).sum()) for q in (0, 1)] == returned
            assert all(type(exc) is SessionSealed for calls in refusals for exc in calls)
            assert [len(calls) for calls in refusals] == [4, 4]
    finally:
        sys.setswitchinterval(interval)
