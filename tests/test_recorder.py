import gc
import re
import threading
import time
import tracemalloc

import pytest

from conftest import manual_session
from lmmk.errors import (
    AlreadyEnded,
    OpenPhaseRemaining,
    PhaseOverlap,
    SessionSealed,
    TimestampOrderViolation,
    UnknownHandle,
)
from lmmk.recorder import (
    KernelRecord,
    PhaseKind,
    PhaseRecord,
    Trace,
    TraceSession,
    calibrate_timer,
    now,
)


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

    @pytest.mark.parametrize("end, error", [(2**63, OverflowError), (1.5, TypeError)],
                             ids=["past-int64", "float"])
    def test_column_refusal_records_no_name(self, end, error):
        session = TraceSession()
        with pytest.raises(error):
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
            assert not session.sealed

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
        session = TraceSession(capacity=16)
        for i in range(100):
            t = i * 10
            session.record_kernel("k", 0, t, t, t + 1, t + 2, t + 3)
        for i in range(40):
            handle = session.begin_phase(PhaseKind.DECODE, turn=0, token_index=i)
            session.end_phase(handle)
        trace = session.seal()
        assert len(trace.kernels) == 100
        assert len(trace.phases) == 40

    def test_concurrent_recording_loses_nothing(self):
        session = TraceSession(capacity=64)
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
    session = TraceSession(capacity=8_192)
    name = "steady_state_kernel"
    stamps = [(i * 10, i * 10, i * 10 + 2, i * 10 + 5, i * 10 + 9) for i in range(4_096)]
    for enq, queued, submit, start, end in stamps[:2_048]:
        session.record_kernel(name, 0, enq, queued, submit, start, end)
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for enq, queued, submit, start, end in stamps[2_048:]:
        session.record_kernel(name, 0, enq, queued, submit, start, end)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before < 8_192, f"hot path retained {after - before} bytes"
    assert len(session.seal().kernels) == 4_096


def test_virtual_clock_session_uses_injected_time():
    session, clock = manual_session(start_ns=1_000, clock_offset_ns=0)
    handle = session.begin_phase(PhaseKind.EMBEDDING, turn=0)
    clock.advance_to(5_000)
    session.end_phase(handle)
    (record,) = session.seal().phases
    assert (record.t_start_ns, record.t_end_ns) == (1_000, 5_000)
