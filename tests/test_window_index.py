"""Window queries answered from the per-trace index must equal a full scan.

The reference functions below are the full-scan implementations that the
index replaced: they clip or filter every kernel of the trace per window.
"""

import dataclasses
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace
from lmmk import timeline, trace_io
from lmmk.timeline import Interval, IdleReport


def scan_idle_gaps(trace, window):
    length = window.length_ns
    if length == 0:
        return IdleReport(window=window, busy_ns=0, idle_ns=0, idle_fraction=0.0, gaps=())
    clipped = []
    for k in trace.kernels:
        s = max(k.t_start_ns, window.start_ns)
        e = min(k.t_end_ns, window.end_ns)
        if e > s:
            clipped.append((s, e))
    clipped.sort()
    busy = 0
    gaps = []
    cursor = window.start_ns
    for s, e in clipped:
        if s > cursor:
            gaps.append(Interval(cursor, s))
            cursor = s
        if e > cursor:
            busy += e - cursor
            cursor = e
    if cursor < window.end_ns:
        gaps.append(Interval(cursor, window.end_ns))
    idle = length - busy
    return IdleReport(window=window, busy_ns=busy, idle_ns=idle,
                      idle_fraction=idle / length, gaps=tuple(gaps))


def scan_aggregate_kernels(trace, window):
    included = [k for k in trace.kernels
                if window.start_ns <= k.t_start_ns < window.end_ns]
    return timeline.aggregate_kernels(dataclasses.replace(trace, kernels=tuple(included)))


@st.composite
def kernel_tuples(draw, base):
    """Kernels on up to three queues packed into a short span, so zero-length,
    touching, overlapping and nested executions are all common."""
    out = []
    for _ in range(draw(st.integers(0, 25))):
        start = base + draw(st.integers(0, 200))
        end = start + draw(st.sampled_from([0, 0, 1, 5, 10, 30, 60]))
        queued = start - draw(st.integers(0, min(start, 20)))
        name = draw(st.sampled_from(["gemm", "softmax", "copy"]))
        out.append((name, draw(st.integers(0, 2)), queued, queued, queued, start, end))
    return out


@st.composite
def windows(draw, base):
    """Windows inside, straddling and outside the kernel span, some empty."""
    out = []
    for _ in range(draw(st.integers(1, 20))):
        lo = base + draw(st.integers(-50, 320))
        hi = lo + draw(st.sampled_from([0, 0, 1, 7, 40, 150, 400]))
        out.append(Interval(lo, hi))
    return out


@st.composite
def traces_and_windows(draw):
    # Integer ns must stay exact far past the float53 range too.
    base = draw(st.sampled_from([50, 2 ** 62]))
    return build_trace(kernels=draw(kernel_tuples(base))), draw(windows(base))


@settings(max_examples=150, deadline=None)
@given(traces_and_windows())
def test_idle_gaps_matches_full_scan(case):
    trace, queries = case
    for window in queries:
        assert timeline.idle_gaps(trace, window) == scan_idle_gaps(trace, window)


@settings(max_examples=150, deadline=None)
@given(traces_and_windows())
def test_windowed_aggregate_matches_full_scan(case):
    trace, queries = case
    for window in queries:
        assert timeline.aggregate_kernels(trace, window) == scan_aggregate_kernels(trace, window)


@settings(max_examples=60, deadline=None)
@given(traces_and_windows(), st.integers(0, 2))
def test_filter_queue_gets_its_own_index(case, queue_id):
    trace, queries = case
    for window in queries:  # index the parent first
        timeline.aggregate_kernels(trace, window)
    queue = timeline.filter_queue(trace, queue_id)
    assert "_window_index" not in queue.__dict__
    for window in queries:
        assert timeline.idle_gaps(queue, window) == scan_idle_gaps(queue, window)
        assert timeline.aggregate_kernels(queue, window) == scan_aggregate_kernels(queue, window)
    assert queue.__dict__["_window_index"] is not trace.__dict__["_window_index"]


def test_index_is_built_once_and_stays_out_of_the_trace_value(tmp_path):
    kernels = [("k", 0, 0, 0, 0, 0, 10), ("k", 1, 5, 5, 5, 5, 20), ("j", 0, 30, 30, 30, 30, 40)]
    trace = build_trace(kernels=kernels)
    before = tmp_path / "before.jsonl"
    trace_io.write_jsonl(trace, str(before))
    timeline.idle_gaps(trace, Interval(0, 40))
    index = trace.__dict__["_window_index"]
    timeline.aggregate_kernels(trace, Interval(0, 10))
    timeline.idle_gaps(trace, Interval(15, 35))
    assert trace.__dict__["_window_index"] is index
    assert trace == build_trace(kernels=kernels)
    assert "_window_index" not in repr(trace)
    after = tmp_path / "after.jsonl"
    trace_io.write_jsonl(trace, str(after))
    assert after.read_bytes() == before.read_bytes()
    assert "_window_index" not in dataclasses.replace(trace).__dict__


def test_two_threads_on_a_fresh_trace_get_identical_reports():
    kernels = [("k", i % 2, 7 * i, 7 * i, 7 * i, 7 * i, 7 * i + (i % 11)) for i in range(1000)]
    queries = [Interval(lo, lo + 97) for lo in range(0, 7_000, 113)]
    expected = [scan_idle_gaps(build_trace(kernels=kernels), w) for w in queries]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            trace = build_trace(kernels=kernels)
            barrier = threading.Barrier(2, timeout=30)
            results = [None, None]

            def query(slot):
                barrier.wait()
                results[slot] = [timeline.idle_gaps(trace, w) for w in queries]

            threads = [threading.Thread(target=query, args=(slot,)) for slot in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results[0] == results[1] == expected
    finally:
        sys.setswitchinterval(old_interval)
