import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace
from lmmk import timeline
from lmmk.errors import UnalignedClocks
from lmmk.recorder import PER_TOKEN_KINDS, KernelRecord, PhaseKind
from lmmk.timeline import Interval, PhaseUsage, UNATTRIBUTED


def kernel(start, end, name="k", queue=0, queued=None, submit=None):
    queued = start if queued is None else queued
    submit = start if submit is None else submit
    return (name, queue, queued, queued, submit, start, end)


class TestIdleGaps:
    def test_two_kernels_one_gap(self):
        trace = build_trace(kernels=[kernel(0, 10), kernel(20, 30)])
        report = timeline.idle_gaps(trace, Interval(0, 30))
        assert report.idle_ns == 10
        assert report.busy_ns == 20
        assert report.idle_fraction == pytest.approx(1 / 3)
        assert report.gaps == (Interval(10, 20),)

    def test_overlapping_kernels_merge(self):
        trace = build_trace(kernels=[kernel(0, 10), kernel(5, 15)])
        report = timeline.idle_gaps(trace, Interval(0, 20))
        assert report.busy_ns == 15
        assert report.idle_ns == 5
        assert report.gaps == (Interval(15, 20),)

    def test_empty_trace_fully_idle(self):
        report = timeline.idle_gaps(build_trace(), Interval(0, 100))
        assert report.idle_fraction == 1.0
        assert report.gaps == (Interval(0, 100),)

    def test_zero_length_window(self):
        report = timeline.idle_gaps(build_trace(kernels=[kernel(0, 10)]), Interval(5, 5))
        assert report.idle_fraction == 0.0
        assert report.busy_ns == 0 and report.idle_ns == 0

    def test_kernels_clipped_to_window(self):
        trace = build_trace(kernels=[kernel(0, 100)])
        report = timeline.idle_gaps(trace, Interval(40, 60))
        assert report.busy_ns == 20
        assert report.idle_ns == 0

    def test_conservation_exact(self):
        rng = np.random.default_rng(3)
        kernels = []
        t = 0
        for _ in range(50):
            t += int(rng.integers(0, 40))
            end = t + int(rng.integers(0, 60))
            kernels.append(kernel(t, end))
            t = end
        trace = build_trace(kernels=kernels)
        window = Interval(13, 1_777)
        report = timeline.idle_gaps(trace, window)
        assert report.busy_ns + report.idle_ns == window.length_ns
        gap_total = sum(g.length_ns for g in report.gaps)
        assert gap_total == report.idle_ns

    def test_matches_brute_force_occupancy(self):
        # Small-instance oracle: per-nanosecond occupancy scan.
        rng = np.random.default_rng(17)
        for _ in range(20):
            n_kernels = int(rng.integers(0, 12))
            kernels = []
            for _ in range(n_kernels):
                start = int(rng.integers(0, 900))
                end = start + int(rng.integers(0, 150))
                kernels.append(kernel(start, end))
            trace = build_trace(kernels=kernels)
            lo = int(rng.integers(0, 400))
            hi = lo + int(rng.integers(1, 600))
            window = Interval(lo, hi)
            occupancy = np.zeros(hi - lo, dtype=bool)
            for _, _, _, _, _, start, end in kernels:
                s = max(start, lo)
                e = min(end, hi)
                if e > s:
                    occupancy[s - lo:e - lo] = True
            report = timeline.idle_gaps(trace, window)
            assert report.busy_ns == int(occupancy.sum())
            assert report.idle_ns == int((~occupancy).sum())
            expected_gaps = []
            run_start = None
            for i, busy in enumerate(occupancy):
                if not busy and run_start is None:
                    run_start = i
                elif busy and run_start is not None:
                    expected_gaps.append(Interval(lo + run_start, lo + i))
                    run_start = None
            if run_start is not None:
                expected_gaps.append(Interval(lo + run_start, hi))
            assert list(report.gaps) == expected_gaps


class TestAggregateKernels:
    def test_count_total_mean(self):
        trace = build_trace(
            kernels=[kernel(0, 10, "a"), kernel(20, 40, "a"), kernel(50, 80, "a")]
        )
        (agg,) = timeline.aggregate_kernels(trace)
        assert agg.invocation_count == 3
        assert agg.total_execution_ns == 60
        assert agg.mean_execution_ns == 20
        assert agg.share_of_busy == 1.0

    def test_shares(self):
        trace = build_trace(kernels=[kernel(0, 60, "big"), kernel(100, 140, "small")])
        aggs = {a.name: a for a in timeline.aggregate_kernels(trace)}
        assert aggs["big"].share_of_busy == pytest.approx(0.6)
        assert aggs["small"].share_of_busy == pytest.approx(0.4)

    def test_share_normalization(self):
        rng = np.random.default_rng(5)
        kernels = []
        t = 0
        for i in range(200):
            end = t + int(rng.integers(1, 500))
            kernels.append(kernel(t, end, name=f"k{i % 7}"))
            t = end + int(rng.integers(0, 50))
        trace = build_trace(kernels=kernels)
        total = sum(a.share_of_busy for a in timeline.aggregate_kernels(trace))
        assert abs(total - 1.0) <= 1e-12

    def test_window_filters_by_start(self):
        trace = build_trace(
            kernels=[kernel(0, 10, "inside"), kernel(90, 150, "straddles"),
                     kernel(200, 210, "outside")]
        )
        aggs = timeline.aggregate_kernels(trace, Interval(0, 100))
        names = {a.name for a in aggs}
        assert names == {"inside", "straddles"}
        # a kernel starting inside the window counts its full duration
        assert {a.name: a.total_execution_ns for a in aggs}["straddles"] == 60

    def test_aggregation_linearity(self):
        rng = np.random.default_rng(9)

        def random_kernels(offset):
            out, t = [], offset
            for i in range(40):
                end = t + int(rng.integers(1, 100))
                out.append(kernel(t, end, name=f"k{i % 5}"))
                t = end + int(rng.integers(0, 10))
            return out

        first = random_kernels(0)
        second = random_kernels(100_000)
        merged = build_trace(kernels=first + second)
        split = [build_trace(kernels=first), build_trace(kernels=second)]
        combined = {}
        for part in split:
            for a in timeline.aggregate_kernels(part):
                count, total = combined.get(a.name, (0, 0))
                combined[a.name] = (count + a.invocation_count, total + a.total_execution_ns)
        for a in timeline.aggregate_kernels(merged):
            assert combined[a.name] == (a.invocation_count, a.total_execution_ns)

    def test_empty(self):
        assert timeline.aggregate_kernels(build_trace()) == []


class TestLifecycle:
    def test_example(self):
        record = KernelRecord("k", 0, 0, 0, 5, 12, 50)
        breakdown = timeline.lifecycle(record)
        assert (breakdown.queuing_ns, breakdown.dispatch_ns, breakdown.execution_ns) == (5, 7, 38)

    def test_degenerate(self):
        record = KernelRecord("k", 0, 0, 42, 42, 42, 42)
        breakdown = timeline.lifecycle(record)
        assert (breakdown.queuing_ns, breakdown.dispatch_ns, breakdown.execution_ns) == (0, 0, 0)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            queued = int(rng.integers(0, 10 ** 6))
            submit = queued + int(rng.integers(0, 10 ** 4))
            start = submit + int(rng.integers(0, 10 ** 4))
            end = start + int(rng.integers(0, 10 ** 6))
            record = KernelRecord("k", 0, 0, queued, submit, start, end)
            breakdown = timeline.lifecycle(record)
            assert breakdown.total_ns == end - queued


class TestPhaseAttribution:
    def test_basic_containment(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 100)],
            kernels=[kernel(5, 40), kernel(50, 85)],
            clock_offset_ns=0,
        )
        usage = timeline.phase_attribution(trace)[PhaseKind.DECODE]
        assert usage.device_busy_ns == 70
        assert usage.phase_wall_ns == 100
        assert usage.kernel_count == 2

    def test_kernel_outside_any_phase(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 100)],
            kernels=[kernel(500, 600)],
            clock_offset_ns=0,
        )
        result = timeline.phase_attribution(trace)
        assert result[UNATTRIBUTED].kernel_count == 1
        assert result[UNATTRIBUTED].device_busy_ns == 100
        assert result[PhaseKind.DECODE].kernel_count == 0

    def test_boundary_tie_goes_to_earlier_phase(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 100), (PhaseKind.SOFTMAX, 0, 0, 100, 200)],
            kernels=[kernel(100, 120)],
            clock_offset_ns=0,
        )
        result = timeline.phase_attribution(trace)
        assert result[PhaseKind.DECODE].kernel_count == 1
        assert result[PhaseKind.SOFTMAX].kernel_count == 0

    def test_zero_length_phase_between_touching_phases(self):
        trace = build_trace(
            phases=[
                (PhaseKind.DECODE, 0, 0, 0, 10),
                (PhaseKind.SOFTMAX, 0, 0, 10, 10),
                (PhaseKind.SAMPLING, 0, 0, 10, 20),
            ],
            kernels=[kernel(10, 15)],
            clock_offset_ns=0,
        )
        result = timeline.phase_attribution(trace)
        assert result[PhaseKind.DECODE].kernel_count == 1
        assert result[PhaseKind.SOFTMAX].kernel_count == 0
        assert result[PhaseKind.SAMPLING].kernel_count == 0

    def test_clock_offset_applied(self):
        # Device clock runs 1000 ns behind host: kernel at device 50 is host 1050.
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 1000, 1100)],
            kernels=[kernel(50, 70)],
            clock_offset_ns=1000,
        )
        result = timeline.phase_attribution(trace)
        assert result[PhaseKind.DECODE].kernel_count == 1

    def test_unaligned_clocks_rejected(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 100)],
            kernels=[kernel(5, 40)],
            clock_offset_ns=None,
        )
        with pytest.raises(UnalignedClocks):
            timeline.phase_attribution(trace)

    def test_multiple_windows_same_kind_roll_up(self):
        trace = build_trace(
            phases=[
                (PhaseKind.DECODE, 0, 0, 0, 100),
                (PhaseKind.DECODE, 0, 1, 200, 350),
            ],
            kernels=[kernel(10, 60), kernel(250, 300)],
            clock_offset_ns=0,
        )
        usage = timeline.phase_attribution(trace)[PhaseKind.DECODE]
        assert usage.phase_wall_ns == 250
        assert usage.device_busy_ns == 100
        assert usage.kernel_count == 2


def loop_phase_attribution(trace):
    """Brute-force oracle: each kernel goes to the first phase, in trace
    order, whose closed interval holds its host-domain start."""
    offset = trace.clock_offset_ns
    wall, busy, count = {}, {}, {}
    for p in trace.phases:
        wall[p.kind] = wall.get(p.kind, 0) + p.duration_ns
        busy.setdefault(p.kind, 0)
        count.setdefault(p.kind, 0)
    for k in trace.kernels:
        t = k.t_start_ns + offset
        owner = next(
            (p.kind for p in trace.phases if p.t_start_ns <= t <= p.t_end_ns), UNATTRIBUTED
        )
        busy[owner] = busy.get(owner, 0) + k.execution_ns
        count[owner] = count.get(owner, 0) + 1
        wall.setdefault(owner, 0)
    return {key: PhaseUsage(busy[key], wall[key], count[key]) for key in wall}


@st.composite
def attribution_traces(draw):
    """Phases that often touch or have zero length (possibly none at all),
    and kernels that often start exactly on a phase boundary."""
    offset = draw(st.integers(-100, 100))
    t = 200
    phases, boundaries = [], []
    for token in range(draw(st.integers(0, 10))):
        t += draw(st.sampled_from([0, 0, 3]))
        length = draw(st.sampled_from([0, 0, 1, 10]))
        kind = draw(st.sampled_from(list(PhaseKind)))
        index = token if kind in PER_TOKEN_KINDS else None
        phases.append((kind, 0, index, t, t + length))
        boundaries += [t, t + length]
        t += length
    hosts = st.integers(150, t + 20)
    if boundaries:
        hosts = st.one_of(st.sampled_from(boundaries), hosts)
    kernels = [
        kernel(host - offset, host - offset + draw(st.integers(0, 9)))
        for host in draw(st.lists(hosts, max_size=20))
    ]
    return build_trace(phases=phases, kernels=kernels, clock_offset_ns=offset)


@settings(max_examples=300, deadline=None)
@given(attribution_traces())
def test_phase_attribution_matches_brute_force(trace):
    assert timeline.phase_attribution(trace) == loop_phase_attribution(trace)


@pytest.mark.parametrize("offset", [2**62, 2**63, -(2**62), -(2**63) - 5])
def test_phase_attribution_with_host_times_past_int64(offset):
    """Host-domain starts that leave the int64 range still go to the
    phase that holds them, or to no phase, exactly."""
    phases = [(PhaseKind.PREFILL, 0, None, 0, 10), (PhaseKind.DECODE, 0, 0, 2**62, 2**63 - 1)]
    starts = [0, 5, 2**62 - 1, 2**62, 2**63 - 2]
    trace = build_trace(
        phases=phases, kernels=[kernel(s, s + 1) for s in starts], clock_offset_ns=offset
    )
    got = timeline.phase_attribution(trace)
    want = loop_phase_attribution(trace)
    assert got == want and list(got) == list(want)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(10, 5)


def test_kernel_span():
    assert timeline.kernel_span(build_trace()) is None
    trace = build_trace(kernels=[kernel(30, 50), kernel(10, 20)])
    assert timeline.kernel_span(trace) == Interval(10, 50)


def test_filter_queue_gives_per_queue_idle():
    # Device-wide idle unions queues; a filtered view isolates one queue.
    trace = build_trace(
        kernels=[kernel(0, 10, "a", queue=0), kernel(10, 20, "b", queue=1)]
    )
    window = Interval(0, 20)
    assert timeline.idle_gaps(trace, window).idle_ns == 0
    queue0 = timeline.filter_queue(trace, 0)
    assert [k.name for k in queue0.kernels] == ["a"]
    assert timeline.idle_gaps(queue0, window).idle_ns == 10
