import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace, single_kernel_workload
from lmmk import sim_engine, timeline
from lmmk.errors import UnalignedClocks
from lmmk.recorder import (INT64_MAX, INT64_MIN, PER_TOKEN_KINDS, KernelTable, PhaseKind,
                           PhaseTable, Trace, check_int64)
from lmmk.sim_engine import JitterModel, KernelSpec, PhaseScript, WorkloadSpec
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
        assert tuple(report.gaps) == (Interval(10, 20),)

    def test_overlapping_kernels_merge(self):
        trace = build_trace(kernels=[kernel(0, 10), kernel(5, 15)])
        report = timeline.idle_gaps(trace, Interval(0, 20))
        assert report.busy_ns == 15
        assert report.idle_ns == 5
        assert tuple(report.gaps) == (Interval(15, 20),)

    def test_empty_trace_fully_idle(self):
        report = timeline.idle_gaps(build_trace(), Interval(0, 100))
        assert report.idle_fraction == 1.0
        assert tuple(report.gaps) == (Interval(0, 100),)

    def test_zero_length_window(self):
        report = timeline.idle_gaps(build_trace(kernels=[kernel(0, 10)]), Interval(5, 5))
        assert report.idle_fraction == 0.0
        assert report.busy_ns == 0 and report.idle_ns == 0

    def test_gaps_are_a_read_only_column_table(self):
        trace = build_trace(kernels=[kernel(10, 20), kernel(30, 40), kernel(50, 60)])
        report = timeline.idle_gaps(trace, Interval(15, 70))
        assert isinstance(report.gaps, timeline.GapTable)
        assert tuple(report.gaps) == (Interval(20, 30), Interval(40, 50), Interval(60, 70))
        assert report.gaps.start_ns.tolist() == [20, 40, 60]
        assert report.gaps.end_ns.tolist() == [30, 50, 70]
        assert report.gaps[1] == Interval(40, 50)
        assert tuple(report.gaps[1:]) == (Interval(40, 50), Interval(60, 70))
        for column in (report.gaps.start_ns, report.gaps.end_ns):
            assert column.dtype == np.int64 and not column.flags.writeable
        # another query leaves the first report's gaps alone
        timeline.idle_gaps(trace, Interval(0, 100))
        assert report.gaps.start_ns.tolist() == [20, 40, 60]

    @pytest.mark.parametrize("lo, hi, gaps", [
        (10, 20, ()), (12, 18, ()), (5, 20, ((5, 10),)), (10, 25, ((20, 25),)),
        (0, 100, ((0, 10), (20, 30), (40, 100))), (21, 29, ((21, 29),)),
        (20, 30, ((20, 30),)), (15, 35, ((20, 30),)), (40, 40, ()),
    ], ids=["exact-busy", "inside-busy", "head-gap", "tail-gap", "whole", "inside-gap",
            "exact-gap", "busy-both-ends", "zero-length"])
    def test_first_and_last_gap_are_cut_when_empty(self, lo, hi, gaps):
        trace = build_trace(kernels=[kernel(10, 20), kernel(30, 40)])
        report = timeline.idle_gaps(trace, Interval(lo, hi))
        assert tuple(report.gaps) == tuple(Interval(*g) for g in gaps)
        assert sum(g.length_ns for g in report.gaps) == report.idle_ns

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

    def test_kernel_on_shared_boundary_goes_to_later_phase(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 100), (PhaseKind.SOFTMAX, 0, 0, 100, 200)],
            kernels=[kernel(100, 120)],
            clock_offset_ns=0,
        )
        result = timeline.phase_attribution(trace)
        assert result[PhaseKind.DECODE].kernel_count == 0
        assert result[PhaseKind.SOFTMAX].kernel_count == 1

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
        assert result[PhaseKind.DECODE].kernel_count == 0
        assert result[PhaseKind.SOFTMAX].kernel_count == 0
        assert result[PhaseKind.SAMPLING].kernel_count == 1

    def test_kernel_at_the_end_of_the_last_phase_is_unattributed(self):
        trace = build_trace(
            phases=[(PhaseKind.DECODE, 0, 0, 0, 10)], kernels=[kernel(10, 15)], clock_offset_ns=0
        )
        result = timeline.phase_attribution(trace)
        assert result[PhaseKind.DECODE].kernel_count == 0
        assert result[UNATTRIBUTED].kernel_count == 1

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
    """Brute-force oracle: each kernel goes to the phase whose half-open
    interval holds its host-domain start (phases are disjoint, so there
    is at most one)."""
    offset = trace.clock_offset_ns
    wall, busy, count = {}, {}, {}
    for p in trace.phases:
        wall[p.kind] = wall.get(p.kind, 0) + p.duration_ns
        busy.setdefault(p.kind, 0)
        count.setdefault(p.kind, 0)
    for k in trace.kernels:
        t = k.t_start_ns + offset
        owner = next(
            (p.kind for p in trace.phases if p.t_start_ns <= t < p.t_end_ns), UNATTRIBUTED
        )
        busy[owner] = busy.get(owner, 0) + k.execution_ns
        count[owner] = count.get(owner, 0) + 1
        wall.setdefault(owner, 0)
    return {key: PhaseUsage(busy[key], wall[key], count[key]) for key in wall}


@st.composite
def attribution_traces(draw, offsets=st.integers(-100, 100)):
    """Phases that often touch or have zero length (possibly none at all),
    and kernels that often start exactly on a phase boundary."""
    offset = draw(offsets)
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


@settings(max_examples=300, deadline=None)
@given(attribution_traces(offsets=st.just(0)))
def test_phase_windows_aggregate_what_attribution_owns(trace):
    """At offset 0 a window query over a phase's own interval counts the
    kernels that attribution gives to that phase, boundaries included."""
    busy = {}
    for p in trace.phases:
        window = Interval(p.t_start_ns, p.t_end_ns)
        total = sum(a.total_execution_ns for a in timeline.aggregate_kernels(trace, window))
        busy[p.kind] = busy.get(p.kind, 0) + total
    usage = timeline.phase_attribution(trace)
    assert busy == {kind: u.device_busy_ns for kind, u in usage.items() if kind != UNATTRIBUTED}


@settings(max_examples=200, deadline=None)
@given(attribution_traces(), st.data())
def test_a_subset_of_phases_never_moves_a_kernel(trace, data):
    keep = np.array(data.draw(st.lists(
        st.booleans(), min_size=len(trace.phases), max_size=len(trace.phases))), dtype=bool)
    subset = replace(trace, phases=trace.phases.take(keep))
    full = timeline.phase_owners(trace, trace.kernels.t_start_ns)
    part = timeline.phase_owners(subset, subset.kernels.t_start_ns)
    kept = np.flatnonzero(keep)
    # part's rows, as rows of the full trace (-1 stays -1)
    assert np.array_equal(np.append(kept, -1)[part], np.where(np.isin(full, kept), full, -1))


def assert_attribution_matches_truth(trace, truth):
    usage = timeline.phase_attribution(trace)
    assert UNATTRIBUTED not in usage
    assert {kind: u.device_busy_ns for kind, u in usage.items()} == truth.phase_busy_ns
    assert {kind: u.phase_wall_ns for kind, u in usage.items()} == truth.phase_wall_ns


def test_zero_delay_workload_matches_truth():
    # Each kernel starts on its phase's first instant, where the phase
    # before it ends.
    assert_attribution_matches_truth(*sim_engine.run(single_kernel_workload(), 1, 3))


@st.composite
def valid_workloads(draw):
    """Valid workloads whose delays, gaps and host times are often 0, so
    kernels start on phase boundaries, with jitter on or off."""
    small = st.sampled_from([0, 0, 1, 5, 300])
    required = (PhaseKind.PREFILL, PhaseKind.DECODE, PhaseKind.SOFTMAX)

    def script(kind):
        kernels = tuple(
            KernelSpec(f"{kind.value}_{i}", draw(st.sampled_from([1, 7, 1000])),
                       draw(st.sampled_from([0, 3])), draw(small), draw(small), draw(small),
                       draw(st.integers(1, 2)))
            for i in range(draw(st.integers(1 if kind in required else 0, 3)))
        )
        return PhaseScript(kind, kernels, host_ns=draw(small))

    jitter = JitterModel(draw(st.integers(0, 2**16)), draw(st.sampled_from([0.0, 0.3])))
    spec = WorkloadSpec("drawn", {kind: script(kind) for kind in PhaseKind}, jitter)
    return spec, draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(valid_workloads())
def test_phase_attribution_equals_simulator_truth(case):
    spec, tokens = case
    assert_attribution_matches_truth(*sim_engine.run(spec, 1, tokens))


def test_window_queries_use_the_device_domain():
    # Device clock 1000 ns behind host: attribution puts the kernel at
    # device 50 into the decode phase [1000, 1100], while the window
    # queries compare windows with the kernel's times as recorded.
    trace = build_trace(
        phases=[(PhaseKind.DECODE, 0, 0, 1000, 1100)],
        kernels=[kernel(50, 70)],
        clock_offset_ns=1000,
    )
    assert timeline.phase_attribution(trace)[PhaseKind.DECODE].device_busy_ns == 20
    host = Interval(1000, 1100)
    assert timeline.idle_gaps(trace, host).busy_ns == 0
    assert timeline.aggregate_kernels(trace, host) == []
    device = Interval(0, 100)
    assert timeline.idle_gaps(trace, device).busy_ns == 20
    assert [a.total_execution_ns for a in timeline.aggregate_kernels(trace, device)] == [20]


@pytest.mark.parametrize("offset", [2**62, -(2**62)])
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


@st.composite
def far_owner_cases(draw):
    """Disjoint phases anywhere in [0, INT64_MAX], an offset anywhere in
    int64, and device starts on both sides of where the host instant
    leaves int64 or meets a phase bound."""
    offset = draw(st.one_of(
        st.sampled_from([INT64_MIN, -(2**62), -1, 0, 1, 2**62, INT64_MAX]),
        st.integers(INT64_MIN, INT64_MAX)))
    edges = st.sampled_from([0, 1, 2**62, INT64_MAX - 1, INT64_MAX])
    bounds = sorted(draw(st.lists(st.one_of(edges, st.integers(0, INT64_MAX)), max_size=10)))
    m = len(bounds) // 2  # embedding phases [bounds[0], bounds[1]), [bounds[2], bounds[3]), ...
    phases = PhaseTable([0] * m, [0] * m, [-1] * m, bounds[0:2 * m:2], bounds[1:2 * m:2])
    trace = Trace("x", offset, phases, KernelTable((), *[[]] * 7))
    near = [0, INT64_MAX, INT64_MIN, INT64_MAX - offset, INT64_MIN - offset,
            *(b - offset for b in bounds)]
    candidates = [s + d for s in near for d in (-1, 0, 1)]
    special = [s for s in candidates if INT64_MIN <= s <= INT64_MAX]
    starts = draw(st.lists(st.one_of(st.sampled_from(special),
                                     st.integers(INT64_MIN, INT64_MAX)), max_size=30))
    return trace, np.array(starts, dtype=np.int64)


@settings(max_examples=400, deadline=None)
@given(far_owner_cases())
def test_phase_owners_follows_the_python_int_rule(case):
    """The owner is the phase with t_start_ns <= s + offset < t_end_ns in
    Python ints, wherever s + offset lies, int64 or beyond."""
    trace, starts = case
    offset = trace.clock_offset_ns
    want = [next((i for i, p in enumerate(trace.phases) if p.t_start_ns <= s + offset < p.t_end_ns),
                 -1) for s in starts.tolist()]
    assert timeline.phase_owners(trace, starts).tolist() == want


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(10, 5)


@given(bad=st.one_of(st.floats(), st.booleans(), st.integers(INT64_MIN, INT64_MAX).map(np.int64),
                     st.integers(min_value=INT64_MAX + 1), st.integers(max_value=INT64_MIN - 1)),
       other=st.integers(INT64_MIN, INT64_MAX), at_end=st.booleans())
@settings(max_examples=200)
def test_interval_bounds_follow_the_int64_rule(bad, other, at_end):
    name = "end_ns" if at_end else "start_ns"
    with pytest.raises((TypeError, ValueError)) as rule:
        check_int64(f"Interval.{name}", bad)
    with pytest.raises(rule.type, match=f"^{re.escape(str(rule.value))}$"):
        Interval(other, bad) if at_end else Interval(bad, other)


# Field order and repr text of the records when they were frozen dataclasses.
RESULT_RECORDS = [
    (timeline.IdleReport(Interval(0, 10), 7, 3, 0.3, timeline.GapTable([2, 5])),
     ("window", "busy_ns", "idle_ns", "idle_fraction", "gaps"),
     "IdleReport(window=Interval(start_ns=0, end_ns=10), busy_ns=7, idle_ns=3, "
     "idle_fraction=0.3, gaps=GapTable(Interval(start_ns=2, end_ns=5),))"),
    (timeline.KernelAggregate("k", 2, 30, 15.0, 0.5),
     ("name", "invocation_count", "total_execution_ns", "mean_execution_ns", "share_of_busy"),
     "KernelAggregate(name='k', invocation_count=2, total_execution_ns=30, "
     "mean_execution_ns=15.0, share_of_busy=0.5)"),
    (PhaseUsage(5, 9, 2), ("device_busy_ns", "phase_wall_ns", "kernel_count"),
     "PhaseUsage(device_busy_ns=5, phase_wall_ns=9, kernel_count=2)"),
]


@pytest.mark.parametrize("record, fields, text", RESULT_RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RESULT_RECORDS])
def test_result_record_contract(record, fields, text):
    assert type(record)._fields == fields
    assert repr(record) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    twin = type(record)(**{name: getattr(record, name) for name in fields})
    assert twin == record == tuple(record) and hash(twin) == hash(record)


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
    queue0 = replace(trace, kernels=trace.kernels.take(trace.kernels.queue_id == 0))
    assert [k.name for k in queue0.kernels] == ["a"]
    assert timeline.idle_gaps(queue0, window).idle_ns == 10
