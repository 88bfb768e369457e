"""Timeline reconstruction over sealed traces.

Busy time is the measure of the union of kernel execution intervals
[t_start, t_end); queuing and dispatch stages do not count as busy, so
the gaps reported here are the periods where the device sat idle between
successive kernel executions. All functions are pure and safe to call
from any number of threads.

Window queries (:func:`idle_gaps` and :func:`aggregate_kernels` with a
window) read a per-trace index instead of scanning every kernel. The
first such query on a Trace builds it in O(K log K) for K kernels: the
merged union of kernel executions with prefix sums of its lengths, and
the kernels sorted by execution start. Every later query on the same
Trace costs O(log K + gaps in the window) for idle gaps and
O(log K + kernels in the window) for aggregates. The index is cached on
the Trace instance; two threads racing on a fresh Trace may both build
it, and since the builds are equal either one serves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Optional, Sequence, Union

from .errors import UnalignedClocks
from .recorder import KernelRecord, PhaseKind, Trace

#: Attribution bucket for kernels whose start falls inside no phase window.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Interval:
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        if self.end_ns < self.start_ns:
            raise ValueError("interval end precedes start")

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class LifecycleBreakdown:
    """The three stages of one command: host-to-device queuing, scheduling
    and dispatch inside the device runtime, and device-side execution."""

    queuing_ns: int
    dispatch_ns: int
    execution_ns: int

    @property
    def total_ns(self) -> int:
        return self.queuing_ns + self.dispatch_ns + self.execution_ns


@dataclass(frozen=True)
class KernelAggregate:
    name: str
    invocation_count: int
    total_execution_ns: int
    mean_execution_ns: float
    share_of_busy: float


@dataclass(frozen=True)
class IdleReport:
    window: Interval
    busy_ns: int
    idle_ns: int
    idle_fraction: float
    gaps: tuple[Interval, ...]


@dataclass(frozen=True)
class PhaseUsage:
    device_busy_ns: int
    phase_wall_ns: int
    kernel_count: int


class _WindowIndex:
    """Sorted views of one trace's kernels for window queries.

    ``busy_starts``/``busy_ends`` hold the union of all positive-length
    kernel executions as disjoint intervals in time order; touching
    intervals are merged, so consecutive intervals leave a positive gap.
    ``busy_before[i]`` is the total length of intervals ``0..i-1``.
    ``by_start`` holds the kernels sorted by ``t_start_ns``, and
    ``starts`` their start times.
    """

    __slots__ = ("busy_starts", "busy_ends", "busy_before", "starts", "by_start")

    def __init__(self, kernels: tuple[KernelRecord, ...]) -> None:
        by_start = tuple(sorted(kernels, key=attrgetter("t_start_ns")))
        busy_starts: list[int] = []
        busy_ends: list[int] = []
        for k in by_start:
            s, e = k.t_start_ns, k.t_end_ns
            if e <= s:
                continue
            if busy_ends and s <= busy_ends[-1]:
                if e > busy_ends[-1]:
                    busy_ends[-1] = e
            else:
                busy_starts.append(s)
                busy_ends.append(e)
        self.busy_starts = busy_starts
        self.busy_ends = busy_ends
        self.busy_before = list(accumulate(
            (e - s for s, e in zip(busy_starts, busy_ends)), initial=0
        ))
        self.starts = [k.t_start_ns for k in by_start]
        self.by_start = by_start


def _window_index(trace: Trace) -> _WindowIndex:
    """The trace's window index, built on first use.

    It is kept in the instance ``__dict__``, as ``functools.cached_property``
    does, which works on the frozen dataclass. It is not a field, so
    equality, repr and the trace writers never see it, and a
    ``dataclasses.replace`` copy (such as :func:`filter_queue` returns)
    starts without one.
    """
    index = trace.__dict__.get("_window_index")
    if index is None:
        index = trace.__dict__["_window_index"] = _WindowIndex(trace.kernels)
    return index


def lifecycle(record: KernelRecord) -> LifecycleBreakdown:
    """Split one kernel record into its three lifecycle stage durations."""
    return LifecycleBreakdown(
        queuing_ns=record.t_submit_ns - record.t_queued_ns,
        dispatch_ns=record.t_start_ns - record.t_submit_ns,
        execution_ns=record.t_end_ns - record.t_start_ns,
    )


def kernel_span(trace: Trace) -> Optional[Interval]:
    """Tightest interval covering every kernel execution, or None."""
    if not trace.kernels:
        return None
    return Interval(
        min(k.t_start_ns for k in trace.kernels),
        max(k.t_end_ns for k in trace.kernels),
    )


def filter_queue(trace: Trace, queue_id: int) -> Trace:
    """Trace restricted to one device queue, for per-queue reports.

    idle_gaps on an unfiltered trace treats the device as busy while any
    queue executes; filter first to analyze a single queue.
    """
    from dataclasses import replace

    return replace(
        trace, kernels=tuple(k for k in trace.kernels if k.queue_id == queue_id)
    )


def idle_gaps(trace: Trace, window: Interval) -> IdleReport:
    """Report busy time, idle time and the idle gaps inside the window.

    The device counts as busy while any queue executes. Conservation holds
    exactly in integer nanoseconds: busy + idle equals the window length.
    A zero-length window reports idle_fraction 0; a nonempty window with no
    kernels is fully idle.

    The first window query on a trace builds its index in O(K log K);
    each call after that costs O(log K + gaps in the window).
    """
    length = window.length_ns
    if length == 0:
        return IdleReport(window=window, busy_ns=0, idle_ns=0, idle_fraction=0.0, gaps=())
    index = _window_index(trace)
    lo, hi = window.start_ns, window.end_ns
    starts, ends = index.busy_starts, index.busy_ends
    # Busy intervals first..stop-1 are exactly those overlapping the window.
    first = bisect_right(ends, lo)
    stop = bisect_left(starts, hi)
    busy = 0
    gaps = []
    cursor = lo
    if first < stop:
        busy = (
            index.busy_before[stop] - index.busy_before[first]
            - max(0, lo - starts[first]) - max(0, ends[stop - 1] - hi)
        )
        for i in range(first, stop):
            if starts[i] > cursor:
                gaps.append(Interval(cursor, starts[i]))
            cursor = ends[i]
    if cursor < hi:
        gaps.append(Interval(cursor, hi))
    idle = length - busy
    return IdleReport(
        window=window,
        busy_ns=busy,
        idle_ns=idle,
        idle_fraction=idle / length,
        gaps=tuple(gaps),
    )


def aggregate_kernels(trace: Trace, window: Optional[Interval] = None) -> list[KernelAggregate]:
    """Group kernels by name with count, total and mean execution time.

    With a window, only kernels whose execution starts inside
    [window.start_ns, window.end_ns) are counted, at their full duration.
    Shares are normalized by the total busy time of the included kernels and
    sum to 1 whenever that total is positive. Results are ordered by total
    execution time, largest first. A windowed call reads the trace's window
    index (see :func:`idle_gaps` for its cost).
    """
    kernels = trace.kernels
    if window is not None:
        index = _window_index(trace)
        kernels = index.by_start[
            bisect_left(index.starts, window.start_ns):bisect_left(index.starts, window.end_ns)
        ]
    totals: dict[str, list[int]] = {}
    for k in kernels:
        entry = totals.setdefault(k.name, [0, 0])
        entry[0] += 1
        entry[1] += k.execution_ns
    busy_total = sum(total for _, total in totals.values())
    result = [
        KernelAggregate(
            name=name,
            invocation_count=count,
            total_execution_ns=total,
            mean_execution_ns=total / count,
            share_of_busy=(total / busy_total) if busy_total > 0 else 0.0,
        )
        for name, (count, total) in totals.items()
    ]
    result.sort(key=lambda a: (-a.total_execution_ns, a.name))
    return result


def clock_offset(trace: Trace) -> int:
    """The offset that maps the trace's device timestamps into the host
    domain (host = device + offset).

    Raises :class:`UnalignedClocks` when the domains were never aligned,
    since no device instant can then be placed on the host timeline.
    """
    if trace.clock_offset_ns is None:
        raise UnalignedClocks(
            "clocks unaligned: mapping device timestamps into the host domain "
            "needs a clock offset"
        )
    return trace.clock_offset_ns


def assign_to_windows(
    trace: Trace, kernels: Sequence[KernelRecord], windows: Sequence[tuple[int, int]]
) -> list[Optional[int]]:
    """Index of the window that owns each kernel's execution start, or None.

    ``windows`` are closed host-domain intervals ``(start, end)``, sorted
    by start and non-overlapping (as phases are), so their ends are sorted
    too. Kernel starts are mapped with :func:`clock_offset`. The owner of
    host instant t is the earliest window containing it: the first window
    with end >= t, if that window starts at or before t. Only windows that
    share the boundary t (zero-length ones included) can tie, and the
    earliest of them wins. O(log W) per kernel.
    """
    offset = clock_offset(trace)
    starts = [lo for lo, _ in windows]
    ends = [hi for _, hi in windows]
    count = len(ends)
    owners: list[Optional[int]] = []
    for k in kernels:
        t = k.t_start_ns + offset
        j = bisect_left(ends, t)
        owners.append(j if j < count and starts[j] <= t else None)
    return owners


def phase_attribution(trace: Trace) -> dict[Union[PhaseKind, str], PhaseUsage]:
    """Attribute each kernel to the phase whose wall interval contains its
    execution start, and roll up wall/busy/count per phase kind.

    Ownership follows :func:`assign_to_windows`: kernel starts are mapped
    into the host domain via the trace clock offset (an unaligned trace
    raises :class:`UnalignedClocks`), and the earliest of several phases
    sharing the boundary a kernel starts on, zero-length ones included,
    takes it. A kernel inside no phase lands in the ``UNATTRIBUTED`` bucket.
    """
    phases = trace.phases  # sorted by t_start_ns and non-overlapping
    owners = assign_to_windows(
        trace, trace.kernels, [(p.t_start_ns, p.t_end_ns) for p in phases]
    )

    busy: dict[Union[PhaseKind, str], int] = {}
    count: dict[Union[PhaseKind, str], int] = {}
    wall: dict[Union[PhaseKind, str], int] = {}
    for p in phases:
        wall[p.kind] = wall.get(p.kind, 0) + p.duration_ns
        busy.setdefault(p.kind, 0)
        count.setdefault(p.kind, 0)

    for k, j in zip(trace.kernels, owners):
        owner: Union[PhaseKind, str] = UNATTRIBUTED if j is None else phases[j].kind
        busy[owner] = busy.get(owner, 0) + k.execution_ns
        count[owner] = count.get(owner, 0) + 1
        wall.setdefault(owner, 0)

    return {
        key: PhaseUsage(device_busy_ns=busy[key], phase_wall_ns=wall[key], kernel_count=count[key])
        for key in wall
    }
