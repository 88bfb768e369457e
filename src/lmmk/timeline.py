"""Timeline reconstruction over sealed traces.

Busy time is the measure of the union of kernel execution intervals
[t_start, t_end); queuing and dispatch stages do not count as busy, so
the gaps reported here are the periods where the device sat idle between
successive kernel executions. All functions are pure and safe to call
from any number of threads.

Every function reads the trace's int64 columns rather than record rows.
Window queries (:func:`idle_gaps` and :func:`aggregate_kernels` with a
window) read a per-trace index instead of scanning every kernel. The
first such query on a Trace builds it in O(K log K) for K kernels: the
merged union of kernel executions with prefix sums of its lengths, and
the kernels' names and execution times ordered by execution start.
Every later query on the same Trace costs O(log K + gaps in the window)
for idle gaps and O(log K + kernels in the window) for aggregates. The index is cached on
the Trace instance; two threads racing on a fresh Trace may both build
it, and since the builds are equal either one serves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import UnalignedClocks
from .recorder import INT64_MAX, INT64_MIN, KernelRecord, KernelTable, PhaseKind, Trace

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
    ``busy_before[i]`` is the total length of intervals ``0..i-1``. These
    are lists of Python ints, for exact sums and ``bisect``. ``starts``
    holds the kernels' start times in ascending order (a list too), and
    ``name_code``/``execution_ns`` the same kernels' columns in that order.
    """

    __slots__ = ("busy_starts", "busy_ends", "busy_before", "starts", "name_code",
                 "execution_ns")

    def __init__(self, kernels: KernelTable) -> None:
        order = np.argsort(kernels.t_start_ns, kind="stable")
        starts = kernels.t_start_ns[order]
        ends = kernels.t_end_ns[order]
        busy = ends > starts
        s, e = starts[busy], ends[busy]
        if len(s):
            # An execution opens a new busy interval when it starts after
            # every earlier one has ended; the interval ends at the running
            # maximum of the ends.
            reach = np.maximum.accumulate(e)
            opens = np.flatnonzero(np.concatenate(([True], s[1:] > reach[:-1])))
            closes = np.append(opens[1:] - 1, len(s) - 1)
            busy_starts, busy_ends = s[opens], reach[closes]
        else:
            busy_starts = busy_ends = s
        self.busy_starts = busy_starts.tolist()
        self.busy_ends = busy_ends.tolist()
        self.busy_before = [0, *np.cumsum(busy_ends - busy_starts).tolist()]
        self.starts = starts.tolist()
        self.name_code = kernels.name_code[order]
        self.execution_ns = ends - starts


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
    kernels = trace.kernels
    if not len(kernels):
        return None
    return Interval(int(kernels.t_start_ns.min()), int(kernels.t_end_ns.max()))


def filter_queue(trace: Trace, queue_id: int) -> Trace:
    """Trace restricted to one device queue, for per-queue reports.

    idle_gaps on an unfiltered trace treats the device as busy while any
    queue executes; filter first to analyze a single queue.
    """
    return replace(trace, kernels=trace.kernels.take(trace.kernels.queue_id == queue_id))


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
    if window is None:
        codes, execution = kernels.name_code, kernels.t_end_ns - kernels.t_start_ns
    else:
        index = _window_index(trace)
        rows = slice(
            bisect_left(index.starts, window.start_ns), bisect_left(index.starts, window.end_ns)
        )
        codes, execution = index.name_code[rows], index.execution_ns[rows]
    # Python ints keep the sums exact where int64 sums could wrap.
    totals: dict[int, list[int]] = {}
    for code, ns in zip(codes.tolist(), execution.tolist()):
        entry = totals.get(code)
        if entry is None:
            totals[code] = [1, ns]
        else:
            entry[0] += 1
            entry[1] += ns
    busy_total = sum(total for _, total in totals.values())
    result = [
        KernelAggregate(
            name=kernels.names[code],
            invocation_count=count,
            total_execution_ns=total,
            mean_execution_ns=total / count,
            share_of_busy=(total / busy_total) if busy_total > 0 else 0.0,
        )
        for code, (count, total) in totals.items()
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
    trace: Trace, starts: np.ndarray, window_starts: np.ndarray, window_ends: np.ndarray
) -> np.ndarray:
    """Index of the window that owns each device-domain kernel start in
    ``starts``, or -1.

    The windows are closed host-domain intervals
    ``[window_starts[j], window_ends[j]]``, sorted by start and
    non-overlapping (as phases are), so their ends are sorted too. Kernel
    starts are mapped with :func:`clock_offset`. The owner of host instant
    t is the earliest window containing it: the first window with end >= t
    (``np.searchsorted(ends, t, "left")``, as ``bisect_left``), if that
    window starts at or before t. Only windows that share the boundary t
    (zero-length ones included) can tie, and the earliest of them wins.
    O(log W) per kernel.
    """
    offset = clock_offset(trace)
    t = starts + offset if _fits_int64(starts, offset) else starts.astype(object) + offset
    j = np.searchsorted(window_ends, t, "left")
    inside = j < len(window_ends)
    inside[inside] = window_starts[j[inside]] <= t[inside]
    return np.where(inside, j, -1)


def _fits_int64(values: np.ndarray, offset: int) -> bool:
    """Whether values + offset stays within int64 for every value."""
    if not len(values):
        return True
    lo, hi = int(values.min()) + offset, int(values.max()) + offset
    return INT64_MIN <= offset <= INT64_MAX and INT64_MIN <= lo and hi <= INT64_MAX


def phase_attribution(trace: Trace) -> dict[Union[PhaseKind, str], PhaseUsage]:
    """Attribute each kernel to the phase whose wall interval contains its
    execution start, and roll up wall/busy/count per phase kind.

    Ownership follows :func:`assign_to_windows`: kernel starts are mapped
    into the host domain via the trace clock offset (an unaligned trace
    raises :class:`UnalignedClocks`), and the earliest of several phases
    sharing the boundary a kernel starts on, zero-length ones included,
    takes it. A kernel inside no phase lands in the ``UNATTRIBUTED`` bucket.
    Keys are the phase kinds in order of first occurrence, then
    ``UNATTRIBUTED`` if any kernel landed there.
    """
    phases, kernels = trace.phases, trace.kernels  # phases sorted by start, non-overlapping
    owners = assign_to_windows(trace, kernels.t_start_ns, phases.t_start_ns, phases.t_end_ns)
    kinds = tuple(PhaseKind)
    # owner -1 picks the appended code len(kinds), the unattributed bucket
    owner_code = np.append(phases.kind_code, len(kinds))[owners]
    execution = kernels.t_end_ns - kernels.t_start_ns
    duration = phases.t_end_ns - phases.t_start_ns
    _, first = np.unique(phases.kind_code, return_index=True)
    codes = phases.kind_code[np.sort(first)].tolist()
    if (owner_code == len(kinds)).any():
        codes.append(len(kinds))

    usage: dict[Union[PhaseKind, str], PhaseUsage] = {}
    for code in codes:
        owned = owner_code == code
        usage[UNATTRIBUTED if code == len(kinds) else kinds[code]] = PhaseUsage(
            device_busy_ns=sum(execution[owned].tolist()),
            phase_wall_ns=sum(duration[phases.kind_code == code].tolist()),
            kernel_count=int(owned.sum()),
        )
    return usage
