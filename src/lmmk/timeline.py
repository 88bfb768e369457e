"""Timeline reconstruction over sealed traces.

Busy time is the measure of the union of kernel execution intervals
[t_start, t_end); queuing and dispatch stages do not count as busy, so
the gaps reported here are the periods where the device sat idle between
successive kernel executions. All functions are pure and safe to call
from any number of threads.

Every function reads the trace's int64 columns rather than record rows.
Window queries (:func:`idle_gaps` and :func:`aggregate_kernels` with a
window) take the window in the device domain and apply no clock offset.
Phases are host-domain intervals: :func:`phase_owners` maps each kernel
start through the trace's clock offset and gives the kernel to the phase
whose half-open ``[t_start_ns, t_end_ns)`` holds it. Phase attribution
and the predictor both read that one decision.

Window queries read a per-trace index instead of scanning every kernel:
the merged union of kernel executions with prefix sums of its lengths,
and the kernels' names and execution times ordered by execution start.
The first query on a Trace builds it in O(K log K) for K kernels; every
later one costs O(log K) plus one copy of the gaps' bounds for idle gaps,
which come back as a column table with no object per gap, and
O(log K + kernels in the window) for aggregates. The index is cached on
the Trace instance; two threads racing on a fresh Trace may both build
it, and since the builds are equal either one serves.

The result records :class:`IdleReport`, :class:`KernelAggregate` and
:class:`PhaseUsage` check nothing, so they are named tuples: a window query
builds one or more per call, and a named tuple costs about a third of a
frozen dataclass to make. :class:`Interval` stays a frozen dataclass that
checks its bounds: integer nanoseconds inside int64
(``recorder.check_int64``), end not before start.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import UnalignedClocks
from .recorder import INT64_MAX, INT64_MIN, KernelTable, PhaseKind, Trace, _RecordTable, check_int64

#: Attribution bucket for kernels whose start falls inside no phase window.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Interval:
    start_ns: int
    end_ns: int

    def __post_init__(self) -> None:
        start, end = self.start_ns, self.end_ns
        if not (type(start) is type(end) is int and INT64_MIN <= start <= end <= INT64_MAX):
            check_int64("Interval.start_ns", start)
            check_int64("Interval.end_ns", end)
            raise ValueError("interval end precedes start")

    @property
    def length_ns(self) -> int:
        return self.end_ns - self.start_ns


class KernelAggregate(NamedTuple):
    name: str
    invocation_count: int
    total_execution_ns: int
    mean_execution_ns: float
    share_of_busy: float


class GapTable(_RecordTable):
    """Idle gaps as columns ``start_ns`` and ``end_ns``: views of one int64
    array, ``bounds``, that alternates the gaps' starts and ends and that
    the table freezes in place (an ndarray is taken as it is, so it must be
    int64 and the caller's own; any other iterable must hold exact ints
    within int64). Rows are :class:`Interval`."""

    __slots__ = ("bounds",)
    _columns = ("start_ns", "end_ns")

    def __init__(self, bounds) -> None:
        self.bounds = bounds if type(bounds) is np.ndarray else self._int64_column("bounds", bounds)
        self.bounds.setflags(write=False)

    start_ns = property(lambda self: self.bounds[::2])
    end_ns = property(lambda self: self.bounds[1::2])

    def _row(self, values) -> Interval:
        return Interval(*values)

    def _like(self, starts, ends) -> "GapTable":
        return GapTable(np.column_stack((starts, ends)).ravel())


_NO_GAPS = GapTable(())


class IdleReport(NamedTuple):
    window: Interval
    busy_ns: int
    idle_ns: int
    idle_fraction: float
    gaps: GapTable


class PhaseUsage(NamedTuple):
    device_busy_ns: int
    phase_wall_ns: int
    kernel_count: int


class _WindowIndex:
    """Sorted views of one trace's kernels for window queries.

    ``busy_starts``/``busy_ends`` hold the union of all positive-length
    kernel executions as disjoint intervals in time order; touching
    intervals are merged, so consecutive intervals leave a positive gap.
    ``busy_before[i]`` is the total length of intervals ``0..i-1``. These
    are lists of Python ints, for exact sums and ``bisect``. ``bounds``
    holds the same starts and ends as one int64 array, 0, s0, e0, s1, e1,
    ..., 0, so that ``bounds[2 * i:2 * j + 2]`` runs from the end of
    interval i-1 to the start of interval j. ``starts`` holds the kernels'
    start times in ascending order (a list too), and
    ``name_code``/``execution_ns`` the same kernels' columns in that order.
    """

    __slots__ = ("busy_starts", "busy_ends", "busy_before", "bounds", "starts", "name_code",
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
        self.bounds = np.zeros(2 * len(busy_starts) + 2, np.int64)
        self.bounds[1:-1:2], self.bounds[2:-1:2] = busy_starts, busy_ends
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
    ``dataclasses.replace`` copy starts without one.
    """
    index = trace.__dict__.get("_window_index")
    if index is None:
        index = trace.__dict__["_window_index"] = _WindowIndex(trace.kernels)
    return index


def kernel_span(trace: Trace) -> Optional[Interval]:
    """Tightest interval covering every kernel execution, or None."""
    kernels = trace.kernels
    if not len(kernels):
        return None
    return Interval(int(kernels.t_start_ns.min()), int(kernels.t_end_ns.max()))


def idle_gaps(trace: Trace, window: Interval) -> IdleReport:
    """Report busy time, idle time and the idle gaps inside the window.

    The window is in the device domain: it is compared with the kernels'
    execution times as recorded, with no clock offset applied. The device
    counts as busy while any queue executes. Conservation holds
    exactly in integer nanoseconds: busy + idle equals the window length.
    A zero-length window reports idle_fraction 0; a nonempty window with no
    kernels is fully idle.

    The gaps are a :class:`GapTable` sliced from the index, with no object
    per gap. The first window query on a trace builds its index in
    O(K log K); each call after that costs O(log K) plus copying the gaps.
    """
    length = window.length_ns
    if length == 0:
        return IdleReport(window=window, busy_ns=0, idle_ns=0, idle_fraction=0.0, gaps=_NO_GAPS)
    index = _window_index(trace)
    lo, hi = window.start_ns, window.end_ns
    starts, ends = index.busy_starts, index.busy_ends
    # Busy intervals first..stop-1 are exactly those overlapping the window.
    first = bisect_right(ends, lo)
    stop = bisect_left(starts, hi)
    # Gap i runs from busy interval first+i-1's end (lo for i = 0) to busy
    # interval first+i's start (hi for the last gap): bounds[2 * first:2 * stop
    # + 2] with lo and hi at its ends. Merged intervals leave every inner gap
    # positive, so only the first and the last gap can be empty, and are cut.
    head, tail = 2 * first, 2 * stop + 2
    busy = 0
    if first < stop:
        busy = (
            index.busy_before[stop] - index.busy_before[first]
            - max(0, lo - starts[first]) - max(0, ends[stop - 1] - hi)
        )
        head += 2 * (starts[first] <= lo)
        tail -= 2 * (ends[stop - 1] >= hi)
    bounds = index.bounds[head:tail].copy()
    if head == 2 * first:
        bounds[0] = lo
    if tail == 2 * stop + 2:
        bounds[-1] = hi
    idle = length - busy
    # positional arguments: keywords add a tenth to a small window's query
    return IdleReport(window, busy, idle, idle / length, GapTable(bounds))


def aggregate_kernels(trace: Trace, window: Optional[Interval] = None) -> list[KernelAggregate]:
    """Group kernels by name with count, total and mean execution time.

    With a window, only kernels whose execution starts inside
    [window.start_ns, window.end_ns) are counted, at their full duration.
    The window is in the device domain, as for :func:`idle_gaps`; the
    kernels a phase owns come from :func:`phase_owners`.
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
        KernelAggregate(kernels.names[code], count, total, total / count,
                        (total / busy_total) if busy_total > 0 else 0.0)
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


def phase_owners(trace: Trace, starts: np.ndarray) -> np.ndarray:
    """Row of the phase that owns each device-domain kernel start in
    ``starts``, or -1.

    Starts are mapped into the host domain with :func:`clock_offset`. The
    owner of host instant t is the phase whose half-open interval
    ``[t_start_ns, t_end_ns)`` holds it. A Trace's phases are sorted and
    disjoint, so at most one does: the last phase starting at or before t,
    if t is before its end. A zero-length phase owns nothing. An instant
    beyond either end of int64 is clamped to that end, which no phase owns
    either: phases lie in ``[0, INT64_MAX]`` and are half-open. O(log P)
    per kernel.
    """
    offset = clock_offset(trace)
    t = np.clip(starts, INT64_MIN - min(offset, 0), INT64_MAX - max(offset, 0)) + offset
    j = np.searchsorted(trace.phases.t_start_ns, t, "right") - 1
    inside = j >= 0
    inside[inside] = t[inside] < trace.phases.t_end_ns[j[inside]]
    return np.where(inside, j, -1)


def phase_attribution(trace: Trace) -> dict[Union[PhaseKind, str], PhaseUsage]:
    """Attribute each kernel to the phase whose wall interval contains its
    execution start, and roll up wall/busy/count per phase kind.

    Ownership follows :func:`phase_owners`: kernel starts are mapped into
    the host domain via the trace clock offset (an unaligned trace raises
    :class:`UnalignedClocks`), and the phase whose half-open interval holds
    a start takes the kernel. A kernel inside no phase lands in the
    ``UNATTRIBUTED`` bucket.
    Keys are the phase kinds in order of first occurrence, then
    ``UNATTRIBUTED`` if any kernel landed there.
    """
    phases, kernels = trace.phases, trace.kernels
    owners = phase_owners(trace, kernels.t_start_ns)
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
