"""Low-overhead capture of phase and kernel timing events.

All timestamps are integer nanoseconds. Phase timestamps come from a
monotonic clock read at begin/end; kernel timestamps are supplied by the
backend (a real device runtime reports command-lifecycle times, the
simulated engine computes them). A :class:`TraceSession` writes each
record into preallocated int64 columns; record calls return nothing but
a phase handle, so the hot path builds no object and retains no
allocation once warmed up. A backend that computes whole columns, as the
simulated engine does, appends them in one checked bulk call.
:meth:`TraceSession.seal` orders the rows with a stable argsort (phases
by start, kernels by queued time, ties in recording order) and hands the
reordered columns to an immutable :class:`Trace` without building a
record. The trace's
:class:`PhaseTable` and :class:`KernelTable` yield :class:`PhaseRecord`
and :class:`KernelRecord` rows lazily for callers that want rows; the
analyses and the trace writers read the columns.

Sessions accept an injectable ``clock`` callable. Real backends use the
default :func:`now`; the simulated engine injects a virtual clock it
advances itself, so simulated phase times flow through the same API.
"""

from __future__ import annotations

import enum
import operator
import statistics
import threading
import time
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Optional

import numpy as np

from .errors import (
    AlreadyEnded,
    OpenPhaseRemaining,
    PhaseOverlap,
    SessionSealed,
    TimestampOrderViolation,
    UnknownHandle,
)


def now() -> int:
    """Current monotonic time in integer nanoseconds.

    Monotonic and immune to wall-clock adjustments: for two calls a after b,
    a >= b always holds.
    """
    return time.monotonic_ns()


class PhaseKind(enum.Enum):
    """Semantic stages of LLM inference."""

    EMBEDDING = "embedding"
    PREFILL = "prefill"
    DECODE = "decode"
    SOFTMAX = "softmax"
    COPY_PROBS_TO_CPU = "copy_probs_to_cpu"
    SAMPLING = "sampling"


#: Phase kinds that recur once per generated token and therefore carry a
#: token index. Embedding and prefill happen once per turn and do not.
PER_TOKEN_KINDS = frozenset(
    {PhaseKind.DECODE, PhaseKind.SOFTMAX, PhaseKind.COPY_PROBS_TO_CPU, PhaseKind.SAMPLING}
)


def _check_token_index(kind: PhaseKind, token_index: Optional[int]) -> None:
    if kind in PER_TOKEN_KINDS:
        if token_index is None:
            raise ValueError(f"{kind.value} phases require a token_index")
        if token_index < 0:
            raise ValueError("token_index must be nonnegative")
    elif token_index is not None:
        raise ValueError(f"{kind.value} phases must not carry a token_index")


def _check_phase(
    kind: PhaseKind, turn: int, token_index: Optional[int], start: int, end: int
) -> None:
    """Raise ValueError for a negative turn, a token index that breaks the
    kind's rule or a negative start, then TimestampOrderViolation for
    end < start."""
    if turn < 0:
        raise ValueError("turn must be nonnegative")
    _check_token_index(kind, token_index)
    if start < 0:
        raise ValueError("timestamps must be nonnegative")
    if end < start:
        raise TimestampOrderViolation("phase t_end_ns < t_start_ns")


@dataclass(frozen=True)
class PhaseRecord:
    """One timed occurrence of a semantic inference phase."""

    kind: PhaseKind
    turn: int
    token_index: Optional[int]
    t_start_ns: int
    t_end_ns: int

    def __post_init__(self) -> None:
        _check_phase(self.kind, self.turn, self.token_index, self.t_start_ns, self.t_end_ns)

    @property
    def duration_ns(self) -> int:
        return self.t_end_ns - self.t_start_ns


@dataclass(frozen=True)
class KernelRecord:
    """One device command with its host enqueue time and the four
    device-side lifecycle timestamps (queued, submit, start, end).

    The device timestamps live in the device clock domain; t_cpu_enqueue_ns
    is a host-clock reading and is not ordered against them.
    """

    name: str
    queue_id: int
    t_cpu_enqueue_ns: int
    t_queued_ns: int
    t_submit_ns: int
    t_start_ns: int
    t_end_ns: int

    def __post_init__(self) -> None:
        _check_kernel(
            self.name, self.queue_id, self.t_cpu_enqueue_ns,
            self.t_queued_ns, self.t_submit_ns, self.t_start_ns, self.t_end_ns,
        )

    @property
    def execution_ns(self) -> int:
        return self.t_end_ns - self.t_start_ns


def _check_kernel(
    name: str, queue_id: int, enqueue: int, queued: int, submit: int, start: int, end: int
) -> None:
    """Raise ValueError for an empty name, a negative queue id or a negative
    host or queued timestamp, then TimestampOrderViolation naming the first
    violated lifecycle inequality."""
    if not name:
        raise ValueError("kernel name must be non-empty")
    if queue_id < 0:
        raise ValueError("queue_id must be nonnegative")
    if enqueue < 0 or queued < 0:
        raise ValueError("timestamps must be nonnegative")
    if submit < queued:
        raise TimestampOrderViolation("t_submit_ns < t_queued_ns")
    if start < submit:
        raise TimestampOrderViolation("t_start_ns < t_submit_ns")
    if end < start:
        raise TimestampOrderViolation("t_end_ns < t_start_ns")


#: The range every integer in a trace's columns must lie in.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_OPEN = -1  # sentinel in the phase end column while a phase is in flight
_NO_TOKEN = -1  # column encoding of token_index=None
_ROW_CHUNK = 4096  # rows converted to Python ints at a time

_KIND_BY_INDEX = tuple(PhaseKind)
_INDEX_BY_KIND = {kind: i for i, kind in enumerate(_KIND_BY_INDEX)}
_PER_TOKEN_BY_CODE = np.array([kind in PER_TOKEN_KINDS for kind in _KIND_BY_INDEX])
Columns = Sequence[np.ndarray]  # equal-length int64 columns


def check_columns(phases: Columns, names: Sequence[str], kernels: Columns) -> None:
    """Check phase and kernel rows given as int64 columns in the order of
    :class:`PhaseTable` and :class:`KernelTable` (name codes index
    ``names``). Raises what :func:`_check_phase`, then :func:`_check_kernel`,
    raises for the first row that breaks a rule: the lowest row, and in it
    the first broken rule."""
    kind, turn, token, start, end = phases
    per_token = _PER_TOKEN_BY_CODE[kind]
    bad = ((turn < 0) | np.where(per_token, token < 0, token != _NO_TOKEN) | (start < 0)
           | (end < start))
    if bad.any():
        kind, turn, token, start, end = (int(c[bad.argmax()]) for c in phases)
        _check_phase(_KIND_BY_INDEX[kind], turn, None if token == _NO_TOKEN else token, start, end)
    code, queue, enqueue, queued, submit, start, end = kernels
    unnamed = np.array([not name for name in names], dtype=bool)[code]
    bad = (unnamed | (queue < 0) | (enqueue < 0) | (queued < 0) | (submit < queued)
           | (start < submit) | (end < start))
    if bad.any():
        i = bad.argmax()
        _check_kernel(names[code[i]], *(int(c[i]) for c in kernels[1:]))


def int_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length int64 columns as tuples of Python ints,
    converted a chunk at a time so no full-length list is ever held."""
    n = len(columns[0])
    for lo in range(0, n, _ROW_CHUNK):
        yield from zip(*[c[lo:lo + _ROW_CHUNK].tolist() for c in columns])


def _require_int64(records: tuple, fields: tuple[str, ...]) -> None:
    """Raise TypeError for the first of ``fields``, record by record, that
    is not an exact int (a phase's token_index may also be None), or
    ValueError for one outside int64."""
    for record in records:
        for name in fields:
            value = getattr(record, name)
            if type(value) is not int:
                if value is None and name == "token_index":
                    continue
                raise TypeError(f"{type(record).__name__}.{name} must be an int, got {value!r}")
            if not INT64_MIN <= value <= INT64_MAX:
                raise ValueError(f"{type(record).__name__}.{name} out of int64 range, got {value!r}")


class _RecordTable(Sequence):
    """Read-only records held as equal-length int64 columns.

    Rows are built on demand, with exact ``int`` and ``str`` values, when
    the table is iterated or indexed; ``len`` is O(1). A table equals
    another table with the same rows and a tuple of the same records.
    """

    __slots__ = ()
    _columns: tuple[str, ...] = ()

    def __init__(self, *columns) -> None:
        for name, values in zip(self._columns, columns, strict=True):
            column = np.asarray(values, dtype=np.int64)
            column.flags.writeable = False
            setattr(self, name, column)

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._columns]

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0]))

    def __iter__(self) -> Iterator:
        row = self._row
        for values in int_rows(*self._arrays()):
            yield row(values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        (row,) = self.take([operator.index(index)])
        return row

    def _same_rows(self, other) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    def __eq__(self, other) -> bool:
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        if type(other) is type(self):
            return len(other) == len(self) and self._same_rows(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}{tuple(self)!r}"


_new_row = object.__new__


class PhaseTable(_RecordTable):
    """Phase rows as int64 columns: ``kind_code`` (the kind's position in
    :class:`PhaseKind`), ``turn``, ``token_index`` (-1 for None),
    ``t_start_ns`` and ``t_end_ns``; rows are :class:`PhaseRecord`."""

    __slots__ = ("kind_code", "turn", "token_index", "t_start_ns", "t_end_ns")
    _columns = __slots__

    @classmethod
    def from_records(cls, records: Iterable[PhaseRecord]) -> "PhaseTable":
        """Table of the given records in the given order."""
        records = tuple(records)
        _require_int64(records, ("turn", "token_index", "t_start_ns", "t_end_ns"))
        return cls(
            [_INDEX_BY_KIND[r.kind] for r in records],
            [r.turn for r in records],
            [_NO_TOKEN if r.token_index is None else r.token_index for r in records],
            [r.t_start_ns for r in records],
            [r.t_end_ns for r in records],
        )

    def _row(self, values) -> PhaseRecord:
        # The session, the reader and from_records check every row they
        # store, so the row skips PhaseRecord's checks.
        kind, turn, token, start, end = values
        row = _new_row(PhaseRecord)
        row.__dict__.update(
            kind=_KIND_BY_INDEX[kind], turn=turn,
            token_index=None if token == _NO_TOKEN else token,
            t_start_ns=start, t_end_ns=end,
        )
        return row

    def take(self, index) -> "PhaseTable":
        """Table of the rows a slice, boolean mask or index array selects."""
        return PhaseTable(*(column[index] for column in self._arrays()))

    def of_kind(self, kind: PhaseKind) -> np.ndarray:
        """Boolean mask of the rows of one phase kind."""
        return self.kind_code == _INDEX_BY_KIND[kind]


class KernelTable(_RecordTable):
    """Kernel rows as int64 columns: ``name_code`` (an index into the
    ``names`` tuple, which holds each distinct name once), ``queue_id``,
    ``t_cpu_enqueue_ns``, ``t_queued_ns``, ``t_submit_ns``, ``t_start_ns``
    and ``t_end_ns``; rows are :class:`KernelRecord`."""

    __slots__ = ("names", "name_code", "queue_id", "t_cpu_enqueue_ns", "t_queued_ns",
                 "t_submit_ns", "t_start_ns", "t_end_ns")
    _columns = __slots__[1:]

    def __init__(self, names: Iterable[str], *columns) -> None:
        self.names = tuple(names)
        super().__init__(*columns)

    @classmethod
    def from_records(cls, records: Iterable[KernelRecord]) -> "KernelTable":
        """Table of the given records in the given order."""
        records = tuple(records)
        _require_int64(records, (
            "queue_id", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns", "t_start_ns",
            "t_end_ns",
        ))
        codes: dict[str, int] = {}
        name_code = [codes.setdefault(r.name, len(codes)) for r in records]
        return cls(
            codes,
            name_code,
            [r.queue_id for r in records],
            [r.t_cpu_enqueue_ns for r in records],
            [r.t_queued_ns for r in records],
            [r.t_submit_ns for r in records],
            [r.t_start_ns for r in records],
            [r.t_end_ns for r in records],
        )

    def _row(self, values) -> KernelRecord:
        # The session, the reader and from_records check every row they
        # store, so the row skips KernelRecord's checks.
        code, queue, enqueue, queued, submit, start, end = values
        row = _new_row(KernelRecord)
        row.__dict__.update(
            name=self.names[code], queue_id=queue, t_cpu_enqueue_ns=enqueue,
            t_queued_ns=queued, t_submit_ns=submit, t_start_ns=start, t_end_ns=end,
        )
        return row

    def take(self, index) -> "KernelTable":
        """Table of the rows a slice, boolean mask or index array selects."""
        return KernelTable(self.names, *(column[index] for column in self._arrays()))

    def name_mask(self, name: str) -> np.ndarray:
        """Boolean mask of the rows of the kernel called ``name``."""
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name_code == self.names.index(name)

    def _same_rows(self, other: "KernelTable") -> bool:
        if not all(np.array_equal(a, b) for a, b in zip(self._arrays()[1:], other._arrays()[1:])):
            return False
        codes = {name: i for i, name in enumerate(self.names)}
        translate = np.array([codes.get(name, -1) for name in other.names], dtype=np.int64)
        return np.array_equal(self.name_code, translate[other.name_code])


@dataclass(frozen=True)
class Trace:
    """Immutable, time-sorted session of phase and kernel records.

    ``phases`` and ``kernels`` are read-only column tables: int64 columns
    that the analyses and writers read directly, and that yield
    :class:`PhaseRecord`/:class:`KernelRecord` rows lazily to callers that
    iterate or index them; a table equals a tuple of the same records.
    The constructor, and so ``dataclasses.replace``, also takes any
    iterable of records and converts it, raising TypeError for a field
    that is not an exact int and ValueError for one outside int64.

    ``clock_offset_ns`` maps device timestamps into the host domain
    (host = device + offset); ``None`` means the domains were never
    aligned and cross-domain analyses must refuse to run. ``created_at``
    is incidental wall-clock metadata and excluded from equality.
    :mod:`lmmk.timeline` caches a window index in the instance ``__dict__``
    on the first window query; it is not a field, so equality and
    serialization ignore it and ``dataclasses.replace`` starts without it.
    """

    device_label: str
    clock_offset_ns: Optional[int]
    phases: PhaseTable
    kernels: KernelTable
    prompt_tokens: Optional[int] = None
    output_tokens: Optional[int] = None
    created_at: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.phases, PhaseTable):
            object.__setattr__(self, "phases", PhaseTable.from_records(self.phases))
        if not isinstance(self.kernels, KernelTable):
            object.__setattr__(self, "kernels", KernelTable.from_records(self.kernels))


@dataclass(frozen=True)
class TimerCalibration:
    """Measured properties of the timing path on this machine."""

    resolution_ns: int
    overhead_ns_median: float
    iterations: int

    def __post_init__(self) -> None:
        if self.resolution_ns <= 0:
            raise ValueError("resolution_ns must be positive")
        if self.overhead_ns_median < 0:
            raise ValueError("overhead_ns_median must be nonnegative")


class RecordColumns:
    """Growable int64 columns of phase and kernel rows in recording order.

    :class:`TraceSession` records into them and
    :func:`lmmk.trace_io.read_jsonl` parses into them; both seal through
    :meth:`tables`. Kernel names are interned: the name column holds
    codes into the distinct names. Appends check nothing; a value outside
    int64 raises OverflowError.
    """

    _PHASE_COLUMNS = ("_p_kind", "_p_turn", "_p_token", "_p_start", "_p_end")
    _KERNEL_COLUMNS = ("_k_name", "_k_queue", "_k_enqueue", "_k_queued", "_k_submit",
                       "_k_start", "_k_end")

    def __init__(self, capacity: int = 1024) -> None:
        empty = bytes(8 * max(16, capacity))
        for name in self._PHASE_COLUMNS + self._KERNEL_COLUMNS:
            setattr(self, name, array("q", empty))
        self._p_len = 0
        self._k_len = 0
        self._name_codes: dict[str, int] = {}  # distinct names in interning order

    def add_phase(
        self, kind: PhaseKind, turn: int, token_index: Optional[int], start: int, end: int
    ) -> int:
        """Append one phase row and return its row index."""
        i = self._p_len
        if i == len(self._p_turn):
            self._grow(self._PHASE_COLUMNS)
        self._p_kind[i] = _INDEX_BY_KIND[kind]
        self._p_turn[i] = turn
        self._p_token[i] = _NO_TOKEN if token_index is None else token_index
        self._p_start[i] = start
        self._p_end[i] = end
        self._p_len = i + 1
        return i

    def add_kernel(
        self, name: str, queue_id: int, enqueue: int, queued: int, submit: int, start: int,
        end: int,
    ) -> None:
        """Append one kernel row."""
        i = self._k_len
        if i == len(self._k_name):
            self._grow(self._KERNEL_COLUMNS)
        code = self._name_codes.get(name)
        if code is None:
            code = self._name_codes[name] = len(self._name_codes)
        self._k_name[i] = code
        self._k_queue[i] = queue_id
        self._k_enqueue[i] = enqueue
        self._k_queued[i] = queued
        self._k_submit[i] = submit
        self._k_start[i] = start
        self._k_end[i] = end
        self._k_len = i + 1

    def extend(self, phases: Columns, names: Sequence[str], kernels: Columns) -> None:
        """Append rows given as columns in the order of :class:`PhaseTable`
        and :class:`KernelTable`; name codes index ``names``, which are
        interned in the order given."""
        codes = self._name_codes
        remap = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.int64)
        for group, columns, length in ((self._PHASE_COLUMNS, phases, "_p_len"),
                                       (self._KERNEL_COLUMNS, [remap[kernels[0]], *kernels[1:]],
                                        "_k_len")):
            i, n = getattr(self, length), len(columns[0])
            if i + n > len(getattr(self, group[0])):
                self._grow(group, i + n)
            for name, column in zip(group, columns):
                np.frombuffer(getattr(self, name), dtype=np.int64)[i:i + n] = column
            setattr(self, length, i + n)

    def tables(self) -> tuple[PhaseTable, KernelTable]:
        """The rows as tables ordered by a stable argsort: phases by
        t_start_ns and kernels by t_queued_ns, ties in recording order."""
        phases = [np.frombuffer(getattr(self, name), dtype=np.int64, count=self._p_len)
                  for name in self._PHASE_COLUMNS]
        order = np.argsort(phases[3], kind="stable")
        kernels = [np.frombuffer(getattr(self, name), dtype=np.int64, count=self._k_len)
                   for name in self._KERNEL_COLUMNS]
        k_order = np.argsort(kernels[3], kind="stable")
        return (
            PhaseTable(*(column[order] for column in phases)),
            KernelTable(self._name_codes, *(column[k_order] for column in kernels)),
        )

    def _grow(self, columns: tuple[str, ...], need: int = 0) -> None:
        """Double the columns, or grow them to ``need`` rows if that is more."""
        size = len(getattr(self, columns[0]))
        pad = bytes(8 * max(size, need - size))
        for name in columns:
            setattr(self, name, array("q", getattr(self, name).tobytes() + pad))


class TraceSession:
    """Mutable collector of phase and kernel records.

    Record calls write into preallocated columns (grown by doubling off the
    hot path) and build no record, so steady-state recording retains no
    per-record allocation. Appends are lock-protected and safe for two
    concurrent recording threads (host-enqueue path and completion-callback
    path); global order is restored at seal time by a stable argsort.
    """

    def __init__(
        self,
        device_label: str = "",
        clock_offset_ns: Optional[int] = None,
        clock: Callable[[], int] = now,
        capacity: int = 1024,
    ) -> None:
        self._rows = RecordColumns(capacity)
        self.device_label = device_label
        self.clock_offset_ns = clock_offset_ns
        self.clock = clock
        self.created_at = datetime.now(timezone.utc).isoformat()
        self.prompt_tokens: Optional[int] = None
        self.output_tokens: Optional[int] = None
        self._lock = threading.Lock()
        self._sealed_trace: Optional[Trace] = None
        self._open_handle = -1

    @property
    def sealed(self) -> bool:
        return self._sealed_trace is not None

    # -- phases ---------------------------------------------------------

    def begin_phase(self, kind: PhaseKind, turn: int, token_index: Optional[int] = None) -> int:
        """Open a phase and capture its start timestamp.

        Returns an opaque handle to pass to :meth:`end_phase`. Phases on one
        session may not overlap: beginning a second phase while another is
        open raises :class:`PhaseOverlap`.
        """
        if not isinstance(kind, PhaseKind):
            raise TypeError("kind must be a PhaseKind")
        if turn < 0:
            raise ValueError("turn must be nonnegative")
        _check_token_index(kind, token_index)
        with self._lock:
            if self._sealed_trace is not None:
                raise SessionSealed("cannot begin a phase on a sealed session")
            if self._open_handle != -1:
                raise PhaseOverlap(
                    "a phase is already open; phase records must not overlap"
                )
            handle = self._open_handle = self._rows.add_phase(
                kind, turn, token_index, self.clock(), _OPEN
            )
            return handle

    def end_phase(self, handle: int) -> None:
        """Close the phase, capturing its end timestamp."""
        with self._lock:
            rows = self._rows
            if not isinstance(handle, int) or handle < 0 or handle >= rows._p_len:
                raise UnknownHandle(f"handle {handle!r} was not issued by this session")
            if rows._p_end[handle] != _OPEN:
                raise AlreadyEnded(f"phase handle {handle} was already ended")
            rows._p_end[handle] = self.clock()
            if self._open_handle == handle:
                self._open_handle = -1

    # -- kernels --------------------------------------------------------

    def record_kernel(
        self,
        name: str,
        queue_id: int,
        t_cpu_enqueue_ns: int,
        t_queued_ns: int,
        t_submit_ns: int,
        t_start_ns: int,
        t_end_ns: int,
    ) -> None:
        """Append one device command with its lifecycle timestamps.

        Validates queued <= submit <= start <= end before appending; a
        violation raises :class:`TimestampOrderViolation` naming the first
        broken inequality and nothing is recorded.
        """
        _check_kernel(
            name, queue_id, t_cpu_enqueue_ns, t_queued_ns, t_submit_ns, t_start_ns, t_end_ns
        )
        with self._lock:
            if self._sealed_trace is not None:
                raise SessionSealed("cannot record a kernel on a sealed session")
            self._rows.add_kernel(
                name, queue_id, t_cpu_enqueue_ns, t_queued_ns, t_submit_ns, t_start_ns, t_end_ns
            )

    def record_columns(self, phases: Columns, names: Sequence[str], kernels: Columns) -> None:
        """Append closed phases and kernels given as columns (see
        :meth:`RecordColumns.extend`). Raises :class:`SessionSealed` or
        :class:`PhaseOverlap` as the record calls do, then what
        :func:`check_columns` raises; nothing is appended unless all pass."""
        with self._lock:
            if self._sealed_trace is not None:
                raise SessionSealed("cannot record columns on a sealed session")
            if self._open_handle != -1:
                raise PhaseOverlap("a phase is open; phase records must not overlap")
            check_columns(phases, names, kernels)
            self._rows.extend(phases, names, kernels)

    # -- sealing --------------------------------------------------------

    def seal(self) -> Trace:
        """Order the rows, freeze them into a Trace and reject further records.

        Raises :class:`OpenPhaseRemaining` for a phase still open, and the
        errors :class:`PhaseRecord` raises for a phase whose clock readings
        are negative or run backwards. Idempotent: sealing twice returns
        the same Trace object.
        """
        with self._lock:
            if self._sealed_trace is not None:
                return self._sealed_trace
            rows = self._rows
            start = np.frombuffer(rows._p_start, dtype=np.int64, count=rows._p_len)
            end = np.frombuffer(rows._p_end, dtype=np.int64, count=rows._p_len)
            still_open = np.flatnonzero(end == _OPEN)
            if len(still_open):
                raise OpenPhaseRemaining(f"phase handle {still_open[0]} is still open")
            # begin_phase checked kind, turn and token; the clock readings
            # get PhaseRecord's checks here, first failing row first.
            bad = np.flatnonzero((start < 0) | (end < start))
            if len(bad):
                if start[bad[0]] < 0:
                    raise ValueError("timestamps must be nonnegative")
                raise TimestampOrderViolation("phase t_end_ns < t_start_ns")
            phases, kernels = rows.tables()
            self._sealed_trace = Trace(
                device_label=self.device_label,
                clock_offset_ns=self.clock_offset_ns,
                phases=phases,
                kernels=kernels,
                prompt_tokens=self.prompt_tokens,
                output_tokens=self.output_tokens,
                created_at=self.created_at,
            )
            return self._sealed_trace


def calibrate_timer(iterations: int = 10_000) -> TimerCalibration:
    """Measure clock resolution and the cost of one phase record pair.

    ``resolution_ns`` is the smallest nonzero delta seen across back-to-back
    clock reads. ``overhead_ns_median`` is the median wall cost of a full
    begin_phase/end_phase pair on a scratch session, which is the price one
    instrumented phase pays for being measured.
    """
    if iterations < 1000:
        raise ValueError("iterations must be at least 1000")
    resolution: Optional[int] = None
    prev = now()
    for _ in range(iterations):
        cur = now()
        delta = cur - prev
        if delta > 0 and (resolution is None or delta < resolution):
            resolution = delta
        prev = cur
    scratch = TraceSession(device_label="calibration", capacity=iterations)
    costs = [0] * iterations
    for i in range(iterations):
        t0 = now()
        handle = scratch.begin_phase(PhaseKind.SAMPLING, 0, i)
        scratch.end_phase(handle)
        costs[i] = now() - t0
    return TimerCalibration(
        resolution_ns=resolution if resolution is not None else 1,
        overhead_ns_median=float(statistics.median(costs)),
        iterations=iterations,
    )
