"""Low-overhead capture of phase and kernel timing events.

All timestamps are integer nanoseconds. Phase timestamps come from a
monotonic clock read at begin/end; kernel timestamps are supplied by the
backend (a real device runtime reports command-lifecycle times, the
simulated engine computes them). A :class:`TraceSession` record call
checks its values in one chained test and packs them as one int64 row of
a preallocated buffer; it returns nothing but a phase handle, so the hot
path builds no object and retains no allocation once warmed up. A
backend that computes whole columns, as the simulated engine does,
appends them in one checked bulk call. :meth:`TraceSession.seal` hands
the rows, in recording order, to an immutable :class:`Trace` without
building a record. A Trace is made from tables or a :class:`RecordColumns`
only; it checks every row, copies the rows into columns of its own, sorted
stably only if out of order (phases by start, kernels by queued time, ties
in recording order, across threads too), and refuses overlapping phases.
Its :class:`PhaseTable` and :class:`KernelTable` yield :class:`PhaseRecord`
and :class:`KernelRecord` rows lazily for callers that want rows; the
analyses and the trace writers read the columns.

Sessions accept an injectable ``clock`` callable, read when a phase
begins and ends. Real backends use the default :data:`now`. The
simulated engine computes every phase stamp itself and appends its turn
in the bulk call, so nothing reads its session's clock.
"""

from __future__ import annotations

import enum
import operator
import statistics
import struct
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
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


#: Current monotonic time in integer ns, immune to wall-clock adjustments
#: (a later read is never smaller), and a session's default clock. It is
#: ``time.monotonic_ns`` itself: a wrapper would add a Python frame to every read.
now = time.monotonic_ns


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


def _check_phase(
    kind: PhaseKind, turn: int, token_index: Optional[int], start: int, end: int
) -> None:
    """Raise ValueError for a negative turn, a token index that breaks the
    kind's rule or a negative start, then TimestampOrderViolation for
    end < start."""
    if turn < 0:
        raise ValueError("turn must be nonnegative")
    if kind in PER_TOKEN_KINDS:
        if token_index is None:
            raise ValueError(f"{kind.value} phases require a token_index")
        if token_index < 0:
            raise ValueError("token_index must be nonnegative")
    elif token_index is not None:
        raise ValueError(f"{kind.value} phases must not carry a token_index")
    if start < 0:
        raise ValueError("timestamps must be nonnegative")
    if end < start:
        raise TimestampOrderViolation("phase t_end_ns < t_start_ns")


#: The range every integer in a trace's columns must lie in.
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def check_int64(label: str, value: object, nullable: bool = False) -> None:
    """The integer rule of every lmmk value: raise TypeError unless
    ``value`` is an exact int (a bool, a float or a numpy integer fails;
    None passes when ``nullable``), then ValueError for one outside int64.
    ``label`` names the value in the message."""
    if type(value) is not int:
        if value is None and nullable:
            return
        raise TypeError(f"{label} must be {'an int or None' if nullable else 'an int'}, "
                        f"got {value!r}")
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"{label} out of int64 range, got {_shown(value)}")


def _shown(value: object) -> str:
    """``repr(value)``, or the size of an int past CPython's digit limit for printing."""
    try:
        return repr(value)
    except ValueError:
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit int"


@dataclass(frozen=True)
class PhaseRecord:
    """One timed occurrence of a semantic inference phase."""

    kind: PhaseKind
    turn: int
    token_index: Optional[int]
    t_start_ns: int
    t_end_ns: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PhaseKind):
            raise TypeError("kind must be a PhaseKind")
        for name in ("turn", "token_index", "t_start_ns", "t_end_ns"):
            check_int64(f"PhaseRecord.{name}", getattr(self, name), name == "token_index")
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
        for name in ("queue_id", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns",
                     "t_start_ns", "t_end_ns"):
            check_int64(f"KernelRecord.{name}", getattr(self, name))
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
    """Raise TypeError for a name that is not a str, ValueError for an empty
    name, a negative queue id or a negative host or queued timestamp, then
    TimestampOrderViolation naming the first violated lifecycle inequality."""
    if type(name) is not str:
        raise TypeError(f"kernel name must be a str, got {name!r}")
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


_OPEN = -1  # placeholder in the phase end column while a phase is in flight
_NO_TOKEN = -1  # column encoding of token_index=None
_ROW_CHUNK = 4096  # rows converted to Python ints, or formatted as text, at a time
_FIRST_ROWS = 1024  # rows in a table's first record buffer
_SEGMENT_ROWS = 2048  # rows in each later record buffer: 112 KiB of kernel rows

_KIND_BY_INDEX = tuple(PhaseKind)
# keyed on member values: PhaseKind's own hash is Python code
_INDEX_BY_VALUE = {kind._value_: i for i, kind in enumerate(_KIND_BY_INDEX)}
_PER_TOKEN_VALUES = frozenset(kind._value_ for kind in PER_TOKEN_KINDS)
_PHASE_ROW, _KERNEL_ROW, _INT64 = struct.Struct("=5q"), struct.Struct("=7q"), struct.Struct("=q")
# A phase row's token index bounds by kind code + 1; the two end entries admit no token.
_TOKEN_LO, _TOKEN_HI = np.array([(1, 0), *((0, INT64_MAX) if kind in PER_TOKEN_KINDS else (-1, -1)
                                           for kind in _KIND_BY_INDEX), (1, 0)]).T.copy()
Columns = Sequence[np.ndarray]  # equal-length int64 columns


def check_columns(phases: Columns, names: Sequence[str], kernels: Columns) -> None:
    """Check phase and kernel rows given as int64 columns in the order of
    :class:`PhaseTable` and :class:`KernelTable` (name codes index
    ``names``). Raises what :func:`_check_phase`, then :func:`_check_kernel`,
    raises for the first row that breaks a rule: the lowest row, and in it
    the first broken rule. A name code outside ``range(len(names))`` is a
    ValueError, checked before the name it would index, and so is a phase
    kind code outside ``range(len(PhaseKind))`` before the rest of its row."""
    kind, turn, token, start, end = phases
    at = kind + 1  # clipped, every code out of range (INT64_MAX wraps) takes an end entry
    bad = ((token < _TOKEN_LO.take(at, mode="clip")) | (token > _TOKEN_HI.take(at, mode="clip"))
           | ((turn | start) < 0) | (end < start))
    if bad.any():
        i = bad.argmax()
        if not 0 <= kind[i] < len(_KIND_BY_INDEX):
            raise ValueError(f"phase kind code {kind[i]} is not in range({len(_KIND_BY_INDEX)})")
        kind, turn, token, start, end = (int(c[i]) for c in phases)
        _check_phase(_KIND_BY_INDEX[kind], turn, None if token == _NO_TOKEN else token, start, end)
    code, queue, enqueue, queued, submit, start, end = kernels
    unnamed = np.array([True, *(type(name) is not str or name == "" for name in names), True])
    bad = (unnamed.take(code + 1, mode="clip") | ((queue | enqueue | queued) < 0)
           | (submit < queued) | (start < submit) | (end < start))
    if bad.any():
        i = bad.argmax()
        if not 0 <= code[i] < len(names):
            raise ValueError(f"kernel name code {code[i]} is not in range({len(names)})")
        _check_kernel(names[code[i]], *(int(c[i]) for c in kernels[1:]))


def int_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length int64 columns as tuples of Python ints,
    converted a chunk at a time so no full-length list is ever held. The
    chunks grow from 16 rows to ``_ROW_CHUNK``, so the first row is cheap."""
    lo, size = 0, 16
    while lo < len(columns[0]):
        yield from zip(*[c[lo:lo + size].tolist() for c in columns])
        lo, size = lo + size, min(2 * size, _ROW_CHUNK)


class _RecordTable(Sequence):
    """Read-only records held as equal-length int64 columns, each given as
    :meth:`_int64_column` takes it.

    Rows are built on demand, with exact ``int`` and ``str`` values, when
    the table is iterated or indexed; an index builds its one row and no
    table, and ``len`` is O(1). A table equals only a table of its class
    with the same rows. A row skips its record class's checks: a Trace
    checks every row of its tables when it is made."""

    __slots__ = ()
    _columns: tuple[str, ...] = ()

    def __init__(self, *columns) -> None:
        columns = [self._int64_column(name, values)
                   for name, values in zip(self._columns, columns, strict=True)]
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length: "
                             f"{[len(column) for column in columns]}")
        for name, column in zip(self._columns, columns):
            column.setflags(write=False)
            setattr(self, name, column)

    def _int64_column(self, name: str, values) -> np.ndarray:
        """Column ``name``: an int64 view of a signed-integer ndarray (not a
        copy, if int64) or of any other iterable (an ndarray as its
        ``tolist()``) whose every value passes :func:`check_int64`."""
        if not (isinstance(values, np.ndarray) and values.dtype.kind == "i"):
            values = values.tolist() if isinstance(values, np.ndarray) else list(values)
            for value in values:
                check_int64(f"{type(self).__name__}.{name}", value)
        return np.asarray(values, dtype=np.int64).view()

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self._columns]

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0]))

    def __iter__(self) -> Iterator:
        return map(self._row, int_rows(*self._arrays()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        i = operator.index(index)
        return self._row([c.item(i) for c in self._arrays()])

    def take(self, index):
        """Table of the rows a slice, boolean mask or index array selects."""
        return self._like(*(c[index] for c in self._arrays()))

    def _like(self, *columns):
        """A table like this one on ``columns``, given in ``_arrays`` order."""
        return type(self)(*columns)

    def _same_rows(self, other) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    def __eq__(self, other) -> bool:
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

    def _row(self, values) -> PhaseRecord:
        kind, turn, token, start, end = values
        row = _new_row(PhaseRecord)
        row.__dict__.update(
            kind=_KIND_BY_INDEX[kind], turn=turn,
            token_index=None if token == _NO_TOKEN else token,
            t_start_ns=start, t_end_ns=end,
        )
        return row

    def of_kind(self, kind: PhaseKind) -> np.ndarray:
        """Boolean mask of the rows of one phase kind."""
        return self.kind_code == _INDEX_BY_VALUE[kind.value]


class KernelTable(_RecordTable):
    """Kernel rows as int64 columns: ``name_code`` (an index into the
    ``names`` tuple, which holds each distinct name once; a repeat is a
    ValueError), ``queue_id``, ``t_cpu_enqueue_ns``, ``t_queued_ns``,
    ``t_submit_ns``, ``t_start_ns`` and ``t_end_ns``; rows are
    :class:`KernelRecord`."""

    __slots__ = ("names", "name_code", "queue_id", "t_cpu_enqueue_ns", "t_queued_ns",
                 "t_submit_ns", "t_start_ns", "t_end_ns")
    _columns = __slots__[1:]

    def __init__(self, names: Iterable[str], *columns) -> None:
        self.names = tuple(names)
        strs = [name for name in self.names if type(name) is str]  # check_columns refuses the rest
        if len(set(strs)) < len(strs):
            repeated = next(name for i, name in enumerate(strs) if name in strs[:i])
            raise ValueError(f"KernelTable names hold {repeated!r} more than once")
        super().__init__(*columns)

    def _row(self, values) -> KernelRecord:
        code, queue, enqueue, queued, submit, start, end = values
        row = _new_row(KernelRecord)
        row.__dict__.update(
            name=self.names[code], queue_id=queue, t_cpu_enqueue_ns=enqueue,
            t_queued_ns=queued, t_submit_ns=submit, t_start_ns=start, t_end_ns=end,
        )
        return row

    def _like(self, *columns) -> "KernelTable":
        return KernelTable(self.names, *columns)

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
    iterate or index them. The constructor, and so ``dataclasses.replace``,
    takes on each side a table of that side or a :class:`RecordColumns`,
    and raises TypeError for anything else. Then, however the rows come,
    it raises what :func:`check_columns` raises for them in the order given,
    copies them into columns of its own, sorted stably only if out of
    order (phases by t_start_ns, kernels by t_queued_ns, ties in the order
    given), and raises :class:`PhaseOverlap` for the first two phases, in
    start order, that overlap. So every Trace writes a file that reads
    back equal.

    ``clock_offset_ns`` maps device timestamps into the host domain
    (host = device + offset); ``None`` means the domains were never
    aligned and cross-domain analyses must refuse to run. It and the
    token counts must pass :func:`check_int64` as nullable, and
    ``device_label`` must be a str (TypeError).
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

    def __post_init__(self) -> None:
        if not isinstance(self.device_label, str):
            raise TypeError(f"Trace.device_label must be a str, got {self.device_label!r}")
        for name in ("clock_offset_ns", "prompt_tokens", "output_tokens"):
            check_int64(f"Trace.{name}", getattr(self, name), nullable=True)
        phases, kernels = self.phases, self.kernels
        for side, table in (("phases", PhaseTable), ("kernels", KernelTable)):
            if not isinstance(rows := getattr(self, side), (table, RecordColumns)):
                raise TypeError(f"Trace.{side} must be a {table.__name__} or RecordColumns, "
                                f"got {type(rows).__name__}")
        p_table, k_table = isinstance(phases, PhaseTable), isinstance(kernels, KernelTable)
        phases = phases._arrays() if p_table else phases.phase_columns()
        names, kernels = ((kernels.names, kernels._arrays()) if k_table
                          else kernels.kernel_columns())
        check_columns(phases, names, kernels)
        phases = PhaseTable(*_in_order(phases, 3, p_table))  # by t_start_ns
        kernels = KernelTable(names, *_in_order(kernels, 3, k_table))  # by t_queued_ns
        overlaps = np.flatnonzero(phases.t_start_ns[1:] < phases.t_end_ns[:-1])
        if len(overlaps):
            a, b = phases[overlaps[0]:overlaps[0] + 2]
            raise PhaseOverlap(
                f"phase records overlap: {a.kind.value} [{a.t_start_ns}, {a.t_end_ns}] "
                f"and {b.kind.value} [{b.t_start_ns}, {b.t_end_ns}]"
            )
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "kernels", kernels)


def _in_order(columns: Columns, key: int, copy: bool) -> Columns:
    """The columns, their rows ordered by column ``key`` with ties in the
    order given: if in order, as they are (copied if ``copy``), else
    gathered by a stable argsort."""
    t = columns[key]
    if (t[1:] >= t[:-1]).all():
        return [c.copy() for c in columns] if copy else columns
    order = np.argsort(t, kind="stable")
    return [c[order] for c in columns]


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
    """Growable phase and kernel rows in recording order, which
    :class:`TraceSession` and :func:`lmmk.trace_io.read_jsonl` fill and
    hand to a Trace, which copies them. Rows are
    int64 in :class:`PhaseTable`/:class:`KernelTable` column order (5 and 7
    wide), each written into a row buffer by one ``struct.pack_into``.
    Each table's first row buffer holds 1,024 rows and every later one
    2,048 (``_SEGMENT_ROWS``): a full buffer is kept as a segment and a new
    one takes over. Nothing is copied to grow, and no row buffer reaches
    glibc's 128 KiB mmap threshold, which freeing so large a block would
    raise. Rows appended as columns become one segment, a copy of each
    column, so the bulk route writes no row and makes no block wider than
    one column (a wider one, freed, would raise the threshold). Kernel
    names are interned: the name column holds codes into the distinct
    names. Appends check nothing; a row with a value outside int64 raises
    ``struct.error`` and leaves no row and no name."""

    def __init__(self) -> None:
        self._phases = bytearray(_PHASE_ROW.size * _FIRST_ROWS)
        self._kernels = bytearray(_KERNEL_ROW.size * _FIRST_ROWS)
        self._p_at = self._k_at = 0  # bytes of each row buffer filled
        self._p_from = self._k_from = 0  # bytes of each row buffer already in a segment
        self._p_segments, self._k_segments = [], []  # earlier rows' columns, oldest first
        self._p_len = 0
        self._name_codes: dict[str, int] = {}  # distinct names in interning order

    def add_phase(
        self, kind: PhaseKind, turn: int, token_index: Optional[int], start: int, end: int
    ) -> int:
        """Append one phase row and return its row index."""
        i, at = self._p_len, self._p_at
        if at == len(self._phases):
            self._phases = _closed(self._p_segments, self._phases, self._p_from, _PHASE_ROW.size)
            self._p_at = self._p_from = at = 0  # stored now: a refused row leaves no row
        _PHASE_ROW.pack_into(self._phases, at, _INDEX_BY_VALUE[kind._value_], turn,
                             _NO_TOKEN if token_index is None else token_index, start, end)
        self._p_at, self._p_len = at + _PHASE_ROW.size, i + 1
        return i

    def add_kernel(
        self, name: str, queue_id: int, enqueue: int, queued: int, submit: int, start: int,
        end: int,
    ) -> None:
        """Append one kernel row."""
        at = self._k_at
        if at == len(self._kernels):
            self._kernels = _closed(self._k_segments, self._kernels, self._k_from,
                                    _KERNEL_ROW.size)
            self._k_at = self._k_from = at = 0
        codes = self._name_codes
        code = codes.get(name)
        _KERNEL_ROW.pack_into(self._kernels, at, len(codes) if code is None else code, queue_id,
                              enqueue, queued, submit, start, end)
        if code is None:  # interned only once the row is stored, so a refused row leaves no name
            codes[name] = len(codes)
        self._k_at = at + _KERNEL_ROW.size

    def extend(self, phases: Columns, names: Sequence[str], kernels: Columns) -> None:
        """Append rows given as columns in the order of :class:`PhaseTable`
        and :class:`KernelTable`; name codes index ``names``, which are
        interned in the order given. The rows of the row buffers become a
        segment first, and a copy of each column the next one."""
        codes = self._name_codes
        remap = np.array([codes.setdefault(name, len(codes)) for name in names], dtype=np.int64)
        kernels = [remap[kernels[0]], *(np.array(c, dtype=np.int64) for c in kernels[1:])]
        self._p_segments += [_rows(self._phases, self._p_from, self._p_at, 5),
                             [np.array(column, dtype=np.int64) for column in phases]]
        self._k_segments += [_rows(self._kernels, self._k_from, self._k_at, 7), kernels]
        self._p_from, self._k_from = self._p_at, self._k_at
        self._p_len += len(phases[0])

    def phase_columns(self) -> Columns:
        """The phase rows' columns in recording order, unchecked, in new arrays."""
        return _joined([*self._p_segments, _rows(self._phases, self._p_from, self._p_at, 5)])

    def kernel_columns(self) -> tuple[tuple[str, ...], Columns]:
        """The distinct names the codes index, and the kernel rows' columns as phase_columns."""
        kernels = _joined([*self._k_segments, _rows(self._kernels, self._k_from, self._k_at, 7)])
        return tuple(self._name_codes), kernels


def _closed(segments: list, buffer: bytearray, lo: int, row: int) -> bytearray:
    """Close a full row buffer, whose rows from byte ``lo`` on are in no
    segment yet, into ``segments``; returns the buffer the next rows go to."""
    segments.append(_rows(buffer, lo, len(buffer), row // 8))
    return bytearray(row * _SEGMENT_ROWS)


def _rows(buffer: bytearray, lo: int, hi: int, width: int) -> np.ndarray:
    """The rows in bytes ``lo`` to ``hi`` of a row buffer, as a (width, n) view."""
    return np.frombuffer(buffer, dtype=np.int64, count=(hi - lo) // 8,
                         offset=lo).reshape(-1, width).T


def _joined(segments: list) -> Columns:
    """A table's columns from its segments' columns, each joined by one
    ``np.concatenate`` into a new array that views no segment."""
    return [np.concatenate(c) for c in zip(*segments)]


class TraceSession:
    """Mutable collector of phase and kernel records.

    A record call tests its values in one chained comparison (on failure
    the record class raises its error, recording nothing), then packs them
    as one row of :class:`RecordColumns` under the session's one lock. The
    lock makes appends safe for two recording threads (host-enqueue and
    completion-callback paths) and puts a record that races :meth:`seal` in
    the Trace or refuses it with :class:`SessionSealed`; per-thread buffers
    measured at best 80 ns a record faster (1% of a recorder-bound pass)
    and need more than one lock to seal. The Trace copies the rows into
    columns of its own, sorted stably (ties in recording order) only if out
    of order."""

    def __init__(
        self,
        device_label: str = "",
        clock_offset_ns: Optional[int] = None,
        clock: Callable[[], int] = now,
    ) -> None:
        self._rows = RecordColumns()
        self.device_label = device_label
        self.clock_offset_ns = clock_offset_ns
        self.clock = clock
        self.prompt_tokens: Optional[int] = None
        self.output_tokens: Optional[int] = None
        self._lock = threading.Lock()
        self._sealed_trace: Optional[Trace] = None
        self._open_handle = -1

    # -- phases ---------------------------------------------------------

    def begin_phase(self, kind: PhaseKind, turn: int, token_index: Optional[int] = None) -> int:
        """Open a phase and capture its start timestamp.

        Refuses what :class:`PhaseRecord` refuses for ``kind``, ``turn`` and
        ``token_index``, with its error. Returns an opaque handle to pass to
        :meth:`end_phase`. Phases on one session may not overlap: beginning
        a second phase while another is open raises :class:`PhaseOverlap`.
        """
        if not (type(kind) is PhaseKind and type(turn) is int and 0 <= turn <= INT64_MAX
                and (type(token_index) is int and 0 <= token_index <= INT64_MAX
                     if kind._value_ in _PER_TOKEN_VALUES else token_index is None)):
            PhaseRecord(kind, turn, token_index, 0, 0)  # raises: the test above is its rule
        lock = self._lock
        lock.acquire()  # not `with`, whose __exit__ call costs more than the acquire
        try:
            if self._sealed_trace is not None:
                raise SessionSealed("cannot begin a phase on a sealed session")
            if self._open_handle != -1:
                raise PhaseOverlap(
                    "a phase is already open; phase records must not overlap"
                )
            start = self.clock()
            if type(start) is not int:  # pack would take a bool or a numpy integer
                check_int64("PhaseRecord.t_start_ns", start)
            try:
                self._open_handle = self._rows.add_phase(kind, turn, token_index, start, _OPEN)
            except struct.error:
                check_int64("PhaseRecord.t_start_ns", start)  # raises for what pack refused
            return self._open_handle
        finally:
            lock.release()

    def end_phase(self, handle: int) -> None:
        """Close the open phase, capturing its end timestamp. Any other
        phase this session holds was ended already (:class:`AlreadyEnded`)."""
        lock = self._lock
        lock.acquire()
        try:
            if type(handle) is not int or handle < 0 or handle >= self._rows._p_len:
                raise UnknownHandle(f"handle {handle!r} was not issued by this session")
            if handle != self._open_handle:
                raise AlreadyEnded(f"phase handle {handle} was already ended")
            end = self.clock()
            if type(end) is not int:
                check_int64("PhaseRecord.t_end_ns", end)
            try:  # the open phase is the last row of the buffer, its end the last int64
                _INT64.pack_into(self._rows._phases, self._rows._p_at - 8, end)
            except struct.error:
                check_int64("PhaseRecord.t_end_ns", end)  # raises for what pack refused
            self._open_handle = -1
        finally:
            lock.release()

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

        Refuses what :class:`KernelRecord` refuses, with its error, and
        records nothing: queued <= submit <= start <= end is checked before
        appending, and a violation raises :class:`TimestampOrderViolation`
        naming the first broken inequality.
        """
        if not (type(name) is str and name and type(queue_id) is type(t_cpu_enqueue_ns)
                is type(t_queued_ns) is type(t_submit_ns) is type(t_start_ns) is type(t_end_ns)
                is int and 0 <= queue_id <= INT64_MAX and 0 <= t_cpu_enqueue_ns <= INT64_MAX
                and 0 <= t_queued_ns <= t_submit_ns <= t_start_ns <= t_end_ns <= INT64_MAX):
            KernelRecord(name, queue_id, t_cpu_enqueue_ns, t_queued_ns, t_submit_ns,
                         t_start_ns, t_end_ns)  # raises: the test above is its rule
        lock = self._lock
        lock.acquire()
        try:
            if self._sealed_trace is not None:
                raise SessionSealed("cannot record a kernel on a sealed session")
            self._rows.add_kernel(name, queue_id, t_cpu_enqueue_ns, t_queued_ns, t_submit_ns,
                                  t_start_ns, t_end_ns)
        finally:
            lock.release()

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
        """Freeze the rows into a Trace and reject further records.

        Raises :class:`OpenPhaseRemaining` for a phase still open, and what
        :class:`Trace` raises for the rows: for the first recorded phase
        whose clock readings are negative or run backwards, the error
        :class:`PhaseRecord` raises, and :class:`PhaseOverlap` for phases
        that overlap. The session then stays unsealed. Idempotent: sealing
        twice returns the same Trace object.
        """
        with self._lock:
            if self._sealed_trace is not None:
                return self._sealed_trace
            if self._open_handle != -1:
                raise OpenPhaseRemaining(f"phase handle {self._open_handle} is still open")
            self._sealed_trace = Trace(
                self.device_label, self.clock_offset_ns, phases=self._rows, kernels=self._rows,
                prompt_tokens=self.prompt_tokens, output_tokens=self.output_tokens)
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
    # records no kernel rows; the median ignores the pairs that open a phase buffer
    scratch = TraceSession(device_label="calibration")
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
