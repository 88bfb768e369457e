"""Low-overhead capture of phase and kernel timing events.

All timestamps are integer nanoseconds. Phase timestamps come from a
monotonic clock read at begin/end; kernel timestamps are supplied by the
backend (a real device runtime reports command-lifecycle times, the
simulated engine computes them). A :class:`TraceSession` accumulates
records into preallocated columnar buffers so the hot path performs no
retained allocation once warmed up, then :meth:`TraceSession.seal`
freezes everything into an immutable, time-sorted :class:`Trace`.

Sessions accept an injectable ``clock`` callable. Real backends use the
default :func:`now`; the simulated engine injects a virtual clock it
advances itself, so simulated phase times flow through the same API.
"""

from __future__ import annotations

import enum
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Optional

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


@dataclass(frozen=True)
class PhaseRecord:
    """One timed occurrence of a semantic inference phase."""

    kind: PhaseKind
    turn: int
    token_index: Optional[int]
    t_start_ns: int
    t_end_ns: int

    def __post_init__(self) -> None:
        if self.turn < 0:
            raise ValueError("turn must be nonnegative")
        _check_token_index(self.kind, self.token_index)
        if self.t_start_ns < 0:
            raise ValueError("timestamps must be nonnegative")
        if self.t_end_ns < self.t_start_ns:
            raise TimestampOrderViolation("phase t_end_ns < t_start_ns")

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


@dataclass(frozen=True)
class Trace:
    """Immutable, time-sorted session of phase and kernel records.

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
    phases: tuple[PhaseRecord, ...]
    kernels: tuple[KernelRecord, ...]
    prompt_tokens: Optional[int] = None
    output_tokens: Optional[int] = None
    created_at: str = field(default="", compare=False)


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


_OPEN = -1  # sentinel in the phase end column while a phase is in flight
_NO_TOKEN = -1  # column encoding of token_index=None

_KIND_BY_INDEX = tuple(PhaseKind)
_INDEX_BY_KIND = {kind: i for i, kind in enumerate(_KIND_BY_INDEX)}


def _int_column(capacity: int) -> array:
    return array("q", bytes(8 * capacity))


class TraceSession:
    """Mutable collector of phase and kernel records.

    Record calls write into preallocated columns (grown by doubling off the
    hot path), so steady-state recording retains no per-record allocation.
    Appends are lock-protected and safe for two concurrent recording
    threads (host-enqueue path and completion-callback path); global order
    is restored at seal time by sorting.
    """

    def __init__(
        self,
        device_label: str = "",
        clock_offset_ns: Optional[int] = None,
        clock: Callable[[], int] = now,
        capacity: int = 1024,
    ) -> None:
        self.device_label = device_label
        self.clock_offset_ns = clock_offset_ns
        self.clock = clock
        self.created_at = datetime.now(timezone.utc).isoformat()
        self.prompt_tokens: Optional[int] = None
        self.output_tokens: Optional[int] = None
        self._lock = threading.Lock()
        self._sealed_trace: Optional[Trace] = None
        cap = max(16, capacity)
        # phase columns
        self._p_kind = _int_column(cap)
        self._p_turn = _int_column(cap)
        self._p_token = _int_column(cap)
        self._p_start = _int_column(cap)
        self._p_end = _int_column(cap)
        self._p_len = 0
        self._open_handle = -1
        # kernel columns; names are object slots holding caller strings
        self._k_name: list[Optional[str]] = [None] * cap
        self._k_queue = _int_column(cap)
        self._k_enqueue = _int_column(cap)
        self._k_queued = _int_column(cap)
        self._k_submit = _int_column(cap)
        self._k_start = _int_column(cap)
        self._k_end = _int_column(cap)
        self._k_len = 0

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
            i = self._p_len
            if i == len(self._p_turn):
                self._grow_phases()
            self._p_kind[i] = _INDEX_BY_KIND[kind]
            self._p_turn[i] = turn
            self._p_token[i] = _NO_TOKEN if token_index is None else token_index
            self._p_start[i] = self.clock()
            self._p_end[i] = _OPEN
            self._p_len = i + 1
            self._open_handle = i
            return i

    def end_phase(self, handle: int) -> PhaseRecord:
        """Close the phase and return the completed record."""
        with self._lock:
            if not isinstance(handle, int) or handle < 0 or handle >= self._p_len:
                raise UnknownHandle(f"handle {handle!r} was not issued by this session")
            if self._p_end[handle] != _OPEN:
                raise AlreadyEnded(f"phase handle {handle} was already ended")
            self._p_end[handle] = self.clock()
            if self._open_handle == handle:
                self._open_handle = -1
            return self._phase_record(handle)

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
    ) -> KernelRecord:
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
            i = self._k_len
            if i == len(self._k_name):
                self._grow_kernels()
            self._k_name[i] = name
            self._k_queue[i] = queue_id
            self._k_enqueue[i] = t_cpu_enqueue_ns
            self._k_queued[i] = t_queued_ns
            self._k_submit[i] = t_submit_ns
            self._k_start[i] = t_start_ns
            self._k_end[i] = t_end_ns
            self._k_len = i + 1
        return KernelRecord(
            name, queue_id, t_cpu_enqueue_ns, t_queued_ns, t_submit_ns, t_start_ns, t_end_ns
        )

    # -- sealing --------------------------------------------------------

    def seal(self) -> Trace:
        """Sort records, freeze them into a Trace and reject further records.

        Idempotent: sealing twice returns the same Trace object.
        """
        with self._lock:
            if self._sealed_trace is not None:
                return self._sealed_trace
            for i in range(self._p_len):
                if self._p_end[i] == _OPEN:
                    raise OpenPhaseRemaining(f"phase handle {i} is still open")
            phases = sorted(
                (self._phase_record(i) for i in range(self._p_len)),
                key=lambda r: r.t_start_ns,
            )
            kernels = sorted(
                (self._kernel_record(i) for i in range(self._k_len)),
                key=lambda r: r.t_queued_ns,
            )
            self._sealed_trace = Trace(
                device_label=self.device_label,
                clock_offset_ns=self.clock_offset_ns,
                phases=tuple(phases),
                kernels=tuple(kernels),
                prompt_tokens=self.prompt_tokens,
                output_tokens=self.output_tokens,
                created_at=self.created_at,
            )
            return self._sealed_trace

    # -- internals ------------------------------------------------------

    def _phase_record(self, i: int) -> PhaseRecord:
        token = self._p_token[i]
        return PhaseRecord(
            kind=_KIND_BY_INDEX[self._p_kind[i]],
            turn=self._p_turn[i],
            token_index=None if token == _NO_TOKEN else token,
            t_start_ns=self._p_start[i],
            t_end_ns=self._p_end[i],
        )

    def _kernel_record(self, i: int) -> KernelRecord:
        name = self._k_name[i]
        assert name is not None
        return KernelRecord(
            name=name,
            queue_id=self._k_queue[i],
            t_cpu_enqueue_ns=self._k_enqueue[i],
            t_queued_ns=self._k_queued[i],
            t_submit_ns=self._k_submit[i],
            t_start_ns=self._k_start[i],
            t_end_ns=self._k_end[i],
        )

    def _grow_phases(self) -> None:
        cap = len(self._p_turn)
        pad = bytes(8 * cap)
        for col in ("_p_kind", "_p_turn", "_p_token", "_p_start", "_p_end"):
            grown = array("q", getattr(self, col).tobytes() + pad)
            setattr(self, col, grown)

    def _grow_kernels(self) -> None:
        cap = len(self._k_name)
        pad = bytes(8 * cap)
        self._k_name.extend([None] * cap)
        for col in ("_k_queue", "_k_enqueue", "_k_queued", "_k_submit", "_k_start", "_k_end"):
            grown = array("q", getattr(self, col).tobytes() + pad)
            setattr(self, col, grown)


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
