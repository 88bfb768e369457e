"""Trace serialization: line-delimited JSON, viewer export, the simulator's
ground-truth sidecar, CSV reports.

The JSONL format keeps every timestamp as an integer nanosecond so round
trips are bit-exact; files are UTF-8 with LF line endings and fixed key
order, so identical traces serialize to identical bytes. The viewer
export follows the trace-event JSON format (complete "X" events) and is
the only place fractional microseconds appear, because that format
requires them. They print as the exact decimal of the nanoseconds / 1000,
so the text keeps every nanosecond; ``round(ts * 1000)`` after a float
parse gets it back only below 2**51 ns.

Both writers format a trace's int64 columns a chunk of rows at a time, as
one uint8 matrix of a template's constant bytes, right-aligned digit
blocks and name lookups, written with its 0 padding dropped. They check
nothing: a :class:`~lmmk.recorder.Trace` checked and ordered its rows,
and refused overlapping phases, when it was made. So no value can make a
writer fail after it has opened its file, and a written trace reads back
equal. The ground-truth sidecar's windows are formatted from their
columns the same way, after one check of the columns. The reader reads
the header line on its own, then blocks of about 64 KiB that end on LF.
A block of lines exactly as :func:`write_jsonl` emits them is taken in
bulk: one ``findall`` per record type, whose integers are parsed as one
decimal text into int64 columns (again exactly if a value reads as an
int64 end), one :func:`~lmmk.recorder.check_columns` and one append. The
``findall`` patterns are compiled from the writer's line templates, and
take a token only as null or a nonnegative integer. Any other block goes
line by line through :func:`json.loads`, the reference the bulk route
agrees with: each line builds the :class:`~lmmk.recorder.PhaseRecord` or
:class:`~lmmk.recorder.KernelRecord` it describes, which checks it, and
the header builds a Trace of no rows. After refused blocks in a row, the
bulk route is tried at doubling intervals. Both routes fill the columns
the recorder fills and hand them to a Trace, which orders them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import re
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import LmmkError, ParseError, PhaseOverlap, UnknownVersion
from .recorder import (
    INT64_MAX,
    INT64_MIN,
    KernelRecord,
    PhaseKind,
    PhaseRecord,
    RecordColumns,
    Trace,
    _INDEX_BY_VALUE,
    _NO_TOKEN,
    _ROW_CHUNK,
    check_columns,
)
from .sim_engine import GroundTruth

FILE_VERSION = 1


def _table(texts: Sequence[bytes]) -> np.ndarray:
    """(texts, longest) uint8 matrix, each text padded with 0 on the right."""
    table = np.array(texts, dtype=bytes)
    return table.view(np.uint8).reshape(len(table), table.itemsize)


def _digits(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each value in ASCII decimal, right-aligned with
    0 in its leading positions; a negative value (a null token) as null."""
    v = np.maximum(values, 0).astype(np.uint64)
    null = values < 0
    width = max(len(str(v.max(initial=0))), 4 if null.any() else 1)
    q, out = v, np.empty((len(v), width), np.uint8)
    for j in range(width - 1, -1, -1):
        q, out[:, j] = np.divmod(q, 10)
    out += 48
    out[:, :-1] *= v[:, None] >= 10 ** np.arange(width - 1, 0, -1, dtype=np.uint64)
    if width >= 4:
        out[null, -4:] = _table([b"null"])
    return out


_KINDS = _table([kind.value.encode() for kind in PhaseKind])  # by PhaseTable.kind_code
# The decimals of r / 1000 for each r < 1000, trailing zeros dropped ("0" for r = 0).
_FRACTION = np.indices((10, 10, 10), np.uint8).reshape(3, 1000).T + 48
_FRACTION[::10, 2] = 0
_FRACTION[::100, 1] = 0


def _micros(ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two blocks of the exact decimal ns / 1000, for a ``%s.%s`` pair."""
    whole, fraction = np.divmod(ns, 1000)
    return _digits(whole), _FRACTION[fraction]


def _text(template: bytes, columns: Sequence[np.ndarray],
          fields: Callable[..., Sequence[np.ndarray]]) -> Iterator[bytes]:
    """The ASCII rows of equal-length ``columns``, one bytes object per chunk
    of rows: ``template`` with its ``%s`` slots filled by the (rows, width)
    uint8 blocks ``fields(*chunk_columns)`` returns, their 0 padding dropped."""
    pieces = [np.frombuffer(piece, np.uint8) for piece in template.split(b"%s")]
    for lo in range(0, len(columns[0]), _ROW_CHUNK):
        blocks = fields(*(column[lo:lo + _ROW_CHUNK] for column in columns))
        parts = [pieces[0], *itertools.chain(*zip(blocks, pieces[1:], strict=True))]
        rows = len(blocks[0])
        matrix = np.concatenate([np.broadcast_to(p, (rows, p.shape[-1])) for p in parts], 1)
        yield matrix[matrix != 0].tobytes()


def _columns(trace: Trace) -> tuple[list, np.ndarray, list]:
    """Phase columns, quoted kernel names and kernel columns."""
    names = _table([json.dumps(name).encode() for name in trace.kernels.names])
    return trace.phases._arrays(), names, trace.kernels._arrays()


# The record lines write_jsonl emits; the reader's bulk patterns are compiled from them.
_PHASE_LINE = b'{"ev":"phase","kind":"%s","turn":%s,"token":%s,"t_start_ns":%s,"t_end_ns":%s}\n'
_KERNEL_LINE = (b'{"ev":"kernel","name":%s,"queue":%s,"t_cpu_enqueue_ns":%s,"t_queued_ns":%s,'
                b'"t_submit_ns":%s,"t_start_ns":%s,"t_end_ns":%s}\n')


def write_jsonl(trace: Trace, path: str) -> None:
    """Write a sealed trace: one header line, then one line per record
    (phases first, then kernels, each in trace order). The Trace checked
    every value when it was made, and every header written reads back.
    """
    phases, names, kernels = _columns(trace)
    header: dict = {
        "ev": "session",
        "version": FILE_VERSION,
        "device_label": trace.device_label,
        "clock_offset_ns": trace.clock_offset_ns,
    }
    if trace.prompt_tokens is not None:
        header["prompt_tokens"] = trace.prompt_tokens
    if trace.output_tokens is not None:
        header["output_tokens"] = trace.output_tokens
    with open(path, "wb") as f:
        f.write(json.dumps(header, separators=(",", ":")).encode() + b"\n")
        f.writelines(_text(_PHASE_LINE, phases,
                           lambda kind, *ints: (_KINDS[kind], *map(_digits, ints))))
        f.writelines(_text(_KERNEL_LINE, kernels,
                           lambda code, *ints: (names[code], *map(_digits, ints))))


def _window_fields(kind, turn, token, start, end, busy) -> list:
    wall = end - start
    idle = wall - busy
    # exact int division, as PhaseWindowTruth.idle_fraction; 0.0 for an empty window
    fraction = map(operator.truediv, np.where(wall > 0, idle, 0).tolist(),
                   np.maximum(wall, 1).tolist())
    return [_KINDS[kind], *map(_digits, (turn, token, start, end, busy, idle)),
            _table(list(map(repr, fraction)))]


def write_ground_truth(truth: GroundTruth, path: str) -> None:
    """Write a simulator's ground truth as the one-line ``.gt.json``
    sidecar (docs/trace_format.md): the token counts and totals as
    ``json.dumps`` prints them, then one object per window, formatted
    from the window columns. A window the format cannot hold raises
    ValueError before the file is opened."""
    kind, turn, token, start, end, busy = columns = truth.windows._arrays()
    if ((kind < 0) | (kind >= len(_KINDS)) | (turn < 0) | (token < _NO_TOKEN) | (start < 0)
            | (busy < 0) | (end - start < busy)).any():
        raise ValueError("a ground-truth window needs a phase kind code, token_index -1 or "
                         "more, turn, start_ns and busy_ns of 0 or more, and busy_ns no more "
                         "than end_ns - start_ns")
    totals = json.dumps({
        "prompt_tokens": truth.prompt_tokens,
        "output_tokens": truth.output_tokens,
        "kernel_total_ns": truth.kernel_total_ns,
        "kernel_true_total_ns": truth.kernel_true_total_ns,
        "kernel_invocations": truth.kernel_invocations,
        "phase_busy_ns": {k.value: ns for k, ns in truth.phase_busy_ns.items()},
        "phase_wall_ns": {k.value: ns for k, ns in truth.phase_wall_ns.items()},
    }, separators=(",", ":"))
    windows = _text(
        b',{"kind":"%s","turn":%s,"token_index":%s,"start_ns":%s,"end_ns":%s,"busy_ns":%s,'
        b'"idle_ns":%s,"idle_fraction":%s}', columns, _window_fields)
    with open(path, "wb") as f:  # every window follows a comma: the first one's is cut
        f.writelines(itertools.chain([totals[:-1].encode() + b',"windows":[',
                                      next(windows, b",")[1:]], windows, [b"]}\n"]))


# A JSON integer of at most 19 digits (every int64 fits; the columns reject
# a 19-digit value past int64); longer literals take the json.loads route,
# which reports CPython's digit limit itself.
_INT = rb"-?(?:0|[1-9][0-9]{0,18})"
_KIND_CODE = {value.encode(): code for value, code in _INDEX_BY_VALUE.items()}


def _lines_pattern(template: bytes, head: bytes, *slots: bytes) -> re.Pattern:
    """The pattern of every line of ``template`` whose ``%s`` slots match
    ``head``, then ``slots``, in LF + block, for ``findall``: a match runs
    from the LF before a line up to the LF that ends it, with two groups,
    ``head`` and the span of ``slots``. (A leading ``(?m)^`` would anchor
    the same lines, but it stops ``re`` scanning for the literal prefix.)"""
    first, after_head, *pieces, last = map(re.escape, template.removesuffix(b"\n").split(b"%s"))
    span = b"".join(slot + piece for slot, piece in zip(slots, [*pieces, b""], strict=True))
    return re.compile(rb"\n" + first + head + after_head + b"(" + span + b")" + last + rb"(?=\n)")


# A token is null or a nonnegative integer: a negative one breaks the rule
# of every phase kind and takes the json.loads route for its message.
_PHASE_LINES = _lines_pattern(_PHASE_LINE, b"(" + b"|".join(_KIND_CODE) + b")", _INT,
                              rb"(?:null|0|[1-9][0-9]{0,18})", _INT, _INT)
# Names are printable ASCII without '"' or '\', so the bytes are the text.
_KERNEL_LINES = _lines_pattern(_KERNEL_LINE, rb'"([\x20\x21\x23-\x5b\x5d-\x7e]*)"', *[_INT] * 6)
# Every byte of a span but its integers' and the commas between its fields (no key holds a digit).
_NOT_INT = bytes(sorted(set(range(256)) - set(b"-,0123456789")))
_BLOCK_BYTES = 1 << 16  # the reader reads this many bytes at a time, then up to the next LF


def _load_object(raw: bytes) -> Optional[dict]:
    """The JSON object on one line, or None for a blank line."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8 ({exc.reason})") from None
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal past CPython's digit limit, or nesting too deep
        raise ParseError(f"invalid JSON ({exc})") from None
    if not isinstance(obj, dict) or "ev" not in obj:
        raise ParseError("expected an object with an 'ev' field")
    return obj


def _append_record(columns: RecordColumns, obj: Mapping) -> None:
    """Append the row of a decoded phase or kernel object to ``columns``:
    the :class:`PhaseRecord` or :class:`KernelRecord` it describes checks it."""
    if obj["ev"] == "phase":
        r = PhaseRecord(PhaseKind(obj["kind"]), obj.get("turn"), obj.get("token"),
                        obj.get("t_start_ns"), obj.get("t_end_ns"))
        columns.add_phase(r.kind, r.turn, r.token_index, r.t_start_ns, r.t_end_ns)
    elif obj["ev"] == "kernel":
        r = KernelRecord(obj.get("name"), obj.get("queue"), obj.get("t_cpu_enqueue_ns"),
                         obj.get("t_queued_ns"), obj.get("t_submit_ns"), obj.get("t_start_ns"),
                         obj.get("t_end_ns"))
        columns.add_kernel(r.name, r.queue_id, r.t_cpu_enqueue_ns, r.t_queued_ns, r.t_submit_ns,
                           r.t_start_ns, r.t_end_ns)
    else:
        raise ParseError(f"unknown record type {obj['ev']!r}")


def _header_fields(obj: Mapping) -> dict:
    """The Trace fields of the session header object, checked by a Trace
    of no rows; this checks only the file format's own fields."""
    if obj["ev"] != "session":
        raise ParseError("first non-blank line must be the session header")
    version = obj.get("version")
    if type(version) is not int:
        raise ParseError(f"field 'version' must be an integer, got {version!r}")
    if version != FILE_VERSION:
        raise UnknownVersion(f"unsupported trace file version {version!r}")
    fields = {
        "device_label": obj.get("device_label", ""),
        "clock_offset_ns": obj.get("clock_offset_ns"),
        "prompt_tokens": obj.get("prompt_tokens"),
        "output_tokens": obj.get("output_tokens"),
    }
    Trace(phases=(), kernels=(), **fields)
    return fields


def _int_columns(text: bytes, rows: int, width: int) -> Sequence[np.ndarray]:
    """The int64 columns of ``rows`` spans of ``width`` integers joined by
    commas in ``text``. ``fromstring`` reads a literal past int64 as
    INT64_MAX, so a text with a value at an int64 end, or too few values,
    is parsed again exactly: one past int64 raises OverflowError."""
    text = text.translate(None, _NOT_INT)
    values = np.fromstring(text, np.int64, sep=",")
    if len(values) != rows * width or INT64_MAX in values or INT64_MIN in values:
        values = np.array(text.split(b","), dtype=np.int64)
    return values.reshape(rows, width).T


def _bulk_rows(columns: RecordColumns, block: bytes, lines: int) -> bool:
    """Append the rows of a block of ``lines`` canonical lines, each ending
    in LF, to ``columns`` at once and return True; return False, appending
    nothing, for any block the per-line route must read: one with another
    line (a negative token among them) or no final LF, a value outside
    int64, or a row that breaks a rule."""
    if not block.endswith(b"\n"):
        return False
    text = b"\n" + block
    phases = _PHASE_LINES.findall(text)
    kernels = _KERNEL_LINES.findall(text)
    if len(phases) + len(kernels) != lines:
        return False
    kind, phase_spans = zip(*phases) if phases else [()] * 2
    name, kernel_spans = zip(*kernels) if kernels else [()] * 2
    codes = {raw: code for code, raw in enumerate(dict.fromkeys(name))}  # first-seen order
    names = [raw.decode("ascii") for raw in codes]
    try:
        phase_columns = [np.array(list(map(_KIND_CODE.__getitem__, kind)), dtype=np.int64),
                         *_int_columns(b",".join(phase_spans).replace(b"null", b"%d" % _NO_TOKEN),
                                       len(phases), 4)]
        kernel_columns = [np.array(list(map(codes.__getitem__, name)), dtype=np.int64),
                          *_int_columns(b",".join(kernel_spans), len(kernels), 6)]
        check_columns(phase_columns, names, kernel_columns)
    except (OverflowError, ValueError, LmmkError):
        return False
    columns.extend(phase_columns, names, kernel_columns)
    return True


def read_jsonl(path: str) -> Trace:
    """Parse a trace file, validating every record invariant, and return the
    sealed (sorted, immutable) trace. Blank lines are skipped; the first
    non-blank line must be the session header. Errors name the offending
    line, except the Trace's :class:`PhaseOverlap`, raised as a ParseError
    with its text. Integers must fit in int64."""
    columns = RecordColumns()
    header: Optional[dict] = None
    lineno = 0
    # After k bulk refusals in a row the next 2**(k-1) - 1 blocks go line by
    # line unscanned, so a file with no canonical block (CRLF, say) pays the
    # bulk scans of about log2(blocks) blocks rather than of every block.
    refused = skip = 0
    with open(path, "rb") as f:
        # _bulk_rows raises nothing, so any error below is on line lineno.
        try:
            while header is None and (raw := f.readline()):
                lineno += 1
                obj = _load_object(raw)
                header = None if obj is None else _header_fields(obj)
            header_line = lineno
            while block := f.read(_BLOCK_BYTES):  # at EOF already if no header was found
                block += f.readline()
                lines = block.count(b"\n")
                if skip:
                    skip -= 1
                elif _bulk_rows(columns, block, lines):
                    refused = 0
                    lineno += lines
                    continue
                else:
                    refused += 1
                    skip = 2 ** (refused - 1) - 1
                for raw in io.BytesIO(block):
                    lineno += 1
                    obj = _load_object(raw)
                    if obj is None:
                        continue
                    if obj["ev"] == "session":
                        raise ParseError(f"repeated session header (first on line {header_line})")
                    _append_record(columns, obj)
        except LmmkError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ParseError("line 1: file is empty; expected a session header")

    try:
        return Trace(phases=columns, kernels=columns, **header)
    except PhaseOverlap as exc:
        raise ParseError(str(exc)) from None


def export_chrome_trace(trace: Trace, path: str) -> None:
    """Emit {"traceEvents": [...]} complete events for standard viewers.

    Timestamps and durations are microseconds, printed as the exact decimal
    of ns / 1000 (trailing zeros dropped, ``.0`` for a whole microsecond):
    ``float.__repr__`` prints the same below 2**51 ns. Kernels land on tid
    queue_id+1 with their queuing and dispatch stage durations in args;
    phases land on tid 0. Events are streamed to the file a chunk of rows
    at a time.
    """
    phases, names, kernels = _columns(trace)
    phase_events = _text(
        b',{"name":"%s","cat":"phase","ph":"X","ts":%s.%s,"dur":%s.%s,"pid":1,"tid":0,'
        b'"args":{"turn":%s,"token":%s}}', phases,
        lambda kind, turn, token, start, end: (
            _KINDS[kind], *_micros(start), *_micros(end - start), _digits(turn), _digits(token)))
    kernel_events = _text(
        b',{"name":%s,"cat":"kernel","ph":"X","ts":%s.%s,"dur":%s.%s,"pid":1,"tid":%s,'
        b'"args":{"queuing_us":%s.%s,"dispatch_us":%s.%s}}', kernels,
        lambda code, queue, _, queued, submit, start, end: (
            names[code], *_micros(start), *_micros(end - start),
            _digits(queue.astype(np.uint64) + 1), *_micros(submit - queued),
            *_micros(start - submit)))
    events = itertools.chain(phase_events, kernel_events)
    with open(path, "wb") as f:  # every event follows a comma: the first one's is cut
        f.writelines(itertools.chain([b'{"traceEvents":[', next(events, b",")[1:]], events,
                                     [b"]}\n"]))


def format_cell(column: str, value: object) -> str:
    """Report rounding conventions: latencies (columns ending in _ms) to
    4 decimals, alpha to 2, eps_star to 3; everything else via str()."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if column.endswith("_ms"):
            return f"{value:.4f}"
        if column == "alpha" or column.endswith("_pct"):
            return f"{value:.2f}"
        if column.startswith("eps_star"):
            return f"{value:.3f}"
        if column in ("share", "idle_fraction", "mape", "max_ape"):
            return f"{value:.4f}"
    return str(value)


def csv_report(rows: Sequence[Mapping[str, object]]) -> str:
    """Header row plus one formatted line per row, each ending in LF; all
    rows must share the first row's columns."""
    if not rows:
        raise ValueError("report needs at least one row")
    columns = list(rows[0].keys())
    for i, row in enumerate(rows):
        if list(row.keys()) != columns:
            raise ValueError(f"row {i} columns differ from header {columns}")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(c, row[c]) for c in columns])
    return text.getvalue()
