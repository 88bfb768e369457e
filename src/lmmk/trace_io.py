"""Trace serialization: line-delimited JSON, viewer export, CSV reports.

The JSONL format keeps every timestamp as an integer nanosecond so round
trips are bit-exact; files are UTF-8 with LF line endings and fixed key
order, so identical traces serialize to identical bytes. The viewer
export follows the trace-event JSON format (complete "X" events) and is
the only place fractional microseconds appear, because that format
requires them; nanosecond precision survives in the fraction.

Both writers zip a trace's int64 columns, converted to Python ints a
chunk at a time, into one template per record type instead of a dict and
the JSON encoder. The columns hold nothing but int64 values (a
:class:`~lmmk.recorder.Trace` built from records rejects any other value),
so no record can make a writer fail after it has opened its file. The
reader reads blocks of about 64 KiB that end on LF. A block of lines
exactly as :func:`write_jsonl` emits them is taken in bulk: one
``findall`` per record type, int64 columns, one
:func:`~lmmk.recorder.check_columns` and one append. Any other block goes
line by line, matching a canonical line with one pattern per record type
and handing any other line to :func:`json.loads`; after refused blocks in
a row, the bulk route is tried at doubling intervals. Every route fills the
same columns the recorder fills, with the same records and the same error
messages, and seals them with the recorder's argsort.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import LmmkError, ParseError, UnknownVersion
from .recorder import (
    INT64_MAX,
    INT64_MIN,
    KernelRecord,
    PhaseKind,
    PhaseRecord,
    PhaseTable,
    RecordColumns,
    Trace,
    _INDEX_BY_KIND,
    _NO_TOKEN,
    _check_kernel,
    _check_phase,
    check_columns,
    int_rows,
)

FILE_VERSION = 1

_KIND_VALUES = tuple(kind.value for kind in PhaseKind)  # by PhaseTable.kind_code
# JSON keys of the constructor arguments _canonical_fields/_json_fields return
_PHASE_KEYS = ("kind", "turn", "token", "t_start_ns", "t_end_ns")
_KERNEL_KEYS = (
    "name", "queue", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns", "t_start_ns", "t_end_ns"
)


def _phase_rows(trace: Trace) -> Iterator[tuple]:
    """(kind, turn, token, start, end) per phase, token "null" for None."""
    p = trace.phases
    for code, turn, token, start, end in int_rows(
        p.kind_code, p.turn, p.token_index, p.t_start_ns, p.t_end_ns
    ):
        yield _KIND_VALUES[code], turn, "null" if token < 0 else token, start, end


def _kernel_rows(trace: Trace) -> Iterator[tuple]:
    """(name, queue, enqueue, queued, submit, start, end) per kernel, the
    name already JSON-quoted; ``json.dumps`` runs once per distinct name."""
    k = trace.kernels
    quoted = [json.dumps(name) for name in k.names]
    for code, *row in int_rows(
        k.name_code, k.queue_id, k.t_cpu_enqueue_ns, k.t_queued_ns, k.t_submit_ns,
        k.t_start_ns, k.t_end_ns,
    ):
        yield (quoted[code], *row)


def write_jsonl(trace: Trace, path: str) -> None:
    """Write a sealed trace: one header line, then one line per record
    (phases first, then kernels, each in trace order).

    Raises TypeError, naming the value, for a header offset or count that
    is not an exact int, before the file is opened.
    """
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
    for key in ("clock_offset_ns", "prompt_tokens", "output_tokens"):
        value = header.get(key)
        if value is not None and type(value) is not int:
            raise TypeError(f"Trace.{key} must be an int or None, got {value!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write = f.write
        write(json.dumps(header, separators=(",", ":")) + "\n")
        for kind, turn, token, start, end in _phase_rows(trace):
            write(
                f'{{"ev":"phase","kind":"{kind}","turn":{turn},"token":{token},'
                f'"t_start_ns":{start},"t_end_ns":{end}}}\n'
            )
        for name, q, enqueue, queued, submit, start, end in _kernel_rows(trace):
            write(
                f'{{"ev":"kernel","name":{name},"queue":{q},"t_cpu_enqueue_ns":{enqueue},'
                f'"t_queued_ns":{queued},"t_submit_ns":{submit},'
                f'"t_start_ns":{start},"t_end_ns":{end}}}\n'
            )


# A JSON integer of at most 19 digits (every int64 fits; the columns reject
# a 19-digit value past int64); longer literals take the json.loads route,
# which reports CPython's digit limit itself.
_INT = rb"(-?(?:0|[1-9][0-9]{0,18}))"
_KIND_BY_BYTES = {kind.value.encode(): kind for kind in PhaseKind}
_KIND_CODE = {raw: _INDEX_BY_KIND[kind] for raw, kind in _KIND_BY_BYTES.items()}


def _line_patterns(fields: bytes) -> tuple[re.Pattern, re.Pattern]:
    """The pattern of one canonical line, for ``fullmatch`` (its LF
    optional), and of every such line in LF + block, for ``findall``: a
    match runs from the LF before a line up to the LF that ends it. (A
    leading ``(?m)^`` would anchor the same lines, but it stops ``re``
    from scanning for the literal prefix and doubles the search time.)"""
    return re.compile(fields + rb"\n?"), re.compile(rb"\n" + fields + rb"(?=\n)")


_PHASE_LINE, _PHASE_LINES = _line_patterns(
    rb'\{"ev":"phase","kind":"(' + b"|".join(_KIND_BY_BYTES) + rb')","turn":' + _INT
    + rb',"token":(null|' + _INT[1:-1] + rb'),"t_start_ns":' + _INT
    + rb',"t_end_ns":' + _INT + rb'\}'
)
# Names are printable ASCII without '"' or '\', so the bytes are the text.
_KERNEL_LINE, _KERNEL_LINES = _line_patterns(
    rb'\{"ev":"kernel","name":"([\x20\x21\x23-\x5b\x5d-\x7e]*)","queue":' + _INT
    + rb',"t_cpu_enqueue_ns":' + _INT + rb',"t_queued_ns":' + _INT
    + rb',"t_submit_ns":' + _INT + rb',"t_start_ns":' + _INT
    + rb',"t_end_ns":' + _INT + rb'\}'
)
_BLOCK_BYTES = 1 << 16  # the reader reads this many bytes at a time, then up to the next LF


def _canonical_fields(raw: bytes) -> Optional[tuple]:
    """(record type, constructor arguments) for a line exactly as
    :func:`write_jsonl` emits it, read straight from the pattern's groups;
    None for any other line. The record type only tags the row; no record
    is built."""
    m = _KERNEL_LINE.fullmatch(raw)
    if m is not None:
        name, q, enqueue, queued, submit, start, end = m.groups()
        return KernelRecord, (
            name.decode("ascii"), int(q), int(enqueue), int(queued), int(submit),
            int(start), int(end),
        )
    m = _PHASE_LINE.fullmatch(raw)
    if m is not None:
        kind, turn, token, start, end = m.groups()
        return PhaseRecord, (
            _KIND_BY_BYTES[kind], int(turn), None if token == b"null" else int(token),
            int(start), int(end),
        )
    return None


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


def _require_int(obj: Mapping, key: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _json_fields(obj: Mapping) -> tuple:
    """(record type, constructor arguments) for a decoded phase or kernel
    object, checking each field's JSON type."""
    if obj["ev"] == "phase":
        token = obj.get("token")
        if token is not None and (not isinstance(token, int) or isinstance(token, bool)):
            raise ValueError(f"field 'token' must be an integer or null, got {token!r}")
        return PhaseRecord, (
            PhaseKind(obj["kind"]), _require_int(obj, "turn"), token,
            _require_int(obj, "t_start_ns"), _require_int(obj, "t_end_ns"),
        )
    if obj["ev"] == "kernel":
        name = obj.get("name")
        if not isinstance(name, str):
            raise ValueError(f"field 'name' must be a string, got {name!r}")
        return KernelRecord, (
            name, _require_int(obj, "queue"), _require_int(obj, "t_cpu_enqueue_ns"),
            _require_int(obj, "t_queued_ns"), _require_int(obj, "t_submit_ns"),
            _require_int(obj, "t_start_ns"), _require_int(obj, "t_end_ns"),
        )
    raise ParseError(f"unknown record type {obj['ev']!r}")


def _header_fields(obj: Mapping) -> dict:
    """Trace metadata from the session header object."""
    if obj["ev"] != "session":
        raise ParseError("first non-blank line must be the session header")
    version = obj.get("version")
    if type(version) is not int:
        raise ParseError(f"field 'version' must be an integer, got {version!r}")
    if version != FILE_VERSION:
        raise UnknownVersion(f"unsupported trace file version {version!r}")
    label = obj.get("device_label", "")
    if not isinstance(label, str):
        raise ParseError(f"device_label must be a string, got {label!r}")
    offset = obj.get("clock_offset_ns")
    if offset is not None and (not isinstance(offset, int) or isinstance(offset, bool)):
        raise ParseError("clock_offset_ns must be an integer or null")
    for key in ("prompt_tokens", "output_tokens"):
        value = obj.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f"{key} must be an integer when present")
    for key in ("clock_offset_ns", "prompt_tokens", "output_tokens"):
        if obj.get(key) is not None and not INT64_MIN <= obj[key] <= INT64_MAX:
            raise ParseError(f"{key} out of int64 range")
    return {
        "device_label": label,
        "clock_offset_ns": offset,
        "prompt_tokens": obj.get("prompt_tokens"),
        "output_tokens": obj.get("output_tokens"),
    }


def _append_row(columns: RecordColumns, record_type: type, args: tuple) -> None:
    """Append one parsed row to ``columns``: a value outside int64 raises
    first, then the record's own checks. A failed row is left in the
    columns; the caller abandons them."""
    if record_type is KernelRecord:
        add, check, keys = columns.add_kernel, _check_kernel, _KERNEL_KEYS
    else:
        add, check, keys = columns.add_phase, _check_phase, _PHASE_KEYS
    try:
        add(*args)
    except OverflowError:
        key = next(key for key, value in zip(keys, args) if type(value) is int
                   and not INT64_MIN <= value <= INT64_MAX)
        raise ParseError(f"field {key!r} out of int64 range") from None
    check(*args)


def _reject_overlap(phases: PhaseTable) -> None:
    """ParseError naming the first two phases, in start order, that overlap."""
    overlaps = np.flatnonzero(phases.t_start_ns[1:] < phases.t_end_ns[:-1])
    if len(overlaps):
        pair = slice(overlaps[0], overlaps[0] + 2)
        (kind_a, kind_b), (start_a, start_b), (end_a, end_b) = (
            column[pair].tolist() for column in (phases.kind_code, phases.t_start_ns, phases.t_end_ns)
        )
        raise ParseError(
            f"phase records overlap: {_KIND_VALUES[kind_a]} [{start_a}, {end_a}] "
            f"and {_KIND_VALUES[kind_b]} [{start_b}, {end_b}]"
        )


def _bulk_rows(columns: RecordColumns, block: bytes, lines: int) -> bool:
    """Append the rows of a block of ``lines`` canonical lines, each ending
    in LF, to ``columns`` at once and return True; return False, appending
    nothing, for any block the per-line route must read: one with another
    line or no final LF, a value outside int64, a row that breaks a rule,
    or a token of -1 (the column's code for null)."""
    if not block.endswith(b"\n"):
        return False
    text = b"\n" + block
    phases = _PHASE_LINES.findall(text)
    kernels = _KERNEL_LINES.findall(text)
    if len(phases) + len(kernels) != lines:
        return False
    kind, turn, token, start, end = zip(*phases) if phases else [()] * 5
    name, *times = zip(*kernels) if kernels else [()] * 7
    if b"-1" in token:
        return False
    codes = {raw: code for code, raw in enumerate(dict.fromkeys(name))}  # first-seen order
    names = [raw.decode("ascii") for raw in codes]
    try:
        phase_columns = [np.array(column, dtype=np.int64) for column in (
            list(map(_KIND_CODE.__getitem__, kind)), turn,
            [_NO_TOKEN if value == b"null" else value for value in token], start, end)]
        kernel_columns = [np.array(column, dtype=np.int64)
                          for column in (list(map(codes.__getitem__, name)), *times)]
        check_columns(phase_columns, names, kernel_columns)
    except (OverflowError, ValueError, LmmkError):
        return False
    columns.extend(phase_columns, names, kernel_columns)
    return True


def read_jsonl(path: str) -> Trace:
    """Parse a trace file, validating every record invariant, and return the
    sealed (sorted, immutable) trace. Blank lines are skipped; the first
    non-blank line must be the session header. Errors name the offending
    line. Integers must fit in int64."""
    columns = RecordColumns()
    header: Optional[dict] = None
    header_line = 0
    lineno = 0
    # After k bulk refusals in a row the next 2**(k-1) - 1 blocks go line by
    # line unscanned, so a file with no canonical block (CRLF, say) pays the
    # bulk scans of about log2(blocks) blocks rather than of every block.
    refused = skip = 0
    with open(path, "rb") as f:
        while block := f.read(_BLOCK_BYTES):
            block += f.readline()
            lines = block.count(b"\n")
            if header is not None:
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
                try:
                    fields = _canonical_fields(raw) if header is not None else None
                    if fields is None:
                        obj = _load_object(raw)
                        if obj is None:
                            continue
                        if header is None:
                            header = _header_fields(obj)
                            header_line = lineno
                            continue
                        if obj["ev"] == "session":
                            raise ParseError(
                                f"repeated session header (first on line {header_line})"
                            )
                        fields = _json_fields(obj)
                    _append_row(columns, *fields)
                except LmmkError as exc:
                    raise type(exc)(f"line {lineno}: {exc}") from None
                except (KeyError, ValueError) as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ParseError("line 1: file is empty; expected a session header")

    phases, kernels = columns.tables()
    _reject_overlap(phases)
    return Trace(phases=phases, kernels=kernels, **header)


def export_chrome_trace(trace: Trace, path: str) -> None:
    """Emit {"traceEvents": [...]} complete events for standard viewers.

    Timestamps and durations are microseconds with the nanosecond part in
    the fraction. Kernels land on tid queue_id+1 with their queuing and
    dispatch stage durations in args; phases land on tid 0. Events are
    streamed to the file; floats print as ``float.__repr__``, as the JSON
    encoder prints them.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        write = f.write
        write('{"traceEvents":[')
        sep = ""
        for kind, turn, token, start, end in _phase_rows(trace):
            write(
                f'{sep}{{"name":"{kind}","cat":"phase","ph":"X","ts":{start / 1000!r},'
                f'"dur":{(end - start) / 1000!r},"pid":1,"tid":0,'
                f'"args":{{"turn":{turn},"token":{token}}}}}'
            )
            sep = ","
        for name, q, _, queued, submit, start, end in _kernel_rows(trace):
            write(
                f'{sep}{{"name":{name},"cat":"kernel","ph":"X","ts":{start / 1000!r},'
                f'"dur":{(end - start) / 1000!r},"pid":1,"tid":{q + 1},'
                f'"args":{{"queuing_us":{(submit - queued) / 1000!r},'
                f'"dispatch_us":{(start - submit) / 1000!r}}}}}'
            )
            sep = ","
        write("]}\n")


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


def write_csv_report(rows: Sequence[Mapping[str, object]], path: str) -> None:
    """Header row plus one formatted line per row; all rows must share the
    first row's columns."""
    if not rows:
        raise ValueError("report needs at least one row")
    columns = list(rows[0].keys())
    for i, row in enumerate(rows):
        if list(row.keys()) != columns:
            raise ValueError(f"row {i} columns differ from header {columns}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(c, row[c]) for c in columns])
