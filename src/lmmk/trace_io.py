"""Trace serialization: line-delimited JSON, viewer export, CSV reports.

The JSONL format keeps every timestamp as an integer nanosecond so round
trips are bit-exact; files are UTF-8 with LF line endings and fixed key
order, so identical traces serialize to identical bytes. The viewer
export follows the trace-event JSON format (complete "X" events) and is
the only place fractional microseconds appear, because that format
requires them; nanosecond precision survives in the fraction.
"""

from __future__ import annotations

import csv
import json
from typing import Mapping, Optional, Sequence

from .errors import LmmkError, ParseError, TimestampOrderViolation, UnknownVersion
from .recorder import KernelRecord, PhaseKind, PhaseRecord, Trace

FILE_VERSION = 1


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_jsonl(trace: Trace, path: str) -> None:
    """Write a sealed trace: one header line, then one line per record
    (phases first, then kernels, each in trace order)."""
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_dump(header) + "\n")
        for p in trace.phases:
            f.write(_dump({
                "ev": "phase",
                "kind": p.kind.value,
                "turn": p.turn,
                "token": p.token_index,
                "t_start_ns": p.t_start_ns,
                "t_end_ns": p.t_end_ns,
            }) + "\n")
        for k in trace.kernels:
            f.write(_dump({
                "ev": "kernel",
                "name": k.name,
                "queue": k.queue_id,
                "t_cpu_enqueue_ns": k.t_cpu_enqueue_ns,
                "t_queued_ns": k.t_queued_ns,
                "t_submit_ns": k.t_submit_ns,
                "t_start_ns": k.t_start_ns,
                "t_end_ns": k.t_end_ns,
            }) + "\n")


def _require_int(obj: Mapping, key: str) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _parse_phase(obj: Mapping) -> PhaseRecord:
    token = obj.get("token")
    if token is not None and (not isinstance(token, int) or isinstance(token, bool)):
        raise ValueError(f"field 'token' must be an integer or null, got {token!r}")
    return PhaseRecord(
        kind=PhaseKind(obj["kind"]),
        turn=_require_int(obj, "turn"),
        token_index=token,
        t_start_ns=_require_int(obj, "t_start_ns"),
        t_end_ns=_require_int(obj, "t_end_ns"),
    )


def _parse_kernel(obj: Mapping) -> KernelRecord:
    name = obj.get("name")
    if not isinstance(name, str):
        raise ValueError(f"field 'name' must be a string, got {name!r}")
    return KernelRecord(
        name=name,
        queue_id=_require_int(obj, "queue"),
        t_cpu_enqueue_ns=_require_int(obj, "t_cpu_enqueue_ns"),
        t_queued_ns=_require_int(obj, "t_queued_ns"),
        t_submit_ns=_require_int(obj, "t_submit_ns"),
        t_start_ns=_require_int(obj, "t_start_ns"),
        t_end_ns=_require_int(obj, "t_end_ns"),
    )


def read_jsonl(path: str) -> Trace:
    """Parse a trace file, validating every record invariant, and return the
    sealed (sorted, immutable) trace. Blank lines are skipped; the first
    non-blank line must be the session header. Errors name the offending
    line."""
    phases: list[PhaseRecord] = []
    kernels: list[KernelRecord] = []
    header: Optional[dict] = None
    header_line = 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid UTF-8 ({exc.reason})") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "ev" not in obj:
                raise ParseError(f"line {lineno}: expected an object with an 'ev' field")
            try:
                if header is None:
                    if obj["ev"] != "session":
                        raise ParseError("first non-blank line must be the session header")
                    version = obj.get("version")
                    if version != FILE_VERSION:
                        raise UnknownVersion(f"unsupported trace file version {version!r}")
                    header = obj
                    header_line = lineno
                elif obj["ev"] == "session":
                    raise ParseError(f"repeated session header (first on line {header_line})")
                elif obj["ev"] == "phase":
                    phases.append(_parse_phase(obj))
                elif obj["ev"] == "kernel":
                    kernels.append(_parse_kernel(obj))
                else:
                    raise ParseError(f"unknown record type {obj['ev']!r}")
            except TimestampOrderViolation as exc:
                raise TimestampOrderViolation(f"line {lineno}: {exc}") from None
            except (KeyError, ValueError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            except LmmkError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    if header is None:
        raise ParseError("line 1: file is empty; expected a session header")

    phases.sort(key=lambda p: p.t_start_ns)
    for a, b in zip(phases, phases[1:]):
        if b.t_start_ns < a.t_end_ns:
            raise ParseError(
                f"phase records overlap: {a.kind.value} [{a.t_start_ns}, {a.t_end_ns}] "
                f"and {b.kind.value} [{b.t_start_ns}, {b.t_end_ns}]"
            )
    kernels.sort(key=lambda k: k.t_queued_ns)

    offset = header.get("clock_offset_ns")
    if offset is not None and (not isinstance(offset, int) or isinstance(offset, bool)):
        raise ParseError(f"line {header_line}: clock_offset_ns must be an integer or null")
    for key in ("prompt_tokens", "output_tokens"):
        value = header.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f"line {header_line}: {key} must be an integer when present")
    return Trace(
        device_label=str(header.get("device_label", "")),
        clock_offset_ns=offset,
        phases=tuple(phases),
        kernels=tuple(kernels),
        prompt_tokens=header.get("prompt_tokens"),
        output_tokens=header.get("output_tokens"),
    )


def export_chrome_trace(trace: Trace, path: str) -> None:
    """Emit {"traceEvents": [...]} complete events for standard viewers.

    Timestamps and durations are microseconds with the nanosecond part in
    the fraction. Kernels land on tid queue_id+1 with their queuing and
    dispatch stage durations in args; phases land on tid 0.
    """
    events = []
    for p in trace.phases:
        events.append({
            "name": p.kind.value,
            "cat": "phase",
            "ph": "X",
            "ts": p.t_start_ns / 1000,
            "dur": (p.t_end_ns - p.t_start_ns) / 1000,
            "pid": 1,
            "tid": 0,
            "args": {"turn": p.turn, "token": p.token_index},
        })
    for k in trace.kernels:
        events.append({
            "name": k.name,
            "cat": "kernel",
            "ph": "X",
            "ts": k.t_start_ns / 1000,
            "dur": (k.t_end_ns - k.t_start_ns) / 1000,
            "pid": 1,
            "tid": k.queue_id + 1,
            "args": {
                "queuing_us": (k.t_submit_ns - k.t_queued_ns) / 1000,
                "dispatch_us": (k.t_start_ns - k.t_submit_ns) / 1000,
            },
        })
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"traceEvents": events}, f, separators=(",", ":"))
        f.write("\n")


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
