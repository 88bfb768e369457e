"""Property tests for the trace writers and reader.

The writers format records from templates. The reader takes blocks of
canonical lines in bulk and reads any other block line by line, matching
canonical lines with one pattern per record type before falling back to
``json.loads``. These tests hold them to the dict-and-encoder code they
replaced (kept below as the reference), to the per-line and ``json.loads``
routes, and to the rule that any input ends in a valid Trace or an
``LmmkError``.
"""

import json
import re
import tracemalloc
from itertools import pairwise
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_trace
from lmmk import sim_engine, trace_io
from lmmk.cli import main
from lmmk.errors import LmmkError, ParseError
from lmmk.recorder import PER_TOKEN_KINDS, KernelRecord, PhaseKind, PhaseRecord, Trace


# -- reference writers: the dict + json.dumps code the templates replaced --

def _dump(obj):
    return json.dumps(obj, separators=(",", ":"))


def reference_write_jsonl(trace, path):
    header = {
        "ev": "session",
        "version": 1,
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


def reference_export_chrome_trace(trace, path):
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


# -- strategies ------------------------------------------------------------

SPECIAL_NAMES = ['q"uote', "back\\slash", "tab\there", "nl\nx", "\x00", "\x7f", "ü-kernel",
                 "日本", "\U0001f600", "\\u0041", " ", "plain_kernel"]
names = st.one_of(st.sampled_from(SPECIAL_NAMES), st.text(min_size=1, max_size=12))
big = st.integers(0, 2**62)


@st.composite
def phase_records(draw):
    kind = draw(st.sampled_from(list(PhaseKind)))
    token = draw(st.integers(0, 2**62)) if kind in PER_TOKEN_KINDS else None
    start, end = sorted(draw(st.lists(big, min_size=2, max_size=2)))
    return PhaseRecord(kind, draw(st.integers(0, 2**62)), token, start, end)


@st.composite
def kernel_records(draw):
    queued, submit, start, end = sorted(draw(st.lists(big, min_size=4, max_size=4)))
    return KernelRecord(draw(names), draw(st.integers(0, 2**62)), draw(big),
                        queued, submit, start, end)


@st.composite
def traces(draw):
    return Trace(
        device_label=draw(st.text(max_size=8)),
        clock_offset_ns=draw(st.one_of(st.none(), st.integers(-2**62, 2**62))),
        phases=tuple(draw(st.lists(phase_records(), max_size=6))),
        kernels=tuple(draw(st.lists(kernel_records(), max_size=6))),
        prompt_tokens=draw(st.one_of(st.none(), st.integers(0, 2**62))),
        output_tokens=draw(st.one_of(st.none(), st.integers(0, 2**62))),
    )


# Integer fields as JSON text: small, near 2**62, the int64 range and -0;
# and text that is not a JSON integer or has more than 19 digits.
int_text = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(-2**63, 2**63).map(str),
    st.integers(2**62 - 3, 2**62 + 3).map(str),
    st.just("-0"),
)
odd_text = st.one_of(
    st.sampled_from(["null", "true", "1.0", "1e3", "01", "00", "-01", "-", "+1", " 1",
                     '"7"', "[1]", "99999999999999999999"]),
    st.integers(10**19, 10**25).map(str),
)
plain_names = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), min_size=1,
                      max_size=12)


@st.composite
def record_lines(draw):
    """One phase or kernel line in the canonical layout, with any name and
    integer fields that may break any rule; sometimes one field is not a
    JSON integer, and sometimes one byte is inserted, dropped or replaced."""
    if draw(st.booleans()):
        name = draw(st.one_of(plain_names, names))
        fields = [json.dumps(name, ensure_ascii=draw(st.booleans()))]
        fields += [draw(int_text) for _ in range(6)]
        template = ('{"ev":"kernel","name":%s,"queue":%s,"t_cpu_enqueue_ns":%s,'
                    '"t_queued_ns":%s,"t_submit_ns":%s,"t_start_ns":%s,"t_end_ns":%s}')
    else:
        fields = [draw(st.sampled_from([k.value for k in PhaseKind] + ["bogus"]))]
        fields += [draw(int_text) for _ in range(4)]
        if draw(st.booleans()):
            fields[2] = "null"
        template = ('{"ev":"phase","kind":"%s","turn":%s,"token":%s,"t_start_ns":%s,'
                    '"t_end_ns":%s}')
    if draw(st.booleans()):
        fields[draw(st.integers(1, len(fields) - 1))] = draw(odd_text)
    line = template % tuple(fields)
    data = bytearray(line.encode("utf-8"))
    op = draw(st.sampled_from(["none", "none", "none", "insert", "delete", "replace"]))
    if op != "none":
        i = draw(st.integers(0, len(data) - 1))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(i, byte)
        elif op == "delete":
            del data[i]
        else:
            data[i] = byte
    return bytes(data)


HEADER = b'{"ev":"session","version":1,"device_label":"x","clock_offset_ns":0}'


def read_outcome(path):
    try:
        return trace_io.read_jsonl(str(path))
    except LmmkError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


# -- writers ---------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(traces())
def test_write_jsonl_matches_reference_bytes(scratch, trace):
    trace_io.write_jsonl(trace, str(scratch / "new.jsonl"))
    reference_write_jsonl(trace, str(scratch / "ref.jsonl"))
    assert (scratch / "new.jsonl").read_bytes() == (scratch / "ref.jsonl").read_bytes()


@settings(max_examples=100, deadline=None)
@given(traces())
def test_export_chrome_trace_matches_reference_bytes(scratch, trace):
    trace_io.export_chrome_trace(trace, str(scratch / "new.json"))
    reference_export_chrome_trace(trace, str(scratch / "ref.json"))
    assert (scratch / "new.json").read_bytes() == (scratch / "ref.json").read_bytes()


@pytest.mark.parametrize("writer", [trace_io.write_jsonl, trace_io.export_chrome_trace])
@pytest.mark.parametrize("bad", [True, 2.0, np.int64(2)], ids=["bool", "float", "numpy"])
@pytest.mark.parametrize("field", ["turn", "token_index", "t_end_ns"])
def test_writers_reject_non_int_fields(tmp_path, writer, bad, field):
    """The Trace rejects the field when it is built, so no writer ever
    opens a file for it."""
    owner = "KernelRecord" if field == "t_end_ns" else "PhaseRecord"
    message = f"{owner}.{field} must be an int, got {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        if field == "t_end_ns":
            trace = build_trace(kernels=[("k", 0, 0, 0, 0, 0, bad)])
        else:
            turn, token = (bad, 0) if field == "turn" else (0, bad)
            trace = build_trace(phases=[(PhaseKind.DECODE, turn, token, 0, 3)])
        writer(trace, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_write_jsonl_rejects_non_int_header_field(tmp_path):
    trace = build_trace(clock_offset_ns=True)
    with pytest.raises(TypeError, match=r"^Trace\.clock_offset_ns must be an int or None, got True$"):
        trace_io.write_jsonl(trace, str(tmp_path / "out"))


# -- reader ----------------------------------------------------------------

KERNEL_LINE = (b'{"ev":"kernel","name":"%s","queue":%s,"t_cpu_enqueue_ns":0,"t_queued_ns":0,'
               b'"t_submit_ns":1,"t_start_ns":2,"t_end_ns":3}')


@settings(max_examples=400, deadline=None)
@given(record_lines(), st.sampled_from([b"\n", b"\r\n", b""]))
@example(KERNEL_LINE % (b"a\\\\b", b"0"), b"\n")
@example(KERNEL_LINE % (b"a\\u0041", b"0"), b"\n")
@example(KERNEL_LINE % (b"k", b"01"), b"\n")
@example(KERNEL_LINE % (b"k", b"-0"), b"")
@example(KERNEL_LINE % (b"k", str(2**62).encode()), b"\r\n")
@example(KERNEL_LINE % (b"k", str(2**64).encode()), b"\n")
@example(KERNEL_LINE % (b"k", str(2**63).encode()), b"\n")
@example(KERNEL_LINE % (b"k", str(-(2**63)).encode()), b"\n")
@example(KERNEL_LINE % (b"k", str(-(2**63) - 1).encode()), b"\n")
@example(b'{"ev":"phase","kind":"decode","turn":0,"token":null,"t_start_ns":0,"t_end_ns":1}',
         b"\n")
def test_fast_path_matches_json_path(scratch, line, ending):
    """Every line reads the same with the canonical-line patterns as
    through json.loads alone: equal traces, or the same error and message."""
    path = scratch / "line.jsonl"
    path.write_bytes(HEADER + b"\n" + line + ending)
    fast = read_outcome(path)
    with mock.patch.object(trace_io, "_canonical_fields", lambda raw: None):
        slow = read_outcome(path)
    assert fast == slow


PHASE_LINE = b'{"ev":"phase","kind":"decode","turn":%s,"token":%s,"t_start_ns":%s,"t_end_ns":%s}'


@pytest.mark.parametrize("line, field", [
    (KERNEL_LINE % (b"k", str(2**63).encode()), "queue"),
    (KERNEL_LINE.replace(b'"t_end_ns":3', b'"t_end_ns":%d' % 2**63) % (b"k", b"0"), "t_end_ns"),
    (KERNEL_LINE.replace(b'"t_queued_ns":0', b'"t_queued_ns":%d' % 2**63) % (b"k", b"0"),
     "t_queued_ns"),
    (KERNEL_LINE % (b"k", str(-(2**63) - 1).encode()), "queue"),
    (PHASE_LINE % (b"0", str(2**63).encode(), b"0", b"1"), "token"),
    (PHASE_LINE % (str(-(2**63) - 1).encode(), b"0", b"0", b"1"), "turn"),
    (PHASE_LINE % (b"0", b"0", b"0", b"9" * 19), "t_end_ns"),
], ids=["queue-2**63", "end-2**63", "queued-2**63", "queue-below", "token-2**63",
        "turn-below", "end-19-nines"])
def test_values_outside_int64_are_parse_errors(tmp_path, line, field):
    """On the canonical-line fast path and the json.loads path alike, and
    before the record's own checks (a queued time of 2**63 also breaks
    queued <= submit)."""
    path = tmp_path / "range.jsonl"
    path.write_bytes(HEADER + b"\n" + line + b"\n")
    message = f"line 2: field {field!r} out of int64 range"
    assert trace_io._canonical_fields(line + b"\n") is not None
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        trace_io.read_jsonl(str(path))
    with mock.patch.object(trace_io, "_canonical_fields", lambda raw: None):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            trace_io.read_jsonl(str(path))


def test_int64_extremes_round_trip(tmp_path):
    line = KERNEL_LINE.replace(b'"t_end_ns":3', b'"t_end_ns":%d' % (2**63 - 1)) % (b"k", b"0")
    path = tmp_path / "edge.jsonl"
    path.write_bytes(HEADER + b"\n" + line + b"\n")
    (kernel,) = trace_io.read_jsonl(str(path)).kernels
    assert kernel.t_end_ns == 2**63 - 1


@settings(max_examples=100, deadline=None)
@given(st.lists(kernel_records(), min_size=1, max_size=3),
       st.lists(phase_records(), min_size=1, max_size=3),
       st.sampled_from([b"\n", b""]))
def test_fast_path_takes_every_line_the_writer_emits_for_plain_names(
    scratch, kernels, phases, ending
):
    trace = Trace("x", 0, tuple(phases), tuple(kernels))
    trace_io.write_jsonl(trace, str(scratch / "w.jsonl"))
    lines = (scratch / "w.jsonl").read_bytes().splitlines()[1:]
    for line, record in zip(lines, list(phases) + list(kernels)):
        fields = trace_io._canonical_fields(line + ending)
        escaped = isinstance(record, KernelRecord) and json.dumps(record.name) != f'"{record.name}"'
        if escaped:
            assert fields is None
        else:
            assert fields is not None
            assert fields[0](*fields[1]) == record


def assert_trace_invariants(trace):
    assert isinstance(trace.device_label, str)
    for value in (trace.clock_offset_ns, trace.prompt_tokens, trace.output_tokens):
        assert value is None or type(value) is int
    for p in trace.phases:
        assert isinstance(p.kind, PhaseKind)
        assert all(type(v) is int for v in (p.turn, p.t_start_ns, p.t_end_ns))
        assert p.turn >= 0 and 0 <= p.t_start_ns <= p.t_end_ns
        if p.kind in PER_TOKEN_KINDS:
            assert type(p.token_index) is int and p.token_index >= 0
        else:
            assert p.token_index is None
    for a, b in pairwise(trace.phases):
        assert a.t_end_ns <= b.t_start_ns
    for k in trace.kernels:
        assert isinstance(k.name, str) and k.name
        ints = (k.queue_id, k.t_cpu_enqueue_ns, k.t_queued_ns, k.t_submit_ns,
                k.t_start_ns, k.t_end_ns)
        assert all(type(v) is int for v in ints)
        assert k.queue_id >= 0 and k.t_cpu_enqueue_ns >= 0
        assert 0 <= k.t_queued_ns <= k.t_submit_ns <= k.t_start_ns <= k.t_end_ns
    for a, b in pairwise(trace.kernels):
        assert a.t_queued_ns <= b.t_queued_ns


edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.binary(max_size=3)), max_size=4
)


@st.composite
def fuzzed_files(draw):
    """Canonical-layout lines with broken fields, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    header = draw(st.one_of(st.just(HEADER), st.binary(max_size=40)))
    body = draw(st.lists(st.one_of(record_lines(), st.binary(max_size=30)), max_size=5))
    return b"\n".join([header, *body])


def check_reader(path):
    try:
        trace = trace_io.read_jsonl(str(path))
    except LmmkError:
        return
    assert_trace_invariants(trace)


@settings(max_examples=200, deadline=None)
@given(fuzzed_files())
def test_reader_returns_valid_trace_or_lmmk_error(scratch, data):
    path = scratch / "fuzz.jsonl"
    path.write_bytes(data)
    check_reader(path)


@settings(max_examples=100, deadline=None)
@given(traces(), edits)
def test_edited_trace_file_reads_as_valid_trace_or_lmmk_error(scratch, trace, changes):
    """A written trace with bytes spliced in or cut out at random places."""
    path = scratch / "edited.jsonl"
    trace_io.write_jsonl(trace, str(path))
    data = bytearray(path.read_bytes())
    for at, cut, insert in changes:
        at %= len(data) + 1
        data[at:at + cut] = insert
    path.write_bytes(bytes(data))
    check_reader(path)


@pytest.mark.parametrize("line2, message", [
    (b'{"ev":"kernel","name":"k","queue":0,"t_cpu_enqueue_ns":0,"t_queued_ns":0,'
     b'"t_submit_ns":0,"t_start_ns":0,"t_end_ns":' + b"1" * 5000 + b"}",
     "line 2: invalid JSON (Exceeds the limit"),
    (b"[" * 100_000 + b"]" * 100_000, "line 2: invalid JSON (maximum recursion depth"),
], ids=["5000-digit-integer", "nested-100k-deep"])
def test_oversized_lines_are_parse_errors(tmp_path, capsys, line2, message):
    path = tmp_path / "big.jsonl"
    path.write_bytes(HEADER + b"\n" + line2 + b"\n")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        trace_io.read_jsonl(str(path))
    assert main(["analyze", str(path)]) == 1
    assert f"lmmk: error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("header, message", [
    (b'{"ev":"session","version":1,"device_label":[1],"clock_offset_ns":0}',
     "line 2: device_label must be a string, got [1]"),
    (b'{"ev":"session","version":true,"clock_offset_ns":0}',
     "line 2: field 'version' must be an integer, got True"),
    (b'{"ev":"session","version":1.0,"clock_offset_ns":0}',
     "line 2: field 'version' must be an integer, got 1.0"),
    (b'{"ev":"session","version":1,"prompt_tokens":' + b"9" * 4400 + b"}",
     "line 2: invalid JSON (Exceeds the limit"),
], ids=["list-label", "bool-version", "float-version", "4400-digit-count"])
def test_malformed_header_fields_are_parse_errors(tmp_path, capsys, header, message):
    path = tmp_path / "header.jsonl"
    path.write_bytes(b"\n" + header + b"\n")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        trace_io.read_jsonl(str(path))
    assert main(["analyze", str(path)]) == 1
    assert f"lmmk: error: {message}" in capsys.readouterr().err


# -- block reader ----------------------------------------------------------
#
# The reader takes a block of canonical lines in bulk (one findall per record
# type, checked by check_columns) and sends any other block through the
# per-line route. Read with the bulk route switched off, every file must give
# the same trace, with the same kernel names in the same interning order, or
# the same error and message.

def phase_line(kind, token, start, end, turn=0):
    token = b"null" if token is None else b"%d" % token
    return (b'{"ev":"phase","kind":"%s","turn":%d,"token":%s,"t_start_ns":%d,"t_end_ns":%d}'
            % (kind.encode(), turn, token, start, end))


def kernel_line(name, queued, submit, start, end, queue=0, enqueue=0):
    return (b'{"ev":"kernel","name":"%s","queue":%d,"t_cpu_enqueue_ns":%d,"t_queued_ns":%d,'
            b'"t_submit_ns":%d,"t_start_ns":%d,"t_end_ns":%d}'
            % (name, queue, enqueue, queued, submit, start, end))


def per_line_only():
    return mock.patch.object(trace_io, "_bulk_rows", lambda columns, block, lines: False)


def block_size(block_bytes):
    return mock.patch.object(trace_io, "_BLOCK_BYTES", block_bytes)


def read_with_names(path):
    outcome = read_outcome(path)
    return (outcome, outcome.kernels.names) if isinstance(outcome, Trace) else outcome


@st.composite
def block_files(draw):
    """A trace file of valid rows (kernel names from a small pool, so later
    blocks meet new names), with some lines replaced by any record line, a
    blank line, a CRLF line, a second header, a token of -1 or a value
    past int64, and with or without its final LF."""
    n = draw(st.integers(0, 8))
    bounds = sorted(draw(st.lists(big, min_size=2 * n, max_size=2 * n)))
    lines = [HEADER]
    for start, end in zip(bounds[::2], bounds[1::2]):
        kind = draw(st.sampled_from(list(PhaseKind)))
        token = draw(st.integers(0, 2**62)) if kind in PER_TOKEN_KINDS else None
        lines.append(phase_line(kind.value, token, start, end, turn=draw(st.integers(0, 3))))
    for _ in range(draw(st.integers(0, 12))):
        queued, submit, start, end = sorted(draw(st.lists(big, min_size=4, max_size=4)))
        name = draw(st.sampled_from([b"a", b"b", b"mm", b"x y", b"a\\u0041"]))
        lines.append(kernel_line(name, queued, submit, start, end,
                                 queue=draw(st.integers(0, 3)), enqueue=draw(big)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.one_of(
            record_lines(),
            st.sampled_from([b"", b"  ", HEADER, lines[at - 1] + b"\r",
                             phase_line("embedding", -1, 0, 1), phase_line("decode", -1, 0, 1),
                             kernel_line(b"a", 0, 1, 2, 2**63)]),
        ))]
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


# A header longer than the 300-byte blocks of the examples below, so that it
# fills the first block alone and the lines after it form blocks of 2-4 lines.
LONG_HEADER = (b'{"ev":"session","version":1,"device_label":"' + b"d" * 300
               + b'","clock_offset_ns":0}')
GOOD = kernel_line(b"a", 10, 11, 12, 13)


def lines_of(*lines, end=b"\n"):
    return b"\n".join(lines) + end


@settings(max_examples=300, deadline=None)
@given(block_files(), st.integers(1, 400))
@example(lines_of(HEADER, GOOD, phase_line("embedding", -1, 0, 1)), 1)
@example(lines_of(HEADER, GOOD, phase_line("decode", -1, 0, 1)), 1)
@example(lines_of(LONG_HEADER, phase_line("decode", 7, 0, 1), phase_line("decode", -1, 1, 2),
                  GOOD), 300)
@example(lines_of(HEADER, GOOD, GOOD, kernel_line(b"a", 0, 1, 2, 2**63), GOOD), 1)
@example(lines_of(LONG_HEADER, GOOD, kernel_line(b"a", 2**63, 1, 2, 3), GOOD), 300)
@example(lines_of(LONG_HEADER, GOOD, GOOD, kernel_line(b"b", 5, 4, 6, 7), GOOD), 300)
@example(lines_of(LONG_HEADER, GOOD, GOOD, GOOD, GOOD, kernel_line(b"b", 5, 6, 6, 3)), 300)
@example(lines_of(LONG_HEADER, phase_line("embedding", None, 0, 10),
                  phase_line("prefill", None, 10, 20), kernel_line(b"b", 30, 31, 32, 33),
                  GOOD, GOOD, GOOD, GOOD, kernel_line(b"c", 1, 2, 3, 4), GOOD), 300)
@example(lines_of(HEADER, GOOD, GOOD + b"\r", b"", GOOD, end=b""), 1)
@example(lines_of(HEADER, GOOD, GOOD + b"\r", b"", GOOD, b"  ", GOOD, HEADER), 1)
@example(lines_of(HEADER, GOOD, GOOD, kernel_line(b"a", 1, 2, 3, 2), end=b""), 1)
@example(lines_of(b"", HEADER, GOOD, kernel_line(b"b", 0, 0, 0, 0), GOOD,
                  kernel_line(b"z", 0, 0, 0, 0)), 1)
def test_block_reader_matches_per_line_reader(scratch, data, block_bytes):
    """Any block size gives what the per-line route gives: the same trace
    and kernel name order, or the same error and message."""
    path = scratch / "blocks.jsonl"
    path.write_bytes(data)
    with block_size(block_bytes):
        bulk = read_with_names(path)
        with per_line_only():
            assert read_with_names(path) == bulk


@settings(max_examples=200, deadline=None)
@given(block_files(), st.integers(1, 400))
def test_fast_routes_match_json_path(scratch, data, block_bytes):
    """Every file reads the same through the bulk and canonical-line routes
    as through json.loads alone."""
    path = scratch / "json.jsonl"
    path.write_bytes(data)
    with block_size(block_bytes):
        fast = read_with_names(path)
        with per_line_only(), mock.patch.object(trace_io, "_canonical_fields", lambda raw: None):
            assert read_with_names(path) == fast


def read_spying_on_bulk(path, block_bytes):
    """The trace read from ``path``, and whether the bulk route took each
    block it was offered."""
    taken = []
    bulk_rows = trace_io._bulk_rows

    def spy(columns, block, lines):
        taken.append(bulk_rows(columns, block, lines))
        return taken[-1]

    with block_size(block_bytes), mock.patch.object(trace_io, "_bulk_rows", spy):
        return trace_io.read_jsonl(str(path)), taken


@pytest.mark.parametrize("block_bytes", [1, 300, 4096])
def test_bulk_route_takes_every_canonical_block(tmp_path, preset_run_16, block_bytes):
    """Past the header's block, a written trace is read in bulk alone."""
    trace, _ = preset_run_16
    path = tmp_path / "sim.jsonl"
    trace_io.write_jsonl(trace, str(path))
    loaded, taken = read_spying_on_bulk(path, block_bytes)
    assert loaded == trace and loaded.kernels.names == trace.kernels.names
    assert len(taken) > 1 and all(taken)


def test_bulk_route_backs_off_from_refused_blocks(tmp_path, preset_run_16):
    """A file whose blocks the bulk route refuses one after another is
    offered to it about log2(blocks) times, not once per block; canonical
    blocks after a refused stretch are taken in bulk again."""
    trace, _ = preset_run_16
    path = tmp_path / "sim.jsonl"
    trace_io.write_jsonl(trace, str(path))
    lines = path.read_bytes().split(b"\n")
    blocks = len(lines) - 1  # one line per block at 1 byte
    path.write_bytes(b"\r\n".join(lines))
    loaded, taken = read_spying_on_bulk(path, 1)
    assert loaded == trace and not any(taken)
    assert blocks > 100 and len(taken) <= blocks.bit_length() + 1
    crlf_stretch = 20
    path.write_bytes(b"\r\n".join(lines[:crlf_stretch]) + b"\r\n" + b"\n".join(lines[crlf_stretch:]))
    loaded, taken = read_spying_on_bulk(path, 1)
    assert loaded == trace
    assert taken[-1] and len(taken) - sum(taken) <= 6
    assert sum(taken) >= blocks - 2 * crlf_stretch


def test_reader_memory_is_bounded_by_columns_and_blocks(tmp_path):
    """The reader's peak is the columns it returns (held twice while they
    are sorted, with room to grow) plus a few blocks, whatever the file
    size; holding the whole file, or every match in it, costs more."""
    trace, _ = sim_engine.run(sim_engine.preset_gemma_decode(), 8, 1024)
    path = tmp_path / "long.jsonl"
    trace_io.write_jsonl(trace, str(path))
    assert path.stat().st_size >= 32 * trace_io._BLOCK_BYTES
    tracemalloc.start()
    try:
        loaded = trace_io.read_jsonl(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == trace
    column_bytes = 8 * (5 * len(loaded.phases) + 7 * len(loaded.kernels))
    assert peak < 4 * column_bytes + 8 * trace_io._BLOCK_BYTES
