"""Property tests for the trace writers and reader.

The writers format whole columns a chunk of rows at a time. The reader
reads the header line on its own, takes blocks of canonical lines in bulk
and reads any other block line by line through ``json.loads``. These tests
hold them to the dict-and-encoder code they replaced (kept below as the
reference), to an exact-decimal reference for viewer timestamps past 2**51
ns, to the ``json.loads`` route, and to the rule that any input ends in a
valid Trace or an ``LmmkError``; and the column cache to the parse it
stands in for.
"""

import hashlib
import json
import os
import re
import threading
import tracemalloc
from dataclasses import astuple
from decimal import Decimal
from itertools import pairwise
from operator import itemgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    build_trace,
    golden_trace,
    record_columns,
    reference_ground_truth,
    sidecar_bytes,
)
from lmmk import sim_engine, trace_io
from lmmk.cli import main
from lmmk.errors import LmmkError, ParseError, TimestampOrderViolation
from lmmk.recorder import (
    PER_TOKEN_KINDS, KernelRecord, KernelTable, PhaseKind, PhaseRecord, PhaseTable,
    RecordColumns, Trace,
)


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


def exact_us(ns):
    """ns / 1000 as its exact decimal, with ".0" for a whole microsecond."""
    text = format((Decimal(ns) / 1000).normalize(), "f")
    return text if "." in text else text + ".0"


def exact_reference_export_chrome_trace(trace, path):
    """The viewer export with every microsecond value printed by exact_us:
    the float reference's bytes below 2**51 ns, exact past it."""
    events = [
        f'{{"name":"{p.kind.value}","cat":"phase","ph":"X","ts":{exact_us(p.t_start_ns)},'
        f'"dur":{exact_us(p.t_end_ns - p.t_start_ns)},"pid":1,"tid":0,'
        f'"args":{{"turn":{p.turn},"token":{json.dumps(p.token_index)}}}}}'
        for p in trace.phases
    ] + [
        f'{{"name":{json.dumps(k.name)},"cat":"kernel","ph":"X","ts":{exact_us(k.t_start_ns)},'
        f'"dur":{exact_us(k.t_end_ns - k.t_start_ns)},"pid":1,"tid":{k.queue_id + 1},'
        f'"args":{{"queuing_us":{exact_us(k.t_submit_ns - k.t_queued_ns)},'
        f'"dispatch_us":{exact_us(k.t_start_ns - k.t_submit_ns)}}}}}'
        for k in trace.kernels
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write('{"traceEvents":[' + ",".join(events) + "]}\n")


# -- strategies ------------------------------------------------------------

SPECIAL_NAMES = ['q"uote', "back\\slash", "tab\there", "nl\nx", "\x00", "\x7f", "ü-kernel",
                 "日本", "\U0001f600", "\\u0041", " ", "plain_kernel"]
names = st.one_of(st.sampled_from(SPECIAL_NAMES), st.text(min_size=1, max_size=12))
big = st.integers(0, 2**62)


# Every decimal-width boundary of an int64, and both its ends.
DECIMAL_EDGES = sorted({0, 2**63 - 1, *(10**k - 1 for k in range(19)), *(10**k for k in range(19))})


def up_to(top):
    """Non-negative ints up to ``top``, often at its two ends or where the
    decimal digits of a value grow by one."""
    return st.one_of(st.integers(0, top), st.sampled_from(
        [0, 1, top - 1, top, *(edge for edge in DECIMAL_EDGES if edge <= top)]))


@st.composite
def disjoint_spans(draw, bounds, min_size=0, max_size=6):
    """(start, end) pairs in start order, each ending at or before the next
    starts: consecutive pairs of a sorted list of ``bounds``."""
    n = draw(st.integers(min_size, max_size))
    values = sorted(draw(st.lists(bounds, min_size=2 * n, max_size=2 * n)))
    return list(zip(values[::2], values[1::2]))


@st.composite
def phase_records(draw, top=2**62, min_size=0, max_size=6):
    """Phases in start order whose values lie in [0, top]. They do not
    overlap, because a Trace refuses phases that do."""
    records = []
    for start, end in draw(disjoint_spans(up_to(top), min_size, max_size)):
        kind = draw(st.sampled_from(list(PhaseKind)))
        token = draw(up_to(top)) if kind in PER_TOKEN_KINDS else None
        records.append(PhaseRecord(kind, draw(up_to(top)), token, start, end))
    return records


@st.composite
def kernel_records(draw, top=2**62):
    queued, submit, start, end = sorted(draw(st.lists(up_to(top), min_size=4, max_size=4)))
    return KernelRecord(draw(names), draw(up_to(top)), draw(up_to(top)),
                        queued, submit, start, end)


@st.composite
def traces(draw, top=2**62):
    """Traces whose record values lie in [0, top]."""
    device_label = draw(st.text(max_size=8))
    clock_offset_ns = draw(st.one_of(st.none(), st.integers(-2**62, 2**62)))
    rows = record_columns(draw(phase_records(top)),
                          draw(st.lists(kernel_records(top), max_size=6)))
    return Trace(
        device_label=device_label,
        clock_offset_ns=clock_offset_ns,
        phases=rows,
        kernels=rows,
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

INT64_TOP = 2**63 - 1


@settings(max_examples=100, deadline=None)
@given(traces(INT64_TOP))
def test_write_jsonl_matches_reference_bytes(scratch, trace):
    trace_io.write_jsonl(trace, str(scratch / "new.jsonl"))
    reference_write_jsonl(trace, str(scratch / "ref.jsonl"))
    assert (scratch / "new.jsonl").read_bytes() == (scratch / "ref.jsonl").read_bytes()


@settings(max_examples=100, deadline=None)
@given(traces(INT64_TOP))
def test_export_chrome_trace_matches_reference_bytes(scratch, trace):
    """Anywhere in int64 the export prints exact decimals, where a float
    would round past 2**51 ns."""
    trace_io.export_chrome_trace(trace, str(scratch / "new.json"))
    exact_reference_export_chrome_trace(trace, str(scratch / "ref.json"))
    assert (scratch / "new.json").read_bytes() == (scratch / "ref.json").read_bytes()


@settings(max_examples=100, deadline=None)
@given(traces(2**51 - 1))
def test_export_matches_float_repr_reference_below_2_51(scratch, trace):
    trace_io.export_chrome_trace(trace, str(scratch / "new.json"))
    reference_export_chrome_trace(trace, str(scratch / "ref.json"))
    assert (scratch / "new.json").read_bytes() == (scratch / "ref.json").read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(up_to(2**51 - 1), st.integers(0, 999)))
def test_exact_decimal_is_float_repr_below_2_51(ns):
    assert exact_us(ns) == repr(ns / 1000)


def test_export_edge_rows(tmp_path):
    """An empty trace; ts 0 with a null token; queue_id 2**63 - 1, whose
    tid 2**63 is past int64; and whole, tenth and thousandth microseconds."""
    path = tmp_path / "edge.json"
    trace_io.export_chrome_trace(build_trace(), str(path))
    assert path.read_bytes() == b'{"traceEvents":[]}\n'
    trace = build_trace(phases=[(PhaseKind.EMBEDDING, 0, None, 0, 0),
                                (PhaseKind.DECODE, 3, 12, 1_000, 2_100)],
                        kernels=[("k", INT64_TOP, 0, 0, 1, 1_010, INT64_TOP)])
    trace_io.export_chrome_trace(trace, str(path))
    assert path.read_text() == (
        '{"traceEvents":['
        '{"name":"embedding","cat":"phase","ph":"X","ts":0.0,"dur":0.0,"pid":1,"tid":0,'
        '"args":{"turn":0,"token":null}},'
        '{"name":"decode","cat":"phase","ph":"X","ts":1.0,"dur":1.1,"pid":1,"tid":0,'
        '"args":{"turn":3,"token":12}},'
        '{"name":"k","cat":"kernel","ph":"X","ts":1.01,"dur":9223372036854774.797,"pid":1,'
        '"tid":9223372036854775808,"args":{"queuing_us":0.001,"dispatch_us":1.009}}]}\n'
    )


def decimal_edge_trace():
    """A trace of 2 * _ROW_CHUNK + 3 phases and kernels whose three chunks
    have different digit widths: turns, queues, enqueue times and the
    durations cycle through DECIMAL_EDGES below 10**7, then all of them,
    then 0, 9, 10; phase starts have 8, 18, then 19 digits. Tokens cycle
    through all of DECIMAL_EDGES in every chunk, between null tokens, and
    one kernel runs on queue 2**63 - 1."""
    chunk = trace_io._ROW_CHUNK
    pools = [[v for v in DECIMAL_EDGES if v < 10**7], DECIMAL_EDGES, [0, 9, 10]]
    spacing, offset = [10**4, 10**14, 10**18], [0, 10**8, 10**18]
    kinds, phases, kernels, windows = list(PhaseKind), [], [], []
    for i in range(2 * chunk + 3):
        c, j = min(i // chunk, 2), i - min(i // chunk, 2) * chunk
        pool = pools[c]
        v, w = pool[i % len(pool)], pool[(i + 1) % len(pool)]
        kind = kinds[i % len(kinds)] if c < 2 else [PhaseKind.PREFILL, PhaseKind.DECODE][j % 2]
        token = DECIMAL_EDGES[i % len(DECIMAL_EDGES)] if c < 2 else INT64_TOP
        token = token if kind in PER_TOKEN_KINDS else None
        start = offset[c] + j * spacing[c]
        end = start + v % spacing[c]
        phases.append((kind, w, token, start, end))
        windows.append((kinds.index(kind), w, -1 if token is None else token, start, end,
                        min(w, end - start)))
        durations = [v if i % 3 == r else 0 for r in range(3)]
        queued = min(w, INT64_TOP - v)
        submit = queued + durations[0]
        kernels.append((["k", 'q"uote', "\u00fc-kernel"][i % 3],
                        INT64_TOP if i == 2 * chunk + 1 else v, w, queued, submit,
                        submit + durations[1], submit + durations[1] + durations[2]))
    truth = sim_engine.GroundTruth(
        kernel_total_ns={"k": INT64_TOP}, kernel_invocations={"k": 0},
        phase_busy_ns={PhaseKind.DECODE: 10**18}, phase_wall_ns={PhaseKind.PREFILL: 9},
        windows=sim_engine.WindowTable(*np.array(windows, dtype=np.int64).T),
        prompt_tokens=INT64_TOP, output_tokens=0)
    return build_trace(kernels, phases), truth


def test_writers_match_reference_bytes_at_every_decimal_edge(tmp_path):
    trace, truth = decimal_edge_trace()
    tokens = [p.token_index for p in trace.phases]
    for lo in range(0, len(tokens), trace_io._ROW_CHUNK):
        chunk = tokens[lo:lo + trace_io._ROW_CHUNK]
        assert None in chunk and INT64_TOP in chunk
    assert {p.turn for p in trace.phases} | {k.queue_id for k in trace.kernels} >= set(
        DECIMAL_EDGES)
    for write, reference, name in [
        (trace_io.write_jsonl, reference_write_jsonl, "t.jsonl"),
        (trace_io.export_chrome_trace, exact_reference_export_chrome_trace, "t.json"),
    ]:
        write(trace, str(tmp_path / name))
        reference(trace, str(tmp_path / ("ref-" + name)))
        assert (tmp_path / name).read_bytes() == (tmp_path / ("ref-" + name)).read_bytes()
    expected = json.dumps(reference_ground_truth(truth), separators=(",", ":")) + "\n"
    assert sidecar_bytes(truth) == expected.encode()


below_2_51 = st.integers(0, 2**51 - 1)


@settings(max_examples=200, deadline=None)
@given(disjoint_spans(below_2_51, 1).map(lambda spans: [(a, b - a) for a, b in spans]),
       st.lists(st.tuples(below_2_51, below_2_51), min_size=1, max_size=6))
@example([(2**51 - 1, 2**51 - 1)], [(2**51 - 1, 2**51 - 1)])
def test_export_gives_back_every_nanosecond_below_2_51(scratch, phase_spans, kernel_spans):
    """The promise of docs/trace_format.md: round(x * 1000) of an exported
    ts or dur is the exact nanosecond for every ts and dur below 2**51."""
    phases = [PhaseRecord(PhaseKind.PREFILL, 0, None, ts, ts + dur) for ts, dur in phase_spans]
    kernels = [KernelRecord("k", 0, 0, ts, ts, ts, ts + dur) for ts, dur in kernel_spans]
    rows = record_columns(phases, kernels)
    trace_io.export_chrome_trace(Trace("x", 0, rows, rows), str(scratch / "ns.json"))
    with open(scratch / "ns.json", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert [(round(e["ts"] * 1000), round(e["dur"] * 1000)) for e in events] == (
        sorted(phase_spans, key=itemgetter(0)) + sorted(kernel_spans, key=itemgetter(0))
    )


@pytest.mark.parametrize("writer", [trace_io.write_jsonl, trace_io.export_chrome_trace])
@pytest.mark.parametrize("bad", [True, 2.0, np.int64(2)], ids=["bool", "float", "numpy"])
@pytest.mark.parametrize("field", ["turn", "token_index", "t_end_ns"])
def test_writers_reject_non_int_fields(tmp_path, writer, bad, field):
    """The Trace rejects the field when it is built, so no writer ever
    opens a file for it."""
    owner = "KernelRecord" if field == "t_end_ns" else "PhaseRecord"
    expected = "an int or None" if field == "token_index" else "an int"
    message = f"{owner}.{field} must be {expected}, got {bad!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        if field == "t_end_ns":
            trace = build_trace(kernels=[("k", 0, 0, 0, 0, 0, bad)])
        else:
            turn, token = (bad, 0) if field == "turn" else (0, bad)
            trace = build_trace(phases=[(PhaseKind.DECODE, turn, token, 0, 3)])
        writer(trace, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.cols").exists()


def table_trace(phases=(), kernels=(), names=("k",), **header):
    """A Trace made straight from tables of ``phases`` and ``kernels`` rows."""
    phase_columns = np.array(phases, dtype=np.int64).reshape(-1, 5).T
    kernel_columns = np.array(kernels, dtype=np.int64).reshape(-1, 7).T
    return Trace(phases=PhaseTable(*phase_columns), kernels=KernelTable(names, *kernel_columns),
                 **{"device_label": "x", "clock_offset_ns": 0, **header})


@pytest.mark.parametrize("writer", [trace_io.write_jsonl, trace_io.export_chrome_trace])
@pytest.mark.parametrize("rows, error, message", [
    ({"phases": [(0, 0, -1, -5, 3)]}, ValueError, "timestamps must be nonnegative"),
    ({"phases": [(2, 0, -1, 0, 3)]}, ValueError, "decode phases require a token_index"),
    ({"phases": [(0, 0, -1, 4, 3)]}, TimestampOrderViolation, "phase t_end_ns < t_start_ns"),
    ({"kernels": [(0, -1, 0, 0, 0, 0, 0)]}, ValueError, "queue_id must be nonnegative"),
    ({"kernels": [(0, 0, 0, 0, 0, 5, 4)]}, TimestampOrderViolation, "t_end_ns < t_start_ns"),
    ({"kernels": [(0, 0, 0, 9, 5, 9, 9)]}, TimestampOrderViolation,
     "t_submit_ns < t_queued_ns"),
], ids=["negative-start", "null-decode-token", "phase-backwards", "negative-queue",
        "kernel-backwards", "submit-before-queued"])
def test_writers_check_columns_before_opening(tmp_path, writer, rows, error, message):
    """A Trace made from tables checks its rows when it is made, so no
    writer ever opens a file for them."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        writer(table_trace(**rows), str(tmp_path / "out"))
    assert not (tmp_path / "out").exists() and not (tmp_path / "out.cols").exists()


@pytest.mark.parametrize("writer", [trace_io.write_jsonl, trace_io.export_chrome_trace])
def test_writer_memory_does_not_grow_with_the_trace(tmp_path, writer):
    """The writers format a chunk of rows at a time: the peak on a
    4096-token trace is within 1.5x of the peak on a 512-token one, where
    formatting the whole table at once would be about 8x."""
    peaks = []
    for tokens in (512, 4096):
        trace, _ = sim_engine.run(sim_engine.preset_gemma_decode(), 8, tokens)
        tracemalloc.start()
        try:
            writer(trace, str(tmp_path / "out"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


int64 = st.integers(-(2**63), 2**63 - 1)
tie_prone = st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1))


@st.composite
def shuffled_records(draw):
    """Header fields anywhere in int64, then disjoint phases with distinct
    starts and any kernels (queued times often tie), each list shuffled."""
    t = draw(st.integers(0, 2**62))
    phases = []
    for token in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(list(PhaseKind)))
        length = draw(st.sampled_from([0, 0, 1, 7]))
        index = token if kind in PER_TOKEN_KINDS else None
        phases.append(PhaseRecord(kind, draw(st.integers(0, 2)), index, t, t + length))
        t += length + draw(st.integers(0, 2)) + (length == 0)  # the next phase starts later
    kernels = [
        KernelRecord(draw(names), draw(st.integers(0, 3)), draw(tie_prone),
                     *sorted(draw(st.lists(tie_prone, min_size=4, max_size=4))))
        for _ in range(draw(st.integers(0, 8)))
    ]
    header = {"device_label": draw(st.text(max_size=4))}
    for key in ("clock_offset_ns", "prompt_tokens", "output_tokens"):
        header[key] = draw(st.one_of(st.none(), int64))
    return header, draw(st.permutations(phases)), draw(st.permutations(kernels))


@settings(max_examples=200, deadline=None)
@given(shuffled_records())
def test_trace_from_shuffled_records_is_sorted_and_reads_back_equal(scratch, drawn):
    """A Trace built from a RecordColumns of records orders them as seal
    and read_jsonl do (stable, by start and by queued time), so its file
    reads back equal."""
    header, phases, kernels = drawn
    rows = record_columns(phases, kernels)
    trace = Trace(phases=rows, kernels=rows, **header)
    want_phases = tuple(sorted(phases, key=lambda r: r.t_start_ns))
    want_kernels = tuple(sorted(kernels, key=lambda r: r.t_queued_ns))
    assert tuple(trace.phases) == want_phases and tuple(trace.kernels) == want_kernels
    in_order = record_columns(want_phases, want_kernels)
    assert trace == Trace(phases=in_order, kernels=in_order, **header)
    path = str(scratch / "shuffled.jsonl")
    trace_io.write_jsonl(trace, path)
    assert trace_io.read_jsonl(path) == trace


@settings(max_examples=200, deadline=None)
@given(shuffled_records(), st.randoms(use_true_random=False))
def test_trace_from_shuffled_tables_reads_back_equal(scratch, drawn, rnd):
    """A Trace made straight from tables of shuffled rows, with the names
    in any order and one unused, equals the Trace made from a RecordColumns
    of the records, and its file reads back equal."""
    header, phases, kernels = drawn
    names = [*dict.fromkeys(k.name for k in kernels), "unused"]
    rnd.shuffle(names)
    trace = table_trace(
        [(list(PhaseKind).index(p.kind), p.turn, -1 if p.token_index is None else p.token_index,
          p.t_start_ns, p.t_end_ns) for p in phases],
        [(names.index(k.name), *astuple(k)[1:]) for k in kernels], names, **header)
    rows = record_columns(phases, kernels)
    assert trace == Trace(phases=rows, kernels=rows, **header)
    path = str(scratch / "tables.jsonl")
    trace_io.write_jsonl(trace, path)
    assert trace_io.read_jsonl(path) == trace


def test_write_jsonl_rejects_non_int_header_field(tmp_path):
    with pytest.raises(TypeError, match=r"^Trace\.clock_offset_ns must be an int or None, got True$"):
        trace = build_trace(clock_offset_ns=True)
        trace_io.write_jsonl(trace, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


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
    """Every line reads the same with the bulk route as through json.loads
    alone: equal traces, or the same error and message."""
    path = scratch / "line.jsonl"
    path.write_bytes(HEADER + b"\n" + line + ending)
    fast = read_outcome(path)
    with per_line_only():
        slow = read_outcome(path)
    assert fast == slow


PHASE_LINE = b'{"ev":"phase","kind":"decode","turn":%s,"token":%s,"t_start_ns":%s,"t_end_ns":%s}'


@pytest.mark.parametrize("line, field, value", [
    (KERNEL_LINE % (b"k", str(2**63).encode()), "KernelRecord.queue_id", 2**63),
    (KERNEL_LINE.replace(b'"t_end_ns":3', b'"t_end_ns":%d' % 2**63) % (b"k", b"0"),
     "KernelRecord.t_end_ns", 2**63),
    (KERNEL_LINE.replace(b'"t_queued_ns":0', b'"t_queued_ns":%d' % 2**63) % (b"k", b"0"),
     "KernelRecord.t_queued_ns", 2**63),
    (KERNEL_LINE % (b"k", str(-(2**63) - 1).encode()), "KernelRecord.queue_id", -(2**63) - 1),
    (PHASE_LINE % (b"0", str(2**63).encode(), b"0", b"1"), "PhaseRecord.token_index", 2**63),
    (PHASE_LINE % (str(-(2**63) - 1).encode(), b"0", b"0", b"1"), "PhaseRecord.turn",
     -(2**63) - 1),
    (PHASE_LINE % (b"0", b"0", b"0", b"9" * 19), "PhaseRecord.t_end_ns", int("9" * 19)),
], ids=["queue-2**63", "end-2**63", "queued-2**63", "queue-below", "token-2**63",
        "turn-below", "end-19-nines"])
def test_values_outside_int64_are_parse_errors(tmp_path, line, field, value):
    """With the bulk route offered the line and through json.loads alone,
    and before the record's own checks (a queued time of 2**63 also breaks
    queued <= submit). The message names the record's field."""
    path = tmp_path / "range.jsonl"
    path.write_bytes(HEADER + b"\n" + line + b"\n")
    message = f"line 2: {field} out of int64 range, got {value}"
    text = b"\n" + line + b"\n"
    assert len(trace_io._KERNEL_LINES.findall(text) + trace_io._PHASE_LINES.findall(text)) == 1
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        trace_io.read_jsonl(str(path))
    with per_line_only():
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            trace_io.read_jsonl(str(path))


@pytest.mark.parametrize("line, message", [
    (PHASE_LINE % (b"1.5", b"0", b"0", b"1"), "PhaseRecord.turn must be an int, got 1.5"),
    (PHASE_LINE % (b"0", b'"0"', b"0", b"1"),
     "PhaseRecord.token_index must be an int or None, got '0'"),
    (KERNEL_LINE % (b"k", b"true"), "KernelRecord.queue_id must be an int, got True"),
], ids=["float-turn", "str-token", "bool-queue"])
def test_non_int_values_are_parse_errors(tmp_path, line, message):
    """With the bulk route offered the line and through json.loads alone,
    the message is the record's own."""
    path = tmp_path / "type.jsonl"
    path.write_bytes(HEADER + b"\n" + line + b"\n")
    expected = f"^{re.escape('line 2: ' + message)}$"
    with pytest.raises(ParseError, match=expected):
        trace_io.read_jsonl(str(path))
    with per_line_only():
        with pytest.raises(ParseError, match=expected):
            trace_io.read_jsonl(str(path))


def test_int64_extremes_round_trip(tmp_path):
    line = KERNEL_LINE.replace(b'"t_end_ns":3', b'"t_end_ns":%d' % (2**63 - 1)) % (b"k", b"0")
    path = tmp_path / "edge.jsonl"
    path.write_bytes(HEADER + b"\n" + line + b"\n")
    (kernel,) = trace_io.read_jsonl(str(path)).kernels
    assert kernel.t_end_ns == 2**63 - 1


@settings(max_examples=100, deadline=None)
@given(st.lists(kernel_records(), min_size=1, max_size=3),
       phase_records(min_size=1, max_size=3))
def test_fast_path_takes_every_line_the_writer_emits_for_plain_names(scratch, kernels, phases):
    """The bulk route takes the writer's record lines, as columns holding
    the records, unless a kernel name needs escaping; then it refuses them."""
    rows = record_columns(phases, kernels)
    trace = Trace("x", 0, rows, rows)
    trace_io.write_jsonl(trace, str(scratch / "w.jsonl"))
    block = (scratch / "w.jsonl").read_bytes().split(b"\n", 1)[1]
    columns = RecordColumns()
    taken = trace_io._bulk_rows(columns, block, len(phases) + len(kernels))
    assert taken == all(json.dumps(k.name) == f'"{k.name}"' for k in kernels)
    if taken:
        names, kernel_columns = columns.kernel_columns()
        tables = PhaseTable(*columns.phase_columns()), KernelTable(names, *kernel_columns)
        assert tuple(map(tuple, tables)) == (  # in the file's order, the Trace's
            tuple(sorted(phases, key=lambda p: p.t_start_ns)),
            tuple(sorted(kernels, key=lambda k: k.t_queued_ns)),
        )


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
     "line 2: Trace.device_label must be a str, got [1]"),
    (b'{"ev":"session","version":1,"clock_offset_ns":0,"prompt_tokens":1.5}',
     "line 2: Trace.prompt_tokens must be an int or None, got 1.5"),
    (b'{"ev":"session","version":1,"clock_offset_ns":true}',
     "line 2: Trace.clock_offset_ns must be an int or None, got True"),
    (b'{"ev":"session","version":true,"clock_offset_ns":0}',
     "line 2: field 'version' must be an integer, got True"),
    (b'{"ev":"session","version":1.0,"clock_offset_ns":0}',
     "line 2: field 'version' must be an integer, got 1.0"),
    (b'{"ev":"session","version":1,"prompt_tokens":' + b"9" * 4400 + b"}",
     "line 2: invalid JSON (Exceeds the limit"),
], ids=["list-label", "float-count", "bool-offset", "bool-version", "float-version",
        "4400-digit-count"])
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
# int64 ends and literals just past them, inside blocks of canonical lines
@example(lines_of(HEADER, phase_line("decode", INT64_TOP, 0, INT64_TOP, turn=INT64_TOP), GOOD,
                  kernel_line(b"a", 0, 1, 2, INT64_TOP, queue=INT64_TOP, enqueue=INT64_TOP)), 400)
@example(lines_of(HEADER, GOOD, kernel_line(b"a", 0, 1, 2, 3, enqueue=-(2**63)), GOOD), 400)
@example(lines_of(HEADER, GOOD, phase_line("decode", 1, 0, 1, turn=-(2**63)), GOOD), 400)
@example(lines_of(HEADER, GOOD, kernel_line(b"a", 0, 1, 2, 2**63), GOOD), 400)
@example(lines_of(HEADER, GOOD, phase_line("prefill", None, 0, 2**63), GOOD), 400)
@example(lines_of(HEADER, GOOD, kernel_line(b"a", 0, 1, 2, 3, queue=-(2**63) - 1), GOOD), 400)
@example(lines_of(HEADER, GOOD, phase_line("decode", 10**19 - 1, 0, 1), GOOD), 400)
@example(lines_of(HEADER, GOOD, kernel_line(b"a", -(10**19 - 1), 1, 2, 3), GOOD), 400)
@example(lines_of(HEADER, GOOD, phase_line("decode", 1, 0, 1, turn=2**64), GOOD), 400)
def test_block_reader_matches_per_line_reader(scratch, data, block_bytes):
    """Any block size gives what the per-line route gives: the same trace
    and kernel name order, or the same error and message."""
    path = scratch / "blocks.jsonl"
    path.write_bytes(data)
    with block_size(block_bytes):
        bulk = read_with_names(path)
        with per_line_only():
            assert read_with_names(path) == bulk


@pytest.mark.parametrize("kind, token, message", [
    ("decode", -1, "token_index must be nonnegative"),
    ("sampling", -5, "token_index must be nonnegative"),
    ("embedding", -1, "embedding phases must not carry a token_index"),
])
def test_a_negative_token_is_read_line_by_line(tmp_path, kind, token, message):
    """The bulk pattern takes a token only as null or a nonnegative integer,
    so a negative one gets the json.loads route and its message."""
    line = phase_line(kind, token, 0, 1)
    assert not trace_io._PHASE_LINES.findall(b"\n" + line + b"\n")
    path = tmp_path / "token.jsonl"
    path.write_bytes(lines_of(HEADER, GOOD, line))
    with pytest.raises(ParseError, match=f"^line 3: {re.escape(message)}$"):
        trace_io.read_jsonl(str(path))


def test_bulk_patterns_are_the_writer_templates():
    """The kernel pattern is the writer's line with its slots filled; the
    phase pattern too, its token slot null or a nonnegative integer. Each
    has two groups: the kind or name, and the span of its integers."""
    fields = [rb"-?(?:0|[1-9][0-9]{0,18})"] * 4
    kinds = b"(" + b"|".join(k.value.encode() for k in PhaseKind) + b")"
    assert trace_io._PHASE_LINES.pattern == (
        rb'\n\{"ev":"phase","kind":"%s","turn":(%s,"token":(?:null|0|[1-9][0-9]{0,18}),'
        rb'"t_start_ns":%s,"t_end_ns":%s)\}(?=\n)' % (kinds, *fields[:3]))
    assert trace_io._KERNEL_LINES.pattern == (
        rb'\n\{"ev":"kernel","name":"([\x20\x21\x23-\x5b\x5d-\x7e]*)","queue":(%s,'
        rb'"t_cpu_enqueue_ns":%s,"t_queued_ns":%s,"t_submit_ns":%s,"t_start_ns":%s,'
        rb'"t_end_ns":%s)\}(?=\n)' % (*fields, *fields[:2]))
    assert trace_io._PHASE_LINES.groups == trace_io._KERNEL_LINES.groups == 2


def read_spying_on_bulk(path, block_bytes):
    """The trace read from ``path``, and the number of lines the bulk route
    took from each block it was offered (0 for a block it refused)."""
    taken = []
    bulk_rows = trace_io._bulk_rows

    def spy(columns, block, lines):
        ok = bulk_rows(columns, block, lines)
        taken.append(lines if ok else 0)
        return ok

    with block_size(block_bytes), mock.patch.object(trace_io, "_bulk_rows", spy):
        return trace_io.read_jsonl(str(path)), taken


@pytest.mark.parametrize("block_bytes", [1, 300, 4096])
def test_bulk_route_takes_every_canonical_block(tmp_path, preset_run_16, block_bytes):
    """Past the header line, a written trace is read in bulk alone: every
    record line, whatever block it shares with the header."""
    trace, _ = preset_run_16
    path = tmp_path / "sim.jsonl"
    trace_io.write_jsonl(trace, str(path))
    (tmp_path / "sim.jsonl.cols").unlink()  # the parse is the subject, not the cache
    loaded, taken = read_spying_on_bulk(path, block_bytes)
    assert loaded == trace and loaded.kernels.names == trace.kernels.names
    assert len(taken) > 1 and all(taken)
    assert sum(taken) == len(trace.phases) + len(trace.kernels)


def test_bulk_route_backs_off_from_refused_blocks(tmp_path, preset_run_16):
    """A file whose blocks the bulk route refuses one after another is
    offered to it about log2(blocks) times, not once per block; canonical
    blocks after a refused stretch are taken in bulk again."""
    trace, _ = preset_run_16
    path = tmp_path / "sim.jsonl"
    trace_io.write_jsonl(trace, str(path))
    (tmp_path / "sim.jsonl.cols").unlink()  # the parse is the subject, not the cache
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
    assert taken[-1] and taken.count(0) <= 6
    assert sum(taken) >= blocks - 2 * crlf_stretch


def test_bulk_route_takes_int64_ends_exactly(tmp_path):
    """A block holding INT64_MAX in every integer field is taken in bulk and
    reads back as the per-line route reads it; the integer text gives
    INT64_MIN exactly too, and refuses a literal past either end."""
    path = tmp_path / "ends.jsonl"
    top = INT64_TOP
    path.write_bytes(lines_of(HEADER, phase_line("decode", top, top, top, turn=top), GOOD,
                              kernel_line(b"a", top, top, top, top, queue=top, enqueue=top)))
    loaded, taken = read_spying_on_bulk(path, 4096)
    assert taken == [3]
    assert loaded.phases[0] == PhaseRecord(PhaseKind.DECODE, top, top, top, top)
    assert loaded.kernels[1] == KernelRecord("a", top, top, top, top, top, top)
    with per_line_only():
        assert trace_io.read_jsonl(str(path)) == loaded
    ends = trace_io._int_columns(b"%d,%d" % (-(2**63), top), 1, 2)
    assert [column.tolist() for column in ends] == [[-(2**63)], [top]]
    for past in (2**63, -(2**63) - 1, 10**19 - 1, -(10**19 - 1)):
        with pytest.raises(OverflowError):
            trace_io._int_columns(b"0,%d" % past, 1, 2)


def test_numpy_text_parse_saturates_past_int64():
    """The bulk route finds a literal past int64 by the int64 end it parses
    to, so it relies on numpy's text parse reading every such literal as
    INT64_MAX. A numpy that wraps instead would put wrong values in a Trace."""
    for past in (2**63, 10**19 - 1, 2**64, -(2**63) - 1, -(10**19 - 1)):
        assert np.fromstring(b"5,%d" % past, np.int64, sep=",").tolist() == [5, INT64_TOP]


def test_reader_memory_is_bounded_by_columns_and_blocks(tmp_path):
    """The reader's peak is the columns it returns (held twice while they
    are sorted, with room to grow) plus a few blocks, whatever the file
    size; holding the whole file, or every match in it, costs more."""
    trace, _ = sim_engine.run(sim_engine.preset_gemma_decode(), 8, 1024)
    path = tmp_path / "long.jsonl"
    trace_io.write_jsonl(trace, str(path))
    (tmp_path / "long.jsonl.cols").unlink()  # the parse is the subject, not the cache
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


# -- the column cache -----------------------------------------------------------

def cache_of(path):
    return path.with_name(path.name + ".cols")


def read_from_cache(path):
    """The trace and names read from ``path`` with both parse routes
    refused, so that only the column cache can give them."""
    with mock.patch.object(trace_io, "_bulk_rows", side_effect=AssertionError), \
            mock.patch.object(trace_io, "_append_record", side_effect=AssertionError):
        trace = trace_io.read_jsonl(str(path))
    return trace, trace.kernels.names


def parsed(path):
    """read_with_names of ``path`` with its column cache deleted."""
    cache_of(path).unlink(missing_ok=True)
    return read_with_names(path)


@settings(max_examples=200, deadline=None)
@given(traces())
def test_a_cached_read_equals_the_parse(scratch, trace):
    """The same trace, header fields and kernel name order, read through
    the cache that write_jsonl left or parsed once the cache is deleted."""
    path = scratch / "cached.jsonl"
    trace_io.write_jsonl(trace, str(path))
    cached = read_from_cache(path)
    assert cached == parsed(path)
    assert cached[0] == trace


@settings(max_examples=200, deadline=None)
@given(shuffled_records(), st.randoms(use_true_random=False))
def test_a_cached_read_of_shuffled_tables_equals_the_parse(scratch, drawn, rnd):
    """A Trace made from tables with its names in any order and one unused
    reads back from the cache with the parse's names: in the order the rows
    first use them, the unused one dropped."""
    header, phases, kernels = drawn
    names = [*dict.fromkeys(k.name for k in kernels), "unused"]
    rnd.shuffle(names)
    trace = table_trace(
        [(list(PhaseKind).index(p.kind), p.turn, -1 if p.token_index is None else p.token_index,
          p.t_start_ns, p.t_end_ns) for p in phases],
        [(names.index(k.name), *astuple(k)[1:]) for k in kernels], names, **header)
    path = scratch / "cached-tables.jsonl"
    trace_io.write_jsonl(trace, str(path))
    cached = read_from_cache(path)
    assert cached == parsed(path)
    assert cached[0] == trace
    assert cached[1] == tuple(dict.fromkeys(k.name for k in trace.kernels))


def damage_trace():
    return table_trace([(0, 0, -1, 0, 5), (2, 0, 0, 5, 9)],
                       [(2, 0, 1, 1, 2, 3, 4), (0, 1, 0, 2, 2, 5, 5), (2, 0, 3, 6, 7, 7, 8)],
                       ["b", "unused", "aé"], prompt_tokens=3)


def test_a_cut_or_flipped_cache_reads_as_the_parse(tmp_path):
    """Every truncation of a cache and every single flipped bit in it is
    refused: the read gives what the parse gives."""
    path = tmp_path / "t.jsonl"
    trace_io.write_jsonl(damage_trace(), str(path))
    good = cache_of(path).read_bytes()
    want = parsed(path)
    for n in range(len(good)):
        cache_of(path).write_bytes(good[:n])
        assert read_with_names(path) == want, n
    for i in range(len(good)):
        for bit in range(8):
            damaged = bytearray(good)
            damaged[i] ^= 1 << bit
            cache_of(path).write_bytes(damaged)
            assert read_with_names(path) == want, (i, bit)


def test_a_foreign_cache_reads_as_the_parse(tmp_path):
    """A cache written for another trace is refused."""
    path, other = tmp_path / "t.jsonl", tmp_path / "other.jsonl"
    trace_io.write_jsonl(damage_trace(), str(path))
    trace_io.write_jsonl(golden_trace(), str(other))
    want = parsed(path)
    cache_of(path).write_bytes(cache_of(other).read_bytes())
    assert read_with_names(path) == want


def forge(path, edit):
    """Rewrite ``path``'s column cache as ``edit(columns, names)`` leaves its
    int64 columns (one array of phase columns, one of kernel columns) and
    its list of names, with the digest that matches the edited bytes."""
    cache = cache_of(path).read_bytes()[:-trace_io._DIGEST_BYTES]
    _, p, k = trace_io._COLS_HEAD.unpack_from(cache)
    at = trace_io._COLS_HEAD.size
    columns = np.frombuffer(cache, "<i8", 5 * p + 7 * k, at).copy()
    names = json.loads(cache[at + columns.nbytes:])
    edit(columns[:5 * p].reshape(5, p), columns[5 * p:].reshape(7, k), names)
    cache = cache[:at] + columns.tobytes() + json.dumps(names).encode()
    digest = hashlib.sha256(path.read_bytes() + cache).digest()
    cache_of(path).write_bytes(cache + digest)


# damage_trace's rows in trace order: phases [0, 5] then [5, 9]; kernels
# named by codes 2, 0, 2 into ["b", "unused", "aé"].
FORGED = {
    "name-not-a-str": (lambda p, k, names: names.__setitem__(0, 7),
                       "kernel name must be a str, got 7"),
    "kind-code-99": (lambda p, k, names: p[0].__setitem__(1, 99),
                     "phase kind code 99 is not in range(6)"),
    "end-before-start": (lambda p, k, names: k[6].__setitem__(0, 2),
                         "t_end_ns < t_start_ns"),
    "overlap": (lambda p, k, names: p[4].__setitem__(0, 7),
                "phase records overlap: embedding [0, 7] and decode [5, 9]"),
}


@pytest.mark.parametrize("case", FORGED)
def test_a_forged_cache_with_bad_rows_is_a_parse_error_naming_it(tmp_path, capsys, case):
    """A cache whose digest matches but whose rows a Trace refuses is a
    ParseError naming the cache, through the library and the CLI (exit 1,
    one error line); the JSONL beside it parses."""
    edit, message = FORGED[case]
    path = tmp_path / "t.jsonl"
    trace_io.write_jsonl(damage_trace(), str(path))
    forge(path, edit)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}.cols: {message}')}$"):
        trace_io.read_jsonl(str(path))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"lmmk: error: {path}.cols: {message}\n"
    cache_of(path).unlink()
    assert trace_io.read_jsonl(str(path)) == damage_trace()


@settings(max_examples=100, deadline=None)
@given(traces(), edits)
def test_a_trace_edited_after_writing_reads_as_the_parse(scratch, trace, changes):
    """A JSONL edited after write_jsonl wrote it and its cache reads as the
    edited file parses: the same trace and names, or the same error."""
    path = scratch / "edited-cached.jsonl"
    trace_io.write_jsonl(trace, str(path))
    data = bytearray(path.read_bytes())
    for at, cut, insert in changes:
        at %= len(data) + 1
        data[at:at + cut] = insert
    path.write_bytes(bytes(data))
    assert read_with_names(path) == parsed(path)


def test_a_read_writes_nothing(tmp_path):
    """With a valid cache, a stale one or none, a read leaves the directory
    as it was: the same files with the same modification times."""
    path = tmp_path / "t.jsonl"
    trace_io.write_jsonl(damage_trace(), str(path))

    def listing():
        return {p.name: p.stat().st_mtime_ns for p in tmp_path.iterdir()}

    for make_state in (lambda: None,
                       lambda: path.write_bytes(path.read_bytes() + b"\n"),
                       lambda: cache_of(path).unlink()):
        make_state()
        before = listing()
        trace_io.read_jsonl(str(path))
        assert listing() == before


def test_without_a_cache_the_file_is_opened_once_and_never_hashed(tmp_path):
    """With no cache a read costs one failed open more than the parse alone."""
    path = tmp_path / "t.jsonl"
    trace_io.write_jsonl(damage_trace(), str(path))
    cache_of(path).unlink()
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", spy), \
            mock.patch.object(trace_io.hashlib, "sha256", side_effect=AssertionError):
        assert trace_io.read_jsonl(str(path)) == damage_trace()
    assert opened == [str(path), str(path) + ".cols"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_fifo_reads_with_a_cache_beside_it(tmp_path):
    """A trace read from a pipe cannot be hashed from its start: the cache
    beside it is refused and the pipe is parsed."""
    written, path = tmp_path / "t.jsonl", tmp_path / "pipe.jsonl"
    trace_io.write_jsonl(damage_trace(), str(written))
    os.mkfifo(path)
    cache_of(path).write_bytes(cache_of(written).read_bytes())
    feeder = threading.Thread(target=path.write_bytes, args=(written.read_bytes(),), daemon=True)
    feeder.start()
    try:
        assert trace_io.read_jsonl(str(path)) == damage_trace()
    finally:
        feeder.join(10)


def test_cached_read_memory_is_bounded_by_columns(tmp_path):
    """A cached read's peak is the cache's bytes, the Trace's own copy of
    the columns and the temporaries of the checks and of the name order:
    under three times the columns, however long the file it skips."""
    trace, _ = sim_engine.run(sim_engine.preset_gemma_decode(), 8, 1024)
    path = tmp_path / "long.jsonl"
    trace_io.write_jsonl(trace, str(path))
    tracemalloc.start()
    try:
        loaded, _ = read_from_cache(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == trace
    column_bytes = 8 * (5 * len(loaded.phases) + 7 * len(loaded.kernels))
    assert peak < 3 * column_bytes + 2 * trace_io._BLOCK_BYTES


# -- the ground-truth sidecar ---------------------------------------------------

nonnegative = st.integers(0, 2**63 - 1)


@st.composite
def window_rows(draw):
    """A valid window: any kind, null or int64 token, busy within the wall."""
    start = draw(nonnegative)
    end = draw(st.integers(start, 2**63 - 1))
    token = draw(st.none() | nonnegative)
    return (list(PhaseKind).index(draw(st.sampled_from(PhaseKind))), draw(nonnegative),
            -1 if token is None else token, start, end, draw(st.integers(0, end - start)))


@st.composite
def ground_truths(draw):
    totals = st.dictionaries(st.text(min_size=1, max_size=8), nonnegative, max_size=4)
    by_kind = st.dictionaries(st.sampled_from(PhaseKind), nonnegative, max_size=6)
    rows = draw(st.lists(window_rows(), max_size=12))
    return sim_engine.GroundTruth(
        kernel_total_ns=draw(totals), kernel_true_total_ns=draw(totals),
        kernel_invocations=draw(totals), phase_busy_ns=draw(by_kind),
        phase_wall_ns=draw(by_kind),
        windows=sim_engine.WindowTable(*np.array(rows, dtype=np.int64).reshape(-1, 6).T),
        prompt_tokens=draw(nonnegative), output_tokens=draw(nonnegative))


@settings(max_examples=300, deadline=None)
@given(ground_truths())
@example(sim_engine.GroundTruth())
def test_sidecar_matches_reference_dumps(truth):
    """Any valid ground truth, int64 extremes, walls past 2**53 (where a
    float division would round twice) and non-ASCII names included."""
    expected = json.dumps(reference_ground_truth(truth), separators=(",", ":")) + "\n"
    assert sidecar_bytes(truth) == expected.encode()


@pytest.mark.parametrize("row", [
    (0, -1, -1, 0, 5, 1), (0, 0, -2, 0, 5, 1), (0, 0, -1, -1, 5, 1), (0, 0, -1, 0, 5, -1),
    (0, 0, -1, 3, 5, 3), (0, 0, -1, 6, 5, 0), (6, 0, -1, 0, 5, 1), (-1, 0, -1, 0, 5, 1),
], ids=["negative-turn", "token-below-null", "negative-start", "negative-busy",
        "busy-past-wall", "end-before-start", "kind-past-last", "negative-kind"])
def test_sidecar_writer_refuses_windows_before_opening(tmp_path, row):
    truth = sim_engine.GroundTruth(windows=sim_engine.WindowTable(*([v] for v in row)))
    with pytest.raises(ValueError, match="^a ground-truth window needs"):
        trace_io.write_ground_truth(truth, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
