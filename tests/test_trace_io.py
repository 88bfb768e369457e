import io
import json
import re

import pytest

from conftest import GOLDEN_DIR, build_trace, golden_trace, metric_report_rows
from lmmk import trace_io
from lmmk.cli import main
from lmmk.errors import ParseError, TimestampOrderViolation, UnknownVersion


class TestJsonl:
    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        trace_io.write_jsonl(build_trace(), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["ev"] == "session"

    def test_line_count(self, tmp_path):
        trace = golden_trace()
        path = tmp_path / "t.jsonl"
        trace_io.write_jsonl(trace, str(path))
        assert len(path.read_text().splitlines()) == 1 + len(trace.phases) + len(trace.kernels)

    def test_round_trip_field_for_field(self, tmp_path):
        trace = golden_trace()
        path = tmp_path / "t.jsonl"
        trace_io.write_jsonl(trace, str(path))
        loaded = trace_io.read_jsonl(str(path))
        assert loaded == trace
        assert loaded.phases == trace.phases
        assert loaded.kernels == trace.kernels
        assert loaded.clock_offset_ns == trace.clock_offset_ns
        assert (loaded.prompt_tokens, loaded.output_tokens) == (4, 1)

    def test_round_trip_simulator_trace(self, tmp_path, preset_run_16):
        trace, _ = preset_run_16
        path = tmp_path / "sim.jsonl"
        trace_io.write_jsonl(trace, str(path))
        assert trace_io.read_jsonl(str(path)) == trace

    def test_matches_golden_bytes(self, tmp_path):
        path = tmp_path / "regen.jsonl"
        trace_io.write_jsonl(golden_trace(), str(path))
        assert path.read_bytes() == (GOLDEN_DIR / "trace.jsonl").read_bytes()

    def test_unaligned_offset_round_trips_as_null(self, tmp_path):
        trace = build_trace(kernels=[("k", 0, 0, 1, 2, 3, 4)], clock_offset_ns=None)
        path = tmp_path / "t.jsonl"
        trace_io.write_jsonl(trace, str(path))
        assert '"clock_offset_ns":null' in path.read_text()
        assert trace_io.read_jsonl(str(path)).clock_offset_ns is None

    def test_patterns_use_no_syntax_newer_than_python_3_10(self):
        """pyproject allows Python 3.10, whose ``re`` rejects possessive
        repeats and atomic groups (``multiple repeat`` at import)."""
        parser = getattr(re, "_parser", None)
        if parser is None:
            pytest.skip("on Python 3.10 importing trace_io already checks this")

        def opcodes(node):
            if isinstance(node, (list, tuple, parser.SubPattern)):
                for item in node:
                    yield from opcodes(item)
            elif hasattr(node, "name"):
                yield node.name

        patterns = [v for v in vars(trace_io).values() if isinstance(v, re.Pattern)]
        assert len(patterns) == 2
        for pattern in patterns:
            used = set(opcodes(parser.parse(pattern.pattern)))
            assert not used & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}, pattern.pattern


class TestReadErrors:
    def header(self):
        return '{"ev":"session","version":1,"device_label":"x","clock_offset_ns":0}'

    def test_submit_before_queued_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        bad = ('{"ev":"kernel","name":"k","queue":0,"t_cpu_enqueue_ns":0,'
               '"t_queued_ns":110,"t_submit_ns":100,"t_start_ns":120,"t_end_ns":130}')
        path.write_text(self.header() + "\n" + bad + "\n")
        with pytest.raises(TimestampOrderViolation, match="line 2"):
            trace_io.read_jsonl(str(path))

    def test_truncated_line_names_line(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text(self.header() + '\n{"ev":"kernel","name":"k","queue":0')
        with pytest.raises(ParseError, match="line 2"):
            trace_io.read_jsonl(str(path))

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.jsonl"
        path.write_text('{"ev":"session","version":9}\n')
        with pytest.raises(UnknownVersion):
            trace_io.read_jsonl(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        with pytest.raises(ParseError):
            trace_io.read_jsonl(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text('{"ev":"phase","kind":"decode","turn":0,"token":0,'
                        '"t_start_ns":0,"t_end_ns":1}\n')
        with pytest.raises(ParseError):
            trace_io.read_jsonl(str(path))

    def test_overlapping_phases_rejected(self, tmp_path):
        path = tmp_path / "overlap.jsonl"
        lines = [
            self.header(),
            '{"ev":"phase","kind":"decode","turn":0,"token":0,"t_start_ns":0,"t_end_ns":100}',
            '{"ev":"phase","kind":"softmax","turn":0,"token":0,"t_start_ns":50,"t_end_ns":150}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="overlap"):
            trace_io.read_jsonl(str(path))

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "field.jsonl"
        path.write_text(
            self.header()
            + '\n{"ev":"phase","kind":"decode","turn":0,"token":0,"t_start_ns":5}\n'
        )
        with pytest.raises(ParseError, match="line 2"):
            trace_io.read_jsonl(str(path))

    def test_leading_blank_lines_before_header(self, tmp_path):
        src = tmp_path / "t.jsonl"
        trace_io.write_jsonl(golden_trace(), str(src))
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \n" + src.read_text())
        assert trace_io.read_jsonl(str(path)) == golden_trace()

    def test_header_errors_name_the_header_line(self, tmp_path):
        path = tmp_path / "offset.jsonl"
        path.write_text('\n{"ev":"session","version":1,"clock_offset_ns":"x"}\n')
        message = "line 2: Trace.clock_offset_ns must be an int or None, got 'x'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            trace_io.read_jsonl(str(path))

    @pytest.mark.parametrize("key", ["clock_offset_ns", "prompt_tokens", "output_tokens"])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_header_integers_outside_int64_name_the_header_line(
        self, tmp_path, capsys, key, value
    ):
        path = tmp_path / "range.jsonl"
        header = {"ev": "session", "version": 1, "clock_offset_ns": 0, key: value}
        path.write_text("\n" + json.dumps(header) + "\n")
        message = f"line 2: Trace.{key} out of int64 range, got {value}"
        with pytest.raises(ParseError, match=f"^{message}$"):
            trace_io.read_jsonl(str(path))
        assert main(["analyze", str(path)]) == 1
        assert f"lmmk: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63)])
    def test_header_integers_at_the_int64_limits_are_kept(self, tmp_path, value):
        path = tmp_path / "edge.jsonl"
        header = {"ev": "session", "version": 1, "clock_offset_ns": value,
                  "prompt_tokens": value, "output_tokens": value}
        path.write_text(json.dumps(header) + "\n")
        trace = trace_io.read_jsonl(str(path))
        assert trace.clock_offset_ns == trace.prompt_tokens == trace.output_tokens == value

    def test_repeated_header_names_its_line(self, tmp_path):
        path = tmp_path / "twice.jsonl"
        phase = '{"ev":"phase","kind":"embedding","turn":0,"token":null,"t_start_ns":0,"t_end_ns":1}'
        path.write_text("\n".join(["", self.header(), phase, self.header()]) + "\n")
        with pytest.raises(ParseError, match=r"^line 4: repeated session header \(first on line 2\)"):
            trace_io.read_jsonl(str(path))

    def test_float_timestamp_rejected(self, tmp_path):
        path = tmp_path / "float.jsonl"
        bad = ('{"ev":"kernel","name":"k","queue":0,"t_cpu_enqueue_ns":0,'
               '"t_queued_ns":1.5,"t_submit_ns":2,"t_start_ns":3,"t_end_ns":4}')
        path.write_text(self.header() + "\n" + bad + "\n")
        with pytest.raises(ParseError, match="line 2"):
            trace_io.read_jsonl(str(path))


class TestChromeExport:
    def test_unit_conversion(self, tmp_path):
        trace = build_trace(kernels=[("k", 0, 1000, 1000, 1000, 1000, 3000)])
        path = tmp_path / "c.json"
        trace_io.export_chrome_trace(trace, str(path))
        (event,) = json.loads(path.read_text())["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 1.0
        assert event["dur"] == 2.0
        assert event["tid"] == 1
        assert event["pid"] == 1

    def test_empty(self, tmp_path):
        path = tmp_path / "c.json"
        trace_io.export_chrome_trace(build_trace(), str(path))
        assert json.loads(path.read_text()) == {"traceEvents": []}

    def test_interval_multiset_round_trip(self, tmp_path, preset_run_16):
        trace, _ = preset_run_16
        path = tmp_path / "c.json"
        trace_io.export_chrome_trace(trace, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        exported = sorted(
            (round(e["ts"] * 1000), round((e["ts"] + e["dur"]) * 1000))
            for e in events
            if e["cat"] == "kernel"
        )
        source = sorted((k.t_start_ns, k.t_end_ns) for k in trace.kernels)
        assert exported == source

    def test_lifecycle_args_in_microseconds(self, tmp_path):
        trace = build_trace(kernels=[("k", 0, 0, 100, 600, 1_350, 2_000)])
        path = tmp_path / "c.json"
        trace_io.export_chrome_trace(trace, str(path))
        (event,) = json.loads(path.read_text())["traceEvents"]
        assert event["args"]["queuing_us"] == 0.5
        assert event["args"]["dispatch_us"] == 0.75

    def test_matches_golden_bytes(self, tmp_path):
        path = tmp_path / "regen.json"
        trace_io.export_chrome_trace(golden_trace(), str(path))
        assert path.read_bytes() == (GOLDEN_DIR / "trace.chrome.json").read_bytes()


class TestCsvReport:
    def test_rounding_rules(self):
        assert trace_io.format_cell("alpha", 96.458213) == "96.46"
        assert trace_io.format_cell("eps_star", 35.41177) == "35.412"
        assert trace_io.format_cell("lm_ms", 0.8038) == "0.8038"
        assert trace_io.format_cell("gt_ms", 3433.81424) == "3433.8142"
        assert trace_io.format_cell("model", "Gemma") == "Gemma"

    def test_heterogeneous_rows_rejected(self):
        with pytest.raises(ValueError):
            trace_io.csv_report([{"a": 1}, {"b": 2}])

    def test_metric_report_matches_golden_bytes(self, phase_pairs):
        text = trace_io.csv_report(metric_report_rows(phase_pairs))
        assert text.encode() == (GOLDEN_DIR / "metric_report.csv").read_bytes()

    def test_report_values_within_published_tolerance(self, phase_pairs):
        import csv as csv_mod

        text = trace_io.csv_report(metric_report_rows(phase_pairs))
        rows = list(csv_mod.DictReader(io.StringIO(text)))
        by_key = {(r["model"], r["phase"]): r for r in rows}
        for row in phase_pairs:
            got = by_key[(row["model"], row["phase"])]
            assert abs(float(got["alpha"]) - row["alpha"]) <= 0.15
            assert abs(float(got["eps_star"]) - row["eps_star"]) <= 1.5
