import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmmk
from conftest import GOLDEN_DIR, build_trace, workload_dict
from lmmk import sim_engine, timeline, trace_io
from lmmk.cli import main
from lmmk.recorder import PhaseKind


def run_cli(*argv):
    return main(list(argv))


def decode_kernel(workload: dict) -> dict:
    return workload["phases"]["decode"]["kernels"][0]


@pytest.fixture()
def sim_trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    code = run_cli(
        "simulate", "--workload", "preset:gemma2-decode",
        "--prompt-tokens", "8", "--output-tokens", "16",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace_and_ground_truth(self, sim_trace_path):
        assert sim_trace_path.exists()
        sidecar = sim_trace_path.with_name(sim_trace_path.name + ".gt.json")
        assert sidecar.exists()
        truth = json.loads(sidecar.read_text())
        assert truth["output_tokens"] == 16
        trace = trace_io.read_jsonl(str(sim_trace_path))
        assert trace.output_tokens == 16

    def test_deterministic_outputs(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            assert run_cli(
                "simulate", "--workload", "preset:gemma2-decode",
                "--seed", "42", "--jitter", "0.02",
                "--output-tokens", "8", "--out", str(p),
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        flag_only = tmp_path / "flag.jsonl"
        env_set = tmp_path / "env.jsonl"
        assert run_cli(
            "simulate", "--workload", "preset:gemma2-decode", "--seed", "1",
            "--jitter", "0.05", "--output-tokens", "4", "--out", str(flag_only),
        ) == 0
        monkeypatch.setenv("LMMK_SEED", "2")
        assert run_cli(
            "simulate", "--workload", "preset:gemma2-decode", "--seed", "1",
            "--jitter", "0.05", "--output-tokens", "4", "--out", str(env_set),
        ) == 0
        assert flag_only.read_bytes() != env_set.read_bytes()

    def test_preset_sidecar_bytes_are_pinned(self, tmp_path):
        out = tmp_path / "t.jsonl"
        assert run_cli("simulate", "--workload", "preset:gemma2-decode", "--seed", "42",
                       "--jitter", "0.02", "--out", str(out)) == 0
        sidecar = (tmp_path / "t.jsonl.gt.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == (
            "1efa5ed12fbba00ae5db059e814c8b10de8b3ea6b1e589d36ff474c1a9396345")

    def test_duplicate_flag(self, tmp_path):
        out = tmp_path / "dup.jsonl"
        assert run_cli(
            "simulate", "--workload", "preset:gemma2-decode",
            "--output-tokens", "2", "--duplicate", "batch_decode_paged_kv:50",
            "--out", str(out),
        ) == 0
        trace = trace_io.read_jsonl(str(out))
        count = sum(1 for k in trace.kernels if k.name == "batch_decode_paged_kv")
        assert count == 2 * 51

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--workload", "preset:nope", "--out", str(tmp_path / "x.jsonl")
        )
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_unknown_duplicate_kernel(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--workload", "preset:gemma2-decode",
            "--duplicate", "absent:5", "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_workload_file(self, tmp_path):
        spec_path = tmp_path / "wl.json"
        spec_path.write_text(json.dumps(workload_dict(sim_engine.preset_gemma_decode())))
        assert run_cli(
            "simulate", "--workload", str(spec_path),
            "--output-tokens", "2", "--out", str(tmp_path / "t.jsonl"),
        ) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda d: decode_kernel(d).update(base_latency_ns=float("inf")),
         "field 'base_latency_ns' must be an int, got inf"),
        (lambda d: decode_kernel(d).update(name=5), "kernel name must be a non-empty str, got 5"),
        (lambda d: d["phases"]["sampling"].update(host_ns=1.5),
         "field 'host_ns' must be an int, got 1.5"),
        (lambda d: d["jitter"].update(sigma_rel=float("nan")),
         "sigma_rel must be finite and nonnegative, got nan"),
        (lambda d: decode_kernel(d).update(base_latency_ns=2**62),
         "overflows the simulated nanosecond timeline"),
    ], ids=["infinite-latency", "numeric-name", "fractional-host-ns", "nan-sigma",
            "timeline-overflow"])
    def test_workload_field_errors_are_usage_errors(self, tmp_path, capsys, edit, message):
        data = workload_dict(sim_engine.preset_gemma_decode())
        edit(data)
        spec_path = tmp_path / "wl.json"
        spec_path.write_text(json.dumps(data))
        out = tmp_path / "t.jsonl"
        assert run_cli("simulate", "--workload", str(spec_path), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_workload_file_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "wl.json"
        spec_path.write_text("[" * 100_000 + "]" * 100_000)
        code = run_cli("simulate", "--workload", str(spec_path), "--out", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert "malformed workload file: maximum recursion depth" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", '{"name":"x","phases":[1,2]}'])
    def test_workload_file_of_wrong_shape_is_usage_error(self, tmp_path, capsys, text):
        spec_path = tmp_path / "wl.json"
        spec_path.write_text(text)
        code = run_cli("simulate", "--workload", str(spec_path), "--out", str(tmp_path / "t.jsonl"))
        assert code == 2
        assert "malformed workload config" in capsys.readouterr().err


class TestAnalyze:
    def test_json_matches_library(self, sim_trace_path, capsys):
        assert run_cli("analyze", str(sim_trace_path)) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = trace_io.read_jsonl(str(sim_trace_path))
        span = timeline.kernel_span(trace)
        report = timeline.idle_gaps(trace, span)
        assert payload["idle"]["busy_ns"] == report.busy_ns
        assert payload["idle"]["idle_fraction"] == report.idle_fraction
        aggregates = {a["name"]: a for a in payload["aggregate"]}
        for agg in timeline.aggregate_kernels(trace):
            assert aggregates[agg.name]["count"] == agg.invocation_count
            assert aggregates[agg.name]["share"] == agg.share_of_busy
        assert payload["phases"]["decode"]["kernel_count"] == 16 * 12

    @pytest.mark.parametrize("args, golden", [
        ((), "analyze.json"),
        (("--report", "csv", "--idle"), "analyze.idle.csv"),
        (("--report", "csv", "--aggregate"), "analyze.aggregate.csv"),
        (("--report", "csv", "--phases"), "analyze.phases.csv"),
    ], ids=["json", "csv-idle", "csv-aggregate", "csv-phases"])
    def test_golden_trace_report_bytes(self, args, golden, tmp_path, capsys):
        out = tmp_path / golden
        argv = ("analyze", str(GOLDEN_DIR / "trace.jsonl"), *args)
        assert run_cli(*argv, "--out", str(out)) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_csv_aggregate_columns(self, sim_trace_path, tmp_path):
        out = tmp_path / "agg.csv"
        assert run_cli(
            "analyze", str(sim_trace_path), "--aggregate",
            "--report", "csv", "--out", str(out),
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "name,count,mean_ms,total_ms,share"

    def test_csv_without_out_goes_to_sys_stdout(self, sim_trace_path, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        argv = ("analyze", str(sim_trace_path), "--aggregate", "--report", "csv")
        assert run_cli(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_csv_on_stdout_appends_to_a_redirect(self, sim_trace_path, tmp_path):
        out = tmp_path / "idle.csv"
        argv = ["analyze", str(sim_trace_path), "--idle", "--report", "csv"]
        assert run_cli(*argv, "--out", str(out)) == 0
        log = tmp_path / "log.csv"
        log.write_text("earlier line\n")
        src = str(Path(lmmk.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        with open(log, "a") as f:  # what `lmmk ... >> log.csv` hands the process
            subprocess.run([sys.executable, "-m", "lmmk.cli", *argv], stdout=f, env=env,
                           check=True, timeout=60)
        assert log.read_text() == "earlier line\n" + out.read_text()

    def test_csv_needs_single_section(self, sim_trace_path, capsys):
        code = run_cli(
            "analyze", str(sim_trace_path), "--idle", "--aggregate", "--report", "csv"
        )
        assert code == 2

    def test_malformed_trace_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"ev":"session","version":1,"device_label":"x","clock_offset_ns":0}\n'
            '{"ev":"kernel","name":"k","queue":0,"t_cpu_enqueue_ns":0,'
            '"t_queued_ns":9,"t_submit_ns":5,"t_start_ns":9,"t_end_ns":9}\n'
        )
        assert run_cli("analyze", str(bad)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_trace_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(
            b'{"ev":"session","version":1,"device_label":"x","clock_offset_ns":0}\n'
            b'{"ev":"phase","kind":"\xff"}\n'
        )
        assert run_cli("analyze", str(bad)) == 1
        assert "line 2: invalid UTF-8" in capsys.readouterr().err

    def test_kernel_free_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        trace_io.write_jsonl(build_trace(phases=[(PhaseKind.PREFILL, 0, None, 0, 50)]), str(path))
        assert run_cli("analyze", str(path)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["idle"] == {
            "window_start_ns": 0, "window_end_ns": 0, "busy_ns": 0,
            "idle_ns": 0, "idle_fraction": 0.0, "gaps": [],
        }
        assert payload["aggregate"] == []
        assert payload["phases"] == {
            "prefill": {"wall_ms": 5e-05, "busy_ms": 0.0, "kernel_count": 0}
        }


def reference_analysis(trace, sections):
    """The text of ``lmmk analyze``: json.dumps(payload, indent=2) + LF,
    with the payload built here from the library calls."""
    payload = {}
    if "idle" in sections:
        span = timeline.kernel_span(trace) or timeline.Interval(0, 0)
        report = timeline.idle_gaps(trace, span)
        payload["idle"] = {
            "window_start_ns": report.window.start_ns, "window_end_ns": report.window.end_ns,
            "busy_ns": report.busy_ns, "idle_ns": report.idle_ns,
            "idle_fraction": report.idle_fraction,
            "gaps": [[g.start_ns, g.end_ns] for g in report.gaps],
        }
    if "aggregate" in sections:
        payload["aggregate"] = [
            {"name": a.name, "count": a.invocation_count, "mean_ms": a.mean_execution_ns / 1e6,
             "total_ms": a.total_execution_ns / 1e6, "share": a.share_of_busy}
            for a in timeline.aggregate_kernels(trace)
        ]
    if "phases" in sections:
        payload["phases"] = {
            getattr(key, "value", key): {"wall_ms": u.phase_wall_ns / 1e6,
                                         "busy_ms": u.device_busy_ns / 1e6,
                                         "kernel_count": u.kernel_count}
            for key, u in timeline.phase_attribution(trace).items()
        }
    return json.dumps(payload, indent=2) + "\n"


ANALYZE_TRACES = {  # name: (trace, its number of idle gaps)
    "no-gap": (lambda: build_trace(
        phases=[(PhaseKind.PREFILL, 0, None, 0, 50)],
        kernels=[("a", 0, 0, 0, 0, 0, 10), ("b", 0, 0, 1, 1, 10, 20)]), 0),
    # a name holding the text the gaps are spliced over, JSON-escaped in the output
    "one-gap": (lambda: build_trace(
        phases=[(PhaseKind.PREFILL, 0, None, 0, 50)],
        kernels=[('"gaps": []', 0, 0, 0, 0, 0, 10), ("b", 0, 0, 1, 1, 15, 20)]), 1),
    "many-gaps": (lambda: sim_engine.run(sim_engine.preset_gemma_decode(), 8, 16)[0], 113),
}


@pytest.mark.parametrize("flags", [[], ["--idle"], ["--aggregate"], ["--phases"]],
                         ids=["all", "idle", "aggregate", "phases"])
@pytest.mark.parametrize("name", ANALYZE_TRACES)
def test_analyze_json_is_indented_dumps(tmp_path, capsys, name, flags):
    """The gaps are spliced in rather than encoded with the rest; the text
    stays json.dumps(payload, indent=2), on stdout and in --out."""
    make_trace, gaps = ANALYZE_TRACES[name]
    trace = make_trace()
    assert len(timeline.idle_gaps(trace, timeline.kernel_span(trace)).gaps) == gaps
    path, out = tmp_path / "t.jsonl", tmp_path / "analysis.json"
    trace_io.write_jsonl(trace, str(path))
    want = reference_analysis(trace, [f[2:] for f in flags] or ["idle", "aggregate", "phases"])
    assert run_cli("analyze", str(path), *flags) == 0
    assert capsys.readouterr().out == want
    assert run_cli("analyze", str(path), *flags, "--out", str(out)) == 0
    assert out.read_text() == want


class TestMetrics:
    def test_accuracy_output_format(self, capsys):
        assert run_cli("metrics", "accuracy", "--lm", "0.8038", "--gt", "0.7763") == 0
        assert capsys.readouterr().out.strip() == "alpha=96.46 eps_star=35.424"

    def test_hq_equal_args(self, capsys):
        assert run_cli(
            "metrics", "hq", "--acc-q", "0.5", "--acc-f", "0.5",
            "--prefill-q", "10", "--prefill-f", "10",
            "--decode-q", "5", "--decode-f", "5",
        ) == 0
        assert capsys.readouterr().out.strip() == "hq=1.0000"

    def test_duplication(self, capsys):
        assert run_cli(
            "metrics", "duplication", "--base", "100", "--dup", "150", "--n", "50"
        ) == 0
        assert capsys.readouterr().out.strip() == "estimate_ms=1.0000"

    def test_nonpositive_denominator_is_usage_error(self, capsys):
        assert run_cli("metrics", "accuracy", "--lm", "1.0", "--gt", "0") == 2

    @pytest.mark.parametrize("argv, message", [
        (["accuracy", "--lm", "nan", "--gt", "1"], "t_lm_ms=nan must be finite and > 0"),
        (["accuracy", "--lm", "1", "--gt", "inf"], "t_gt_ms=inf must be finite and > 0"),
        (["accuracy", "--lm", "1", "--gt", "nan"], "t_gt_ms=nan must be finite and > 0"),
        (["duplication", "--base", "nan", "--dup", "1", "--n", "2"],
         "t_base_phase_ms=nan must be finite"),
        (["duplication", "--base", "1", "--dup", "inf", "--n", "2"],
         "t_dup_phase_ms=inf must be finite"),
        (["hq", "--acc-q", "nan", "--acc-f", "1", "--prefill-q", "1", "--prefill-f", "1",
          "--decode-q", "1", "--decode-f", "1"], "acc_quant=nan must be finite"),
        (["hq", "--acc-q", "1", "--acc-f", "1", "--prefill-q", "1", "--prefill-f=-inf",
          "--decode-q", "1", "--decode-f", "1"], "prefill_full_ms=-inf must be finite"),
    ], ids=["lm-nan", "gt-inf", "gt-nan", "base-nan", "dup-inf", "acc-q-nan",
            "prefill-f-minus-inf"])
    def test_non_finite_input_is_usage_error(self, capsys, argv, message):
        assert run_cli("metrics", *argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lmmk: error: {message}\n"


class TestSample:
    def test_full_fraction(self, tmp_path, capsys):
        lengths = tmp_path / "lengths.txt"
        lengths.write_text("\n".join(str(10 + i % 40) for i in range(200)) + "\n")
        assert run_cli("sample", "--lengths", str(lengths), "--fraction", "1.0") == 0
        assert "kl_nats=0.000000" in capsys.readouterr().out

    def test_benchmark_subset_size(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(6)
        lengths = tmp_path / "lengths.txt"
        lengths.write_text(
            "\n".join(str(int(x) + 1) for x in rng.lognormal(5, 0.5, 2380)) + "\n"
        )
        out = tmp_path / "plan.txt"
        assert run_cli(
            "sample", "--lengths", str(lengths), "--fraction", "0.1",
            "--seed", "0", "--out", str(out),
        ) == 0
        output = capsys.readouterr().out
        assert "size=238" in output
        assert len(out.read_text().splitlines()) == 239

    def test_fraction_out_of_range(self, tmp_path, capsys):
        lengths = tmp_path / "lengths.txt"
        lengths.write_text("5\n6\n")
        assert run_cli("sample", "--lengths", str(lengths), "--fraction", "2.0") == 2

    @pytest.mark.parametrize("bins", ["1", "-3"])
    def test_too_few_bins_is_usage_error(self, tmp_path, capsys, bins):
        lengths = tmp_path / "lengths.txt"
        lengths.write_text("5\n6\n")
        assert run_cli("sample", "--lengths", str(lengths), "--fraction", "0.5",
                       "--bins", bins) == 2
        assert capsys.readouterr().err == f"lmmk: error: --bins must be at least 2, got {bins}\n"

    def test_nonpositive_length_names_its_line(self, tmp_path, capsys):
        lengths = tmp_path / "lengths.txt"
        lengths.write_text("5\n0\n6\n")
        assert run_cli("sample", "--lengths", str(lengths), "--fraction", "0.5") == 1
        assert capsys.readouterr().err == (
            "lmmk: error: line 2: token length must be positive, got 0\n")


class TestPredict:
    def test_exact_linear_trace(self, sim_trace_path, capsys):
        assert run_cli(
            "predict", str(sim_trace_path),
            "--kernel", "batch_decode_paged_kv", "--train-steps", "8",
        ) == 0
        out = capsys.readouterr().out
        assert "mape=0.0000" in out
        assert "slope_ns_per_step=3500.0000" in out

    def test_absent_kernel_exit_1(self, sim_trace_path, capsys):
        assert run_cli("predict", str(sim_trace_path), "--kernel", "ghost") == 1

    @pytest.mark.parametrize("steps", ["-5", "0", "1"])
    def test_train_steps_below_two_is_usage_error(self, sim_trace_path, capsys, steps):
        assert run_cli("predict", str(sim_trace_path), "--kernel", "batch_decode_paged_kv",
                       "--train-steps", steps) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"lmmk: error: --train-steps must be at least 2, got {steps}\n"

    def test_two_train_steps_fit(self, sim_trace_path, capsys):
        assert run_cli("predict", str(sim_trace_path), "--kernel", "batch_decode_paged_kv",
                       "--train-steps", "2") == 0
        assert "slope_ns_per_step=3500.0000" in capsys.readouterr().out

    def test_insufficient_steps_exit_1(self, sim_trace_path):
        assert run_cli(
            "predict", str(sim_trace_path),
            "--kernel", "batch_decode_paged_kv", "--train-steps", "16",
        ) == 1


class TestExportAndCalibrate:
    def test_export(self, sim_trace_path, tmp_path):
        out = tmp_path / "viewer.json"
        assert run_cli("export", str(sim_trace_path), "--out", str(out)) == 0
        events = json.loads(out.read_text())["traceEvents"]
        trace = trace_io.read_jsonl(str(sim_trace_path))
        assert len(events) == len(trace.phases) + len(trace.kernels)

    def test_calibrate_json(self, capsys):
        assert run_cli("calibrate", "--iterations", "2000") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolution_ns"] >= 1
        assert payload["overhead_ns_median"] >= 0
        assert payload["iterations"] == 2000

    def test_calibrate_below_minimum(self, capsys):
        assert run_cli("calibrate", "--iterations", "10") == 2


def test_pipeline_output_does_not_depend_on_the_column_cache(tmp_path, capsys):
    """simulate -> analyze -> predict -> export, with the benchmark's
    arguments at 64 tokens: the commands print, write and exit the same
    whether they read the trace through its column cache or parse it."""
    runs = []
    for parse in (False, True):
        work = tmp_path / ("parsed" if parse else "cached")
        work.mkdir()
        trace = str(work / "trace.jsonl")
        outcome = []
        for argv in (
            ["simulate", "--workload", "preset:gemma2-decode", "--prompt-tokens", "8",
             "--output-tokens", "64", "--seed", "42", "--jitter", "0.02", "--out", trace],
            ["analyze", trace, "--out", str(work / "analysis.json")],
            ["predict", trace, "--kernel", "batch_decode_paged_kv", "--train-steps", "16"],
            ["export", trace, "--out", str(work / "trace.chrome.json")],
        ):
            code = run_cli(*argv)
            outcome.append((code, capsys.readouterr().out.replace(str(work), "WORK")))
            if parse and argv[0] == "simulate":
                os.remove(trace + ".cols")
        files = {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".cols"}
        runs.append((outcome, files))
    assert (tmp_path / "cached" / "trace.jsonl.cols").exists()
    assert sorted(runs[0][1]) == ["analysis.json", "trace.chrome.json", "trace.jsonl",
                                  "trace.jsonl.gt.json"]
    assert runs[0] == runs[1]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


SIMULATE = ("simulate", "--workload", "preset:gemma2-decode", "--output-tokens", "2")
UNALIGNED = "{tmp}/unaligned.jsonl"


@pytest.fixture()
def failure_files(tmp_path):
    """The inputs the failure-path table names, under ``tmp_path``."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "two.txt").write_text("5\n6\n")
    (tmp_path / "huge.txt").write_text(f"{2**53}\n")
    (tmp_path / "huge-pair.txt").write_text(f"{2**53}\n{2**53 + 1}\n")
    (tmp_path / "past-float.txt").write_text(f"5\n{10**400}\n")
    (tmp_path / "not-utf-8.txt").write_bytes(b"12\n\xff\n")
    (tmp_path / "malformed.jsonl").write_text("not a trace\n")
    kernel = ("k", 0, 0, 10, 10, 10, 20)
    trace_io.write_jsonl(build_trace([kernel], [(PhaseKind.PREFILL, 0, None, 0, 50)],
                                     clock_offset_ns=None), str(tmp_path / "unaligned.jsonl"))
    trace_io.write_jsonl(build_trace(phases=[(PhaseKind.PREFILL, 0, None, 0, 50)]),
                         str(tmp_path / "kernel-free.jsonl"))
    return tmp_path


# argv, environment, exit code, error message; {tmp} is the fixture's directory
FAILURES = {
    "seed-not-int": (
        (*SIMULATE, "--out", "{tmp}/t.jsonl"), {"LMMK_SEED": "abc"}, 2,
        "LMMK_SEED must be an integer, got 'abc'"),
    "seed-plus": (
        (*SIMULATE, "--out", "{tmp}/t.jsonl"), {"LMMK_SEED": "+5"}, 2,
        "LMMK_SEED must be an integer, got '+5'"),
    "workload-missing": (
        ("simulate", "--workload", "{tmp}/missing.json", "--out", "{tmp}/t.jsonl"), {}, 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    "duplicate-no-count": (
        (*SIMULATE, "--duplicate", "k", "--out", "{tmp}/t.jsonl"), {}, 2,
        "--duplicate expects KERNEL:N, got 'k'"),
    "duplicate-plus-underscore": (
        (*SIMULATE, "--duplicate", "batch_decode_paged_kv:+1_0", "--out", "{tmp}/t.jsonl"), {}, 2,
        "invalid literal for int() with base 10: '+1_0'"),
    "duplicate-space": (
        (*SIMULATE, "--duplicate", "batch_decode_paged_kv: 3", "--out", "{tmp}/t.jsonl"), {}, 2,
        "invalid literal for int() with base 10: ' 3'"),
    "duplicate-zero": (
        (*SIMULATE, "--duplicate", "K:0", "--out", "{tmp}/t.jsonl"), {}, 2,
        "duplication count must be at least 1"),
    "duplicate-ghost": (
        (*SIMULATE, "--duplicate", "ghost:3", "--out", "{tmp}/t.jsonl"), {}, 2,
        "kernel 'ghost' is not in workload 'gemma2-decode'"),
    "duplicate-past-row-limit": (
        (*SIMULATE, "--duplicate", "batch_decode_paged_kv:100000000", "--out", "{tmp}/t.jsonl"),
        {}, 2, "the run needs 200000041 kernel rows, past the 16777216-row limit"),
    "output-tokens-past-row-limit": (
        ("simulate", "--workload", "preset:gemma2-decode", "--output-tokens", "400000000",
         "--out", "{tmp}/t.jsonl"), {}, 2,
        "the run needs 6000000011 kernel rows, past the 16777216-row limit"),
    "output-tokens-zero": (
        (*SIMULATE, "--output-tokens", "0", "--out", "{tmp}/t.jsonl"), {}, 2,
        "prompt_tokens and output_tokens must be at least 1"),
    "jitter-negative": (
        (*SIMULATE, "--jitter", "-1", "--out", "{tmp}/t.jsonl"), {}, 2,
        "sigma_rel must be finite and nonnegative, got -1.0"),
    "jitter-past-the-floats": (
        (*SIMULATE, "--jitter", "1e308", "--out", "{tmp}/t.jsonl"), {}, 2,
        "workload 'gemma2-decode' overflows the simulated nanosecond timeline (math range error)"),
    "simulate-out-dir": (
        (*SIMULATE, "--out", "{tmp}/dir"), {}, 1, "[Errno 21] Is a directory: '{tmp}/dir'"),
    "export-out-dir": (
        ("export", "{tmp}/kernel-free.jsonl", "--out", "{tmp}/dir"), {}, 1,
        "[Errno 21] Is a directory: '{tmp}/dir'"),
    "lengths-missing": (
        ("sample", "--lengths", "{tmp}/missing.txt", "--fraction", "0.5"), {}, 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.txt'"),
    "lengths-empty": (
        ("sample", "--lengths", "{tmp}/empty.txt", "--fraction", "0.5"), {}, 1,
        "no token lengths supplied"),
    "lengths-2**53": (
        ("sample", "--lengths", "{tmp}/huge.txt", "--fraction", "0.5"), {}, 1,
        "bin edges must be strictly increasing"),
    "lengths-2**53+1": (
        ("sample", "--lengths", "{tmp}/huge-pair.txt", "--fraction", "0.5"), {}, 1,
        "bin edges must be strictly increasing"),
    "lengths-past-float": (
        ("sample", "--lengths", "{tmp}/past-float.txt", "--fraction", "0.5"), {}, 1,
        "token lengths must fit a float"),
    "lengths-not-utf-8": (
        ("sample", "--lengths", "{tmp}/not-utf-8.txt", "--fraction", "0.5"), {}, 1,
        "line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "fraction-selects-nothing": (
        ("sample", "--lengths", "{tmp}/two.txt", "--fraction", "0.1"), {}, 2,
        "fraction=0.1 selects no items from 2"),
    "bins-one": (
        ("sample", "--lengths", "{tmp}/two.txt", "--fraction", "0.5", "--bins", "1"), {}, 2,
        "--bins must be at least 2, got 1"),
    "analyze-unaligned": (
        ("analyze", UNALIGNED, "--phases"), {}, 1,
        "clocks unaligned: mapping device timestamps into the host domain needs a clock offset"),
    "predict-unaligned": (
        ("predict", UNALIGNED, "--kernel", "k"), {}, 1,
        "clocks unaligned: mapping device timestamps into the host domain needs a clock offset"),
    "analyze-trace-missing": (
        ("analyze", "{tmp}/missing.jsonl"), {}, 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.jsonl'"),
    "predict-trace-missing": (
        ("predict", "{tmp}/missing.jsonl", "--kernel", "k"), {}, 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.jsonl'"),
    "export-trace-missing": (
        ("export", "{tmp}/missing.jsonl", "--out", "{tmp}/v.json"), {}, 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.jsonl'"),
    "csv-two-sections": (
        ("analyze", UNALIGNED, "--idle", "--aggregate", "--report", "csv"), {}, 2,
        "--report csv needs exactly one of --idle/--aggregate/--phases"),
    "csv-trace-missing": (
        ("analyze", "{tmp}/missing.jsonl", "--report", "csv"), {}, 2,
        "--report csv needs exactly one of --idle/--aggregate/--phases"),
    "csv-trace-malformed": (
        ("analyze", "{tmp}/malformed.jsonl", "--idle", "--phases", "--report", "csv"), {}, 2,
        "--report csv needs exactly one of --idle/--aggregate/--phases"),
    "csv-nothing-to-report": (
        ("analyze", "{tmp}/kernel-free.jsonl", "--aggregate", "--report", "csv"), {}, 1,
        "nothing to report"),
    "train-steps-one": (
        ("predict", UNALIGNED, "--kernel", "k", "--train-steps", "1"), {}, 2,
        "--train-steps must be at least 2, got 1"),
    "iterations-low": (
        ("calibrate", "--iterations", "10"), {}, 2, "--iterations must be at least 1000"),
    "dup-below-base": (
        ("metrics", "duplication", "--base", "2", "--dup", "1", "--n", "2"), {}, 2,
        "duplicated phase was faster than baseline; measurement noise exceeds signal"),
    "dup-n-zero": (
        ("metrics", "duplication", "--base", "1", "--dup", "2", "--n", "0"), {}, 2,
        "n must be at least 1"),
    "hq-acc-q-zero": (
        ("metrics", "hq", "--acc-q", "0", "--acc-f", "1", "--prefill-q", "1", "--prefill-f",
         "1", "--decode-q", "1", "--decode-f", "1"), {}, 2, "m_a=0.0 must be finite and > 0"),
}


@pytest.mark.parametrize("argv, env, code, message", FAILURES.values(), ids=FAILURES.keys())
def test_failure_exit_code_and_stderr(failure_files, capsys, monkeypatch, argv, env, code,
                                      message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    tmp = str(failure_files)
    assert run_cli(*(arg.format(tmp=tmp) for arg in argv)) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lmmk: error: {message.format(tmp=tmp)}\n"
    assert not list(failure_files.glob("t.jsonl*"))  # a failed simulate writes no file


BAD_OUT = {"directory": "dir", "missing-directory": "missing/out", "file-as-directory":
           "two.txt/out"}
OUT_COMMANDS = {
    "simulate": (*SIMULATE, "--out", "{out}"),
    "analyze": ("analyze", "{tmp}/kernel-free.jsonl", "--out", "{out}"),
    "export": ("export", "{tmp}/kernel-free.jsonl", "--out", "{out}"),
    "sample": ("sample", "--lengths", "{tmp}/two.txt", "--fraction", "0.5", "--out", "{out}"),
}


@pytest.mark.parametrize("bad", BAD_OUT.values(), ids=BAD_OUT.keys())
@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_bad_out_fails_before_any_work(failure_files, capsys, monkeypatch, argv, bad):
    """A bad --out exits 1 with the error open() gives, before the command
    simulates or reads anything."""
    def never(*_args, **_kwargs):
        raise AssertionError("the command did work before checking --out")
    for module, name in [(sim_engine, "run"), (trace_io, "read_jsonl"),
                         (lmmk.sampler, "read_lengths_file")]:
        monkeypatch.setattr(module, name, never)
    tmp, out = str(failure_files), str(failure_files / bad)
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert run_cli(*(arg.format(tmp=tmp, out=out) for arg in argv)) == 1
    assert capsys.readouterr().err == f"lmmk: error: {opened.value}\n"


@pytest.mark.parametrize("argv", [
    ("analyze", "{tmp}/malformed.jsonl", "--out", "{out}"),
    ("analyze", "{tmp}/kernel-free.jsonl", "--aggregate", "--report", "csv", "--out", "{out}"),
    ("export", "{tmp}/malformed.jsonl", "--out", "{out}"),
    ("simulate", "--workload", "{tmp}/missing.json", "--out", "{out}"),
    ("sample", "--lengths", "{tmp}/empty.txt", "--fraction", "0.5", "--out", "{out}"),
], ids=["analyze-malformed", "analyze-nothing-to-report", "export-malformed",
        "simulate-missing-workload", "sample-empty"])
@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_failed_command_leaves_out_as_it_was(failure_files, argv, exists):
    tmp, out = str(failure_files), failure_files / "out.txt"
    if exists:
        out.write_text("earlier output\n")
    assert run_cli(*(arg.format(tmp=tmp, out=out) for arg in argv)) != 0
    assert {p.name: p.read_text() for p in failure_files.glob("out.txt*")} == (
        {"out.txt": "earlier output\n"} if exists else {})
