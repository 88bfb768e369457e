import json

import pytest

from conftest import build_trace
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
        sim_engine.save_workload(sim_engine.preset_gemma_decode(), str(spec_path))
        assert run_cli(
            "simulate", "--workload", str(spec_path),
            "--output-tokens", "2", "--out", str(tmp_path / "t.jsonl"),
        ) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda d: decode_kernel(d).update(base_latency_ns=float("inf")),
         "field 'base_latency_ns' must be an integer within int64, got inf"),
        (lambda d: decode_kernel(d).update(name=5), "field 'name' must be a string, got 5"),
        (lambda d: d["phases"]["sampling"].update(host_ns=1.5),
         "field 'host_ns' must be an integer within int64, got 1.5"),
        (lambda d: d["jitter"].update(sigma_rel=float("nan")),
         "sigma_rel must be finite and nonnegative, got nan"),
        (lambda d: decode_kernel(d).update(base_latency_ns=2**62),
         "overflows the simulated nanosecond timeline"),
    ], ids=["infinite-latency", "numeric-name", "fractional-host-ns", "nan-sigma",
            "timeline-overflow"])
    def test_workload_field_errors_are_usage_errors(self, tmp_path, capsys, edit, message):
        data = sim_engine.workload_to_dict(sim_engine.preset_gemma_decode())
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

    def test_csv_aggregate_columns(self, sim_trace_path, tmp_path):
        out = tmp_path / "agg.csv"
        assert run_cli(
            "analyze", str(sim_trace_path), "--aggregate",
            "--report", "csv", "--out", str(out),
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "name,count,mean_ms,total_ms,share"

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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
