import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_kernel_workload
from lmmk import sim_engine, timeline, trace_io
from lmmk.errors import InvalidSpec, LmmkError, UnknownKernel
from lmmk.recorder import PhaseKind
from lmmk.sim_engine import (
    DuplicationPlan,
    JitterModel,
    KernelSpec,
    PhaseScript,
    WorkloadSpec,
    preset_gemma_decode,
)


class TestRun:
    def test_single_decode_kernel_exact_durations(self):
        spec = single_kernel_workload(base_latency_ns=1_000_000)
        trace, truth = sim_engine.run(spec, prompt_tokens=4, output_tokens=3)
        durations = [
            k.execution_ns for k in trace.kernels if k.name == "uniform_matmul"
        ]
        assert durations == [1_000_000, 1_000_000, 1_000_000]
        assert truth.kernel_invocations["uniform_matmul"] == 3

    def test_phase_sequence(self):
        spec = single_kernel_workload()
        trace, _ = sim_engine.run(spec, 2, 2)
        kinds = [p.kind for p in trace.phases]
        per_token = [
            PhaseKind.DECODE,
            PhaseKind.SOFTMAX,
            PhaseKind.COPY_PROBS_TO_CPU,
            PhaseKind.SAMPLING,
        ]
        assert kinds == [PhaseKind.EMBEDDING, PhaseKind.PREFILL] + per_token * 2
        assert trace.prompt_tokens == 2
        assert trace.output_tokens == 2

    def test_deterministic_with_seed(self, tmp_path):
        spec = single_kernel_workload(seed=42, sigma_rel=0.05)
        trace_a, _ = sim_engine.run(spec, 4, 5)
        trace_b, _ = sim_engine.run(spec, 4, 5)
        assert trace_a == trace_b
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace_io.write_jsonl(trace_a, str(path_a))
        trace_io.write_jsonl(trace_b, str(path_b))
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_different_seeds_differ(self):
        trace_a, _ = sim_engine.run(single_kernel_workload(seed=1, sigma_rel=0.05), 4, 5)
        trace_b, _ = sim_engine.run(single_kernel_workload(seed=2, sigma_rel=0.05), 4, 5)
        assert trace_a != trace_b

    def test_missing_phase_script_rejected(self):
        spec = single_kernel_workload()
        scripts = dict(spec.scripts)
        del scripts[PhaseKind.SOFTMAX]
        broken = dataclasses.replace(spec, scripts=scripts)
        with pytest.raises(InvalidSpec):
            sim_engine.run(broken, 1, 1)

    def test_empty_decode_script_rejected(self):
        spec = single_kernel_workload()
        scripts = dict(spec.scripts)
        scripts[PhaseKind.DECODE] = PhaseScript(kind=PhaseKind.DECODE)
        with pytest.raises(InvalidSpec):
            sim_engine.run(dataclasses.replace(spec, scripts=scripts), 1, 1)

    def test_token_counts_validated(self):
        with pytest.raises(ValueError):
            sim_engine.run(single_kernel_workload(), 0, 1)

    def test_slope_realization(self):
        spec = single_kernel_workload(per_step_slope_ns=2_000)
        trace, _ = sim_engine.run(spec, 1, 8)
        durations = [
            k.execution_ns for k in trace.kernels if k.name == "uniform_matmul"
        ]
        for s1 in range(8):
            for s2 in range(s1 + 1, 8):
                assert durations[s2] - durations[s1] == 2_000 * (s2 - s1)


class TestGroundTruthConsistency:
    def test_window_conservation(self, preset_run_16):
        trace, truth = preset_run_16
        for w in truth.windows:
            report = timeline.idle_gaps(trace, timeline.Interval(w.start_ns, w.end_ns))
            assert report.busy_ns + report.idle_ns == w.wall_ns
            assert report.busy_ns == w.busy_ns
            assert report.idle_ns == w.idle_ns

    def test_phase_busy_matches_attribution(self, preset_run_16):
        trace, truth = preset_run_16
        attribution = timeline.phase_attribution(trace)
        assert timeline.UNATTRIBUTED not in attribution
        for kind, busy in truth.phase_busy_ns.items():
            assert attribution[kind].device_busy_ns == busy
            assert attribution[kind].phase_wall_ns == truth.phase_wall_ns[kind]

    def test_kernel_totals_match_aggregation(self, preset_run_16):
        trace, truth = preset_run_16
        for agg in timeline.aggregate_kernels(trace):
            assert agg.total_execution_ns == truth.kernel_total_ns[agg.name]
            assert agg.invocation_count == truth.kernel_invocations[agg.name]
            assert agg.mean_execution_ns == truth.kernel_mean_ns(agg.name)

    def test_jitter_off_realized_equals_true(self, preset_run_16):
        _, truth = preset_run_16
        assert truth.kernel_total_ns == truth.kernel_true_total_ns


class TestDuplication:
    def test_phase_total_arithmetic(self):
        # Jitter off: duplicating the only decode kernel n times grows the
        # decode wall by exactly n * L per invocation.
        spec = single_kernel_workload(base_latency_ns=400_000)
        base_trace, base_truth = sim_engine.run(spec, 1, 2)
        plan = DuplicationPlan(kernel_name="uniform_matmul", n=50)
        dup_trace, dup_truth = sim_engine.run_with_duplication(spec, plan, 1, 2)
        base_wall = base_truth.phase_wall_ns[PhaseKind.DECODE]
        dup_wall = dup_truth.phase_wall_ns[PhaseKind.DECODE]
        assert dup_wall - base_wall == 50 * 400_000 * 2
        assert dup_truth.kernel_invocations["uniform_matmul"] == 2 * 51

    def test_duplicates_are_back_to_back(self):
        spec = single_kernel_workload(base_latency_ns=100_000)
        plan = DuplicationPlan(kernel_name="uniform_matmul", n=3)
        trace, _ = sim_engine.run_with_duplication(spec, plan, 1, 1)
        runs = [k for k in trace.kernels if k.name == "uniform_matmul"]
        assert len(runs) == 4
        for prev, cur in zip(runs, runs[1:]):
            assert cur.t_start_ns == prev.t_end_ns

    def test_unknown_kernel(self):
        spec = single_kernel_workload()
        with pytest.raises(UnknownKernel):
            sim_engine.run_with_duplication(
                spec, DuplicationPlan(kernel_name="absent", n=50), 1, 1
            )

    def test_estimator_consistency_under_jitter(self):
        # (T_dup - T) / n recovers the true latency within 3% at n=1000
        # despite 2% multiplicative jitter.
        true_ns = 250_000
        base_spec = single_kernel_workload(
            base_latency_ns=true_ns, seed=11, sigma_rel=0.02
        )
        _, base_truth = sim_engine.run(base_spec, 1, 1)
        dup_spec = single_kernel_workload(
            base_latency_ns=true_ns, seed=12, sigma_rel=0.02
        )
        plan = DuplicationPlan(kernel_name="uniform_matmul", n=1000)
        _, dup_truth = sim_engine.run_with_duplication(dup_spec, plan, 1, 1)
        t_base = base_truth.phase_wall_ns[PhaseKind.DECODE]
        t_dup = dup_truth.phase_wall_ns[PhaseKind.DECODE]
        estimate = (t_dup - t_base) / 1000
        assert abs(estimate - true_ns) / true_ns <= 0.03


class TestPreset:
    def test_paged_kv_latency_at_step_250(self, preset_run_256):
        trace, _ = preset_run_256
        at_250 = [
            k.execution_ns
            for k in trace.kernels
            if k.name == sim_engine.PAGED_KV_KERNEL
        ][250]
        assert abs(at_250 - 900_000) / 900_000 <= 0.10

    def test_step0_idle_fraction(self, preset_run_16):
        _, truth = preset_run_16
        step0 = truth.decode_windows()[0]
        assert abs(step0.idle_fraction - 0.21) <= 0.02

    def test_gemm_trio_share(self, preset_run_16):
        trace, truth = preset_run_16
        step0 = truth.decode_windows()[0]
        window = timeline.Interval(step0.start_ns, step0.end_ns)
        aggregates = timeline.aggregate_kernels(trace, window)
        trio = sum(
            a.share_of_busy for a in aggregates if a.name in sim_engine.GEMM_TRIO
        )
        assert trio > 0.60

    def test_idle_share_drops_with_longer_outputs(self, preset_run_16, preset_run_256):
        def decode_idle_share(truth):
            windows = truth.decode_windows()
            return sum(w.idle_ns for w in windows) / sum(w.wall_ns for w in windows)

        assert abs(decode_idle_share(preset_run_16[1]) - 0.21) <= 0.02
        assert abs(decode_idle_share(preset_run_256[1]) - 0.12) <= 0.02

    def test_sampling_phase_is_host_only(self, preset_run_16):
        trace, truth = preset_run_16
        sampling = [w for w in truth.windows if w.kind is PhaseKind.SAMPLING]
        assert sampling and all(w.busy_ns == 0 for w in sampling)
        assert all(50_000 <= w.wall_ns <= 80_000 for w in sampling)


class TestWorkloadConfig:
    def test_round_trip(self, tmp_path):
        spec = preset_gemma_decode().with_jitter(seed=9, sigma_rel=0.01)
        path = tmp_path / "workload.json"
        sim_engine.save_workload(spec, str(path))
        loaded = sim_engine.load_workload(str(path))
        assert loaded == spec
        trace_a, _ = sim_engine.run(spec, 2, 3)
        trace_b, _ = sim_engine.run(loaded, 2, 3)
        assert trace_a == trace_b

    def test_missing_phase_rejected(self, tmp_path):
        data = sim_engine.workload_to_dict(preset_gemma_decode())
        del data["phases"]["softmax"]
        import json

        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidSpec):
            sim_engine.load_workload(str(path))

    def test_malformed_kernel_rejected(self):
        data = sim_engine.workload_to_dict(preset_gemma_decode())
        del data["phases"]["decode"]["kernels"][0]["base_latency_ns"]
        with pytest.raises(InvalidSpec):
            sim_engine.workload_from_dict(data)


def test_session_must_use_virtual_clock():
    from lmmk.recorder import TraceSession

    with pytest.raises(TypeError):
        sim_engine.run(single_kernel_workload(), 1, 1, session=TraceSession())


def test_jitter_model_validation():
    with pytest.raises(ValueError):
        JitterModel(sigma_rel=-0.1)
    with pytest.raises(ValueError):
        KernelSpec("k", base_latency_ns=0)
    with pytest.raises(ValueError):
        DuplicationPlan(kernel_name="k", n=0)


# -- workload loader fuzz -----------------------------------------------------

json_leaves = (
    st.none() | st.booleans() | st.integers(-2**64, 2**64)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6)
    | st.sampled_from(["decode", "prefill", "sampling", "k", ""])
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


def _containers(node, path=()):
    """Paths of every dict and list inside a decoded JSON value."""
    if isinstance(node, (dict, list)):
        yield path
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _containers(child, path + (key,))


@st.composite
def workload_dicts(draw):
    """A valid workload's JSON form with a few values replaced, keys
    deleted or entries added anywhere in it, or any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    data = sim_engine.workload_to_dict(single_kernel_workload(sigma_rel=0.01))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_containers(data))))
        node = data
        for key in path:
            node = node[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if action == "add" or not keys:
            if isinstance(node, dict):
                node[draw(st.text(max_size=6))] = draw(json_values)
            else:
                node.append(draw(json_values))
        elif action == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(json_values)
    return data


def assert_valid_spec(spec):
    sim_engine.validate_workload(spec)
    assert isinstance(spec.name, str)
    assert type(spec.jitter.seed) is int and spec.jitter.seed >= 0
    assert type(spec.jitter.sigma_rel) is float and math.isfinite(spec.jitter.sigma_rel)
    for script in spec.scripts.values():
        assert type(script.host_ns) is int
        for ks in script.kernels:
            assert isinstance(ks.name, str) and ks.name
            for value in (ks.base_latency_ns, ks.per_step_slope_ns, ks.dispatch_gap_ns,
                          ks.queue_delay_ns, ks.submit_delay_ns, ks.invocations_per_phase):
                assert type(value) is int and -(2**63) <= value < 2**63
    if all(ks.invocations_per_phase <= 3 for s in spec.scripts.values() for ks in s.kernels):
        try:
            sim_engine.run(spec, 1, 1)
        except LmmkError:
            pass


@settings(max_examples=300, deadline=None)
@given(workload_dicts())
def test_workload_from_dict_yields_valid_spec_or_lmmk_error(data):
    try:
        spec = sim_engine.workload_from_dict(data)
    except LmmkError:
        return
    assert_valid_spec(spec)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    workload_dicts().map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=60),
    st.integers(1, 3).map(lambda k: b"[" * 10**k * 100 + b"]" * 10**k * 100),
))
def test_load_workload_yields_valid_spec_or_lmmk_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("wl") / "wl.json"
    path.write_bytes(raw)
    try:
        spec = sim_engine.load_workload(str(path))
    except LmmkError:
        return
    assert_valid_spec(spec)
