import dataclasses
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record_made_sessions, single_kernel_workload, workload_dict
from test_sim_replay import workloads
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

    def test_windows_are_a_read_only_column_table(self, preset_run_16):
        trace, truth = preset_run_16
        windows = truth.windows
        assert isinstance(windows, sim_engine.WindowTable) and len(windows) == len(trace.phases)
        rows = tuple(sim_engine.PhaseWindowTruth(p.kind, p.turn, p.token_index, p.t_start_ns,
                                                 p.t_end_ns, busy)
                     for p, busy in zip(trace.phases, windows.busy_ns.tolist()))
        assert tuple(windows) == rows
        assert windows[0].token_index is None and windows[2].token_index == 0
        for column in windows._arrays():
            assert column.dtype == np.int64 and not column.flags.writeable
        assert truth.decode_windows() == [w for w in rows if w.kind is PhaseKind.DECODE]
        assert tuple(sim_engine.GroundTruth().windows) == ()

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
            mean = truth.kernel_total_ns[agg.name] / truth.kernel_invocations[agg.name]
            assert agg.mean_execution_ns == mean

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
        path.write_text(json.dumps(workload_dict(spec)))
        loaded = sim_engine.load_workload(str(path))
        assert loaded == spec
        trace_a, _ = sim_engine.run(spec, 2, 3)
        trace_b, _ = sim_engine.run(loaded, 2, 3)
        assert trace_a == trace_b

    def test_missing_phase_rejected(self, tmp_path):
        data = workload_dict(preset_gemma_decode())
        del data["phases"]["softmax"]
        import json

        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidSpec):
            sim_engine.load_workload(str(path))

    def test_malformed_kernel_rejected(self):
        data = workload_dict(preset_gemma_decode())
        del data["phases"]["decode"]["kernels"][0]["base_latency_ns"]
        with pytest.raises(InvalidSpec):
            sim_engine.workload_from_dict(data)

    @pytest.mark.parametrize("name", [5, np.str_("attn_rms_norm"), ""],
                             ids=["int", "numpy-str", "empty"])
    def test_kernel_name_must_be_a_non_empty_str(self, name):
        """The spec refuses it when it is built, not the recorder at run time."""
        message = f"kernel name must be a non-empty str, got {name!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KernelSpec(name, base_latency_ns=1)
        data = workload_dict(preset_gemma_decode())
        data["phases"]["decode"]["kernels"][0]["name"] = name
        with pytest.raises(InvalidSpec):
            sim_engine.workload_from_dict(data)


def test_a_run_records_into_the_session_make_session_makes(made_sessions):
    """A run looks ``make_session`` up when it runs, so a caller that swaps it
    (the benchmark's traced runs do) gets the run's rows in its own session."""
    spec = single_kernel_workload()
    trace, _ = sim_engine.run_with_duplication(spec, DuplicationPlan("embed", 1), 1, 2)
    (session,) = made_sessions
    assert session.device_label == spec.name
    assert session.seal() is trace
    assert len(trace.kernels) == 7  # embed twice, prefill, then per token decode and softmax


def test_sigma_rel_past_the_digit_limit_is_named():
    """An int too long for CPython to print is reported by its size."""
    with pytest.raises(ValueError, match="^sigma_rel must be finite and nonnegative, "
                                         "got a 16610-bit int$"):
        JitterModel(sigma_rel=10**5000)


def test_jitter_model_validation():
    with pytest.raises(ValueError):
        JitterModel(sigma_rel=-0.1)
    with pytest.raises(ValueError, match="^sigma_rel must be finite and nonnegative, got 1000"):
        JitterModel(sigma_rel=10**400)
    with pytest.raises(ValueError):
        KernelSpec("k", base_latency_ns=0)
    with pytest.raises(ValueError):
        DuplicationPlan(kernel_name="k", n=0)


# -- the spec types gate every value ------------------------------------------

INT_FIELDS = [
    (KernelSpec, {"name": "k", "base_latency_ns": 1}, f.name)
    for f in dataclasses.fields(KernelSpec)[1:]
] + [
    (PhaseScript, {"kind": PhaseKind.DECODE}, "host_ns"),
    (JitterModel, {}, "seed"),
    (DuplicationPlan, {"kernel_name": "k", "n": 1}, "n"),
]


@pytest.mark.parametrize("cls, base, name", INT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, _, name in INT_FIELDS])
@pytest.mark.parametrize("bad", [True, 1.5, np.int64(1), 2**63],
                         ids=["bool", "float", "numpy", "2**63"])
def test_spec_int_fields_refuse_non_int64_when_built(cls, base, name, bad):
    """``KernelSpec("k", 1000, per_step_slope_ns=1.5)`` would otherwise
    simulate a slope of 1 while the ground truth sums 1.5 per step."""
    if type(bad) is int:
        error, message = ValueError, f"field {name!r} out of int64 range, got {bad!r}"
    else:
        error, message = TypeError, f"field {name!r} must be an int, got {bad!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(**{**base, name: bad})


@pytest.mark.parametrize("bad", [True, "0.1"], ids=["bool", "str"])
def test_sigma_rel_must_be_a_number(bad):
    message = f"field 'sigma_rel' must be a number, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        JitterModel(sigma_rel=bad)
    assert type(JitterModel(sigma_rel=0).sigma_rel) is float


def test_workload_name_must_be_a_str():
    with pytest.raises(ValueError, match=r"^field 'name' must be a string, got 5$"):
        WorkloadSpec(name=5)


@pytest.mark.parametrize("edit, key", [
    (lambda d: d["phases"]["decode"]["kernels"][0].update(dispatch_gap=5), "dispatch_gap"),
    (lambda d: d["phases"]["decode"].update(host=5), "host"),
    (lambda d: d["phases"]["decode"].update(kind="decode"), "kind"),
    (lambda d: d["jitter"].update(sigma=0.1), "sigma"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d.update(scripts={}), "scripts"),
], ids=["kernel", "phase", "phase-kind", "jitter", "top-level", "top-level-scripts"])
def test_unknown_workload_key_is_invalid_spec(edit, key):
    data = workload_dict(preset_gemma_decode())
    edit(data)
    with pytest.raises(InvalidSpec, match=f"^malformed workload config: .*'{key}'$"):
        sim_engine.workload_from_dict(data)


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_workload_dict_round_trips(workload):
    spec, _ = workload
    assert sim_engine.workload_from_dict(workload_dict(spec)) == spec


class TestRowLimit:
    """A run past ``MAX_KERNEL_ROWS`` kernel rows is refused from exact counts, before
    any array is built."""

    def refused_rows(self, spec, plan, output_tokens):
        """The row count a refused run names; the run allocates next to nothing and
        records no row."""
        with pytest.MonkeyPatch.context() as patch:
            made = record_made_sessions(patch)
            tracemalloc.start()
            try:
                with pytest.raises(InvalidSpec) as caught:
                    sim_engine._run(spec, 1, output_tokens, plan)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2**20
        for session in made:
            trace = session.seal()
            assert len(trace.phases) == len(trace.kernels) == 0
        rows, limit = re.fullmatch(r"the run needs (\d+) kernel rows, past the (\d+)-row limit",
                                   str(caught.value)).groups()
        assert int(limit) == sim_engine.MAX_KERNEL_ROWS
        return int(rows)

    def test_a_huge_plan_at_two_tokens(self):
        # embedding 1, prefill 10, then per token 12 + n decode, 2 softmax and 1 copy rows
        n = 2**62
        plan = DuplicationPlan(sim_engine.PAGED_KV_KERNEL, n)
        assert self.refused_rows(preset_gemma_decode(), plan, 2) == 11 + 2 * (15 + n)

    def test_counts_past_int64_are_exact(self):
        spec = single_kernel_workload()
        decode = spec.scripts[PhaseKind.DECODE]
        huge = KernelSpec("uniform_matmul", 1, invocations_per_phase=2**63 - 1)
        spec = dataclasses.replace(spec, scripts={
            **spec.scripts, PhaseKind.DECODE: dataclasses.replace(decode, kernels=(huge,))})
        plan = DuplicationPlan("uniform_matmul", 2**63 - 1)
        tokens = 2**63 - 1
        assert self.refused_rows(spec, plan, tokens) == 2 + tokens * ((2**63 - 1) * 2**63 + 1)

    def test_a_run_at_the_limit_is_made_and_one_row_more_is_not(self, monkeypatch):
        # embedding 1 and prefill 1, then per token 1 + 4 decode rows and 1 softmax row
        spec, plan = single_kernel_workload(), DuplicationPlan("uniform_matmul", 4)
        monkeypatch.setattr(sim_engine, "MAX_KERNEL_ROWS", 20)
        trace, _ = sim_engine.run_with_duplication(spec, plan, 1, 3)
        assert len(trace.kernels) == 20
        monkeypatch.setattr(sim_engine, "MAX_KERNEL_ROWS", 19)
        assert self.refused_rows(spec, plan, 3) == 20

    def test_the_limit_admits_the_largest_benchmark_run_a_hundredfold(self):
        trace, _ = sim_engine.run(preset_gemma_decode(), 8, 4096)  # long-decode's turn
        assert sim_engine.MAX_KERNEL_ROWS >= 100 * len(trace.kernels)


def test_schema_doc_names_every_spec_field():
    """A new workload setting is a dataclass field plus its doc line."""
    with open(pathlib.Path(__file__).parents[1] / "docs" / "workload_schema.md") as f:
        doc = f.read()
    for cls in (KernelSpec, PhaseScript, JitterModel):
        for f in dataclasses.fields(cls):
            assert f"`{f.name}`" in doc, f"{cls.__name__}.{f.name} is not in the schema doc"


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
    data = workload_dict(single_kernel_workload(sigma_rel=0.01))
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


def _near_half_integers():
    """Terms and exponents whose exact products sit a relative 2**-e (e from
    30 to 52) either side of a half-integer, and a few that do not."""
    terms, exponents = [], []
    for term in (1.0, 7_000.0, 112_000.0, 2_500_000.0, 2.0**40):
        for half in (0.5, 1.5, 9_000.5, 151_234.5, 2.0**36 + 0.5):
            for e in range(30, 53):
                for side in (-1, 1):
                    terms.append(term)
                    exponents.append(math.log(half * (1 + side * 2.0**-e) / term))
    terms += [3.0, 5.0, 2.0**62, 2.0**62, 1e5]
    exponents += [-800.0, 0.0, 1.5, -44.0, 709.0]  # below 1, exact, past int64, tiny, inf
    return np.array(terms), np.array(exponents)


@pytest.mark.parametrize("shift", [2.0**-40, -2.0**-40, 2.0**-41, 0.0])
def test_jittered_equals_math_exp_whatever_the_last_bits_of_np_exp(monkeypatch, shift):
    """numpy's exp off by up to 2**-40 relative moves no rounded result:
    each is max(1, round(term * math.exp(x))), or inf past the floats."""
    terms, exponents = _near_half_integers()
    real_exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: real_exp(x) * (1 + shift))
    got = sim_engine._jittered(terms, exponents).tolist()
    exact = [t * math.exp(x) for t, x in zip(terms.tolist(), exponents.tolist())]
    assert got == [v if math.isinf(v) else max(1, round(v)) for v in exact]
    assert math.isinf(got[-1]) and got[-2] == 1
