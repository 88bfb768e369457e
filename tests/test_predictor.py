import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace, single_kernel_workload
from lmmk import predictor, sim_engine, timeline, trace_io
from lmmk.cli import main
from lmmk.errors import DegenerateSeries, InsufficientSteps, KernelNotFound, RepeatedDecodeStep
from lmmk.predictor import LinearModel, StepSeries
from lmmk.recorder import PhaseKind


class TestStepSeries:
    def test_needs_two_points(self):
        with pytest.raises(InsufficientSteps):
            StepSeries(steps=(0,), latencies_ns=(100.0,))

    def test_steps_strictly_increasing(self):
        with pytest.raises(ValueError):
            StepSeries(steps=(0, 0), latencies_ns=(1.0, 2.0))

    def test_hand_built_zero_latency_is_a_value_error(self):
        with pytest.raises(ValueError, match="^latencies must be positive$"):
            StepSeries(steps=(0, 1), latencies_ns=(1.0, 0.0))

    def test_from_pairs_sorts(self):
        series = StepSeries.from_pairs([(3, 30.0), (1, 10.0), (2, 20.0)])
        assert series.steps == (1, 2, 3)
        assert series.latencies_ns == (10.0, 20.0, 30.0)

    def test_between_half_open(self):
        series = StepSeries.from_pairs([(i, 1.0 + i) for i in range(10)])
        train = series.between(max_step=5)
        assert train.steps == (0, 1, 2, 3, 4)
        hold = series.between(min_step=5)
        assert hold.steps == (5, 6, 7, 8, 9)


class TestExtract:
    def test_exactly_linear_from_simulator(self):
        spec = single_kernel_workload(base_latency_ns=50_000, per_step_slope_ns=2_000)
        trace, _ = sim_engine.run(spec, 1, 20)
        series = predictor.extract_step_series(trace, "uniform_matmul")
        assert series.steps == tuple(range(20))
        for step, latency in zip(series.steps, series.latencies_ns):
            assert latency == 50_000 + 2_000 * step

    def test_absent_kernel(self):
        spec = single_kernel_workload()
        trace, _ = sim_engine.run(spec, 1, 4)
        with pytest.raises(KernelNotFound):
            predictor.extract_step_series(trace, "nope")

    def test_insufficient_steps(self):
        spec = single_kernel_workload()
        trace, _ = sim_engine.run(spec, 1, 1)
        with pytest.raises(InsufficientSteps):
            predictor.extract_step_series(trace, "uniform_matmul")

    def test_averages_multiple_invocations_per_step(self):
        import dataclasses

        from lmmk.recorder import PhaseKind
        from lmmk.sim_engine import KernelSpec, PhaseScript

        spec = single_kernel_workload(base_latency_ns=10_000)
        scripts = dict(spec.scripts)
        scripts[PhaseKind.DECODE] = PhaseScript(
            kind=PhaseKind.DECODE,
            kernels=(KernelSpec("uniform_matmul", 10_000, invocations_per_phase=3),),
        )
        trace, _ = sim_engine.run(dataclasses.replace(spec, scripts=scripts), 1, 3)
        series = predictor.extract_step_series(trace, "uniform_matmul")
        assert series.latencies_ns == (10_000.0, 10_000.0, 10_000.0)

    def test_preset_step_250_latency(self, preset_run_256):
        trace, _ = preset_run_256
        series = predictor.extract_step_series(trace, sim_engine.PAGED_KV_KERNEL)
        at_250 = dict(zip(series.steps, series.latencies_ns))[250]
        assert abs(at_250 - 900_000) / 900_000 <= 0.10


class TestFit:
    def test_exact_line(self):
        series = StepSeries.from_pairs([(i, 100.0 + 2.0 * i) for i in range(100)])
        model = predictor.fit(series)
        assert model.intercept_ns == pytest.approx(100.0, rel=1e-9)
        assert model.slope_ns_per_step == pytest.approx(2.0, rel=1e-9)
        residuals = [
            abs(model.predict(s) - y) for s, y in zip(series.steps, series.latencies_ns)
        ]
        assert max(residuals) <= 1e-9 * 100.0

    def test_constant_series_zero_slope(self):
        series = StepSeries.from_pairs([(i, 500.0) for i in range(10)])
        model = predictor.fit(series)
        assert model.slope_ns_per_step == 0.0
        assert model.intercept_ns == 500.0

    def test_order_invariant(self):
        pairs = [(i, 10.0 + 3.0 * i + (i % 3)) for i in range(30)]
        forward = predictor.fit(StepSeries.from_pairs(pairs))
        backward = predictor.fit(StepSeries.from_pairs(list(reversed(pairs))))
        assert forward == backward

    def test_jittered_slope_within_five_percent(self):
        spec = single_kernel_workload(
            base_latency_ns=100_000, per_step_slope_ns=2_000, seed=3, sigma_rel=0.02
        )
        trace, _ = sim_engine.run(spec, 1, 120)
        model = predictor.fit(predictor.extract_step_series(trace, "uniform_matmul"))
        assert abs(model.slope_ns_per_step - 2_000) / 2_000 <= 0.05


class TestPredictEvaluate:
    def test_affine_prediction(self):
        model = LinearModel(intercept_ns=100.0, slope_ns_per_step=2.0)
        assert predictor.predict_step_latency(model, 0.0, 50) == 200.0
        assert predictor.predict_step_latency(model, 77.0, 0) == 177.0

    def test_consecutive_predictions_differ_by_slope(self):
        model = LinearModel(intercept_ns=40.0, slope_ns_per_step=3.5)
        values = [predictor.predict_step_latency(model, 10.0, s) for s in range(20)]
        for a, b in zip(values, values[1:]):
            assert b - a == pytest.approx(3.5, rel=1e-12)

    def test_perfect_model_scores_zero_mape(self):
        series = StepSeries.from_pairs([(i, 100.0 + 2.0 * i) for i in range(50)])
        model = predictor.fit(series)
        scores = predictor.evaluate(model, series, constant_floor_ns=0.0)
        assert scores["mape"] == pytest.approx(0.0, abs=1e-12)

    def test_constant_prediction_misses_linear_truth(self):
        truth = StepSeries.from_pairs([(i, 100.0 + 10.0 * i) for i in range(20)])
        flat = LinearModel(intercept_ns=100.0, slope_ns_per_step=0.0)
        scores = predictor.evaluate(flat, truth, constant_floor_ns=0.0)
        assert scores["mape"] > 0.0
        assert scores["max_ape"] >= scores["mape"]

    def test_holdout_mape_on_jitter_free_preset(self, preset_run_256):
        trace, _ = preset_run_256
        kernel = sim_engine.PAGED_KV_KERNEL
        series = predictor.extract_step_series(trace, kernel)
        model = predictor.fit(series.between(max_step=100))
        floor = predictor.estimate_constant_floor(trace, kernel, max_step=100)
        holdout = predictor.decode_wall_series(trace).between(min_step=100)
        scores = predictor.evaluate(model, holdout, floor)
        assert scores["mape"] <= 1e-9

    def test_holdout_mape_on_jittered_preset(self, preset_run_256_jittered):
        trace, _ = preset_run_256_jittered
        kernel = sim_engine.PAGED_KV_KERNEL
        series = predictor.extract_step_series(trace, kernel)
        model = predictor.fit(series.between(max_step=100))
        floor = predictor.estimate_constant_floor(trace, kernel, max_step=100)
        holdout = predictor.decode_wall_series(trace).between(min_step=100)
        scores = predictor.evaluate(model, holdout, floor)
        assert scores["mape"] <= 0.05


def test_constant_floor_on_preset_is_flat(preset_run_256):
    trace, truth = preset_run_256
    floor = predictor.estimate_constant_floor(trace, sim_engine.PAGED_KV_KERNEL)
    # Decode wall minus the paged-KV kernel is the same at every step.
    window = truth.decode_windows()[0]
    kv0 = 25_000
    assert floor == pytest.approx(window.wall_ns - kv0, rel=1e-12)


# The per-kernel scans over every decode window that the phase lookup
# replaced, kept as the oracle for it.
def decode_windows(trace):
    """Host-domain [start, end) of each decode step, keyed by token index."""
    return {
        p.token_index: (p.t_start_ns, p.t_end_ns)
        for p in trace.phases if p.kind is PhaseKind.DECODE
    }


def loop_extract_step_series(trace, kernel_name):
    offset = timeline.clock_offset(trace)
    if not any(k.name == kernel_name for k in trace.kernels):
        raise KernelNotFound(f"kernel {kernel_name!r} does not occur in the trace")
    windows = decode_windows(trace)
    sums, counts = {}, {}
    for k in trace.kernels:
        if k.name != kernel_name:
            continue
        t = k.t_start_ns + offset
        for step, (lo, hi) in windows.items():
            if lo <= t < hi:
                sums[step] = sums.get(step, 0) + k.execution_ns
                counts[step] = counts.get(step, 0) + 1
                break
    if len(sums) < 2:
        raise InsufficientSteps(
            f"kernel {kernel_name!r} occurs in {len(sums)} decode steps; need at least 2"
        )
    steps = sorted(sums)
    zero = [s for s in steps if sums[s] == 0]
    if zero:
        raise DegenerateSeries(f"decode step {zero[0]} has a mean {kernel_name!r} execution "
                               "time of 0 ns; a step series needs positive latencies")
    return StepSeries(tuple(steps), tuple(sums[s] / counts[s] for s in steps))


def loop_estimate_constant_floor(trace, kernel_name, max_step=None):
    offset = timeline.clock_offset(trace)
    windows = decode_windows(trace)
    if max_step is not None:
        windows = {s: w for s, w in windows.items() if s < max_step}
    if not windows:
        raise InsufficientSteps("no decode steps in the requested range")
    kernel_ns = {s: 0 for s in windows}
    for k in trace.kernels:
        if k.name != kernel_name:
            continue
        t = k.t_start_ns + offset
        for step, (lo, hi) in windows.items():
            if lo <= t < hi:
                kernel_ns[step] += k.execution_ns
                break
    floors = [(hi - lo) - kernel_ns[s] for s, (lo, hi) in windows.items()]
    return sum(floors) / len(floors)


@st.composite
def decode_traces(draw):
    """Decode windows that often touch or have zero length, with kernels
    that often start exactly on a window boundary."""
    offset = draw(st.integers(-100, 100))
    t = 200
    phases, boundaries = [], []
    for step in range(draw(st.integers(1, 12))):
        t += draw(st.sampled_from([0, 0, 3]))
        length = draw(st.sampled_from([0, 1, 10, 25]))
        phases.append((PhaseKind.DECODE, 0, step, t, t + length))
        boundaries += [t, t + length]
        t += length
    kernels = []
    for _ in range(draw(st.integers(0, 30))):
        host = draw(st.one_of(st.sampled_from(boundaries), st.integers(150, t + 20)))
        start = host - offset
        name = draw(st.sampled_from(["paged", "paged", "ffn"]))
        kernels.append((name, 0, start, start, start, start, start + draw(st.integers(0, 9))))
    max_step = draw(st.one_of(st.none(), st.integers(0, 12)))
    return build_trace(phases=phases, kernels=kernels, clock_offset_ns=offset), max_step


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(decode_traces())
def test_step_lookup_matches_double_loop(case):
    trace, max_step = case
    for name in ("paged", "ffn", "absent"):
        assert outcome(predictor.extract_step_series, trace, name) == outcome(
            loop_extract_step_series, trace, name
        )
        assert outcome(predictor.estimate_constant_floor, trace, name, max_step) == outcome(
            loop_estimate_constant_floor, trace, name, max_step
        )


def two_turn_trace():
    """Two turns of two decode steps each: both turns use token indices 0
    and 1, with one paged kernel per step."""
    phases, kernels = [], []
    for turn, t0 in ((0, 0), (1, 100)):
        for token in (0, 1):
            start = t0 + 10 * token
            phases.append((PhaseKind.DECODE, turn, token, start, start + 10))
            kernels.append(("paged", 0, start, start, start, start + 1, start + 5 + turn))
    return build_trace(phases=phases, kernels=kernels)


@pytest.mark.parametrize("call", [
    lambda trace: predictor.extract_step_series(trace, "paged"),
    lambda trace: predictor.decode_wall_series(trace),
    lambda trace: predictor.estimate_constant_floor(trace, "paged"),
], ids=["extract_step_series", "decode_wall_series", "estimate_constant_floor"])
def test_repeated_token_index_across_turns_rejected(call):
    with pytest.raises(RepeatedDecodeStep, match=r"^decode token 0 occurs in turn 0 and again in turn 1"):
        call(two_turn_trace())


def test_repeated_token_index_is_predict_exit_1(tmp_path, capsys):
    path = tmp_path / "two_turns.jsonl"
    trace_io.write_jsonl(two_turn_trace(), str(path))
    assert main(["predict", str(path), "--kernel", "paged", "--train-steps", "2"]) == 1
    assert "decode token 0 occurs in turn 0 and again in turn 1" in capsys.readouterr().err


def zero_latency_trace(zero_wall):
    """Six decode steps with a ``paged`` kernel in each one that has wall
    time. With ``zero_wall`` step 3 is the zero-length phase [300, 300];
    without it, step 3's kernel executes for 0 ns."""
    bounds = [0, 100, 200, 300, 300, 400, 500] if zero_wall else list(range(0, 700, 100))
    phases, kernels = [], []
    for token, (start, end) in enumerate(zip(bounds, bounds[1:])):
        phases.append((PhaseKind.DECODE, 0, token, start, end))
        if end > start:
            length = 0 if token == 3 else 20 + token
            kernels.append(("paged", 0, start, start, start, start + 10, start + 10 + length))
    return build_trace(phases=phases, kernels=kernels)


@pytest.mark.parametrize("zero_wall, call, message", [
    (True, predictor.decode_wall_series, "decode step 3 has a wall time of 0 ns"),
    (False, lambda trace: predictor.extract_step_series(trace, "paged"),
     "decode step 3 has a mean 'paged' execution time of 0 ns"),
], ids=["zero_wall", "zero_kernel"])
def test_zero_latency_step_is_degenerate_and_predict_exit_1(
    tmp_path, capsys, zero_wall, call, message
):
    message += "; a step series needs positive latencies"
    trace = zero_latency_trace(zero_wall)
    with pytest.raises(DegenerateSeries, match=f"^{message}$"):
        call(trace)
    path = tmp_path / "zero.jsonl"
    trace_io.write_jsonl(trace, str(path))
    assert main(["predict", str(path), "--kernel", "paged", "--train-steps", "3"]) == 1
    assert capsys.readouterr() == ("", f"lmmk: error: {message}\n")
