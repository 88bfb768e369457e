import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_trace
from lmmk import metrics, sim_engine
from lmmk.errors import (
    MissingPhase,
    MissingTokenCounts,
    NegativeDelta,
    NonPositiveComponent,
    NonPositiveGroundTruth,
)
from lmmk.metrics import HQInputs, MetricPair
from lmmk.recorder import PhaseKind

positive_ms = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False)


class TestAccuracy:
    def test_published_embedding_row(self):
        assert metrics.accuracy(MetricPair(0.8038, 0.7763)) == pytest.approx(96.46, abs=0.01)

    def test_published_decode_row(self):
        assert metrics.accuracy(MetricPair(62.5669, 62.5303)) == pytest.approx(99.94, abs=0.01)

    def test_identity_pair_scores_100(self):
        assert metrics.accuracy(MetricPair(3.5, 3.5)) == 100.0

    def test_negative_when_error_exceeds_truth(self):
        # Deliberately unclamped: a measurement more than 2x the truth
        # reports negative coverage and flags the gross failure.
        assert metrics.accuracy(MetricPair(3.0, 1.0)) == pytest.approx(-100.0)

    def test_nonpositive_ground_truth(self):
        with pytest.raises(NonPositiveGroundTruth):
            MetricPair(1.0, 0.0)


class TestScaledError:
    def test_published_prefill_row(self):
        assert metrics.scaled_error(MetricPair(3433.8628, 3433.8142)) == pytest.approx(
            0.014, abs=0.001
        )

    def test_zero_on_equal(self):
        assert metrics.scaled_error(MetricPair(7.25, 7.25)) == 0.0

    def test_published_softmax_row(self):
        assert metrics.scaled_error(MetricPair(142.6166, 142.6542)) == pytest.approx(
            0.264, abs=0.002
        )


def test_alpha_eps_identity_randomized():
    # alpha = 100 - eps_star / 10 as an algebraic identity of the two
    # definitions, checked on 1000 random pairs to 1e-9 relative.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        gt = float(rng.uniform(1e-3, 1e4))
        lm = gt * float(rng.uniform(0.5, 1.5))
        pair = MetricPair(lm, gt)
        alpha = metrics.accuracy(pair)
        eps = metrics.scaled_error(pair)
        assert alpha == pytest.approx(100.0 - eps / 10.0, rel=1e-9, abs=1e-9)


class TestHQ:
    def test_fixed_point(self):
        assert metrics.hq(1, 1, 1) == 1.0

    def test_hand_value_balanced(self):
        assert metrics.hq(0.5, 2.0, 2.0) == pytest.approx(1.0)

    def test_hand_value_mixed(self):
        assert metrics.hq(0.9, 1.2, 1.1) == pytest.approx(1.0513, abs=0.0001)

    def test_nonpositive_component(self):
        with pytest.raises(NonPositiveComponent):
            metrics.hq(0.0, 1.0, 1.0)
        with pytest.raises(NonPositiveComponent):
            metrics.hq(1.0, -2.0, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(a=positive_ms, b=positive_ms, c=positive_ms)
    def test_symmetry(self, a, b, c):
        reference = metrics.hq(a, b, c)
        assert metrics.hq(b, c, a) == pytest.approx(reference, rel=1e-12)
        assert metrics.hq(c, a, b) == pytest.approx(reference, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(a=positive_ms, b=positive_ms, c=positive_ms,
           scale=st.floats(min_value=1e-2, max_value=1e2))
    def test_scale_covariance(self, a, b, c, scale):
        assert metrics.hq(scale * a, scale * b, scale * c) == pytest.approx(
            scale * metrics.hq(a, b, c), rel=1e-9
        )

    @settings(max_examples=200, deadline=None)
    @given(a=positive_ms, b=positive_ms, c=positive_ms)
    def test_bounded_by_min_and_max(self, a, b, c):
        score = metrics.hq(a, b, c)
        assert min(a, b, c) <= score * (1 + 1e-12)
        assert score <= max(a, b, c) * (1 + 1e-12)


class TestHQFromMeasurements:
    def test_equal_measurements_score_one(self):
        inputs = HQInputs("t", 0.8, 0.8, 120.0, 120.0, 40.0, 40.0)
        assert metrics.hq_from_measurements(inputs) == pytest.approx(1.0)

    def test_near_zero_accuracy_collapses(self):
        # Accuracy ratio 1e-6 with 2x speedups: the harmonic mean
        # degenerates to ~3 * m_a.
        inputs = HQInputs("gsm8k", 1e-6 * 0.5, 0.5, 60.0, 120.0, 20.0, 40.0)
        score = metrics.hq_from_measurements(inputs)
        assert score == pytest.approx(3e-6, rel=0.01)

    def test_halved_latencies(self):
        inputs = HQInputs("t", 0.7, 0.7, 50.0, 100.0, 15.0, 30.0)
        assert metrics.hq_from_measurements(inputs) == pytest.approx(1.5)

    def test_latency_ratio_orientation(self):
        # A quantized model that got slower must score below 1.
        inputs = HQInputs("t", 0.7, 0.7, 200.0, 100.0, 60.0, 30.0)
        assert metrics.hq_from_measurements(inputs) < 1.0

    def test_zero_latency_rejected(self):
        with pytest.raises(NonPositiveComponent):
            metrics.hq_from_measurements(HQInputs("t", 0.5, 0.5, 0.0, 1.0, 1.0, 1.0))


class TestDuplicationEstimate:
    def test_arithmetic(self):
        assert metrics.duplication_estimate(100.0, 150.0, 50) == pytest.approx(1.0)

    def test_degenerate_zero(self):
        assert metrics.duplication_estimate(10.0, 10.0, 1000) == 0.0

    def test_negative_delta(self):
        with pytest.raises(NegativeDelta):
            metrics.duplication_estimate(10.0, 9.0, 50)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            metrics.duplication_estimate(1.0, 2.0, 0)

    def test_exact_on_jitter_free_simulator(self):
        from conftest import single_kernel_workload

        spec = single_kernel_workload(base_latency_ns=123_456)
        _, base = sim_engine.run(spec, 1, 1)
        plan = sim_engine.DuplicationPlan(kernel_name="uniform_matmul", n=7)
        _, dup = sim_engine.run_with_duplication(spec, plan, 1, 1)
        t_base_ms = base.phase_wall_ns[PhaseKind.DECODE] / 1e6
        t_dup_ms = dup.phase_wall_ns[PhaseKind.DECODE] / 1e6
        estimate = metrics.duplication_estimate(t_base_ms, t_dup_ms, 7)
        assert estimate == pytest.approx(0.123456, rel=1e-12)


class TestChooseDuplicationCount:
    def test_long_kernel(self):
        assert metrics.choose_duplication_count(1.3601) == 50

    def test_micro_kernel(self):
        assert metrics.choose_duplication_count(0.2006) == 1000

    def test_boundary_goes_to_shorter_branch(self):
        assert metrics.choose_duplication_count(1.0) == 1000

    def test_positive_required(self):
        with pytest.raises(ValueError):
            metrics.choose_duplication_count(0.0)


class TestThroughput:
    def test_hand_case(self):
        trace = build_trace(
            phases=[
                (PhaseKind.PREFILL, 0, None, 0, 100_000_000),
                (PhaseKind.DECODE, 0, 0, 100_000_000, 300_000_000),
            ],
            prompt_tokens=5,
            output_tokens=10,
        )
        report = metrics.throughput(trace)
        assert report.prefill_tokens_per_s == pytest.approx(50.0)
        assert report.decode_tokens_per_s == pytest.approx(50.0)
        assert report.decode_s_per_output_token == pytest.approx(0.02)
        assert report.prefill_tokens_per_s * report.prefill_s_per_input_token == pytest.approx(
            1.0, rel=1e-12
        )

    def test_missing_decode_phase(self):
        trace = build_trace(
            phases=[(PhaseKind.PREFILL, 0, None, 0, 1_000_000)],
            prompt_tokens=4,
            output_tokens=4,
        )
        with pytest.raises(MissingPhase):
            metrics.throughput(trace)

    def test_missing_token_counts(self):
        trace = build_trace(
            phases=[
                (PhaseKind.PREFILL, 0, None, 0, 1_000_000),
                (PhaseKind.DECODE, 0, 0, 1_000_000, 2_000_000),
            ]
        )
        with pytest.raises(MissingTokenCounts):
            metrics.throughput(trace)

    @pytest.mark.parametrize("key", ["prompt_tokens", "output_tokens"])
    @pytest.mark.parametrize("count", [0, -5])
    def test_token_count_below_one(self, key, count):
        trace, _ = sim_engine.run(sim_engine.preset_gemma_decode(), 2, 2)
        trace = dataclasses.replace(trace, **{key: count})
        with pytest.raises(MissingTokenCounts, match=f"^{key} must be at least 1, got {count}$"):
            metrics.throughput(trace)

    def test_matches_ground_truth_exactly(self, preset_run_16):
        trace, truth = preset_run_16
        report = metrics.throughput(trace)
        prefill_s = truth.phase_wall_ns[PhaseKind.PREFILL] / 1e9
        decode_s = truth.phase_wall_ns[PhaseKind.DECODE] / 1e9
        assert report.prefill_tokens_per_s == truth.prompt_tokens / prefill_s
        assert report.decode_tokens_per_s == truth.output_tokens / decode_s


# -- non-finite inputs ----------------------------------------------------------

non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _with(values: list, position: int, bad: float) -> list:
    return values[:position] + [bad] + values[position + 1:]


# (call, valid arguments, the error a non-finite argument raises)
NON_FINITE_CASES = {
    "MetricPair(lm, gt)": (MetricPair, [1.0, 2.0], (ValueError, NonPositiveGroundTruth)),
    "hq": (metrics.hq, [1.0, 2.0, 0.5], (NonPositiveComponent,) * 3),
    "hq_from_measurements": (lambda *v: metrics.hq_from_measurements(HQInputs("t", *v)),
                             [0.5, 0.6, 10.0, 12.0, 5.0, 6.0], (NonPositiveComponent,) * 6),
    "duplication_estimate": (lambda base, dup: metrics.duplication_estimate(base, dup, 5),
                             [10.0, 15.0], (ValueError, ValueError)),
    "choose_duplication_count": (metrics.choose_duplication_count, [0.5], (ValueError,)),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(NON_FINITE_CASES)), st.data(), non_finite)
def test_non_finite_inputs_are_refused(name, data, bad):
    call, valid, errors = NON_FINITE_CASES[name]
    call(*valid)  # the valid arguments pass
    position = data.draw(st.integers(0, len(valid) - 1))
    with pytest.raises(errors[position], match="must be finite"):
        call(*_with(valid, position, bad))


def test_ratio_that_overflows_to_inf_is_refused():
    inputs = HQInputs("t", 0.5, 0.5, 1e-300, 1e300, 1.0, 1.0)
    with pytest.raises(NonPositiveComponent, match="m_prefill=inf must be finite and > 0"):
        metrics.hq_from_measurements(inputs)
