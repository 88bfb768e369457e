"""Profiling-fidelity and quantization trade-off metrics.

Two fidelity views of a measured/ground-truth latency pair: accuracy in
percent, alpha = (1 - |lm - gt| / gt) * 100, and the scaled error rate in
microseconds of error per millisecond of true runtime,
eps_star = 1000 * |lm - gt| / gt. The two are tied by the identity
alpha = 100 - eps_star / 10; alpha goes negative when the error exceeds
the ground truth and is deliberately not clamped.

The harmonic quantization score rewards quantized models whose accuracy
retention and prefill/decode speedups are balanced; any collapsed
component drags the harmonic mean down with it.

Every function refuses a NaN or infinite input with the error it raises
for a nonpositive one (ValueError where any value is allowed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    MissingPhase,
    MissingTokenCounts,
    NegativeDelta,
    NonPositiveComponent,
    NonPositiveGroundTruth,
)
from .recorder import PhaseKind, Trace


@dataclass(frozen=True)
class MetricPair:
    """A measured latency and its ground truth, both in milliseconds."""

    t_lm_ms: float
    t_gt_ms: float

    def __post_init__(self) -> None:
        if not 0 < self.t_gt_ms < math.inf:
            raise NonPositiveGroundTruth(f"t_gt_ms={self.t_gt_ms} must be finite and > 0")
        if not 0 < self.t_lm_ms < math.inf:
            raise ValueError(f"t_lm_ms={self.t_lm_ms} must be finite and > 0")

    @property
    def delta_ms(self) -> float:
        return abs(self.t_lm_ms - self.t_gt_ms)


@dataclass(frozen=True)
class AccuracyResult:
    alpha_pct: float
    eps_star_us_per_ms: float


@dataclass(frozen=True)
class ThroughputReport:
    prefill_tokens_per_s: float
    decode_tokens_per_s: float
    prefill_s_per_input_token: float
    decode_s_per_output_token: float


def accuracy(pair: MetricPair) -> float:
    """Percentage of the true execution time the profiler captured."""
    return (1.0 - pair.delta_ms / pair.t_gt_ms) * 100.0


def scaled_error(pair: MetricPair) -> float:
    """Microseconds of profiling error per millisecond of true runtime."""
    return 1000.0 * pair.delta_ms / pair.t_gt_ms


def evaluate_pair(pair: MetricPair) -> AccuracyResult:
    return AccuracyResult(alpha_pct=accuracy(pair), eps_star_us_per_ms=scaled_error(pair))


def hq(m_a: float, m_prefill: float, m_decode: float) -> float:
    """Harmonic mean of the accuracy ratio and the two latency speedups."""
    for name, value in (("m_a", m_a), ("m_prefill", m_prefill), ("m_decode", m_decode)):
        if not 0 < value < math.inf:
            raise NonPositiveComponent(f"{name}={value} must be finite and > 0")
    return 3.0 / (1.0 / m_a + 1.0 / m_prefill + 1.0 / m_decode)


def hq_from_measurements(
    acc_quant: float, acc_full: float, prefill_quant_ms: float, prefill_full_ms: float,
    decode_quant_ms: float, decode_full_ms: float,
) -> float:
    """Score from raw measurements for one task.

    Accuracy values are opaque inputs (whatever the evaluation harness
    reports); latencies are per-phase runtimes in milliseconds. The accuracy
    ratio is quantized over full; the latency ratios are full over quantized
    so that a speedup from quantization lands above 1.
    """
    for name, value in (("acc_quant", acc_quant), ("acc_full", acc_full),
                        ("prefill_quant_ms", prefill_quant_ms),
                        ("prefill_full_ms", prefill_full_ms),
                        ("decode_quant_ms", decode_quant_ms), ("decode_full_ms", decode_full_ms)):
        if not math.isfinite(value):
            raise NonPositiveComponent(f"{name}={value} must be finite")
        if value <= 0 and name in ("acc_full", "prefill_quant_ms", "decode_quant_ms"):
            raise NonPositiveComponent(f"{name}={value} must be > 0")
    return hq(acc_quant / acc_full, prefill_full_ms / prefill_quant_ms,
              decode_full_ms / decode_quant_ms)


def duplication_estimate(t_base_phase_ms: float, t_dup_phase_ms: float, n: int) -> float:
    """Per-copy latency recovered from a kernel-duplication run.

    The target kernel was duplicated n times inside the phase, so the phase
    latency increase divided by n estimates one execution of the kernel.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for name, value in (("t_base_phase_ms", t_base_phase_ms), ("t_dup_phase_ms", t_dup_phase_ms)):
        if not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
    if t_dup_phase_ms < t_base_phase_ms:
        raise NegativeDelta(
            "duplicated phase was faster than baseline; measurement noise exceeds signal"
        )
    return (t_dup_phase_ms - t_base_phase_ms) / n


def choose_duplication_count(expected_latency_ms: float) -> int:
    """Duplication count rule: 50 copies for kernels expected to exceed
    1 ms, 1000 for shorter ones (the boundary goes to the shorter branch)."""
    if not 0 < expected_latency_ms < math.inf:
        raise ValueError(f"expected_latency_ms={expected_latency_ms} must be finite and > 0")
    return 50 if expected_latency_ms > 1.0 else 1000


def throughput(trace: Trace) -> ThroughputReport:
    """Tokens per second during prefill and decode, plus reciprocals.

    Needs at least one prefill and one decode phase plus the prompt/output
    token counts carried in the trace metadata, each at least 1.
    """
    if trace.prompt_tokens is None or trace.output_tokens is None:
        raise MissingTokenCounts("trace carries no prompt/output token counts")
    for key, count in (("prompt_tokens", trace.prompt_tokens),
                       ("output_tokens", trace.output_tokens)):
        if count < 1:
            raise MissingTokenCounts(f"{key} must be at least 1, got {count}")
    phases = trace.phases
    duration = phases.t_end_ns - phases.t_start_ns
    prefill, decode = phases.of_kind(PhaseKind.PREFILL), phases.of_kind(PhaseKind.DECODE)
    prefill_ns = sum(duration[prefill].tolist())
    decode_ns = sum(duration[decode].tolist())
    if not prefill.any():
        raise MissingPhase("trace has no prefill phase")
    if not decode.any():
        raise MissingPhase("trace has no decode phase")
    if prefill_ns <= 0 or decode_ns <= 0:
        raise MissingPhase("phase wall time is zero; cannot compute throughput")
    prefill_s = prefill_ns / 1e9
    decode_s = decode_ns / 1e9
    return ThroughputReport(
        prefill_tokens_per_s=trace.prompt_tokens / prefill_s,
        decode_tokens_per_s=trace.output_tokens / decode_s,
        prefill_s_per_input_token=prefill_s / trace.prompt_tokens,
        decode_s_per_output_token=decode_s / trace.output_tokens,
    )
