"""Seeded replay: the array-based simulator against the scalar engine.

``_Jitter`` and ``_Engine`` below are the per-kernel simulator that
``lmmk.sim_engine`` used to run, kept as an oracle; ``scalar_run`` runs
it and gathers the ground-truth windows into a ``WindowTable`` at the
end. Every case asserts that both engines produce equal phase and
kernel tables (kernel names in the same order) and byte-equal
``.gt.json`` sidecars, or raise the same error. The sidecar writer is
itself checked against ``json.dumps`` of the reference dict.
"""

import json
import math
import sys
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ManualClock, reference_ground_truth, sidecar_bytes, single_kernel_workload
from lmmk import sim_engine
from lmmk.errors import InvalidSpec
from lmmk.recorder import INT64_MAX, PhaseKind, Trace, TraceSession
from lmmk.sim_engine import (
    QUEUE_ID,
    DuplicationPlan,
    GroundTruth,
    JitterModel,
    KernelSpec,
    PhaseScript,
    WindowTable,
    WorkloadSpec,
    validate_workload,
)


class _Jitter:
    def __init__(self, model: JitterModel) -> None:
        self.sigma = model.sigma_rel
        self.rng = np.random.Generator(np.random.Philox(model.seed))

    def __call__(self, value_ns: int) -> int:
        if self.sigma == 0.0 or value_ns == 0:
            return value_ns
        scaled = value_ns * math.exp(self.sigma * self.rng.standard_normal())
        return max(1, int(round(scaled)))


class _Engine:
    def __init__(
        self,
        spec: WorkloadSpec,
        session: TraceSession,
        plan: Optional[DuplicationPlan],
        truth: GroundTruth,
    ) -> None:
        self.spec = spec
        self.session = session
        self.clock: ManualClock = session.clock  # type: ignore[assignment]
        self.plan = plan
        self.truth = truth
        self.jitter = _Jitter(spec.jitter)
        self.device_free = self.clock()
        self.cursor = self.clock()
        self.windows = []  # (kind code, turn, token or -1, start, end, busy) per phase

    def emit_kernel(self, ks: KernelSpec, step: int, host: int, duplicate: bool) -> tuple[int, int, int]:
        jit = self.jitter
        if not duplicate:
            host += jit(ks.dispatch_gap_ns)
        enqueue = host
        queued = enqueue  # unified clock domain: the device sees the enqueue time
        submit = queued + jit(ks.queue_delay_ns)
        ready = submit + jit(ks.submit_delay_ns)
        start = max(ready, self.device_free)
        true_duration = ks.base_latency_ns + ks.per_step_slope_ns * step
        duration = jit(true_duration)
        end = start + duration
        if end > INT64_MAX:  # every other stamp of the kernel is at most its end
            raise OverflowError("kernel end past int64")
        self.session.record_kernel(ks.name, QUEUE_ID, enqueue, queued, submit, start, end)
        self.device_free = end
        t = self.truth
        t.kernel_total_ns[ks.name] = t.kernel_total_ns.get(ks.name, 0) + duration
        t.kernel_true_total_ns[ks.name] = t.kernel_true_total_ns.get(ks.name, 0) + true_duration
        t.kernel_invocations[ks.name] = t.kernel_invocations.get(ks.name, 0) + 1
        return host, end, duration

    def emit_phase(self, kind: PhaseKind, turn: int, token_index: Optional[int], step: int) -> None:
        script = self.spec.scripts[kind]
        phase_start = self.cursor
        self.clock.advance_to(phase_start)
        handle = self.session.begin_phase(kind, turn, token_index)
        host = phase_start
        device_end = phase_start
        busy = 0
        for ks in script.kernels:
            for _ in range(ks.invocations_per_phase):
                host, device_end, duration = self.emit_kernel(ks, step, host, duplicate=False)
                busy += duration
                if self.plan is not None and ks.name == self.plan.kernel_name:
                    for _ in range(self.plan.n):
                        host, device_end, duration = self.emit_kernel(
                            ks, step, host, duplicate=True
                        )
                        busy += duration
        phase_end = max(host, device_end) + script.host_ns
        if phase_end > INT64_MAX:
            raise OverflowError("phase end past int64")
        self.clock.advance_to(phase_end)
        self.session.end_phase(handle)
        self.windows.append((list(PhaseKind).index(kind), turn,
                             -1 if token_index is None else token_index, phase_start, phase_end,
                             busy))
        t = self.truth
        t.phase_busy_ns[kind] = t.phase_busy_ns.get(kind, 0) + busy
        t.phase_wall_ns[kind] = t.phase_wall_ns.get(kind, 0) + (phase_end - phase_start)
        self.cursor = phase_end


def scalar_run(
    spec: WorkloadSpec,
    prompt_tokens: int,
    output_tokens: int,
    plan: Optional[DuplicationPlan],
) -> tuple[Trace, GroundTruth]:
    if prompt_tokens < 1 or output_tokens < 1:
        raise ValueError("prompt_tokens and output_tokens must be at least 1")
    validate_workload(spec)
    session = TraceSession(device_label=spec.name, clock_offset_ns=0, clock=ManualClock())

    truth = GroundTruth(prompt_tokens=prompt_tokens, output_tokens=output_tokens)
    engine = _Engine(spec, session, plan, truth)

    turn = 0
    try:
        engine.emit_phase(PhaseKind.EMBEDDING, turn, None, 0)
        engine.emit_phase(PhaseKind.PREFILL, turn, None, 0)
        for step in range(output_tokens):
            engine.emit_phase(PhaseKind.DECODE, turn, step, step)
            engine.emit_phase(PhaseKind.SOFTMAX, turn, step, step)
            engine.emit_phase(PhaseKind.COPY_PROBS_TO_CPU, turn, step, step)
            engine.emit_phase(PhaseKind.SAMPLING, turn, step, step)
    except OverflowError as exc:
        # a timestamp past int64, or a jitter factor past the float range
        raise InvalidSpec(
            f"workload {spec.name!r} overflows the simulated nanosecond timeline ({exc})"
        ) from None

    truth.windows = WindowTable(*zip(*engine.windows))
    session.prompt_tokens = prompt_tokens
    session.output_tokens = output_tokens
    trace = session.seal()
    return trace, truth


# -- comparing the two engines ------------------------------------------------


def outcome(engine, spec, plan, prompt_tokens, output_tokens):
    """What one engine leaves behind: the sealed trace and the ground truth
    sidecar's bytes, or the error type and message up to its parenthesised
    detail."""
    try:
        trace, truth = engine(spec, prompt_tokens, output_tokens, plan)
    except (InvalidSpec, ValueError) as exc:
        return type(exc), str(exc).split(" (")[0]
    return trace, sidecar_bytes(truth)


def assert_same_replay(spec, plan, prompt_tokens, output_tokens):
    expected = outcome(scalar_run, spec, plan, prompt_tokens, output_tokens)
    actual = outcome(sim_engine._run, spec, plan, prompt_tokens, output_tokens)
    if not isinstance(expected[0], Trace):
        assert actual == expected
        return expected
    (trace, truth_json), (expected_trace, expected_json) = actual, expected
    assert trace.phases == expected_trace.phases
    assert trace.kernels.names == expected_trace.kernels.names
    for column in ("name_code", "queue_id", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns",
                   "t_start_ns", "t_end_ns"):
        assert np.array_equal(getattr(trace.kernels, column),
                              getattr(expected_trace.kernels, column)), column
    assert trace == expected_trace
    assert truth_json == expected_json
    return actual


names = st.sampled_from(["gemm", "norm", "rope", "copy"])
delays = st.just(0) | st.integers(1, 50_000)
# up to 1e17 ns the product value * exp(...) has an ulp of 1 ns or more, so
# a factor off in its last bit moves the rounded nanosecond
latencies = st.integers(1, 2_000_000) | st.integers(10**15, 10**17)


@st.composite
def kernel_specs(draw):
    return KernelSpec(
        name=draw(names),
        base_latency_ns=draw(latencies),
        per_step_slope_ns=draw(st.just(0) | st.integers(1, 10_000)),
        dispatch_gap_ns=draw(delays),
        queue_delay_ns=draw(delays),
        submit_delay_ns=draw(delays),
        invocations_per_phase=draw(st.integers(1, 3)),
    )


@st.composite
def workloads(draw):
    must_schedule = (PhaseKind.PREFILL, PhaseKind.DECODE, PhaseKind.SOFTMAX)
    scripts = {
        kind: PhaseScript(
            kind=kind,
            kernels=tuple(draw(st.lists(kernel_specs(), min_size=int(kind in must_schedule),
                                        max_size=3))),
            host_ns=draw(delays),
        )
        for kind in PhaseKind
    }
    jitter = JitterModel(seed=draw(st.integers(0, 2**32)),
                         sigma_rel=draw(st.sampled_from([0.0, 0.02, 0.5])))
    spec = WorkloadSpec(name="random", scripts=scripts, jitter=jitter)
    plan = None
    if draw(st.booleans()):
        plan = DuplicationPlan(kernel_name=draw(st.sampled_from(sorted(spec.kernel_names()))),
                               n=draw(st.integers(1, 50)))
    return spec, plan


def example_workload(decode, sigma_rel=0.5):
    """Scripts listed in reverse turn order, with "norm" in softmax too: a sidecar keyed
    in the order of ``spec.scripts`` differs from one keyed by first appearance in the turn."""
    kernels = {PhaseKind.PREFILL: (KernelSpec("rope", 40_000, 0, 9_000, 1_000, 2_000),),
               PhaseKind.DECODE: decode,
               PhaseKind.SOFTMAX: (KernelSpec("norm", 11_000, 0, 4_000, 500),)}
    scripts = {kind: PhaseScript(kind, kernels.get(kind, ()), host_ns=3_000)
               for kind in reversed(PhaseKind)}
    return WorkloadSpec(name="examples", scripts=scripts,
                        jitter=JitterModel(seed=5, sigma_rel=sigma_rel))


# the plan's kernel runs three times a phase
TRIPLED = example_workload((KernelSpec("gemm", 90_000, 1_000, 20_000, 2_000, 3_000,
                                       invocations_per_phase=3),
                            KernelSpec("norm", 7_000, 0, 500)))
# "norm" names two decode kernels of different latencies and the softmax kernel
SHARED = example_workload((KernelSpec("norm", 7_000, 0, 20_000, 2_000),
                           KernelSpec("gemm", 100_000, 0, 500),
                           KernelSpec("norm", 3_000, 50, 500, 0, 1_000, invocations_per_phase=2)))
# per-name totals past 2**53, where a float64 sum of the durations is off
HUGE = example_workload((KernelSpec("gemm", 10**17 + 1, 3, 1_000, invocations_per_phase=3),
                         KernelSpec("norm", 10**17 + 3)), sigma_rel=0.02)
EXAMPLES = [((TRIPLED, DuplicationPlan("gemm", 2)), 1, 3),
            ((SHARED, None), 1, 3),
            ((SHARED, DuplicationPlan("norm", 3)), 2, 3),
            ((HUGE, None), 1, 4),
            ((HUGE, DuplicationPlan("norm", 2)), 1, 8)]  # ends past 2**62: exact Python ints


def with_examples(test):
    for args in reversed(EXAMPLES):
        test = example(*args)(test)
    return test


def ending_at(spec, end_ns):
    """``spec`` with the host time of its sampling script, the last phase of a
    turn, set so that a one-token turn ends at ``end_ns``."""
    trace, _ = sim_engine.run(spec, 1, 1)
    sampling = spec.scripts[PhaseKind.SAMPLING]
    host_ns = sampling.host_ns + end_ns - int(trace.phases.t_end_ns[-1])
    return replace(spec, scripts={**spec.scripts,
                                  PhaseKind.SAMPLING: replace(sampling, host_ns=host_ns)})


@with_examples
@settings(max_examples=200, deadline=None)
@given(workloads(), st.integers(1, 4), st.integers(1, 10))
def test_array_engine_replays_scalar_engine(workload, prompt_tokens, output_tokens):
    spec, plan = workload
    assert_same_replay(spec, plan, prompt_tokens, output_tokens)


@settings(max_examples=200, deadline=None)
@given(workloads(), st.integers(1, 4), st.integers(1, 10))
@example((single_kernel_workload(), None), 1, 2)  # copy-probs windows of length 0
@example((ending_at(single_kernel_workload(), INT64_MAX), None), 1, 1)
@example((sim_engine.preset_gemma_decode().with_jitter(seed=42, sigma_rel=0.02),
          DuplicationPlan(sim_engine.PAGED_KV_KERNEL, 3)), 8, 3)
@with_examples
def test_sidecar_is_compact_dumps_of_the_reference(workload, prompt_tokens, output_tokens):
    spec, plan = workload
    try:
        _, truth = sim_engine._run(spec, prompt_tokens, output_tokens, plan)
    except InvalidSpec:  # the turn passes int64: no ground truth to write
        return
    reference = reference_ground_truth(truth)
    assert reference["windows"][0]["token_index"] is None
    expected = json.dumps(reference, separators=(",", ":")) + "\n"
    assert sidecar_bytes(truth) == expected.encode()


def test_the_first_sidecar_example_has_zero_length_windows():
    _, truth = sim_engine.run(single_kernel_workload(), 1, 2)
    assert (truth.windows.end_ns == truth.windows.start_ns).any()


@pytest.mark.parametrize("tokens", [1, 64])
@pytest.mark.parametrize("sigma_rel", [0.0, 0.02])
def test_preset_replays_scalar_engine(tokens, sigma_rel):
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=42, sigma_rel=sigma_rel)
    assert_same_replay(spec, None, 8, tokens)
    assert_same_replay(spec, DuplicationPlan(sim_engine.PAGED_KV_KERNEL, 50), 8, tokens)


# -- int64 limits of the bulk path ---------------------------------------------


def test_a_turn_past_2_62_adds_exact_ints_and_ends_inside_int64():
    """The last example's float bound passes 2**62, so the simulator sums
    exact Python ints, and its turn still ends inside int64."""
    trace, _ = assert_same_replay(HUGE, DuplicationPlan("norm", 2), 1, 8)
    assert 2**62 <= int(trace.phases.t_end_ns[-1]) < INT64_MAX


@pytest.mark.parametrize("spec", [single_kernel_workload(), sim_engine.preset_gemma_decode()],
                         ids=["back-to-back", "preset"])
def test_last_phase_may_end_at_int64_max_and_no_later(spec):
    spec = ending_at(spec, INT64_MAX)
    trace, _ = assert_same_replay(spec, None, 1, 1)
    assert int(trace.phases.t_end_ns[-1]) == INT64_MAX
    past = ending_at(spec, INT64_MAX + 1)
    with pytest.raises(InvalidSpec, match="overflows the simulated nanosecond timeline"):
        sim_engine.run(past, 1, 1)
    assert assert_same_replay(past, None, 1, 1)[0] is InvalidSpec


def test_slope_past_int64_with_jitter_replays_scalar_engine():
    # the true duration at the last step passes int64, so the jitter factor
    # must scale the exact integer, as the scalar engine's Python ints did
    spec = single_kernel_workload(base_latency_ns=2**62, per_step_slope_ns=2**62, seed=3,
                                  sigma_rel=0.5)
    for seed in range(8):
        assert_same_replay(spec.with_jitter(seed=seed), None, 1, 2)


@pytest.mark.parametrize("sigma_rel", [100.0, 1e300])
def test_factor_past_the_float_range_raises_invalid_spec(sigma_rel):
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=1, sigma_rel=sigma_rel)
    with pytest.raises(InvalidSpec, match="overflows the simulated nanosecond timeline"):
        sim_engine.run(spec, 1, 2)
    assert assert_same_replay(spec, None, 1, 2)[0] is InvalidSpec


PRESET = sim_engine.preset_gemma_decode()
PAST_INT64 = ending_at(PRESET, INT64_MAX + 1)  # and two tokens end later still


@pytest.mark.parametrize("spec, prompt_tokens, error", [
    (PAST_INT64, 1, InvalidSpec), (PRESET, 1.5, TypeError), (PRESET, True, TypeError),
], ids=["overflow", "fractional-prompt-tokens", "bool-prompt-tokens"])
def test_failed_run_leaves_no_partial_rows(made_sessions, spec, prompt_tokens, error):
    with pytest.raises(error):
        sim_engine.run(spec, prompt_tokens, 2)
    for session in made_sessions:
        trace = session.seal()
        assert len(trace.phases) == 0 and len(trace.kernels) == 0


@pytest.mark.parametrize("kernel, seed", [
    ("fused_add_rms_norm", 42), (sim_engine.PAGED_KV_KERNEL, 7), ("dequantize_matmul_ffn_down", 0),
])
def test_duplication_study_shape_replays_scalar_engine(kernel, seed):
    """The benchmark's duplication runs: 1000 copies of a decode kernel, 16 tokens, sigma 0.02."""
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=seed, sigma_rel=0.02)
    assert_same_replay(spec, DuplicationPlan(kernel, 1000), 8, 16)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_exponent_past_log_dbl_max_raises_the_scalar_engines_error(seed):
    """A draw whose exponent math.exp cannot take ends in the scalar engine's
    InvalidSpec, detail included: no earlier draw passes int64 here."""
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=seed, sigma_rel=1e4)
    exponents = 1e4 * np.random.Generator(np.random.Philox(seed)).standard_normal(100)
    assert (exponents > math.log(sys.float_info.max)).any()
    errors = []
    for engine in (scalar_run, sim_engine._run):
        with pytest.raises(InvalidSpec) as caught:
            engine(spec, 1, 2, None)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[0].endswith("(math range error)")


@pytest.mark.parametrize("seed", [3, 7])
def test_math_exps_error_comes_before_any_block_is_scaled(seed):
    """An exponent past log(DBL_MAX) in a late block still raises math.exp's
    error, not the int64 error an earlier block's product would raise."""
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=seed, sigma_rel=300.0)
    exponents = 300.0 * np.random.Generator(np.random.Philox(seed)).standard_normal(164)
    assert np.argmax(exponents > math.log(sys.float_info.max)) > 100  # a decode block's draw
    with pytest.raises(InvalidSpec, match=r"\(math range error\)$"):
        sim_engine.run(spec, 1, 2)
