"""Seeded replay: the array-based simulator against the scalar engine.

``_Jitter`` and ``_Engine`` below are the per-kernel simulator that
``lmmk.sim_engine`` used to run, kept verbatim as an oracle; ``scalar_run``
is its driver. Every case asserts that both engines produce equal phase
and kernel tables (kernel names in the same order), byte-equal ground
truth JSON and the same final virtual clock reading, or raise the same
error.
"""

import json
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import single_kernel_workload
from lmmk import sim_engine
from lmmk.errors import InvalidSpec, PhaseOverlap, SessionSealed
from lmmk.recorder import INT64_MAX, PhaseKind, Trace, TraceSession
from lmmk.sim_engine import (
    QUEUE_ID,
    DuplicationPlan,
    GroundTruth,
    JitterModel,
    KernelSpec,
    PhaseScript,
    PhaseWindowTruth,
    VirtualClock,
    WorkloadSpec,
    make_session,
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
        self.clock: VirtualClock = session.clock  # type: ignore[assignment]
        self.plan = plan
        self.truth = truth
        self.jitter = _Jitter(spec.jitter)
        self.device_free = self.clock()
        self.cursor = self.clock()

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
        self.clock.advance_to(phase_end)
        self.session.end_phase(handle)
        t = self.truth
        t.windows.append(
            PhaseWindowTruth(
                kind=kind,
                turn=turn,
                token_index=token_index,
                start_ns=phase_start,
                end_ns=phase_end,
                busy_ns=busy,
            )
        )
        t.phase_busy_ns[kind] = t.phase_busy_ns.get(kind, 0) + busy
        t.phase_wall_ns[kind] = t.phase_wall_ns.get(kind, 0) + (phase_end - phase_start)
        self.cursor = phase_end


def scalar_run(
    spec: WorkloadSpec,
    prompt_tokens: int,
    output_tokens: int,
    session: Optional[TraceSession],
    plan: Optional[DuplicationPlan],
) -> tuple[Trace, GroundTruth]:
    if prompt_tokens < 1 or output_tokens < 1:
        raise ValueError("prompt_tokens and output_tokens must be at least 1")
    validate_workload(spec)
    if session is None:
        session = make_session(spec.name)
    if not isinstance(session.clock, VirtualClock):
        raise TypeError("simulation sessions must use a VirtualClock (see make_session)")

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
        # a timestamp past the recorder's int64 columns, or a jitter factor
        # past the float range
        raise InvalidSpec(
            f"workload {spec.name!r} overflows the simulated nanosecond timeline ({exc})"
        ) from None

    session.prompt_tokens = prompt_tokens
    session.output_tokens = output_tokens
    trace = session.seal()
    return trace, truth


# -- comparing the two engines ------------------------------------------------


def outcome(engine, spec, plan, prompt_tokens, output_tokens, start_ns):
    """What one engine leaves behind: the sealed trace, the ground truth
    JSON and the final clock reading, or the error type and message up to
    its parenthesised detail."""
    session = TraceSession(device_label=spec.name, clock_offset_ns=0, clock=VirtualClock(start_ns))
    try:
        trace, truth = engine(spec, prompt_tokens, output_tokens, session, plan)
    except (InvalidSpec, ValueError) as exc:
        return type(exc), str(exc).split(" (")[0]
    return trace, json.dumps(truth.to_dict()), session.clock()


def assert_same_replay(spec, plan, prompt_tokens, output_tokens, start_ns=0):
    array_run = sim_engine._run
    expected = outcome(scalar_run, spec, plan, prompt_tokens, output_tokens, start_ns)
    actual = outcome(array_run, spec, plan, prompt_tokens, output_tokens, start_ns)
    if not isinstance(expected[0], Trace):
        assert actual == expected
        return expected
    (trace, truth_json, clock), (expected_trace, expected_json, expected_clock) = actual, expected
    assert trace.phases == expected_trace.phases
    assert trace.kernels.names == expected_trace.kernels.names
    for column in ("name_code", "queue_id", "t_cpu_enqueue_ns", "t_queued_ns", "t_submit_ns",
                   "t_start_ns", "t_end_ns"):
        assert np.array_equal(getattr(trace.kernels, column),
                              getattr(expected_trace.kernels, column)), column
    assert trace == expected_trace
    assert truth_json == expected_json
    assert clock == expected_clock
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


@settings(max_examples=200, deadline=None)
@given(workloads(), st.integers(1, 4), st.integers(1, 10),
       st.just(0) | st.integers(1, 10**15))
def test_array_engine_replays_scalar_engine(workload, prompt_tokens, output_tokens, start_ns):
    spec, plan = workload
    assert_same_replay(spec, plan, prompt_tokens, output_tokens, start_ns)


@pytest.mark.parametrize("tokens", [1, 64])
@pytest.mark.parametrize("sigma_rel", [0.0, 0.02])
def test_preset_replays_scalar_engine(tokens, sigma_rel):
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=42, sigma_rel=sigma_rel)
    assert_same_replay(spec, None, 8, tokens)
    assert_same_replay(spec, DuplicationPlan(sim_engine.PAGED_KV_KERNEL, 50), 8, tokens)


# -- errors of the bulk path ---------------------------------------------------


def test_sealed_session_raises_session_sealed():
    session = make_session()
    session.seal()
    with pytest.raises(SessionSealed):
        sim_engine.run(single_kernel_workload(), 1, 1, session=session)


def test_open_phase_raises_phase_overlap():
    session = make_session()
    session.begin_phase(PhaseKind.EMBEDDING, 0)
    with pytest.raises(PhaseOverlap):
        sim_engine.run(single_kernel_workload(), 1, 1, session=session)


def test_session_without_virtual_clock_raises_type_error():
    with pytest.raises(TypeError):
        sim_engine.run(single_kernel_workload(), 1, 1, session=TraceSession(clock_offset_ns=0))


def _natural_end(spec, output_tokens):
    trace, _ = sim_engine.run(spec, 1, output_tokens)
    return int(trace.phases.t_end_ns[-1])


@pytest.mark.parametrize("spec", [single_kernel_workload(), sim_engine.preset_gemma_decode()],
                         ids=["back-to-back", "preset"])
def test_last_phase_may_end_at_int64_max_and_no_later(spec):
    start = INT64_MAX - _natural_end(spec, 3)
    trace, _ = assert_same_replay(spec, None, 1, 3, start)[:2]
    assert int(trace.phases.t_end_ns[-1]) == INT64_MAX
    session = TraceSession(clock_offset_ns=0, clock=VirtualClock(start + 1))
    with pytest.raises(InvalidSpec, match="overflows the simulated nanosecond timeline"):
        sim_engine.run(spec, 1, 3, session=session)
    assert assert_same_replay(spec, None, 1, 3, start + 1)[0] is InvalidSpec


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


@pytest.mark.parametrize("start, error", [(INT64_MAX - 10, InvalidSpec), (-10, ValueError)],
                         ids=["overflow", "negative-timestamp"])
def test_failed_run_leaves_no_partial_rows(start, error):
    clock = VirtualClock(start)
    session = TraceSession(clock_offset_ns=0, clock=clock)
    with pytest.raises(error):
        sim_engine.run(sim_engine.preset_gemma_decode(), 1, 2, session=session)
    assert clock() == start
    trace = session.seal()
    assert len(trace.phases) == 0 and len(trace.kernels) == 0
