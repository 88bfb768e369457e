"""Deterministic discrete-event simulator of an on-device inference backend.

The engine replays a declarative workload: one embedding and one prefill
phase, then per output token a decode, softmax, copy-probs-to-host and
sampling phase. Kernels run on a single in-order device queue; the host
enqueues them along its own timeline with per-kernel dispatch gaps, so a
kernel starts at the later of its host-driven ready time and the moment
the device frees up. That is what produces the idle gaps a real mobile
GPU shows between kernel launches.

Events are emitted through the recorder API against a virtual clock, and
the engine keeps exact ground truth (realized durations, per-phase busy
and wall time, per-window idle) so analyses can be verified bit-exactly.
With jitter disabled a run is a pure function of the workload; with
jitter enabled, a counter-based generator seeded from the workload makes
replays reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import InvalidSpec, UnknownKernel
from .recorder import INT64_MAX, INT64_MIN, PhaseKind, Trace, TraceSession

QUEUE_ID = 0  # single in-order device queue


class VirtualClock:
    """Manually advanced monotonic clock for simulated sessions."""

    def __init__(self, start_ns: int = 0) -> None:
        self._t = start_ns

    def __call__(self) -> int:
        return self._t

    def advance_to(self, t_ns: int) -> None:
        if t_ns < self._t:
            raise ValueError("virtual clock cannot move backwards")
        self._t = t_ns


@dataclass(frozen=True)
class KernelSpec:
    """Per-kernel timing parameters.

    base_latency_ns grows by per_step_slope_ns for every decode step (zero
    for everything except paged-attention-like kernels whose cost scales
    with the KV cache). dispatch_gap_ns is host-side preparation time spent
    before the enqueue; queue_delay_ns and submit_delay_ns are the
    queued-to-submit and submit-to-start stages of the command lifecycle.
    """

    name: str
    base_latency_ns: int
    per_step_slope_ns: int = 0
    dispatch_gap_ns: int = 0
    queue_delay_ns: int = 0
    submit_delay_ns: int = 0
    invocations_per_phase: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("kernel name must be non-empty")
        if self.base_latency_ns < 1:
            raise ValueError("base_latency_ns must be at least 1")
        if min(self.per_step_slope_ns, self.dispatch_gap_ns,
               self.queue_delay_ns, self.submit_delay_ns) < 0:
            raise ValueError("delays and slopes must be nonnegative")
        if self.invocations_per_phase < 1:
            raise ValueError("invocations_per_phase must be at least 1")


@dataclass(frozen=True)
class PhaseScript:
    """Ordered kernel schedule for one phase kind, plus host-only time
    appended after the last kernel completes (a phase like sampling is
    host-only and schedules no kernels at all)."""

    kind: PhaseKind
    kernels: tuple[KernelSpec, ...] = ()
    host_ns: int = 0

    def __post_init__(self) -> None:
        if self.host_ns < 0:
            raise ValueError("host_ns must be nonnegative")


@dataclass(frozen=True)
class JitterModel:
    """Multiplicative lognormal-style noise: each latency term is scaled by
    exp(sigma_rel * g) with g standard normal from a seeded counter-based
    generator. sigma_rel=0 replays fully deterministically."""

    seed: int = 0
    sigma_rel: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_rel) or self.sigma_rel < 0:
            raise ValueError(f"sigma_rel must be finite and nonnegative, got {self.sigma_rel!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scripts: dict[PhaseKind, PhaseScript] = field(default_factory=dict)
    jitter: JitterModel = JitterModel()

    def kernel_names(self) -> set[str]:
        return {ks.name for script in self.scripts.values() for ks in script.kernels}

    def with_jitter(self, seed: Optional[int] = None, sigma_rel: Optional[float] = None) -> "WorkloadSpec":
        new = JitterModel(
            seed=self.jitter.seed if seed is None else seed,
            sigma_rel=self.jitter.sigma_rel if sigma_rel is None else sigma_rel,
        )
        return replace(self, jitter=new)


@dataclass(frozen=True)
class DuplicationPlan:
    """Insert n back-to-back copies of the named kernel immediately after
    each of its invocations."""

    kernel_name: str
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("duplication count must be at least 1")


@dataclass(frozen=True)
class PhaseWindowTruth:
    """Exact busy/idle decomposition of one phase occurrence."""

    kind: PhaseKind
    turn: int
    token_index: Optional[int]
    start_ns: int
    end_ns: int
    busy_ns: int

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def idle_ns(self) -> int:
        return self.wall_ns - self.busy_ns

    @property
    def idle_fraction(self) -> float:
        return self.idle_ns / self.wall_ns if self.wall_ns > 0 else 0.0


@dataclass
class GroundTruth:
    """What a perfect profiler would reconstruct from the run.

    Realized values are the simulated ones (equal to the unjittered truth
    when jitter is off); kernel_true_total_ns keeps the unjittered sums so
    estimator tests can compare against the noise-free target.
    """

    kernel_total_ns: dict[str, int] = field(default_factory=dict)
    kernel_true_total_ns: dict[str, int] = field(default_factory=dict)
    kernel_invocations: dict[str, int] = field(default_factory=dict)
    phase_busy_ns: dict[PhaseKind, int] = field(default_factory=dict)
    phase_wall_ns: dict[PhaseKind, int] = field(default_factory=dict)
    windows: list[PhaseWindowTruth] = field(default_factory=list)
    prompt_tokens: int = 0
    output_tokens: int = 0

    def kernel_mean_ns(self, name: str) -> float:
        return self.kernel_total_ns[name] / self.kernel_invocations[name]

    def kernel_true_mean_ns(self, name: str) -> float:
        return self.kernel_true_total_ns[name] / self.kernel_invocations[name]

    def decode_windows(self) -> list[PhaseWindowTruth]:
        return [w for w in self.windows if w.kind is PhaseKind.DECODE]

    def to_dict(self) -> dict:
        return {
            "prompt_tokens": self.prompt_tokens,
            "output_tokens": self.output_tokens,
            "kernel_total_ns": dict(self.kernel_total_ns),
            "kernel_true_total_ns": dict(self.kernel_true_total_ns),
            "kernel_invocations": dict(self.kernel_invocations),
            "phase_busy_ns": {k.value: v for k, v in self.phase_busy_ns.items()},
            "phase_wall_ns": {k.value: v for k, v in self.phase_wall_ns.items()},
            "windows": [
                {
                    "kind": w.kind.value,
                    "turn": w.turn,
                    "token_index": w.token_index,
                    "start_ns": w.start_ns,
                    "end_ns": w.end_ns,
                    "busy_ns": w.busy_ns,
                    "idle_ns": w.idle_ns,
                    "idle_fraction": w.idle_fraction,
                }
                for w in self.windows
            ],
        }


def validate_workload(spec: WorkloadSpec) -> None:
    """All six phase kinds must have scripts; prefill, decode and softmax
    must schedule at least one kernel."""
    for kind in PhaseKind:
        if kind not in spec.scripts:
            raise InvalidSpec(f"workload {spec.name!r} is missing a {kind.value} script")
        if spec.scripts[kind].kind is not kind:
            raise InvalidSpec(
                f"script under {kind.value} declares kind {spec.scripts[kind].kind.value}"
            )
    for kind in (PhaseKind.PREFILL, PhaseKind.DECODE, PhaseKind.SOFTMAX):
        if not spec.scripts[kind].kernels:
            raise InvalidSpec(f"{kind.value} script must schedule at least one kernel")


def make_session(device_label: str = "sim-device") -> TraceSession:
    """Recorder session on a virtual clock with device/host clocks unified
    (offset 0), ready to be driven by :func:`run`."""
    return TraceSession(device_label=device_label, clock_offset_ns=0, clock=VirtualClock())


class _Jitter:
    def __init__(self, model: JitterModel) -> None:
        self.sigma = model.sigma_rel
        self.rng = np.random.Generator(np.random.Philox(model.seed))

    def __call__(self, value_ns: int) -> int:
        if self.sigma == 0.0 or value_ns == 0:
            return value_ns
        scaled = value_ns * math.exp(self.sigma * self.rng.standard_normal())
        return max(1, int(round(scaled)))


def run(
    spec: WorkloadSpec,
    prompt_tokens: int,
    output_tokens: int,
    session: Optional[TraceSession] = None,
) -> tuple[Trace, GroundTruth]:
    """Simulate one prompt/response turn and return the sealed trace plus
    exact ground truth."""
    return _run(spec, prompt_tokens, output_tokens, session, plan=None)


def run_with_duplication(
    spec: WorkloadSpec,
    plan: DuplicationPlan,
    prompt_tokens: int,
    output_tokens: int,
    session: Optional[TraceSession] = None,
) -> tuple[Trace, GroundTruth]:
    """Like :func:`run` but every invocation of the plan's kernel is
    followed by n back-to-back duplicates with independent jitter draws."""
    if plan.kernel_name not in spec.kernel_names():
        raise UnknownKernel(f"kernel {plan.kernel_name!r} is not in workload {spec.name!r}")
    return _run(spec, prompt_tokens, output_tokens, session, plan=plan)


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


def _run(
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


# -- presets ------------------------------------------------------------------

#: Name of the attention kernel whose latency grows with the decode step.
PAGED_KV_KERNEL = "batch_decode_paged_kv"

#: The three fused GEMM kernels that dominate decode-step busy time.
GEMM_TRIO = (
    "dequantize_matmul_ffn_gate",
    "dequantize_matmul_ffn_up",
    "dequantize_matmul_ffn_down",
)


def preset_gemma_decode() -> WorkloadSpec:
    """Decode-heavy workload for a quantized ~2B model on a phone-class GPU.

    The constants are calibrated, not measured: one decode step at step 0
    spends about 22% of its window idle in host-side dispatch gaps, the
    three FFN GEMMs carry over 70% of step busy time, the micro-kernels
    stay under 10% combined, and the paged-KV attention kernel grows
    3,500 ns per step from a 25 us base so it reaches 0.9 ms at step 250.
    Because the per-step idle stays constant while the attention kernel
    grows, a 16-token generation idles ~21% of its decode time and a
    256-token generation ~12%.
    """
    qd, sd = 2_000, 3_000
    decode = PhaseScript(
        kind=PhaseKind.DECODE,
        kernels=(
            KernelSpec("attn_rms_norm", 7_000, 0, 20_000, qd, sd),
            KernelSpec("dequantize_matmul_qkv", 36_000, 0, 32_000, qd, sd),
            KernelSpec("fused_rope", 4_000, 0, 61_000, qd, sd),
            KernelSpec("kv_cache_append", 4_000, 0, 29_000, qd, sd),
            KernelSpec(PAGED_KV_KERNEL, 25_000, 3_500, 33_500, qd, sd),
            KernelSpec("dequantize_matmul_attn_out", 24_000, 0, 500, qd, sd),
            KernelSpec("fused_add_rms_norm", 9_000, 0, 500, qd, sd, invocations_per_phase=2),
            KernelSpec("dequantize_matmul_ffn_gate", 112_000, 0, 500, qd, sd),
            KernelSpec("dequantize_matmul_ffn_up", 108_000, 0, 500, qd, sd),
            KernelSpec("split_gelu_multiply", 7_000, 0, 500, qd, sd),
            KernelSpec("dequantize_matmul_ffn_down", 116_000, 0, 500, qd, sd),
        ),
    )
    prefill = PhaseScript(
        kind=PhaseKind.PREFILL,
        kernels=(
            KernelSpec("prefill_rms_norm", 150_000, 0, 20_000, qd, sd, invocations_per_phase=2),
            KernelSpec("dequantize_matmul_prefill_qkv", 2_500_000, 0, 30_000, qd, sd,
                       invocations_per_phase=2),
            KernelSpec("batch_prefill_paged_kv", 1_800_000, 0, 25_000, qd, sd,
                       invocations_per_phase=2),
            KernelSpec("dequantize_matmul_prefill_ffn_gate_up", 5_200_000, 0, 30_000, qd, sd,
                       invocations_per_phase=2),
            KernelSpec("dequantize_matmul_prefill_ffn_down", 4_800_000, 0, 30_000, qd, sd,
                       invocations_per_phase=2),
        ),
    )
    scripts = {
        PhaseKind.EMBEDDING: PhaseScript(
            kind=PhaseKind.EMBEDDING,
            kernels=(KernelSpec("dequantize_embedding_lookup", 100_000, 0, 10_000, qd, sd),),
            host_ns=50_000,
        ),
        PhaseKind.PREFILL: prefill,
        PhaseKind.DECODE: decode,
        PhaseKind.SOFTMAX: PhaseScript(
            kind=PhaseKind.SOFTMAX,
            kernels=(
                KernelSpec("softmax_chunked_max", 80_000, 0, 8_000, qd, sd),
                KernelSpec("softmax_normalize", 60_000, 0, 4_000, qd, sd),
            ),
        ),
        PhaseKind.COPY_PROBS_TO_CPU: PhaseScript(
            kind=PhaseKind.COPY_PROBS_TO_CPU,
            kernels=(KernelSpec("copy_probs_device_to_host", 400_000, 0, 6_000, qd, sd),),
            host_ns=10_000,
        ),
        PhaseKind.SAMPLING: PhaseScript(kind=PhaseKind.SAMPLING, host_ns=65_000),
    }
    return WorkloadSpec(name="gemma2-decode", scripts=scripts, jitter=JitterModel())


PRESETS = {
    "gemma2-decode": preset_gemma_decode,
}


# -- declarative workload files ----------------------------------------------

_KERNEL_FIELDS = (
    "per_step_slope_ns",
    "dispatch_gap_ns",
    "queue_delay_ns",
    "submit_delay_ns",
    "invocations_per_phase",
)


def workload_to_dict(spec: WorkloadSpec) -> dict:
    return {
        "name": spec.name,
        "jitter": {"seed": spec.jitter.seed, "sigma_rel": spec.jitter.sigma_rel},
        "phases": {
            kind.value: {
                "host_ns": script.host_ns,
                "kernels": [
                    {
                        "name": ks.name,
                        "base_latency_ns": ks.base_latency_ns,
                        **{f: getattr(ks, f) for f in _KERNEL_FIELDS},
                    }
                    for ks in script.kernels
                ],
            }
            for kind, script in spec.scripts.items()
        },
    }


def _int_field(obj: dict, key: str, default: Optional[int] = None) -> int:
    """The JSON integer under ``key`` (``default`` when absent and given),
    within int64."""
    value = obj[key] if default is None else obj.get(key, default)
    if type(value) is not int or not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"field {key!r} must be an integer within int64, got {value!r}")
    return value


def _str_field(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string, got {value!r}")
    return value


def workload_from_dict(data: dict) -> WorkloadSpec:
    """Build a workload from its JSON form (schema in docs/).

    Names must be strings, integer fields JSON integers within int64 and
    ``sigma_rel`` a finite number; anything else raises
    :class:`InvalidSpec`.
    """
    try:
        jitter_data = data.get("jitter", {})
        sigma_rel = jitter_data.get("sigma_rel", 0.0)
        if type(sigma_rel) not in (int, float):
            raise ValueError(f"field 'sigma_rel' must be a number, got {sigma_rel!r}")
        jitter = JitterModel(seed=_int_field(jitter_data, "seed", 0), sigma_rel=float(sigma_rel))
        scripts = {}
        for kind_name, phase_data in data["phases"].items():
            kind = PhaseKind(kind_name)
            kernels = tuple(
                KernelSpec(
                    name=_str_field(k, "name"),
                    base_latency_ns=_int_field(k, "base_latency_ns"),
                    **{f: _int_field(k, f, 1 if f == "invocations_per_phase" else 0)
                       for f in _KERNEL_FIELDS},
                )
                for k in phase_data.get("kernels", [])
            )
            scripts[kind] = PhaseScript(
                kind=kind, kernels=kernels, host_ns=_int_field(phase_data, "host_ns", 0)
            )
        spec = WorkloadSpec(name=_str_field(data, "name"), scripts=scripts, jitter=jitter)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed workload config: {exc}") from exc
    validate_workload(spec)
    return spec


def load_workload(path: str) -> WorkloadSpec:
    """Load a workload from a JSON config file (schema in docs/). A file
    that is not UTF-8 JSON, or nests too deep to decode, raises
    :class:`InvalidSpec`."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:
            raise InvalidSpec(f"malformed workload file: {exc}") from None
    return workload_from_dict(data)


def save_workload(spec: WorkloadSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(workload_to_dict(spec), f, indent=2)
        f.write("\n")
