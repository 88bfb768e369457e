"""Deterministic discrete-event simulator of an on-device inference backend.

The engine replays a declarative workload: one embedding and one prefill
phase, then per output token a decode, softmax, copy-probs-to-host and
sampling phase. Kernels run on a single in-order device queue; the host
enqueues them along its own timeline with per-kernel dispatch gaps, so a
kernel starts at the later of its host-driven ready time and the moment
the device frees up. That is what produces the idle gaps a real mobile
GPU shows between kernel launches.

A turn is computed as arrays. Every phase of one kind has the same kernel
slots, so each kind is one (phases x slots) block. With ready_i a
kernel's submit-ready time and D_i the running sum of durations, both
from the phase start, the queue gives end_i = D_i + max over j <= i of
(ready_j - D_(j-1)): one ``np.maximum.accumulate`` per block. A phase
lasts max(host cursor, last end) + host_ns, and phases follow each other
from the session clock's reading. The rows reach the recorder session in
one checked bulk append, and the virtual clock ends at the turn's end.
The engine keeps exact ground truth (realized durations, per-phase busy
and wall time, per-window idle) so analyses can be verified bit-exactly.
With jitter disabled a run is a pure function of the workload; with
jitter enabled, a counter-based generator seeded from the workload makes
replays reproducible (draw order in docs/workload_schema.md).
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


def _slots(script: PhaseScript, plan: Optional[DuplicationPlan]) -> list[tuple[KernelSpec, bool]]:
    """The kernel and duplicate flag of each kernel slot of one phase: every
    invocation, then the copies the plan inserts after it."""
    copies = {} if plan is None else {plan.kernel_name: plan.n}
    return [(ks, copy > 0) for ks in script.kernels for _ in range(ks.invocations_per_phase)
            for copy in range(1 + copies.get(ks.name, 0))]


def _terms(spec: WorkloadSpec, layouts: list, tokens: int) -> list:
    """Each kind's (phases, slots, 4) int64 block of jittered dispatch gap,
    queue delay, submit delay and duration, with the jitter drawn in the
    order docs/workload_schema.md gives."""
    sigma = spec.jitter.sigma_rel
    tables = [np.array([(0 if dup else ks.dispatch_gap_ns, ks.queue_delay_ns, ks.submit_delay_ns,
                         ks.base_latency_ns, ks.per_step_slope_ns) for ks, dup in slots],
                       dtype=np.int64).reshape(-1, 5) for slots in layouts]
    draws = [(table[:, :4] != 0) & (sigma > 0) for table in tables]  # [slot, term] draws
    # draws run embedding, prefill, then per token decode..sampling: edges[k] is where
    # kind k's draws start, counting the first token's
    edges = np.cumsum([0] + [draw.sum() for draw in draws])
    count = edges[2] + tokens * (edges[6] - edges[2])
    rng = np.random.Generator(np.random.Philox(spec.jitter.seed))
    # math.exp, not np.exp: the two differ in the last bit on some inputs
    factors = np.fromiter(map(math.exp, sigma * rng.standard_normal(count)), np.float64, count)
    per_token = factors[edges[2]:].reshape(tokens, edges[6] - edges[2])  # a row per token
    blocks = []
    for k, (slots, table, draw) in enumerate(zip(layouts, tables, draws)):
        steps = np.arange(tokens if k >= 2 else 1)[:, None]  # embedding and prefill: step 0
        longest = max((ks.base_latency_ns + ks.per_step_slope_ns * int(steps[-1, 0])
                       for ks, _ in slots), default=0)
        if longest > INT64_MAX and not sigma:
            raise OverflowError("a kernel duration passes int64")
        steps = steps.astype(object if longest > INT64_MAX else np.int64)  # object: exact ints
        block = np.empty((len(steps), len(slots), 4), dtype=steps.dtype)
        block[..., :3] = table[:, :3]
        block[..., 3] = table[:, 3] + table[:, 4] * steps
        if draw.any():
            scaled = block[:, draw].astype(np.float64)
            with np.errstate(over="ignore"):
                scaled *= (factors[None, edges[k]:edges[k + 1]] if k < 2
                           else per_token[:, edges[k] - edges[2]:edges[k + 1] - edges[2]])
            if not scaled.max() < 2.0**63:
                raise OverflowError("a jittered term is not a finite float within int64")
            block[:, draw] = np.maximum(np.rint(scaled, out=scaled), 1, out=scaled)
        blocks.append(block.astype(np.int64))
    return blocks


def _simulate(spec: WorkloadSpec, plan: Optional[DuplicationPlan], prompt_tokens: int,
              output_tokens: int, t0: int) -> tuple[tuple, list[str], tuple, GroundTruth]:
    """The columns :meth:`TraceSession.record_columns` takes for a turn
    that starts at ``t0``, and the turn's ground truth."""
    # kind codes are positions in PhaseKind, whose order is also the turn's phase order
    kind_code = np.concatenate(([0, 1], np.tile(np.arange(2, 6), output_tokens)))
    token = np.concatenate(([-1, -1], np.repeat(np.arange(output_tokens), 4)))  # -1: none
    step = np.maximum(token, 0)
    layouts = [_slots(spec.scripts[kind], plan) for kind in PhaseKind]
    blocks = _terms(spec, layouts, output_tokens)
    host_ns = [spec.scripts[kind].host_ns for kind in PhaseKind]
    bound = t0 + sum(float(b.sum(dtype=np.float64)) + h * len(b) for b, h in zip(blocks, host_ns))
    if bound >= 2.0**62:  # a sum could pass int64: add as exact Python ints
        blocks = [block.astype(object) for block in blocks]
    lengths = np.empty(len(kind_code), dtype=blocks[0].dtype)
    busy = np.empty_like(lengths)
    relative = []  # per kind: enqueue, submit, start and end from the phase start
    for k, block in enumerate(blocks):
        gap, queue, submit, duration = np.moveaxis(block, 2, 0)
        host = np.cumsum(gap, axis=1)
        done = np.cumsum(duration, axis=1)
        end = done + np.maximum.accumulate(host + queue + submit - done + duration, axis=1)
        tail = block.shape[1] > 0
        lengths[kind_code == k] = (np.maximum(host[:, -1], end[:, -1]) if tail else 0) + host_ns[k]
        busy[kind_code == k] = done[:, -1] if tail else 0
        relative.append((host, host + queue, end - duration, end))
    ends = t0 + np.cumsum(lengths)
    if ends[-1] > INT64_MAX:
        raise OverflowError("the last phase ends past int64")
    ends = ends.astype(np.int64)
    starts = ends - lengths.astype(np.int64)

    names = list(dict.fromkeys(ks.name for slots in layouts for ks, _ in slots))
    codes = {name: i for i, name in enumerate(names)}
    per_phase = np.array([len(slots) for slots in layouts])[kind_code]
    first = np.cumsum(per_phase) - per_phase  # each phase's first kernel row
    kernels = np.empty((5, per_phase.sum()), dtype=np.int64)  # name code, then `relative`
    truth = GroundTruth(prompt_tokens=prompt_tokens, output_tokens=output_tokens)
    totals = (truth.kernel_total_ns, truth.kernel_true_total_ns, truth.kernel_invocations)
    for k, (kind, slots, block) in enumerate(zip(PhaseKind, layouts, blocks)):
        pos = np.flatnonzero(kind_code == k)
        rows = first[pos, None] + np.arange(len(slots))
        kernels[0, rows] = [codes[ks.name] for ks, _ in slots]
        for column, values in zip(kernels[1:], relative[k]):
            column[rows] = starts[pos, None] + values
        truth.phase_busy_ns[kind] = int(busy[pos].sum())
        truth.phase_wall_ns[kind] = int(lengths[pos].sum())
        step_sum = int(step[pos].sum())
        for (ks, _), total in zip(slots, block[..., 3].sum(axis=0).tolist()):
            true_total = len(pos) * ks.base_latency_ns + ks.per_step_slope_ns * step_sum
            for by_name, value in zip(totals, (total, true_total, len(pos))):
                by_name[ks.name] = by_name.get(ks.name, 0) + value
    # one int object per token and per phase boundary keeps the ground truth small
    kinds, end_ns = tuple(PhaseKind), ends.tolist()
    tokens = [None, None] + [t for t in range(output_tokens) for _ in range(4)]
    truth.windows = [
        PhaseWindowTruth(kinds[k], 0, t, start, end, b)
        for k, t, start, end, b in zip(kind_code.tolist(), tokens, [t0] + end_ns[:-1], end_ns,
                                       busy.tolist())
    ]
    code, enqueue, submit, start, end = kernels
    queue = np.broadcast_to(np.int64(QUEUE_ID), enqueue.shape)
    kernels = (code, queue, enqueue, enqueue, submit, start, end)  # queued = enqueue: one clock
    return (kind_code, np.zeros_like(token), token, starts, ends), names, kernels, truth


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
    try:
        phases, names, kernels, truth = _simulate(spec, plan, prompt_tokens, output_tokens,
                                                  session.clock())
    except OverflowError as exc:  # a value past int64, or a factor past the float range
        raise InvalidSpec(
            f"workload {spec.name!r} overflows the simulated nanosecond timeline ({exc})"
        ) from None
    session.record_columns(phases, names, kernels)
    session.clock.advance_to(int(phases[4][-1]))
    del phases, kernels  # the session holds a copy, and sealing makes another
    session.prompt_tokens = prompt_tokens
    session.output_tokens = output_tokens
    return session.seal(), truth


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
