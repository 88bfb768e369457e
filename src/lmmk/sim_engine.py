"""Deterministic discrete-event simulator of an on-device inference backend.

The engine replays a declarative workload: one embedding and one prefill
phase, then per output token a decode, softmax, copy-probs-to-host and
sampling phase. Kernels run on a single in-order device queue; the host
enqueues them along its own timeline with per-kernel dispatch gaps, so a
kernel starts at the later of its host-driven ready time and the moment
the device frees up. That is what produces the idle gaps a real mobile
GPU shows between kernel launches.

A turn is computed as arrays. Every phase of one kind has the same kernel
slots, kept as two arrays (each slot's kernel index in its script and its
duplicate flag), so each kind is one (phases x slots) block and per-kernel
work is done once, then gathered by index. With ready_i a kernel's
submit-ready time and D_i the running sum of durations, both from the
phase start, the queue gives end_i = D_i + max over j <= i of
(ready_j - D_(j-1)): one ``np.maximum.accumulate`` per block. A phase
lasts max(host cursor, last end) + host_ns, and phases follow each other
from 0 ns. The rows reach a session the run makes itself in one checked
bulk append, so no phase is timed by a clock.
The engine keeps exact ground truth (realized durations, per-phase busy
and wall time, per-window idle) so analyses can be verified bit-exactly.
With jitter disabled a run is a pure function of the workload; with
jitter enabled, a counter-based generator seeded from the workload makes
replays reproducible (draw order in docs/workload_schema.md).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import InvalidSpec, UnknownKernel
from .recorder import (INT64_MAX, PhaseKind, Trace, TraceSession, _INDEX_BY_VALUE, _KIND_BY_INDEX,
                       _NO_TOKEN, _RecordTable, _shown, check_int64)

QUEUE_ID = 0  # single in-order device queue
MAX_KERNEL_ROWS = 2**24  # a run that would record more is refused before anything is built


class VirtualClock:
    """The clock of a simulated session. It always reads 0: a run appends its
    whole turn, stamps included, in one bulk call, so nothing reads it."""

    def __call__(self) -> int:
        return 0


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
        if type(self.name) is not str or not self.name:
            raise ValueError(f"kernel name must be a non-empty str, got {self.name!r}")
        for f in fields(self)[1:]:
            check_int64(f"field {f.name!r}", getattr(self, f.name))
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
        check_int64("field 'host_ns'", self.host_ns)
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
        check_int64("field 'seed'", self.seed)
        if type(self.sigma_rel) not in (int, float):
            raise ValueError(f"field 'sigma_rel' must be a number, got {self.sigma_rel!r}")
        if not 0 <= self.sigma_rel <= sys.float_info.max:  # exact for an int past the floats too
            raise ValueError("sigma_rel must be finite and nonnegative, "
                             f"got {_shown(self.sigma_rel)}")
        object.__setattr__(self, "sigma_rel", float(self.sigma_rel))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    scripts: dict[PhaseKind, PhaseScript] = field(default_factory=dict)
    jitter: JitterModel = JitterModel()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"field 'name' must be a string, got {self.name!r}")

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
        check_int64("field 'n'", self.n)
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


class WindowTable(_RecordTable):
    """Phase windows as int64 columns: ``kind_code`` (the kind's position in
    :class:`PhaseKind`), ``turn``, ``token_index`` (-1 for None),
    ``start_ns``, ``end_ns`` and ``busy_ns``; rows are
    :class:`PhaseWindowTruth`."""

    __slots__ = ("kind_code", "turn", "token_index", "start_ns", "end_ns", "busy_ns")
    _columns = __slots__

    def _row(self, values) -> PhaseWindowTruth:
        kind, turn, token, start, end, busy = values
        return PhaseWindowTruth(_KIND_BY_INDEX[kind], turn, None if token == _NO_TOKEN else token,
                                start, end, busy)


@dataclass
class GroundTruth:
    """What a perfect profiler would reconstruct from the run.

    Realized values are the simulated ones (equal to the unjittered truth
    when jitter is off); kernel_true_total_ns keeps the unjittered sums so
    estimator tests can compare against the noise-free target. ``windows``
    holds one row per phase occurrence, in phase order, as columns;
    :func:`lmmk.trace_io.write_ground_truth` writes the ``.gt.json`` sidecar.
    """

    kernel_total_ns: dict[str, int] = field(default_factory=dict)
    kernel_true_total_ns: dict[str, int] = field(default_factory=dict)
    kernel_invocations: dict[str, int] = field(default_factory=dict)
    phase_busy_ns: dict[PhaseKind, int] = field(default_factory=dict)
    phase_wall_ns: dict[PhaseKind, int] = field(default_factory=dict)
    windows: WindowTable = field(default_factory=lambda: WindowTable(*[()] * 6))
    prompt_tokens: int = 0
    output_tokens: int = 0

    def kernel_true_mean_ns(self, name: str) -> float:
        return self.kernel_true_total_ns[name] / self.kernel_invocations[name]

    def decode_windows(self) -> list[PhaseWindowTruth]:
        windows = self.windows
        return list(windows.take(windows.kind_code == _INDEX_BY_VALUE[PhaseKind.DECODE.value]))


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
    """The recorder session each :func:`run` records its turn into: device
    and host clocks unified (offset 0), on a :class:`VirtualClock`."""
    return TraceSession(device_label=device_label, clock_offset_ns=0, clock=VirtualClock())


def run(spec: WorkloadSpec, prompt_tokens: int, output_tokens: int) -> tuple[Trace, GroundTruth]:
    """Simulate one prompt/response turn from 0 ns and return the sealed
    trace plus exact ground truth."""
    return _run(spec, prompt_tokens, output_tokens, plan=None)


def run_with_duplication(spec: WorkloadSpec, plan: DuplicationPlan, prompt_tokens: int,
                         output_tokens: int) -> tuple[Trace, GroundTruth]:
    """Like :func:`run` but every invocation of the plan's kernel is
    followed by n back-to-back duplicates with independent jitter draws."""
    if plan.kernel_name not in spec.kernel_names():
        raise UnknownKernel(f"kernel {plan.kernel_name!r} is not in workload {spec.name!r}")
    return _run(spec, prompt_tokens, output_tokens, plan=plan)


def _slots(kernels: tuple, counts: list, copies: dict) -> tuple[np.ndarray, np.ndarray]:
    """One phase's slots as two arrays, each slot's index in ``kernels`` and its duplicate
    flag. Kernel j fills one run of ``counts[j]`` slots: each invocation, then the ``copies``
    the plan inserts after it."""
    index = np.repeat(np.arange(len(kernels)), np.array(counts, dtype=np.int64))
    duplicate = np.zeros(len(index), dtype=bool)
    for j, ks in enumerate(kernels):
        if ks.name in copies:  # each invocation's slot, then its copies
            duplicate[index == j] = np.arange(counts[j]) % (1 + copies[ks.name]) > 0
    return index, duplicate


def _terms(spec: WorkloadSpec, scripts: list, layouts: list, tokens: int) -> list:
    """Each kind's (phases, slots, 4) int64 block of jittered dispatch gap, queue delay, submit
    delay and duration, jitter drawn in the order docs/workload_schema.md gives. The term table
    and the int64 bound are worked out per kernel; the slots gather the table by index."""
    sigma = spec.jitter.sigma_rel
    tables = [np.array([(ks.dispatch_gap_ns, ks.queue_delay_ns, ks.submit_delay_ns,
                         ks.base_latency_ns, ks.per_step_slope_ns) for ks in kernels],
                       dtype=np.int64).reshape(-1, 5)[index]
              for kernels, (index, _) in zip(scripts, layouts)]
    for table, (_, duplicate) in zip(tables, layouts):
        table[duplicate, 0] = 0  # a duplicate has no dispatch gap
    draws = [(table[:, :4] != 0) & (sigma > 0) for table in tables]  # [slot, term] draws
    # draws run embedding, prefill, then per token decode..sampling: edges[k] is where
    # kind k's draws start, counting the first token's
    edges = np.cumsum([0] + [draw.sum() for draw in draws])
    count = edges[2] + tokens * (edges[6] - edges[2])
    rng = np.random.Generator(np.random.Philox(spec.jitter.seed))
    # each term is max(1, round(value * math.exp(sigma * g))) bit for bit (see _jittered)
    with np.errstate(over="ignore"):  # a product past the floats is ±inf: a factor of inf or 0
        exponents = sigma * rng.standard_normal(count)
    if exponents.max(initial=0) > math.log(sys.float_info.max):  # raise as math.exp does
        np.fromiter(map(math.exp, exponents), np.float64, count)
    per_token = exponents[edges[2]:].reshape(tokens, edges[6] - edges[2])  # a row per token
    blocks = []
    for k, (kernels, table, draw) in enumerate(zip(scripts, tables, draws)):
        steps = np.arange(tokens if k >= 2 else 1)[:, None]  # embedding and prefill: step 0
        longest = max((ks.base_latency_ns + ks.per_step_slope_ns * int(steps[-1, 0])
                       for ks in kernels), default=0)
        if longest > INT64_MAX and not sigma:
            raise OverflowError("a kernel duration passes int64")
        steps = steps.astype(object if longest > INT64_MAX else np.int64)  # object: exact ints
        block = np.empty((len(steps), len(table), 4), dtype=steps.dtype)
        block[..., :3] = table[:, :3]
        block[..., 3] = table[:, 3] + table[:, 4] * steps
        if draw.any():
            scaled = _jittered(block[:, draw].astype(np.float64),
                               exponents[None, edges[k]:edges[k + 1]] if k < 2
                               else per_token[:, edges[k] - edges[2]:edges[k + 1] - edges[2]])
            if not scaled.max() < 2.0**63:
                raise OverflowError("a jittered term is not a finite float within int64")
            block[:, draw] = scaled
        blocks.append(block.astype(np.int64))
    return blocks


def _jittered(terms: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``max(1, round(term * math.exp(x)))`` of each term and exponent, bit for bit: numpy's
    exp is within 2**-40 of math.exp, so only a product within product * 2**-36 of a
    half-integer (any of 2**35 or more, or not finite) may round apart; math.exp redoes it."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = np.exp(exponents) * terms  # numpy reuses a large temporary in place
        room = np.rint(product) - product  # becomes the distance to a half-integer * 2**36
        np.subtract(0.5, np.abs(room, out=room), out=room)
        room *= 2.0**36
        near = ~(room > product)
        product[near] = terms[near] * [math.exp(x) for x in exponents[near].tolist()]
    return np.maximum(np.rint(product, out=product), 1, out=product)


def _simulate(spec: WorkloadSpec, plan: Optional[DuplicationPlan], prompt_tokens: int,
              output_tokens: int) -> tuple[tuple, list[str], tuple, GroundTruth]:
    """The columns :meth:`TraceSession.record_columns` takes for a turn
    that starts at 0 ns, and the turn's ground truth."""
    scripts = [spec.scripts[kind].kernels for kind in PhaseKind]
    copies = {} if plan is None else {plan.kernel_name: plan.n}
    counts = [[ks.invocations_per_phase * (1 + copies.get(ks.name, 0)) for ks in kernels]
              for kernels in scripts]  # each kernel's slots in a phase, as exact ints
    kernel_rows = sum(counts[0] + counts[1]) + output_tokens * sum(map(sum, counts[2:]))
    if kernel_rows > MAX_KERNEL_ROWS:
        raise InvalidSpec(f"the run needs {kernel_rows} kernel rows, past the "
                          f"{MAX_KERNEL_ROWS}-row limit")
    # kind codes are positions in PhaseKind, whose order is also the turn's phase order
    kind_code = np.concatenate(([0, 1], np.tile(np.arange(2, 6), output_tokens)))
    token = np.concatenate(([-1, -1], np.repeat(np.arange(output_tokens), 4)))  # -1: none
    layouts = [_slots(kernels, n, copies) for kernels, n in zip(scripts, counts)]
    blocks = _terms(spec, scripts, layouts, output_tokens)
    host_ns = [spec.scripts[kind].host_ns for kind in PhaseKind]
    bound = sum(float(b.sum(dtype=np.float64)) + h * len(b) for b, h in zip(blocks, host_ns))
    if bound >= 2.0**62:  # a sum could pass int64: add as exact Python ints
        blocks = [block.astype(object) for block in blocks]
    names = list(dict.fromkeys(ks.name for kernels in scripts for ks in kernels))
    per_phase = np.array(list(map(sum, counts)))[kind_code]
    first = np.cumsum(per_phase) - per_phase  # each phase's first kernel row
    kernels = np.empty((5, kernel_rows), dtype=np.int64)  # name code, enqueue, submit, start, end
    lengths = np.empty(len(kind_code), dtype=blocks[0].dtype)
    busy = np.empty_like(lengths)
    truth = GroundTruth(prompt_tokens=prompt_tokens, output_tokens=output_tokens)
    totals = (truth.kernel_total_ns, truth.kernel_true_total_ns, truth.kernel_invocations)
    for k, (kind, script, (index, _), block) in enumerate(zip(PhaseKind, scripts, layouts,
                                                              blocks)):
        pos = np.flatnonzero(kind_code == k)
        gap, queue, submit, duration = np.moveaxis(block, 2, 0)
        host = np.cumsum(gap, axis=1)
        done = np.cumsum(duration, axis=1)
        end = done + np.maximum.accumulate(host + queue + submit - done + duration, axis=1)
        tail = block.shape[1] > 0
        lengths[pos] = (np.maximum(host[:, -1], end[:, -1]) if tail else 0) + host_ns[k]
        busy[pos] = done[:, -1] if tail else 0
        truth.phase_busy_ns[kind] = int(busy[pos].sum())
        truth.phase_wall_ns[kind] = int(lengths[pos].sum())
        rows = first[pos, None] + np.arange(len(index))
        kernels[0, rows] = np.array([names.index(ks.name) for ks in script], dtype=np.int64)[index]
        for column, values in zip(kernels[1:], (host, host + queue, end - duration, end)):
            column[rows] = values  # from the phase start until the starts are known
        # a kernel's slots are one run: its realized total is an exact int sum, never a float
        realized = np.add.reduceat(duration.sum(axis=0), np.cumsum([0, *counts[k]])[:-1]).tolist()
        step_sum = output_tokens * (output_tokens - 1) // 2 if k >= 2 else 0  # steps 0..T-1
        for ks, n, total in zip(script, counts[k], realized):
            true_total = n * (len(pos) * ks.base_latency_ns + ks.per_step_slope_ns * step_sum)
            for by_name, value in zip(totals, (total, true_total, n * len(pos))):
                by_name[ks.name] = by_name.get(ks.name, 0) + value
    ends = np.cumsum(lengths)
    if ends[-1] > INT64_MAX:
        raise OverflowError("the last phase ends past int64")
    ends = ends.astype(np.int64)
    starts = ends - lengths.astype(np.int64)
    kernels[1:] += np.repeat(starts, per_phase)  # now from the turn's start
    phases = (kind_code, np.zeros_like(token), token, starts, ends)
    truth.windows = WindowTable(*phases, busy)
    code, enqueue, submit, start, end = kernels
    queue = np.broadcast_to(np.int64(QUEUE_ID), enqueue.shape)
    kernels = (code, queue, enqueue, enqueue, submit, start, end)  # queued = enqueue: one clock
    return phases, names, kernels, truth


def _run(spec: WorkloadSpec, prompt_tokens: int, output_tokens: int,
         plan: Optional[DuplicationPlan]) -> tuple[Trace, GroundTruth]:
    check_int64("field 'prompt_tokens'", prompt_tokens)
    check_int64("field 'output_tokens'", output_tokens)
    if prompt_tokens < 1 or output_tokens < 1:
        raise ValueError("prompt_tokens and output_tokens must be at least 1")
    validate_workload(spec)
    try:
        phases, names, kernels, truth = _simulate(spec, plan, prompt_tokens, output_tokens)
    except OverflowError as exc:  # a value past int64, or a factor past the float range
        raise InvalidSpec(
            f"workload {spec.name!r} overflows the simulated nanosecond timeline ({exc})"
        ) from None
    session = make_session(spec.name)
    session.record_columns(phases, names, kernels)
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

def workload_from_dict(data: dict) -> WorkloadSpec:
    """Build a workload from its JSON form (schema in docs/). The keys are
    the spec types' fields, and the types check the values: a malformed
    value or an unknown key raises :class:`InvalidSpec`."""
    try:
        top = {**data}
        scripts = {}
        for kind_name, phase in top.pop("phases").items():
            kind = PhaseKind(kind_name)
            kernels = tuple(KernelSpec(**kernel) for kernel in phase.get("kernels", ()))
            scripts[kind] = PhaseScript(kind, **{**phase, "kernels": kernels})
        spec = WorkloadSpec(scripts=scripts, jitter=JitterModel(**top.pop("jitter", {})), **top)
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
