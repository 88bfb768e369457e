"""The benchmark's three workloads.

Each workload builds its inputs from the seed at set-up, then runs timed
passes. A pass is one closed-loop client doing the workload's work once;
after the timed region every output is checked against the simulator's
exact ground truth. Failed calls and failed checks are counted, never
skipped.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import sys
import time
from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

PRESET = "gemma2-decode"
PAGED_KV = "batch_decode_paged_kv"
JITTER = 0.02
PROMPT_TOKENS = 8
SUBSET_FRACTION = 0.01
#: acceptance criterion 05's bound on a duplication estimate
DUPLICATION_TOLERANCE = 0.03
#: windows (step-windows) and sessions (short-sessions) per timed segment:
#: a few tenths of a second each, so that reference work brackets each closely
LAP_WINDOWS = 128
LAP_SESSIONS = 32

LMMK_MODULES = ("recorder", "sim_engine", "trace_io", "timeline",
                "predictor", "metrics", "sampler", "cli")


def load_lmmk() -> SimpleNamespace:
    """Import every lmmk module afresh, so that repeated set-ups each pay
    the package's import cost. Returns the modules by short name."""
    for name in [n for n in sys.modules if n == "lmmk" or n.startswith("lmmk.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"lmmk.{m}") for m in LMMK_MODULES})


class Ops:
    """Attempted and failed operations, counted over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failure and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the pass must go on and report the failure
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"bench: {message}", file=sys.stderr)


#: Fixed inputs of the reference work; seeded apart from the workload seed,
#: so that every run times the same reference.
_REF_RNG = np.random.default_rng(0)
_REF_FLOATS = _REF_RNG.random(200_000)
_REF_INTS = _REF_RNG.integers(0, 1 << 30, 40_000).tolist()
_REF_DOC = json.dumps([{"name": f"k{i}", "t": i * 7, "d": i % 13} for i in range(5_000)])
_REF_SPANS = [SimpleNamespace(start=v, end=v + 500) for v in _REF_INTS[:20_000]]
_REF_RECORDS = [{"name": f"kernel_{i % 17}", "t_start_ns": i * 7919, "t_end_ns": i * 7919 + 4000,
                 "queue": 0, "step": i // 15} for i in range(2_000)]


def reference_s() -> float:
    """Seconds this host takes for a fixed mix of the kinds of work lmmk
    does: attribute reads in an interpreter loop, dict updates, a list sort,
    JSON lines written and parsed back into objects, a JSON decode and a
    numpy sort. About 55 ms on an unloaded core."""
    t0 = time.perf_counter()
    lines = io.StringIO()
    for record in _REF_RECORDS:
        lines.write(json.dumps(record, separators=(",", ":")) + "\n")
    parsed = [SimpleNamespace(name=o["name"], duration_ns=o["t_end_ns"] - o["t_start_ns"])
              for o in map(json.loads, lines.getvalue().splitlines())]
    acc = sum(record.duration_ns for record in parsed)
    for span in _REF_SPANS:
        s, e = max(span.start, 1 << 28), min(span.end, 1 << 29)
        if e > s:
            acc += e - s
    counts: dict[int, int] = {}
    for v in _REF_INTS:
        counts[v & 0x3FF] = counts.get(v & 0x3FF, 0) + 1
    sorted(_REF_INTS)
    json.loads(_REF_DOC)
    np.sort(_REF_FLOATS)
    return time.perf_counter() - t0


class PassClock:
    """Times a pass in segments, ended by ``lap()``. Between segments,
    outside the timed region, it times the reference work, and it divides
    each segment by the mean of the reference times on either side of it.

    ``wall_s`` is the pass's wall time. ``ref_units`` is the same time in
    units of the reference work run alongside it: the shared host's speed
    swings by up to 2x within a minute, and both slow down together, so the
    ratio holds still where the wall time does not."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.ref_units = 0.0
        self.ref_s: list[float] = []
        self._ref_before = reference_s()
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        segment = time.perf_counter() - self._t0
        ref = reference_s()
        self.wall_s += segment
        self.ref_units += segment / ((self._ref_before + ref) / 2)
        self.ref_s.append(ref)
        self._ref_before = ref
        self._t0 = time.perf_counter()


@dataclass
class PassResult:
    clock: PassClock
    records: int
    alpha_min_pct: float
    predict_mape: float
    probe_ns: Optional[array] = None


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _alpha(lm, measured_ms: float, truth_ms: float) -> float:
    pair = lm.metrics.MetricPair(t_lm_ms=measured_ms, t_gt_ms=truth_ms)
    return lm.metrics.evaluate_pair(pair).alpha_pct


def _compare_ns(ops: Ops, lm, alphas: list, what: str, measured_ns: int, truth_ns: int) -> None:
    """Exact integer-ns check, plus the paper's alpha when truth is positive."""
    ops.check(f"{what}: {measured_ns} != {truth_ns}", measured_ns == truth_ns)
    if truth_ns > 0 and measured_ns > 0:
        alphas.append(_alpha(lm, measured_ns / 1e6, truth_ns / 1e6))


def _holdout_mape(lm, trace, train_steps: int) -> float:
    """The predictor chain: fit on steps < train_steps, score the rest."""
    pr = lm.predictor
    series = pr.extract_step_series(trace, PAGED_KV)
    model = pr.fit(series.between(max_step=train_steps))
    floor = pr.estimate_constant_floor(trace, PAGED_KV, max_step=train_steps)
    holdout = pr.decode_wall_series(trace).between(min_step=train_steps)
    return pr.evaluate(model, holdout, floor)["mape"]


def _cross_session_mape(lm, traces) -> float:
    """The predictor chain fitted on every step of each session in turn and
    scored on every decode step of each other session; the mean MAPE."""
    pr = lm.predictor
    mapes = []
    for i, trace in enumerate(traces):
        model = pr.fit(pr.extract_step_series(trace, PAGED_KV))
        floor = pr.estimate_constant_floor(trace, PAGED_KV)
        mapes += [pr.evaluate(model, pr.decode_wall_series(other), floor)["mape"]
                  for j, other in enumerate(traces) if j != i]
    return sum(mapes) / len(mapes)


def step_layout(lm, spec) -> list:
    """(phase kind, kernel names) of one per-token step of the preset:
    4 phases and 15 kernel invocations."""
    kinds = (lm.recorder.PhaseKind.DECODE, lm.recorder.PhaseKind.SOFTMAX,
             lm.recorder.PhaseKind.COPY_PROBS_TO_CPU, lm.recorder.PhaseKind.SAMPLING)
    return [
        (kind, tuple(ks.name for ks in spec.scripts[kind].kernels
                     for _ in range(ks.invocations_per_phase)))
        for kind in kinds
    ]


def capture_session(lm, layout, steps: int, prompt_tokens: int, probe_ns: array) -> tuple[int, int]:
    """Record one real-clock session and seal it, timing every recorder
    call into ``probe_ns``. Returns (records captured, records sealed)."""
    session = lm.recorder.TraceSession(device_label="phone")
    session.prompt_tokens = prompt_tokens
    session.output_tokens = steps
    clock = lm.recorder.now
    tick = time.perf_counter_ns
    captured = 0
    for step in range(steps):
        for kind, names in layout:
            t0 = tick()
            handle = session.begin_phase(kind, 0, step)
            probe_ns.append(tick() - t0)
            for name in names:
                t = clock()
                t0 = tick()
                session.record_kernel(name, 0, t, t, t, t, t)
                probe_ns.append(tick() - t0)
            t0 = tick()
            session.end_phase(handle)
            probe_ns.append(tick() - t0)
            captured += 1 + len(names)
    trace = session.seal()
    return captured, len(trace.phases) + len(trace.kernels)


def _count_export_events(path: str) -> dict[str, int]:
    """Decode the viewer export one event at a time and count events by
    category, without holding every event in memory at once."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    prefix = '{"traceEvents":['
    if not text.startswith(prefix):
        raise ValueError("export does not start with a traceEvents list")
    decoder = json.JSONDecoder()
    counts: dict[str, int] = {}
    pos = len(prefix)
    while text[pos] != "]":
        event, pos = decoder.raw_decode(text, pos)
        if event["ph"] != "X" or event["dur"] < 0:
            raise ValueError(f"malformed event {event!r}")
        counts[event["cat"]] = counts.get(event["cat"], 0) + 1
        if text[pos] == ",":
            pos += 1
    if text[pos:] != "]}\n":
        raise ValueError("trailing data after the traceEvents list")
    return counts


class LongDecode:
    """The CLI pipeline simulate -> analyze -> predict -> export, in-process
    through ``lmmk.cli.main``, on one long gemma2-decode turn."""

    def __init__(self, lm, seed: int, smoke: bool, work_dir: str) -> None:
        self.lm = lm
        self.seed = seed
        self.output_tokens = 64 if smoke else 4096
        self.train_args = ["--train-steps", "16"] if smoke else []
        self.paths = {
            "trace": os.path.join(work_dir, "trace.jsonl"),
            "analysis": os.path.join(work_dir, "analysis.json"),
            "chrome": os.path.join(work_dir, "trace.chrome.json"),
        }
        lm.sim_engine.PRESETS[PRESET]()  # preset construction belongs to set-up

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = self.lm.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a usage error this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def run_pass(self, ops: Ops, tracer) -> PassResult:
        p = self.paths
        commands = [
            ("simulate", ["simulate", "--workload", f"preset:{PRESET}", "--prompt-tokens",
                          str(PROMPT_TOKENS), "--output-tokens", str(self.output_tokens),
                          "--seed", str(self.seed), "--jitter", str(JITTER), "--out", p["trace"]]),
            ("analyze", ["analyze", p["trace"], "--out", p["analysis"]]),
            ("predict", ["predict", p["trace"], "--kernel", PAGED_KV, *self.train_args]),
            ("export", ["export", p["trace"], "--out", p["chrome"]]),
        ]
        stdout = {}
        clock = PassClock()
        for name, argv in commands:
            with _span(tracer, f"cli.{name}"):
                result = ops.call(f"lmmk {name}", self._cli, argv)
            clock.lap()
            code, stdout[name] = result if result is not None else (None, "")
            ops.check(f"lmmk {name} exited {code}", code == 0)
        return self._check(ops, clock, stdout)

    def _check(self, ops: Ops, clock: PassClock, stdout: dict) -> PassResult:
        lm, p = self.lm, self.paths
        gt = ops.call("read ground truth", _read_json, p["trace"] + ".gt.json") or {}
        analysis = ops.call("read analysis", _read_json, p["analysis"]) or {}
        alphas: list[float] = []

        phases = analysis.get("phases", {})
        ops.check("no unattributed kernels", "unattributed" not in phases)
        for kind, wall_ns in gt.get("phase_wall_ns", {}).items():
            row = phases.get(kind, {"wall_ms": -1.0, "busy_ms": -1.0})
            _compare_ns(ops, lm, alphas, f"{kind} wall", round(row["wall_ms"] * 1e6), wall_ns)
            _compare_ns(ops, lm, alphas, f"{kind} busy", round(row["busy_ms"] * 1e6),
                        gt["phase_busy_ns"][kind])
        aggregate = {a["name"]: a for a in analysis.get("aggregate", [])}
        ops.check("kernel names", set(aggregate) == set(gt.get("kernel_total_ns", {})))
        for name, total_ns in gt.get("kernel_total_ns", {}).items():
            row = aggregate.get(name, {"total_ms": -1.0, "count": -1})
            _compare_ns(ops, lm, alphas, f"{name} total", round(row["total_ms"] * 1e6), total_ns)
            ops.check(f"{name} count", row["count"] == gt["kernel_invocations"][name])
        # one in-order queue: executions never overlap, so span busy is their sum
        _compare_ns(ops, lm, alphas, "whole-span busy",
                    analysis.get("idle", {}).get("busy_ns", -1),
                    sum(gt.get("kernel_total_ns", {}).values()))
        kernels = sum(gt.get("kernel_invocations", {}).values())
        phase_count = len(gt.get("windows", []))
        ops.check("simulate reported its record counts",
                  f"({kernels} kernels, {phase_count} phases)" in stdout["simulate"])

        events = ops.call("read export", _count_export_events, p["chrome"]) or {}
        ops.check("one export event per phase", events.get("phase") == phase_count)
        ops.check("one export event per kernel", events.get("kernel") == kernels)

        mape = re.search(r"\bmape=([0-9.]+)", stdout["predict"])
        ops.check("predict printed a MAPE", mape is not None)
        return PassResult(
            clock=clock,
            records=kernels + phase_count,
            alpha_min_pct=min(alphas, default=0.0),
            predict_mape=float(mape.group(1)) if mape else 0.0,
        )


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class StepWindows:
    """The paper's per-step characterisation through the library API:
    idle gaps in every phase window, kernel aggregates in every decode
    window, one phase attribution and one predictor chain."""

    def __init__(self, lm, seed: int, smoke: bool, work_dir: str) -> None:
        self.lm = lm
        self.output_tokens = 16 if smoke else 512
        self.train_steps = 8 if smoke else 100
        self.spec = lm.sim_engine.PRESETS[PRESET]().with_jitter(seed=seed, sigma_rel=JITTER)

    def run_pass(self, ops: Ops, tracer) -> PassResult:
        lm = self.lm
        tl = lm.timeline
        decode = lm.recorder.PhaseKind.DECODE
        clock = PassClock()
        ran = ops.call("simulate", lm.sim_engine.run, self.spec, PROMPT_TOKENS, self.output_tokens)
        clock.lap()
        if ran is None:
            return PassResult(clock, 0, 0.0, 0.0)
        trace, truth = ran
        windows = [tl.Interval(p.t_start_ns, p.t_end_ns) for p in trace.phases]
        reports = []
        for i, w in enumerate(windows, 1):
            reports.append(ops.call("idle_gaps", tl.idle_gaps, trace, w))
            if i % LAP_WINDOWS == 0:
                clock.lap()
        decode_windows = [(i, w) for i, (p, w) in enumerate(zip(trace.phases, windows))
                          if p.kind is decode]
        aggregates = [ops.call("aggregate_kernels", tl.aggregate_kernels, trace, w)
                      for _, w in decode_windows]
        attribution = ops.call("phase_attribution", tl.phase_attribution, trace) or {}
        mape = ops.call("predictor", _holdout_mape, lm, trace, self.train_steps)
        clock.lap()

        alphas: list[float] = []
        ops.check("one trace phase per truth window", len(truth.windows) == len(windows))
        for report, w, truth_w in zip(reports, windows, truth.windows):
            ops.check(f"window {w} matches truth",
                      (w.start_ns, w.end_ns) == (truth_w.start_ns, truth_w.end_ns))
            busy, idle = (report.busy_ns, report.idle_ns) if report else (-1, -1)
            _compare_ns(ops, lm, alphas, f"busy in {w}", busy, truth_w.busy_ns)
            ops.check(f"idle in {w}: {idle} != {truth_w.idle_ns}", idle == truth_w.idle_ns)
        for (i, w), aggregate in zip(decode_windows, aggregates):
            total = sum(a.total_execution_ns for a in aggregate) if aggregate else -1
            ops.check(f"aggregate in {w}", total == truth.windows[i].busy_ns)
        ops.check("no unattributed kernels", tl.UNATTRIBUTED not in attribution)
        for kind, busy_ns in truth.phase_busy_ns.items():
            usage = attribution.get(kind)
            _compare_ns(ops, lm, alphas, f"{kind.value} busy",
                        usage.device_busy_ns if usage else -1, busy_ns)
            _compare_ns(ops, lm, alphas, f"{kind.value} wall",
                        usage.phase_wall_ns if usage else -1, truth.phase_wall_ns[kind])
        return PassResult(
            clock=clock,
            records=len(trace.phases) + len(trace.kernels),
            alpha_min_pct=min(alphas, default=0.0),
            predict_mape=mape if mape is not None else 0.0,
        )


class ShortSessions:
    """A phone-side study of many small sessions: a KL-matched subset of a
    token-length corpus, a real-clock capture of many short sessions, and
    the kernel-duplication study of every decode kernel. Its
    ``predict_mape`` comes from the predictor fitted on each duplication
    baseline and scored on the others."""

    def __init__(self, lm, seed: int, smoke: bool, work_dir: str) -> None:
        self.lm = lm
        self.seed = seed
        rng = np.random.default_rng(seed)
        corpus_size = 20_000 if smoke else 1_000_000
        self.corpus = (rng.lognormal(5.2, 0.55, corpus_size).astype(np.int64) + 1).tolist()
        self.sessions = 4 if smoke else 256
        self.steps = 4 if smoke else 16
        spec = lm.sim_engine.PRESETS[PRESET]()
        self.layout = step_layout(lm, spec)
        kernels = spec.scripts[lm.recorder.PhaseKind.DECODE].kernels[: 2 if smoke else None]
        jitter_seeds = np.random.SeedSequence(seed).generate_state(2 * len(kernels)).tolist()
        self.pairs = [
            (ks,
             spec.with_jitter(seed=jitter_seeds[2 * i], sigma_rel=JITTER),
             spec.with_jitter(seed=jitter_seeds[2 * i + 1], sigma_rel=JITTER))
            for i, ks in enumerate(kernels)
        ]

    def _decode_wall_ms(self, trace) -> float:
        decode = self.lm.recorder.PhaseKind.DECODE
        return sum(p.duration_ns for p in trace.phases if p.kind is decode) / 1e6

    def _duplication_pair(self, ks, base_spec, dup_spec, prompt_tokens: int):
        """One baseline and one duplicated session; the phase-latency
        increase is divided by every copy the plan inserted."""
        lm = self.lm
        n = lm.metrics.choose_duplication_count(ks.base_latency_ns / 1e6)
        plan = lm.sim_engine.DuplicationPlan(kernel_name=ks.name, n=n)
        base, _ = lm.sim_engine.run(base_spec, prompt_tokens, self.steps)
        dup, dup_truth = lm.sim_engine.run_with_duplication(
            dup_spec, plan, prompt_tokens, self.steps)
        copies = n * ks.invocations_per_phase * self.steps
        estimate_ms = lm.metrics.duplication_estimate(
            self._decode_wall_ms(base), self._decode_wall_ms(dup), copies)
        records = sum(len(t.phases) + len(t.kernels) for t in (base, dup))
        return estimate_ms, dup_truth.kernel_true_mean_ns(ks.name) / 1e6, base, records

    def run_pass(self, ops: Ops, tracer) -> PassResult:
        lm = self.lm
        probe_ns = array("q")
        clock = PassClock()
        plan = ops.call("sample_subset", lm.sampler.sample_subset,
                        self.corpus, SUBSET_FRACTION, 30, self.seed)
        clock.lap()
        prompts = [self.corpus[i] for i in plan.indices] if plan else [PROMPT_TOKENS]
        sealed = []
        for s in range(self.sessions):
            sealed.append(ops.call("capture session", capture_session, lm, self.layout,
                                   self.steps, prompts[s % len(prompts)], probe_ns))
            if (s + 1) % LAP_SESSIONS == 0:
                clock.lap()
        pairs = []
        for i, (ks, base, dup) in enumerate(self.pairs):
            pairs.append(ops.call(f"duplicate {ks.name}", self._duplication_pair, ks, base, dup,
                                  prompts[i % len(prompts)]))
            clock.lap()
        mape = ops.call("predictor", _cross_session_mape, lm,
                        [pair[2] for pair in pairs if pair is not None])
        clock.lap()

        ops.check("subset size", plan is not None
                  and len(plan.indices) == round(SUBSET_FRACTION * len(self.corpus)))
        records = 0
        for result in sealed:
            ops.check("sealed records equal captured records",
                      result is not None and result[0] == result[1])
            records += result[1] if result else 0
        alphas = []
        for (ks, _, _), pair in zip(self.pairs, pairs):
            if pair is None:
                continue
            estimate_ms, true_ms, _, pair_records = pair
            records += pair_records
            error = abs(estimate_ms - true_ms) / true_ms
            ops.check(f"{ks.name} estimate {estimate_ms:.6f} ms vs true {true_ms:.6f} ms",
                      error <= DUPLICATION_TOLERANCE)
            if estimate_ms > 0:
                alphas.append(_alpha(lm, estimate_ms, true_ms))
        return PassResult(
            clock=clock,
            records=records,
            alpha_min_pct=min(alphas, default=0.0),
            predict_mape=mape if mape is not None else 0.0,
            probe_ns=probe_ns,
        )


WORKLOADS = {
    "long-decode": LongDecode,
    "step-windows": StepWindows,
    "short-sessions": ShortSessions,
}
