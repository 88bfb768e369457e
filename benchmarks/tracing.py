"""Span tracing for the benchmark's traced run.

Every span is recorded from the benchmark's own files: timing wrappers are
installed over the module attributes that ``lmmk.cli`` and the library
resolve at call time, and the recorder is timed through a ``TraceSession``
subclass handed to the simulator by a patched ``sim_engine.make_session``.
Nothing under ``src/`` changes. Spans stay in memory as
``[name, start_ns, end_ns, parent_index]`` and are written out once, when
the benchmark ends.

All work is single-threaded, so child spans nest inside their parent and
never overlap each other; a span's self time is therefore its duration
minus the sum of its direct children's durations.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter_ns

# module -> {attribute: span name}; two attributes may share one span name
WRAPPED = {
    "sim_engine": {
        "run": "sim_engine.run",
        "run_with_duplication": "sim_engine.run",
    },
    "trace_io": {
        "write_jsonl": "trace_io.write_jsonl",
        "read_jsonl": "trace_io.read_jsonl",
        "export_chrome_trace": "trace_io.export_chrome",
    },
    "timeline": {
        "idle_gaps": "timeline.idle_gaps",
        "aggregate_kernels": "timeline.aggregate",
        "phase_attribution": "timeline.attribution",
        "kernel_span": "timeline.kernel_span",
    },
    "predictor": {
        "extract_step_series": "predictor.extract",
        "decode_wall_series": "predictor.extract",
        "estimate_constant_floor": "predictor.floor",
        "fit": "predictor.fit",
        "evaluate": "predictor.evaluate",
    },
    "sampler": {"sample_subset": "sampler.sample_subset"},
    "metrics": {
        "evaluate_pair": "metrics.evaluate_pair",
        "accuracy": "metrics.accuracy",
        "scaled_error": "metrics.scaled_error",
        "duplication_estimate": "metrics.duplication_estimate",
        "choose_duplication_count": "metrics.choose_duplication_count",
    },
}

#: The benchmark opens these spans itself, around each ``cli.main`` call.
CLI_SPANS = ("cli.simulate", "cli.analyze", "cli.predict", "cli.export")

RECORDER_CALLS = ("recorder.begin_phase", "recorder.end_phase", "recorder.record_kernel")


class Tracer:
    """In-memory span store for one traced pass; all spans share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]
        self.phase_pair_ns = array("q")
        self.bytes_written = 0
        self.kl_nats = 0.0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _now(), 0, self._stack[-1]])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def leaf(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append([name, start_ns, end_ns, self._stack[-1]])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(
                    f'{{"run_id":"{self.run_id}","id":{i},"name":"{name}",'
                    f'"start_ns":{start},"end_ns":{end},"parent":{parent}}}\n'
                )


def _traced_session_class(base: type, tracer: Tracer) -> type:
    """Subclass of the recorder's ``TraceSession`` that times every call."""

    class TracedSession(base):
        _begin_ns = 0

        def begin_phase(self, kind, turn, token_index=None):
            t0 = _now()
            handle = base.begin_phase(self, kind, turn, token_index)
            t1 = _now()
            tracer.leaf("recorder.begin_phase", t0, t1)
            self._begin_ns = t1 - t0
            return handle

        def end_phase(self, handle):
            t0 = _now()
            record = base.end_phase(self, handle)
            t1 = _now()
            tracer.leaf("recorder.end_phase", t0, t1)
            tracer.phase_pair_ns.append(self._begin_ns + t1 - t0)
            return record

        def record_kernel(self, *args):
            t0 = _now()
            record = base.record_kernel(self, *args)
            tracer.leaf("recorder.record_kernel", t0, _now())
            return record

        def seal(self):
            with tracer.span("recorder.seal"):
                return base.seal(self)

    return TracedSession


def _wrap(tracer: Tracer, original, span_name: str, after=None):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = tracer.begin(span_name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(args, result)
        return result

    return traced


@contextmanager
def installed(lm, tracer: Tracer):
    """Install the timing wrappers on the loaded ``lmmk`` modules, and
    restore every original attribute on exit."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def count_bytes(args, _result):
        tracer.bytes_written += os.path.getsize(args[1])

    def keep_kl(_args, plan):
        tracer.kl_nats = plan.achieved_kl_nats

    after = {
        "trace_io.write_jsonl": count_bytes,
        "trace_io.export_chrome": count_bytes,
        "sampler.sample_subset": keep_kl,
    }
    try:
        for module_name, attrs in WRAPPED.items():
            module = getattr(lm, module_name)
            for attr, span_name in attrs.items():
                patch(module, attr, _wrap(tracer, getattr(module, attr), span_name,
                                          after.get(span_name)))
        session_cls = _traced_session_class(lm.recorder.TraceSession, tracer)
        virtual_clock = lm.sim_engine.VirtualClock

        def make_session(device_label: str = "sim-device"):
            return session_cls(device_label=device_label, clock_offset_ns=0,
                               clock=virtual_clock())

        patch(lm.recorder, "TraceSession", session_cls)
        patch(lm.sim_engine, "make_session", make_session)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if "_ns_" in name:
        return "ns"
    if name.endswith("_pct"):
        return "%"
    return {"trace_io.bytes_written": "B", "sampler.kl_nats": "nats"}.get(name, "count")


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.int64), q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics, in seconds unless
    the name says otherwise. A layer the workload never called reads 0."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    kernel_ns: list[int] = []
    sim_kernels = 0
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        total[name] = total.get(name, 0) + d
        self_ns[name] = self_ns.get(name, 0) + d - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "recorder.record_kernel":
            kernel_ns.append(d)
            if parent >= 0 and spans[parent][0] == "sim_engine.run":
                sim_kernels += 1

    def s(*names: str) -> float:
        return sum(total.get(n, 0) for n in names) / 1e9

    sim_self_ns = self_ns.get("sim_engine.run", 0)
    return {
        "recorder.record_kernel_ns_p50": _pct(kernel_ns, 50),
        "recorder.record_kernel_ns_p99": _pct(kernel_ns, 99),
        "recorder.phase_pair_ns_p50": _pct(tracer.phase_pair_ns, 50),
        "recorder.busy_s": s(*RECORDER_CALLS),
        "recorder.records": calls.get("recorder.begin_phase", 0)
        + calls.get("recorder.record_kernel", 0),
        "recorder.seal_s": s("recorder.seal"),
        "sim_engine.run_s": s("sim_engine.run"),
        "sim_engine.self_s": sim_self_ns / 1e9,
        "sim_engine.host_ns_per_kernel": sim_self_ns / sim_kernels if sim_kernels else 0.0,
        "sim_engine.kernels": sim_kernels,
        "trace_io.write_jsonl_s": s("trace_io.write_jsonl"),
        "trace_io.read_jsonl_s": s("trace_io.read_jsonl"),
        "trace_io.read_jsonl_calls": calls.get("trace_io.read_jsonl", 0),
        "trace_io.export_chrome_s": s("trace_io.export_chrome"),
        "trace_io.bytes_written": tracer.bytes_written,
        "timeline.idle_gaps_s": s("timeline.idle_gaps"),
        "timeline.idle_gaps_calls": calls.get("timeline.idle_gaps", 0),
        "timeline.aggregate_s": s("timeline.aggregate"),
        "timeline.attribution_s": s("timeline.attribution"),
        "predictor.extract_s": s("predictor.extract"),
        "predictor.floor_s": s("predictor.floor"),
        "predictor.fit_s": s("predictor.fit"),
        "sampler.sample_subset_s": s("sampler.sample_subset"),
        "sampler.kl_nats": tracer.kl_nats,
        # metrics functions call only each other, so summing self time
        # counts each nanosecond in the layer once
        "metrics.s": sum(v for k, v in self_ns.items() if k.startswith("metrics.")) / 1e9,
        "cli.simulate_s": s("cli.simulate"),
        "cli.analyze_s": s("cli.analyze"),
        "cli.predict_s": s("cli.predict"),
        "cli.export_s": s("cli.export"),
        "cli.self_s": sum(self_ns.get(n, 0) for n in CLI_SPANS) / 1e9,
    }
