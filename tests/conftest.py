import csv
import dataclasses
import os
import tempfile
from pathlib import Path

import pytest

from lmmk import sim_engine, trace_io
from lmmk.recorder import (
    KernelRecord,
    PhaseKind,
    PhaseRecord,
    RecordColumns,
    Trace,
    TraceSession,
)
from lmmk.sim_engine import JitterModel, KernelSpec, PhaseScript, WorkloadSpec

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"


@pytest.fixture(scope="session")
def phase_pairs():
    """Published per-phase latency pairs with their published metric values."""
    with open(DATA_DIR / "phase_latency_pairs.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 35
    return [
        {
            "model": r["model"],
            "phase": r["phase"],
            "lm_ms": float(r["lm_ms"]),
            "gt_ms": float(r["gt_ms"]),
            "alpha": float(r["alpha"]),
            "eps_star": float(r["eps_star"]),
        }
        for r in rows
    ]


@pytest.fixture(scope="session")
def preset_run_16():
    """Jitter-free 16-token preset run: (trace, ground truth)."""
    return sim_engine.run(sim_engine.preset_gemma_decode(), 8, 16)


@pytest.fixture(scope="session")
def preset_run_256():
    """Jitter-free 256-token preset run: (trace, ground truth)."""
    return sim_engine.run(sim_engine.preset_gemma_decode(), 8, 256)


@pytest.fixture(scope="session")
def preset_run_256_jittered():
    """256-token preset run with 2% multiplicative jitter, seed 7."""
    spec = sim_engine.preset_gemma_decode().with_jitter(seed=7, sigma_rel=0.02)
    return sim_engine.run(spec, 8, 256)


def single_kernel_workload(
    name="uniform_matmul",
    base_latency_ns=1_000_000,
    per_step_slope_ns=0,
    seed=0,
    sigma_rel=0.0,
):
    """Minimal valid workload: one decode kernel plus token-count filler
    kernels for the other mandatory phases."""
    filler = lambda n: (KernelSpec(n, 10_000),)
    scripts = {
        PhaseKind.EMBEDDING: PhaseScript(kind=PhaseKind.EMBEDDING, kernels=filler("embed")),
        PhaseKind.PREFILL: PhaseScript(kind=PhaseKind.PREFILL, kernels=filler("prefill_matmul")),
        PhaseKind.DECODE: PhaseScript(
            kind=PhaseKind.DECODE,
            kernels=(KernelSpec(name, base_latency_ns, per_step_slope_ns),),
        ),
        PhaseKind.SOFTMAX: PhaseScript(kind=PhaseKind.SOFTMAX, kernels=filler("softmax")),
        PhaseKind.COPY_PROBS_TO_CPU: PhaseScript(kind=PhaseKind.COPY_PROBS_TO_CPU),
        PhaseKind.SAMPLING: PhaseScript(kind=PhaseKind.SAMPLING, host_ns=5_000),
    }
    return WorkloadSpec(
        name="single-kernel",
        scripts=scripts,
        jitter=JitterModel(seed=seed, sigma_rel=sigma_rel),
    )


def workload_dict(spec: WorkloadSpec) -> dict:
    """The JSON form of a workload file (docs/workload_schema.md), which
    ``sim_engine.workload_from_dict`` reads back."""
    return {
        "name": spec.name,
        "jitter": dataclasses.asdict(spec.jitter),
        "phases": {
            kind.value: {"host_ns": script.host_ns,
                         "kernels": list(map(dataclasses.asdict, script.kernels))}
            for kind, script in spec.scripts.items()
        },
    }


def build_trace(kernels=(), phases=(), clock_offset_ns=0, **meta) -> Trace:
    """Assemble an immutable trace directly from record tuples, each
    checked by its record class, through one RecordColumns on both sides.

    kernels: iterables of (name, queue, enqueue, queued, submit, start, end)
    phases: iterables of (kind, turn, token, start, end)
    """
    columns = record_columns(phases, kernels)
    return Trace(
        device_label=meta.pop("device_label", "test"),
        clock_offset_ns=clock_offset_ns,
        phases=columns,
        kernels=columns,
        **meta,
    )


def record_columns(phases=(), kernels=()) -> RecordColumns:
    """A RecordColumns of phase and kernel records, or tuples of their
    fields, in the order given; each row is checked by its record class."""
    columns = RecordColumns()
    for p in phases:
        r = p if isinstance(p, PhaseRecord) else PhaseRecord(*p)
        columns.add_phase(r.kind, r.turn, r.token_index, r.t_start_ns, r.t_end_ns)
    for k in kernels:
        r = k if isinstance(k, KernelRecord) else KernelRecord(*k)
        columns.add_kernel(r.name, r.queue_id, r.t_cpu_enqueue_ns, r.t_queued_ns,
                           r.t_submit_ns, r.t_start_ns, r.t_end_ns)
    return columns


class ManualClock:
    """Hand-driven monotonic clock for sessions whose phase times a test
    sets exactly."""

    def __init__(self, start_ns: int = 0) -> None:
        self._t = start_ns

    def __call__(self) -> int:
        return self._t

    def advance_to(self, t_ns: int) -> None:
        if t_ns < self._t:
            raise ValueError("clock cannot move backwards")
        self._t = t_ns


def manual_session(start_ns=0, **kwargs) -> tuple[TraceSession, ManualClock]:
    """Session on a hand-driven clock for precise phase timing."""
    clock = ManualClock(start_ns)
    session = TraceSession(clock=clock, **kwargs)
    return session, clock


def record_made_sessions(monkeypatch) -> list:
    """Patch ``sim_engine.make_session`` so that each session it makes is
    also appended to the list returned."""
    made, make = [], sim_engine.make_session

    def make_session(device_label: str = "sim-device") -> TraceSession:
        made.append(make(device_label))
        return made[-1]

    monkeypatch.setattr(sim_engine, "make_session", make_session)
    return made


@pytest.fixture()
def made_sessions(monkeypatch) -> list:
    """Each session the simulator makes during the test, in order."""
    return record_made_sessions(monkeypatch)


def golden_trace() -> Trace:
    """Small hand-built trace behind the checked-in golden files.

    Uses a negative clock offset, a second queue and timestamps that are
    not multiples of 1000, so serialization must carry signs and
    sub-microsecond precision.
    """
    return build_trace(
        phases=[
            (PhaseKind.EMBEDDING, 0, None, 100, 1_100),
            (PhaseKind.DECODE, 0, 0, 2_000, 10_000),
        ],
        kernels=[
            ("dequantize_embedding_lookup", 0, 110, 113, 150, 200, 1_050),
            ("batch_decode_paged_kv", 0, 2_100, 2_103, 2_150, 2_345, 3_571),
            ("dequantize_matmul_ffn_gate", 1, 2_200, 2_203, 2_250, 3_600, 9_000),
        ],
        clock_offset_ns=-3,
        device_label="golden-device",
        prompt_tokens=4,
        output_tokens=1,
    )


def metric_report_rows(pairs):
    """CSV report rows recomputing alpha/eps_star from published pairs."""
    from lmmk import metrics

    rows = []
    for row in pairs:
        pair = metrics.MetricPair(row["lm_ms"], row["gt_ms"])
        rows.append({
            "model": row["model"],
            "phase": row["phase"],
            "lm_ms": row["lm_ms"],
            "gt_ms": row["gt_ms"],
            "alpha": metrics.accuracy(pair),
            "eps_star": metrics.scaled_error(pair),
        })
    return rows


def reference_ground_truth(truth) -> dict:
    """The ``.gt.json`` sidecar as a dict built from the window rows: the
    sidecar's bytes are ``json.dumps(this, separators=(",", ":"))`` and LF."""
    return {
        "prompt_tokens": truth.prompt_tokens,
        "output_tokens": truth.output_tokens,
        "kernel_total_ns": dict(truth.kernel_total_ns),
        "kernel_true_total_ns": dict(truth.kernel_true_total_ns),
        "kernel_invocations": dict(truth.kernel_invocations),
        "phase_busy_ns": {k.value: v for k, v in truth.phase_busy_ns.items()},
        "phase_wall_ns": {k.value: v for k, v in truth.phase_wall_ns.items()},
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
            for w in truth.windows
        ],
    }


def sidecar_bytes(truth) -> bytes:
    """The bytes :func:`trace_io.write_ground_truth` writes for ``truth``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "trace.jsonl.gt.json")
        trace_io.write_ground_truth(truth, path)
        with open(path, "rb") as f:
            return f.read()
