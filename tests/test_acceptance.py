"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import gc
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import GOLDEN_DIR, golden_trace, metric_report_rows
from lmmk import metrics, predictor, sampler, sim_engine, timeline, trace_io
from lmmk.metrics import MetricPair
from lmmk.recorder import PhaseKind, TraceSession, calibrate_timer
from lmmk.sim_engine import DuplicationPlan, JitterModel, KernelSpec, PhaseScript, WorkloadSpec
from lmmk.timeline import Interval


def _report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:02d}] {status} {name}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_published_metric_reproduction(phase_pairs):
    # All 35 published rows: alpha within 0.15 pp, eps_star within 1.5 us/ms.
    failures = []
    for row in phase_pairs:
        pair = MetricPair(row["lm_ms"], row["gt_ms"])
        alpha = metrics.accuracy(pair)
        eps = metrics.scaled_error(pair)
        if abs(alpha - row["alpha"]) > 0.15:
            failures.append((row["model"], row["phase"], "alpha", alpha, row["alpha"]))
        if abs(eps - row["eps_star"]) > 1.5:
            failures.append((row["model"], row["phase"], "eps_star", eps, row["eps_star"]))
    assert len(phase_pairs) == 35
    _report(1, "published metric reproduction (35 rows)", failures)


def test_criterion_02_accuracy_error_identity():
    # alpha = 100 - eps_star/10 on 1000 randomized pairs, 1e-9 relative.
    rng = np.random.default_rng(2024)
    failures = []
    for _ in range(1000):
        gt = float(rng.uniform(1e-3, 1e4))
        lm = gt * float(rng.uniform(0.25, 2.5))
        pair = MetricPair(lm, gt)
        alpha = metrics.accuracy(pair)
        identity = 100.0 - metrics.scaled_error(pair) / 10.0
        scale = max(abs(alpha), abs(identity), 1.0)
        if abs(alpha - identity) / scale > 1e-9:
            failures.append((lm, gt, alpha, identity))
    _report(2, "accuracy/scaled-error identity", failures)


def test_criterion_03_simulator_round_trip(preset_run_256):
    # Jitter off: timeline reconstruction equals ground truth in integer ns.
    trace, truth = preset_run_256
    failures = []
    for agg in timeline.aggregate_kernels(trace):
        if agg.total_execution_ns != truth.kernel_total_ns[agg.name]:
            failures.append(("kernel total", agg.name))
        if agg.invocation_count != truth.kernel_invocations[agg.name]:
            failures.append(("kernel count", agg.name))
        if agg.mean_execution_ns != truth.kernel_mean_ns(agg.name):
            failures.append(("kernel mean", agg.name))
    attribution = timeline.phase_attribution(trace)
    for kind, busy in truth.phase_busy_ns.items():
        usage = attribution[kind]
        if usage.device_busy_ns != busy:
            failures.append(("phase busy", kind.value))
        if usage.phase_wall_ns != truth.phase_wall_ns[kind]:
            failures.append(("phase wall", kind.value))
    for w in truth.windows:
        report = timeline.idle_gaps(trace, Interval(w.start_ns, w.end_ns))
        if report.busy_ns != w.busy_ns or report.idle_ns != w.idle_ns:
            failures.append(("window busy/idle", w.kind.value, w.token_index))
        if report.idle_fraction != w.idle_fraction:
            failures.append(("window idle fraction", w.kind.value, w.token_index))
    _report(3, "profiler/simulator round trip (256 tokens, exact)", failures)


def test_criterion_04_sweep_line_oracle():
    # idle_gaps equals per-nanosecond occupancy on 200 random traces.
    rng = np.random.default_rng(404)
    failures = []
    for case in range(200):
        n_kernels = int(rng.integers(0, 30))
        records = []
        for _ in range(n_kernels):
            start = int(rng.integers(0, 999_000))
            end = start + int(rng.integers(0, 1_000_000 - start))
            queued = max(0, start - int(rng.integers(0, 500)))
            submit = queued + int(rng.integers(0, start - queued + 1))
            records.append(("k", 0, queued, queued, submit, start, end))
        from conftest import build_trace

        trace = build_trace(kernels=records)
        lo = int(rng.integers(0, 500_000))
        hi = lo + int(rng.integers(1, 1_000_000 - lo))
        window = Interval(lo, hi)
        occupancy = np.zeros(hi - lo, dtype=bool)
        for (_, _, _, _, _, start, end) in records:
            s, e = max(start, lo), min(end, hi)
            if e > s:
                occupancy[s - lo:e - lo] = True
        report = timeline.idle_gaps(trace, window)
        busy = int(occupancy.sum())
        if report.busy_ns != busy or report.idle_ns != (hi - lo) - busy:
            failures.append(case)
            continue
        flips = np.flatnonzero(np.diff(occupancy.astype(np.int8)))
        bounds = [0] + (flips + 1).tolist() + [hi - lo]
        expected_gaps = [
            Interval(lo + a, lo + b)
            for a, b in zip(bounds, bounds[1:])
            if b > a and not occupancy[a]
        ]
        if list(report.gaps) != expected_gaps:
            failures.append(case)
    _report(4, "sweep-line vs brute-force occupancy (200 traces)", failures)


def _estimator_workload(bases_ns, seed):
    kernels = tuple(
        KernelSpec(f"probe_{i:02d}", base, 0, 0, 1_000, 1_000)
        for i, base in enumerate(bases_ns)
    )
    scripts = {
        PhaseKind.EMBEDDING: PhaseScript(kind=PhaseKind.EMBEDDING),
        PhaseKind.PREFILL: PhaseScript(
            kind=PhaseKind.PREFILL, kernels=(KernelSpec("prefill_matmul", 50_000),)
        ),
        PhaseKind.DECODE: PhaseScript(kind=PhaseKind.DECODE, kernels=kernels),
        PhaseKind.SOFTMAX: PhaseScript(
            kind=PhaseKind.SOFTMAX, kernels=(KernelSpec("softmax", 20_000),)
        ),
        PhaseKind.COPY_PROBS_TO_CPU: PhaseScript(kind=PhaseKind.COPY_PROBS_TO_CPU),
        PhaseKind.SAMPLING: PhaseScript(kind=PhaseKind.SAMPLING, host_ns=5_000),
    }
    return WorkloadSpec(
        name="estimator-probes", scripts=scripts,
        jitter=JitterModel(seed=seed, sigma_rel=0.02),
    )


def test_criterion_05_duplication_estimator():
    # 21 kernels straddling the 1 ms rule boundary, 2% jitter: the
    # duplication estimate lands within 3% of the true latency.
    bases_ms = [
        1.2, 1.5, 1.8, 2.2, 2.7, 3.1, 1.05, 2.0, 1.35, 2.5,
        0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.25, 0.45, 0.7, 0.95, 0.3,
    ]
    bases_ns = [int(b * 1e6) for b in bases_ms]
    failures = []
    for i, true_ns in enumerate(bases_ns):
        n = metrics.choose_duplication_count(true_ns / 1e6)
        base_spec = _estimator_workload(bases_ns, seed=9000 + 2 * i)
        dup_spec = _estimator_workload(bases_ns, seed=9000 + 2 * i + 1)
        _, base_truth = sim_engine.run(base_spec, 1, 1)
        plan = DuplicationPlan(kernel_name=f"probe_{i:02d}", n=n)
        _, dup_truth = sim_engine.run_with_duplication(dup_spec, plan, 1, 1)
        t_base_ms = base_truth.phase_wall_ns[PhaseKind.DECODE] / 1e6
        t_dup_ms = dup_truth.phase_wall_ns[PhaseKind.DECODE] / 1e6
        estimate_ms = metrics.duplication_estimate(t_base_ms, t_dup_ms, n)
        error = abs(estimate_ms * 1e6 - true_ns) / true_ns
        if error > 0.03:
            failures.append((f"probe_{i:02d}", n, round(error, 4)))
    assert len(bases_ns) >= 20
    _report(5, "kernel-duplication estimator under 2% jitter (21 kernels)", failures)


def test_criterion_06_kl_sampler():
    rng = np.random.default_rng(606)
    lengths = [int(x) + 1 for x in rng.lognormal(5.2, 0.55, 10_000)]
    failures = []
    plan = sampler.sample_subset(lengths, fraction=0.1, num_bins=30, seed=1)
    if len(plan.indices) != 1000:
        failures.append(("size", len(plan.indices)))
    if plan.achieved_kl_nats > 0.05:
        failures.append(("kl", plan.achieved_kl_nats))
    full = sampler.sample_subset(lengths, fraction=1.0, num_bins=30, seed=1)
    if full.achieved_kl_nats != 0.0:
        failures.append(("full-fraction kl", full.achieved_kl_nats))
    # Swap refinement from a deliberately bad start never increases KL.
    _, idx = sampler._bins(lengths, 30)
    members = [np.flatnonzero(idx == b) for b in range(30)]
    chosen = np.zeros(len(lengths), dtype=bool)
    chosen[:1000] = True
    history = sampler._greedy_swaps(
        chosen, members, np.bincount(idx, minlength=30).astype(float), 0.5,
        np.random.default_rng(3), 10_000,
    )
    if any(b > a + 1e-15 for a, b in zip(history, history[1:])):
        failures.append(("monotonicity", history))
    _report(6, "KL-matched sampler on 10k lognormal corpus", failures)


def test_criterion_07_hq_properties():
    failures = []
    if metrics.hq(0.5, 2.0, 2.0) != pytest.approx(1.0):
        failures.append("hand value (0.5,2,2)")
    if metrics.hq(0.9, 1.2, 1.1) != pytest.approx(1.0513, abs=0.0001):
        failures.append("hand value (0.9,1.2,1.1)")
    collapse = metrics.hq(1e-6, 2.0, 2.0)
    if abs(collapse - 3e-6) / 3e-6 > 0.01:
        failures.append(("collapse limit", collapse))
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = (float(x) for x in rng.uniform(0.05, 20.0, 3))
        reference = metrics.hq(a, b, c)
        for perm in ((b, c, a), (c, a, b), (b, a, c)):
            if abs(metrics.hq(*perm) - reference) > 1e-12 * reference:
                failures.append(("symmetry", (a, b, c)))
        scale = float(rng.uniform(0.1, 10.0))
        if abs(metrics.hq(scale * a, scale * b, scale * c) - scale * reference) > 1e-9 * scale * reference:
            failures.append(("scale covariance", (a, b, c, scale)))
        if not (min(a, b, c) <= reference * (1 + 1e-12)
                and reference <= max(a, b, c) * (1 + 1e-12)):
            failures.append(("bounds", (a, b, c)))
    _report(7, "harmonic quantization score properties", failures)


def test_criterion_08_preset_calibration(preset_run_16, preset_run_256):
    trace16, truth16 = preset_run_16
    _, truth256 = preset_run_256
    failures = []
    step0 = truth16.decode_windows()[0]
    if abs(step0.idle_fraction - 0.21) > 0.02:
        failures.append(("step-0 idle", step0.idle_fraction))
    window = Interval(step0.start_ns, step0.end_ns)
    aggregates = timeline.aggregate_kernels(trace16, window)
    trio = sum(a.share_of_busy for a in aggregates if a.name in sim_engine.GEMM_TRIO)
    if trio <= 0.60:
        failures.append(("gemm trio share", trio))
    kv_at_250 = [
        w for w in truth256.decode_windows() if w.token_index == 250
    ]
    series = predictor.extract_step_series(
        sim_engine.run(sim_engine.preset_gemma_decode(), 8, 256)[0],
        sim_engine.PAGED_KV_KERNEL,
    )
    at_250 = dict(zip(series.steps, series.latencies_ns))[250]
    if abs(at_250 - 900_000) / 900_000 > 0.10:
        failures.append(("paged-kv @250", at_250))

    def idle_share(truth):
        windows = truth.decode_windows()
        return sum(w.idle_ns for w in windows) / sum(w.wall_ns for w in windows)

    share16, share256 = idle_share(truth16), idle_share(truth256)
    if abs(share16 - 0.21) > 0.02:
        failures.append(("16-token idle share", share16))
    if abs(share256 - 0.12) > 0.02:
        failures.append(("256-token idle share", share256))
    assert kv_at_250, "step 250 missing from 256-token run"
    _report(8, "preset reproduces quoted aggregates", failures)


def test_criterion_09_predictor_holdout(preset_run_256_jittered):
    trace, _ = preset_run_256_jittered
    kernel = sim_engine.PAGED_KV_KERNEL
    series = predictor.extract_step_series(trace, kernel)
    model = predictor.fit(series.between(max_step=100))
    floor = predictor.estimate_constant_floor(trace, kernel, max_step=100)
    holdout = predictor.decode_wall_series(trace).between(min_step=100, max_step=250)
    scores = predictor.evaluate(model, holdout, floor)
    failures = [] if scores["mape"] <= 0.05 else [("mape", scores["mape"])]
    assert holdout.steps[0] == 100 and holdout.steps[-1] == 249
    _report(9, "per-step latency prediction (train 0-99, predict 100-249)", failures)


def test_criterion_10_io_golden_files(tmp_path, phase_pairs, preset_run_16):
    failures = []
    # byte-stable serialization against checked-in goldens
    trace = golden_trace()
    regen = tmp_path / "trace.jsonl"
    trace_io.write_jsonl(trace, str(regen))
    if regen.read_bytes() != (GOLDEN_DIR / "trace.jsonl").read_bytes():
        failures.append("jsonl golden bytes")
    chrome = tmp_path / "trace.chrome.json"
    trace_io.export_chrome_trace(trace, str(chrome))
    if chrome.read_bytes() != (GOLDEN_DIR / "trace.chrome.json").read_bytes():
        failures.append("chrome golden bytes")
    report = trace_io.csv_report(metric_report_rows(phase_pairs))
    if report.encode() != (GOLDEN_DIR / "metric_report.csv").read_bytes():
        failures.append("csv golden bytes")
    # lossless round trips
    sim_trace, _ = preset_run_16
    sim_path = tmp_path / "sim.jsonl"
    trace_io.write_jsonl(sim_trace, str(sim_path))
    if trace_io.read_jsonl(str(sim_path)) != sim_trace:
        failures.append("jsonl round trip")
    viewer = tmp_path / "sim.chrome.json"
    trace_io.export_chrome_trace(sim_trace, str(viewer))
    events = json.loads(viewer.read_text())["traceEvents"]
    exported = sorted(
        (round(e["ts"] * 1000), round((e["ts"] + e["dur"]) * 1000))
        for e in events if e["cat"] == "kernel"
    )
    if exported != sorted((k.t_start_ns, k.t_end_ns) for k in sim_trace.kernels):
        failures.append("viewer interval multiset")
    _report(10, "I/O golden files and lossless round trips", failures)


def test_criterion_11_recorder_overhead_and_allocation():
    failures = []
    cal = calibrate_timer(5_000)
    if not (cal.overhead_ns_median > 0 and math.isfinite(cal.overhead_ns_median)):
        failures.append(("overhead", cal.overhead_ns_median))
    if cal.resolution_ns < 1:
        failures.append(("resolution", cal.resolution_ns))
    # Informational, no hard threshold: report the measured cost.
    print(f"    overhead_ns_median={cal.overhead_ns_median} resolution_ns={cal.resolution_ns}")
    # Allocation harness: warmed-up record calls retain no memory.
    session = TraceSession(capacity=8_192)
    stamps = [(i * 10, i * 10, i * 10 + 2, i * 10 + 5, i * 10 + 9) for i in range(4_096)]
    for enq, queued, submit, start, end in stamps[:2_048]:
        session.record_kernel("hot", 0, enq, queued, submit, start, end)
    gc.collect()
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for enq, queued, submit, start, end in stamps[2_048:]:
        session.record_kernel("hot", 0, enq, queued, submit, start, end)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    if after - before >= 8_192:
        failures.append(("hot-path retained bytes", after - before))
    _report(11, "recorder overhead report and allocation-free hot path", failures)
