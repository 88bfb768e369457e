"""lmmk benchmark: one workload per invocation, printed as one JSON line.

    python3 benchmarks/run.py --workload long-decode --seed 42 --seconds 35 --trace 0

Run from anywhere; the program is imported from the ``src/`` directory
next to this one. The set-up (imports, preset construction, corpus
generation) is repeated and its median reported as ``setup_s``. Passes
then repeat while their total time stays within ``--seconds`` (at least
two passes; one round of an untraced and a traced pass when tracing);
each timing is the median over passes. A pass is timed in units of a
fixed reference work run between its segments (``workloads.PassClock``),
which the shared host slows down together with the pass. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each pass runs once untraced and once with span tracing, and
the last line carries the per-layer metrics and the tracing overhead.
The line before it records the provenance of the run. ``--smoke`` runs
every workload at a tiny size.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import uuid
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
SETUP_REPEATS = 9


def _median(values) -> float:
    return float(statistics.median(values))


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lmmk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(lm, args, run_id: str) -> dict:
    cal = lm.recorder.calibrate_timer(10_000)
    return {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "calibrate_timer": {
            "resolution_ns": cal.resolution_ns,
            "overhead_ns_median": cal.overhead_ns_median,
            "iterations": cal.iterations,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def setup(args, work_dir: str):
    """Repeat the set-up and keep the last one; returns (median s, lm, workload)."""
    times = []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        lm = workloads.load_lmmk()
        workload = workloads.WORKLOADS[args.workload](lm, args.seed, args.smoke, work_dir)
        times.append(time.perf_counter() - t0)
    return _median(times), lm, workload


def _passes(seconds: float, one_round, min_rounds: int) -> None:
    """Call ``one_round`` at least ``min_rounds`` times and then until the
    next round would take the total past ``seconds``."""
    took = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        one_round()
        took.append(time.perf_counter() - t0)
        if len(took) >= min_rounds and sum(took) + _median(took) > seconds:
            return


def _percentiles_ns(samples) -> tuple[float, float]:
    if not samples:
        return 0.0, 0.0
    p50, p99 = np.percentile(np.asarray(samples, dtype=np.int64), [50, 99])
    return float(p50), float(p99)


def end_to_end(workload, args, setup_s: float, totals: workloads.Ops) -> dict:
    results = []
    peak_rss_mb = 0.0

    def one_round():
        nonlocal peak_rss_mb
        results.append(workload.run_pass(totals, None))
        if len(results) == 1:
            # later passes reuse a fragmented heap, so their peak would
            # depend on how many passes fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    _passes(args.seconds, one_round, min_rounds=2)
    return {
        "wall_ref": (_median(r.clock.ref_units for r in results), "ref"),
        "records_per_ref": (_median(r.records / r.clock.ref_units for r in results), "1/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "alpha_min_pct": (min(r.alpha_min_pct for r in results), "%"),
        "predict_mape": (_median(r.predict_mape for r in results), "fraction"),
    }


def per_layer(lm, workload, args, run_id: str, totals: workloads.Ops) -> dict:
    plain, traced, layers = [], [], []
    last = None

    def one_round():
        nonlocal last
        plain.append(workload.run_pass(totals, None))
        gc.collect()
        tracer = tracing.Tracer(run_id)
        with tracing.installed(lm, tracer), tracer.span("bench.pass"):
            traced.append(workload.run_pass(totals, tracer))
        layers.append(tracing.layer_metrics(tracer))
        last = tracer

    _passes(args.seconds, one_round, min_rounds=1)
    last.write(str(WORK_ROOT / f"spans-{args.workload}.jsonl"))
    metrics = {name: (_median(layer[name] for layer in layers), tracing.unit_of(name))
               for name in layers[0]}
    # probe cost comes from the untraced passes: tracing would inflate it
    probes = [_percentiles_ns(r.probe_ns) for r in plain]
    metrics["probe_ns_p50"] = (_median(p[0] for p in probes), "ns")
    metrics["probe_ns_p99"] = (_median(p[1] for p in probes), "ns")
    # the host's own speed and the untraced pass in plain seconds
    metrics["bench.ref_s"] = (_median(t for r in plain for t in r.clock.ref_s), "s")
    metrics["bench.wall_s"] = (_median(r.clock.wall_s for r in plain), "s")
    metrics["bench.records_per_s"] = (_median(r.records / r.clock.wall_s for r in plain), "1/s")
    overhead = (_median(r.clock.ref_units for r in traced)
                / _median(r.clock.ref_units for r in plain) - 1.0) * 100.0
    metrics["bench.trace_overhead_pct"] = (overhead, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "lmmk" / "__init__.py").is_file():
        print(f"bench: lmmk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    run_id = uuid.uuid4().hex
    totals = workloads.Ops()
    try:
        setup_s, lm, workload = setup(args, work_dir)
        if Path(lm.cli.__file__).resolve().parent != SRC / "lmmk":
            print(f"bench: imported lmmk from {lm.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        info = provenance(lm, args, run_id)
        if args.trace:
            metrics = per_layer(lm, workload, args, run_id, totals)
        else:
            metrics = end_to_end(workload, args, setup_s, totals)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"provenance": info}))
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
