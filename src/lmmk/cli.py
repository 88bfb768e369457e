"""Command-line front end.

Exit codes: 0 success, 1 runtime or data error, 2 usage error. The
commands raise and :func:`main` decides the code, in one place: an
argument check (``_UsageError``) or an error the command's subparser
declares in ``usage_errors`` exits 2, and every other
:class:`~lmmk.errors.LmmkError`, ``OSError`` or ``ValueError`` exits 1.
Either way stderr gets the one line ``lmmk: error: <message>``. All
diagnostics go to stderr; machine-readable output goes to stdout or the
--out path. Every command is a thin wrapper over library calls, and the
deterministic ones (simulate with a fixed seed, sample, metrics) produce
byte-identical outputs across runs. LMMK_SEED in the environment
overrides --seed when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import metrics, predictor, sampler, sim_engine, timeline, trace_io
from .errors import (
    FractionOutOfRange,
    InvalidSpec,
    LmmkError,
    NegativeDelta,
    NonPositiveComponent,
    NonPositiveGroundTruth,
    UnknownKernel,
)
from .recorder import calibrate_timer

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class _UsageError(LmmkError):
    """An argument check failed: exit 2, whatever the command."""


def _seed(flag: Optional[int]) -> Optional[int]:
    """LMMK_SEED when it is set, else the --seed value."""
    text = os.environ.get("LMMK_SEED")
    if text is None:
        return flag
    try:
        return sampler._integer(text)
    except ValueError:
        raise _UsageError(f"LMMK_SEED must be an integer, got {text!r}") from None


def _resolve_workload(ref: str) -> sim_engine.WorkloadSpec:
    if ref.startswith("preset:"):
        name = ref[len("preset:"):]
        try:
            return sim_engine.PRESETS[name]()
        except KeyError:
            raise InvalidSpec(
                f"unknown preset {name!r}; available: {', '.join(sorted(sim_engine.PRESETS))}"
            ) from None
    return sim_engine.load_workload(ref)


def _parse_duplicate(text: str) -> sim_engine.DuplicationPlan:
    kernel, sep, count = text.rpartition(":")
    if not sep or not kernel:
        raise ValueError(f"--duplicate expects KERNEL:N, got {text!r}")
    return sim_engine.DuplicationPlan(kernel_name=kernel, n=sampler._integer(count))


def _cmd_simulate(args: argparse.Namespace) -> None:
    seed = _seed(args.seed)
    spec = _resolve_workload(args.workload).with_jitter(seed=seed, sigma_rel=args.jitter)
    if args.duplicate:
        trace, truth = sim_engine.run_with_duplication(
            spec, _parse_duplicate(args.duplicate), args.prompt_tokens, args.output_tokens
        )
    else:
        trace, truth = sim_engine.run(spec, args.prompt_tokens, args.output_tokens)
    trace_io.write_jsonl(trace, args.out)
    trace_io.write_ground_truth(truth, args.out + ".gt.json")
    print(f"wrote {args.out} ({len(trace.kernels)} kernels, {len(trace.phases)} phases)")


def _analysis_sections(args: argparse.Namespace) -> list[str]:
    sections = [name for name in ("idle", "aggregate", "phases") if getattr(args, name)]
    return sections or ["idle", "aggregate", "phases"]


def _cmd_analyze(args: argparse.Namespace) -> None:
    trace = trace_io.read_jsonl(args.trace)
    sections = _analysis_sections(args)
    if args.report == "csv" and len(sections) != 1:
        raise _UsageError("--report csv needs exactly one of --idle/--aggregate/--phases")

    payload: dict = {}
    gaps = ()
    if "idle" in sections:
        span = timeline.kernel_span(trace) or timeline.Interval(0, 0)
        report = timeline.idle_gaps(trace, span)
        gaps = report.gaps
        payload["idle"] = {
            "window_start_ns": report.window.start_ns,
            "window_end_ns": report.window.end_ns,
            "busy_ns": report.busy_ns,
            "idle_ns": report.idle_ns,
            "idle_fraction": report.idle_fraction,
            "gaps": [],  # spliced into the JSON text below
        }
    if "aggregate" in sections:
        payload["aggregate"] = [
            {
                "name": a.name,
                "count": a.invocation_count,
                "mean_ms": a.mean_execution_ns / 1e6,
                "total_ms": a.total_execution_ns / 1e6,
                "share": a.share_of_busy,
            }
            for a in timeline.aggregate_kernels(trace)
        ]
    if "phases" in sections:
        attribution = timeline.phase_attribution(trace)
        payload["phases"] = {
            (key.value if isinstance(key, timeline.PhaseKind) else key): {
                "wall_ms": usage.phase_wall_ns / 1e6,
                "busy_ms": usage.device_busy_ns / 1e6,
                "kernel_count": usage.kernel_count,
            }
            for key, usage in attribution.items()
        }

    if args.report == "csv":
        section = sections[0]
        if section == "idle":
            rows = [{k: v for k, v in payload["idle"].items() if k != "gaps"}]
        elif section == "aggregate":
            rows = payload["aggregate"]
        else:
            rows = [
                {"phase": name, **stats} for name, stats in sorted(payload["phases"].items())
            ]
        if not rows:
            raise LmmkError("nothing to report")
        text = trace_io.csv_report(rows)
    else:
        text = json.dumps(payload, indent=2) + "\n"
        if gaps:  # indent's pure-Python encoder is slow on them: splice in its text
            digits = trace_io._digits
            rows = b"".join(trace_io._text(b",\n      [\n        %s,\n        %s\n      ]",
                                           gaps._arrays(), lambda s, e: (digits(s), digits(e))))
            text = text.replace('"gaps": []', f'"gaps": [\n{rows[2:].decode()}\n    ]', 1)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_metrics(args: argparse.Namespace) -> None:
    if args.metric == "accuracy":
        pair = metrics.MetricPair(t_lm_ms=args.lm, t_gt_ms=args.gt)
        result = metrics.evaluate_pair(pair)
        print(f"alpha={result.alpha_pct:.2f} eps_star={result.eps_star_us_per_ms:.3f}")
    elif args.metric == "hq":
        score = metrics.hq_from_measurements(args.acc_q, args.acc_f, args.prefill_q,
                                             args.prefill_f, args.decode_q, args.decode_f)
        print(f"hq={score:.4f}")
    else:
        estimate = metrics.duplication_estimate(args.base, args.dup, args.n)
        print(f"estimate_ms={estimate:.4f}")


def _cmd_sample(args: argparse.Namespace) -> None:
    if args.bins < 2:
        raise _UsageError(f"--bins must be at least 2, got {args.bins}")
    lengths = sampler.read_lengths_file(args.lengths)
    plan = sampler.sample_subset(
        lengths, fraction=args.fraction, num_bins=args.bins, seed=args.seed
    )
    if args.out:
        sampler.write_plan_file(plan, args.out)
    print(f"kl_nats={plan.achieved_kl_nats:.6f} size={len(plan.indices)}")


def _cmd_predict(args: argparse.Namespace) -> None:
    if args.train_steps < 2:  # a fit needs steps 0 and 1, whatever the trace holds
        raise _UsageError(f"--train-steps must be at least 2, got {args.train_steps}")
    trace = trace_io.read_jsonl(args.trace)
    series = predictor.extract_step_series(trace, args.kernel)
    train = series.between(max_step=args.train_steps)
    model = predictor.fit(train)
    floor = predictor.estimate_constant_floor(trace, args.kernel, max_step=args.train_steps)
    holdout = predictor.decode_wall_series(trace).between(min_step=args.train_steps)
    scores = predictor.evaluate(model, holdout, floor)
    print(
        f"slope_ns_per_step={model.slope_ns_per_step:.4f} "
        f"intercept_ns={model.intercept_ns:.4f} "
        f"constant_floor_ns={floor:.4f} "
        f"mape={scores['mape']:.4f} max_ape={scores['max_ape']:.4f}"
    )


def _cmd_export(args: argparse.Namespace) -> None:
    trace = trace_io.read_jsonl(args.trace)
    trace_io.export_chrome_trace(trace, args.out)
    print(f"wrote {args.out}")


def _cmd_calibrate(args: argparse.Namespace) -> None:
    if args.iterations < 1000:
        raise _UsageError("--iterations must be at least 1000")
    cal = calibrate_timer(args.iterations)
    print(json.dumps({
        "resolution_ns": cal.resolution_ns,
        "overhead_ns_median": cal.overhead_ns_median,
        "iterations": cal.iterations,
    }))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmmk",
        description="Phase- and kernel-level latency profiling toolkit with a simulated backend",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subparser sets usage_errors, the errors main() exits 2 for. The
    # top-level parser sets none: which of the two defaults wins changed
    # within Python 3.10's patch releases.

    p = sub.add_parser("simulate", help="run a simulated workload and write a trace")
    p.add_argument("--workload", required=True,
                   help="preset:<name> or path to a workload JSON file")
    p.add_argument("--prompt-tokens", type=int, default=8)
    p.add_argument("--output-tokens", type=int, default=16)
    p.add_argument("--seed", type=int, default=None, help="jitter seed (LMMK_SEED overrides)")
    p.add_argument("--jitter", type=float, default=None, help="relative jitter sigma")
    p.add_argument("--duplicate", default=None, metavar="KERNEL:N",
                   help="duplicate a kernel N times after each invocation")
    p.add_argument("--out", required=True, help="trace output path (JSONL)")
    p.set_defaults(func=_cmd_simulate, usage_errors=(InvalidSpec, UnknownKernel, ValueError))

    p = sub.add_parser("analyze", help="idle gaps, kernel aggregates and phase attribution")
    p.add_argument("trace")
    p.add_argument("--idle", action="store_true")
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--phases", action="store_true")
    p.add_argument("--report", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_analyze, usage_errors=())

    p = sub.add_parser("metrics", help="profiling fidelity and quantization metrics")
    msub = p.add_subparsers(dest="metric", required=True)
    m = msub.add_parser("accuracy", help="alpha and scaled error from a latency pair")
    m.add_argument("--lm", type=float, required=True, help="measured latency (ms)")
    m.add_argument("--gt", type=float, required=True, help="ground-truth latency (ms)")
    m = msub.add_parser("hq", help="harmonic quantization score from measurements")
    m.add_argument("--acc-q", type=float, required=True)
    m.add_argument("--acc-f", type=float, required=True)
    m.add_argument("--prefill-q", type=float, required=True)
    m.add_argument("--prefill-f", type=float, required=True)
    m.add_argument("--decode-q", type=float, required=True)
    m.add_argument("--decode-f", type=float, required=True)
    m = msub.add_parser("duplication", help="per-copy latency from a duplication run")
    m.add_argument("--base", type=float, required=True, help="baseline phase latency (ms)")
    m.add_argument("--dup", type=float, required=True, help="duplicated phase latency (ms)")
    m.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_metrics, usage_errors=(
        NonPositiveGroundTruth, NonPositiveComponent, NegativeDelta, ValueError))

    p = sub.add_parser("sample", help="KL-matched subset of a token-length corpus")
    p.add_argument("--lengths", required=True, help="newline-delimited token lengths")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="subset plan output path")
    p.set_defaults(func=_cmd_sample, usage_errors=(FractionOutOfRange,))

    p = sub.add_parser("predict", help="fit and evaluate per-step decode latency")
    p.add_argument("trace")
    p.add_argument("--kernel", required=True, help="step-scaling kernel name")
    p.add_argument("--train-steps", type=int, default=100,
                   help="fit on steps < K, evaluate on the rest")
    p.set_defaults(func=_cmd_predict, usage_errors=())

    p = sub.add_parser("export", help="export a trace for standard timeline viewers")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export, usage_errors=())

    p = sub.add_parser("calibrate", help="measure timer resolution and record overhead")
    p.add_argument("--iterations", type=int, default=10_000)
    p.set_defaults(func=_cmd_calibrate, usage_errors=())

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (LmmkError, OSError, ValueError) as exc:
        print(f"lmmk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (_UsageError, *args.usage_errors)) else EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
