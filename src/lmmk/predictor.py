"""Per-step decode latency prediction.

During autoregressive decoding only the paged-attention kernel grows with
the step index (it scans one more KV-cache entry per generated token), and
the growth is close to linear. Fitting a line to its per-step latency and
adding a constant floor for everything else in the step (non-growing
kernels plus idle time) predicts the wall time of future decode steps.

Decode steps are keyed by token index, so every function here reads a
single-turn trace: a trace whose decode phases repeat a token index (one
per turn) raises :class:`~lmmk.errors.RepeatedDecodeStep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSeries, InsufficientSteps, KernelNotFound, RepeatedDecodeStep
from .recorder import PhaseKind, Trace, int_rows
from .timeline import assign_to_windows


@dataclass(frozen=True)
class StepSeries:
    """Latency observations keyed by decode step, strictly increasing."""

    steps: tuple[int, ...]
    latencies_ns: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.latencies_ns):
            raise ValueError("steps and latencies differ in length")
        if len(self.steps) < 2:
            raise InsufficientSteps("a step series needs at least 2 points")
        if any(b <= a for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly increasing")
        if any(y <= 0 for y in self.latencies_ns):
            raise ValueError("latencies must be positive")

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def from_pairs(cls, pairs) -> "StepSeries":
        """Build a series from (step, latency) pairs in any order."""
        ordered = sorted(pairs)
        return cls(
            steps=tuple(s for s, _ in ordered),
            latencies_ns=tuple(float(y) for _, y in ordered),
        )

    def between(self, min_step: Optional[int] = None, max_step: Optional[int] = None) -> "StepSeries":
        """Sub-series with min_step <= step < max_step."""
        pairs = [
            (s, y)
            for s, y in zip(self.steps, self.latencies_ns)
            if (min_step is None or s >= min_step) and (max_step is None or s < max_step)
        ]
        if len(pairs) < 2:
            raise InsufficientSteps(f"only {len(pairs)} points in [{min_step}, {max_step})")
        return StepSeries(tuple(s for s, _ in pairs), tuple(y for _, y in pairs))


@dataclass(frozen=True)
class LinearModel:
    intercept_ns: float
    slope_ns_per_step: float
    trained_steps: int

    def predict(self, step: int) -> float:
        return self.intercept_ns + self.slope_ns_per_step * step


def _decode_windows(trace: Trace) -> dict[int, tuple[int, int]]:
    """Host-domain wall interval of each decode step, keyed by token index.

    Raises RepeatedDecodeStep when two decode phases share a token index.
    """
    phases = trace.phases
    decode = phases.of_kind(PhaseKind.DECODE)
    windows = {}
    turns = {}
    for token, turn, start, end in int_rows(*(
        column[decode]
        for column in (phases.token_index, phases.turn, phases.t_start_ns, phases.t_end_ns)
    )):
        if token in turns:
            raise RepeatedDecodeStep(
                f"decode token {token} occurs in turn {turns[token]} and again in "
                f"turn {turn}; the predictor needs a single-turn trace"
            )
        turns[token] = turn
        windows[token] = (start, end)
    return windows


def _kernel_ns_by_step(
    trace: Trace, kernel_name: str, windows: dict[int, tuple[int, int]]
) -> tuple[dict[int, int], dict[int, int]]:
    """Total execution time and invocation count of one kernel in each
    window that holds an invocation, keyed by step.

    Which window owns an invocation is decided by
    :func:`lmmk.timeline.assign_to_windows`, the rule that
    :func:`lmmk.timeline.phase_attribution` uses too.
    """
    ordered = sorted(windows.items(), key=lambda item: item[1])
    bounds = np.array([window for _, window in ordered], dtype=np.int64).reshape(-1, 2)
    kernels = trace.kernels
    named = kernels.name_mask(kernel_name)
    starts = kernels.t_start_ns[named]
    owners = assign_to_windows(trace, starts, bounds[:, 0], bounds[:, 1])
    sums: dict[int, int] = {}
    counts: dict[int, int] = {}
    for j, ns in zip(owners.tolist(), (kernels.t_end_ns[named] - starts).tolist()):
        if j >= 0:
            step = ordered[j][0]
            sums[step] = sums.get(step, 0) + ns
            counts[step] = counts.get(step, 0) + 1
    return sums, counts


def extract_step_series(trace: Trace, kernel_name: str) -> StepSeries:
    """Per-decode-step latency of one kernel, averaging multiple
    invocations inside a step."""
    sums, counts = _kernel_ns_by_step(trace, kernel_name, _decode_windows(trace))
    if not trace.kernels.name_mask(kernel_name).any():
        raise KernelNotFound(f"kernel {kernel_name!r} does not occur in the trace")
    if len(sums) < 2:
        raise InsufficientSteps(
            f"kernel {kernel_name!r} occurs in {len(sums)} decode steps; need at least 2"
        )
    steps = sorted(sums)
    return StepSeries(
        steps=tuple(steps),
        latencies_ns=tuple(sums[s] / counts[s] for s in steps),
    )


def decode_wall_series(trace: Trace) -> StepSeries:
    """Wall duration of each decode step as a series over token index."""
    windows = _decode_windows(trace)
    if len(windows) < 2:
        raise InsufficientSteps(f"trace has {len(windows)} decode steps; need at least 2")
    steps = sorted(windows)
    return StepSeries(
        steps=tuple(steps),
        latencies_ns=tuple(float(windows[s][1] - windows[s][0]) for s in steps),
    )


def fit(series: StepSeries) -> LinearModel:
    """Ordinary least squares over (step, latency)."""
    n = len(series)
    xs = series.steps
    ys = series.latencies_ns
    x_mean = sum(xs) / n
    y_mean = sum(ys) / n
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0:
        raise DegenerateSeries("all steps are identical")
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return LinearModel(
        intercept_ns=y_mean - slope * x_mean,
        slope_ns_per_step=slope,
        trained_steps=n,
    )


def predict_step_latency(model: LinearModel, constant_floor_ns: float, step: int) -> float:
    """Predicted step latency: floor for the non-growing part of the step
    plus the fitted line for the growing kernel."""
    if step < 0:
        raise ValueError("step must be nonnegative")
    return constant_floor_ns + model.predict(step)


def estimate_constant_floor(
    trace: Trace, kernel_name: str, max_step: Optional[int] = None
) -> float:
    """Mean over decode steps of (step wall time minus the target kernel's
    execution time in that step); captures all non-growing kernels and the
    idle overhead without enumerating them."""
    windows = _decode_windows(trace)
    if max_step is not None:
        windows = {s: w for s, w in windows.items() if s < max_step}
    kernel_ns, _ = _kernel_ns_by_step(trace, kernel_name, windows)
    if not windows:
        raise InsufficientSteps("no decode steps in the requested range")
    floors = [(hi - lo) - kernel_ns.get(s, 0) for s, (lo, hi) in windows.items()]
    return sum(floors) / len(floors)


def evaluate(model: LinearModel, holdout: StepSeries, constant_floor_ns: float) -> dict[str, float]:
    """MAPE and max absolute percentage error of the prediction on a holdout
    series, both as fractions."""
    apes = [
        abs(predict_step_latency(model, constant_floor_ns, s) - y) / y
        for s, y in zip(holdout.steps, holdout.latencies_ns)
    ]
    return {"mape": sum(apes) / len(apes), "max_ape": max(apes)}
