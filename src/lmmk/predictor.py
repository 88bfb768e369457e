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

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from .errors import DegenerateSeries, InsufficientSteps, KernelNotFound, RepeatedDecodeStep
from .recorder import PhaseKind, Trace
from .timeline import phase_owners


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
        if any(map(operator.ge, self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly increasing")
        if any(map(operator.le, self.latencies_ns, repeat(0))):
            raise ValueError("latencies must be positive")

    def __len__(self) -> int:
        return len(self.steps)

    @classmethod
    def from_pairs(cls, pairs) -> "StepSeries":
        """Build a series from (step, latency) pairs in any order."""
        steps, latencies = tuple(zip(*sorted(pairs))) or ((), ())
        return cls(steps, tuple(map(float, latencies)))

    def between(self, min_step: Optional[int] = None, max_step: Optional[int] = None) -> "StepSeries":
        """Sub-series with min_step <= step < max_step."""
        pairs = [(s, y) for s, y in zip(self.steps, self.latencies_ns)
                 if (min_step is None or s >= min_step) and (max_step is None or s < max_step)]
        if len(pairs) < 2:
            raise InsufficientSteps(f"only {len(pairs)} points in [{min_step}, {max_step})")
        return StepSeries(*zip(*pairs))


@dataclass(frozen=True)
class LinearModel:
    intercept_ns: float
    slope_ns_per_step: float

    def predict(self, step: int) -> float:
        return self.intercept_ns + self.slope_ns_per_step * step


def _decode_steps(trace: Trace) -> tuple[np.ndarray, dict[int, int]]:
    """Each phase row's decode step (its token index for a decode phase, -1
    for any other kind) and the wall time of each decode step, keyed by
    step in start order.

    Raises RepeatedDecodeStep for the first decode phase, in start order,
    whose token index an earlier decode phase already has.
    """
    phases = trace.phases
    decode = phases.of_kind(PhaseKind.DECODE)
    tokens, turns = phases.token_index[decode], phases.turn[decode]
    order = np.argsort(tokens, kind="stable")
    repeats = order[1:][tokens[order[1:]] == tokens[order[:-1]]]
    if len(repeats):
        again = repeats.min()
        first = np.flatnonzero(tokens == tokens[again])[0]
        raise RepeatedDecodeStep(
            f"decode token {tokens[again]} occurs in turn {turns[first]} and again in "
            f"turn {turns[again]}; the predictor needs a single-turn trace"
        )
    walls = (phases.t_end_ns - phases.t_start_ns)[decode]
    return np.where(decode, phases.token_index, -1), dict(zip(tokens.tolist(), walls.tolist()))


def _kernel_ns_by_step(trace: Trace, kernel_name: str, steps: np.ndarray) -> dict[int, list[int]]:
    """Execution times of one kernel's invocations in each decode step that
    holds one, keyed by step (``steps`` as :func:`_decode_steps` gives them).
    :func:`lmmk.timeline.phase_owners` decides the owner, as for attribution."""
    kernels = trace.kernels
    named = kernels.name_mask(kernel_name)
    starts = kernels.t_start_ns[named]
    owned = np.append(steps, -1)[phase_owners(trace, starts)]
    by_step: dict[int, list[int]] = {}
    for step, ns in zip(owned.tolist(), (kernels.t_end_ns[named] - starts).tolist()):
        if step >= 0:
            by_step.setdefault(step, []).append(ns)
    return by_step


def _series(latencies: dict[int, float], what: str) -> StepSeries:
    """The series of ``latencies`` by step; raises DegenerateSeries naming
    the first step of 0 ns."""
    zero = min((step for step, latency in latencies.items() if latency <= 0), default=None)
    if zero is not None:
        raise DegenerateSeries(f"decode step {zero} has a {what} of 0 ns; "
                               "a step series needs positive latencies")
    return StepSeries.from_pairs(latencies.items())


def extract_step_series(trace: Trace, kernel_name: str) -> StepSeries:
    """Per-decode-step latency of one kernel, averaging multiple
    invocations inside a step."""
    by_step = _kernel_ns_by_step(trace, kernel_name, _decode_steps(trace)[0])
    if not trace.kernels.name_mask(kernel_name).any():
        raise KernelNotFound(f"kernel {kernel_name!r} does not occur in the trace")
    if len(by_step) < 2:
        raise InsufficientSteps(
            f"kernel {kernel_name!r} occurs in {len(by_step)} decode steps; need at least 2"
        )
    means = {s: sum(ns) / len(ns) for s, ns in by_step.items()}
    return _series(means, f"mean {kernel_name!r} execution time")


def decode_wall_series(trace: Trace) -> StepSeries:
    """Wall duration of each decode step as a series over token index."""
    walls = _decode_steps(trace)[1]
    if len(walls) < 2:
        raise InsufficientSteps(f"trace has {len(walls)} decode steps; need at least 2")
    return _series(walls, "wall time")


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
    steps, walls = _decode_steps(trace)
    by_step = _kernel_ns_by_step(trace, kernel_name, steps)
    floors = [wall - sum(by_step.get(s, ())) for s, wall in walls.items()
              if max_step is None or s < max_step]
    if not floors:
        raise InsufficientSteps("no decode steps in the requested range")
    return sum(floors) / len(floors)


def evaluate(model: LinearModel, holdout: StepSeries, constant_floor_ns: float) -> dict[str, float]:
    """MAPE and max absolute percentage error of the prediction on a holdout
    series, both as fractions."""
    apes = [
        abs(predict_step_latency(model, constant_floor_ns, s) - y) / y
        for s, y in zip(holdout.steps, holdout.latencies_ns)
    ]
    return {"mape": sum(apes) / len(apes), "max_ape": max(apes)}
