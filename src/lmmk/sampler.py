"""KL-divergence-matched subset selection over token-length distributions.

Benchmark prompts are reduced to their token lengths; a subset is chosen
so that its length histogram stays close (in KL divergence, subset
against full corpus) to the full dataset. Selection runs in two stages:
proportional stratified allocation per histogram bin, then greedy swaps
of one selected prompt for one unselected one. The moves (drop bin, add
bin) are scanned in that order, and the swap made is the last one that
improved on the running best KL by more than 1e-15. The KL is smoothed
with ``SMOOTHING_ALPHA``, and the plan is a pure function of (lengths,
fraction, num_bins, seed). A corpus of whole numbers that spans no more
values than it holds is binned through one table of each length's bin,
built by the same search; any other corpus is searched value by value.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset, FractionOutOfRange

#: Additive smoothing of the subset and corpus histograms that
#: :func:`sample_subset` compares.
SMOOTHING_ALPHA = 0.5


@dataclass(frozen=True)
class SubsetPlan:
    indices: tuple[int, ...]
    achieved_kl_nats: float
    fraction: float


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # Values on an interior edge fall into the lower bin; the global max
    # (equal to the last edge) falls into the last bin.
    idx = np.searchsorted(edges, values, side="left") - 1
    return np.clip(idx, 0, len(edges) - 2)


def _bins(lengths: Sequence[int], num_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges of num_bins equal-width bins spanning [min, max] of nonempty
    ``lengths``, and each length's bin. If all lengths are equal, the span
    is widened by one so a single bin holds everything. A whole-number corpus
    spanning no more values than it holds is binned through one table of each
    length's bin, built by the same search; any other is searched value by value."""
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    try:
        values = np.asarray(lengths, dtype=float)
    except OverflowError:
        raise ValueError("token lengths must fit a float") from None
    if not (values > 0).all():  # a NaN fails too
        raise ValueError("token lengths must be positive")
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, num_bins + 1)
    if not (edges[:-1] < edges[1:]).all():  # a NaN edge fails too
        raise ValueError("bin edges must be strictly increasing")
    keys = (values - lo).astype(np.intp) if hi - lo <= len(values) else None  # table <= corpus
    if keys is not None and (keys + lo == values).all():  # each length is exactly lo + a key
        table = _bin_indices(lo + np.arange(keys.max() + 1), edges)
        return edges, table.astype(np.min_scalar_type(num_bins))[keys]
    return edges, _bin_indices(values, edges)


def _kl_rows(counts: np.ndarray, full_counts: np.ndarray, alpha: float) -> list[float]:
    """Smoothed KL(subset || full) in nats for each row of subset bin
    ``counts``: the 1-D ``np.sum`` of the row's p > 0 terms in bin order.
    Rows with the same number of such terms are summed together along the
    contiguous axis, which gives the same floats."""
    n_bins = len(full_counts)
    p = (counts + alpha) / (counts.sum(axis=1, keepdims=True) + alpha * n_bins)
    q = np.broadcast_to((full_counts + alpha) / (full_counts.sum() + alpha * n_bins), p.shape)
    keep = p > 0
    width = keep.sum(axis=1)
    kls = np.zeros(len(p))  # a row without p > 0 terms sums to 0.0
    for k in set(width.tolist()) - {0}:
        rows = width == k
        pk, qk = (x[rows][keep[rows]].reshape(-1, k) for x in (p, q))
        kls[rows] = (pk * np.log(pk / qk)).sum(axis=1)
    return kls.tolist()


def _stratified_quotas(full_counts: np.ndarray, fraction: float, target: int) -> np.ndarray:
    """Largest-remainder allocation of the subset size across bins."""
    raw = fraction * full_counts
    quotas = np.floor(raw).astype(int)
    remainders = raw - quotas
    remaining = target - int(quotas.sum())
    order = sorted(range(len(full_counts)), key=lambda b: (-remainders[b], b))
    for b in order:
        if remaining == 0:
            break
        if quotas[b] < full_counts[b]:
            quotas[b] += 1
            remaining -= 1
    if remaining > 0:  # capacity spill: top up any bin with room, low index first
        for b in range(len(full_counts)):
            while remaining > 0 and quotas[b] < full_counts[b]:
                quotas[b] += 1
                remaining -= 1
    return quotas


def _greedy_swaps(chosen: np.ndarray, members: list[np.ndarray], full_counts: np.ndarray,
                  alpha: float, rng: np.random.Generator, max_iterations: int) -> list[float]:
    """Swap one selected/unselected pair at a time until no move improves.

    Each iteration takes the KL of every legal move (drop bin a, add bin b)
    in array ops and scans them in (a, b) order from the current KL: a move
    below the running best by more than 1e-15 becomes the running best,
    and the last such move is made, its two prompts drawn from ``rng``.
    Returns the KL after each accepted state (including the initial one),
    which is non-increasing."""
    n_bins = len(full_counts)
    bins = np.arange(n_bins)
    chunk = max(1, 2**18 // n_bins)  # trial rows per block, to bound memory at any bin count
    subset_counts = np.array([int(chosen[m].sum()) for m in members], dtype=float)
    history = _kl_rows(subset_counts[None], full_counts, alpha)
    for _ in range(max_iterations):
        drop = np.flatnonzero(subset_counts != 0)
        add = np.flatnonzero(subset_counts < full_counts)
        grid = np.meshgrid(drop, add, indexing="ij")
        moves_a, moves_b = (m[drop[:, None] != add, None] for m in grid)  # in (a, b) order
        trials = []
        for lo in range(0, len(moves_a), chunk):
            a, b = moves_a[lo:lo + chunk], moves_b[lo:lo + chunk]
            trials += _kl_rows(subset_counts - (bins == a) + (bins == b), full_counts, alpha)
        best_kl, best_move = history[-1], None
        for move, trial in enumerate(trials):
            if trial < best_kl - 1e-15:
                best_kl, best_move = trial, move
        if best_move is None:
            break
        a, b = int(moves_a[best_move, 0]), int(moves_b[best_move, 0])
        drop_pool = members[a][chosen[members[a]]]
        add_pool = members[b][~chosen[members[b]]]
        chosen[rng.choice(drop_pool)] = False
        chosen[rng.choice(add_pool)] = True
        subset_counts[a] -= 1
        subset_counts[b] += 1
        history.append(best_kl)
    return history


def sample_subset(lengths: Sequence[int], fraction: float, num_bins: int = 30,
                  seed: int = 0) -> SubsetPlan:
    """Select round(fraction * N) prompts whose length histogram matches the
    full corpus, reporting the achieved KL divergence in nats."""
    if not 0.0 < fraction <= 1.0:
        raise FractionOutOfRange(f"fraction={fraction} must be in (0, 1]")
    n = len(lengths)
    if n == 0:
        raise EmptyDataset("no token lengths supplied")
    target = int(math.floor(fraction * n + 0.5))
    if target < 1:
        raise FractionOutOfRange(f"fraction={fraction} selects no items from {n}")

    _, idx = _bins(lengths, num_bins)
    full_counts = np.bincount(idx, minlength=num_bins)
    # A stable (radix) sort on a small int dtype: each bin's members in ascending order.
    order = np.argsort(idx.astype(np.min_scalar_type(num_bins), copy=False), kind="stable")
    members = np.split(order, np.cumsum(full_counts)[:-1])

    quotas = _stratified_quotas(full_counts, fraction, target)
    rng = np.random.default_rng(seed)
    chosen = np.zeros(n, dtype=bool)
    for b in range(num_bins):
        if quotas[b] > 0:
            picked = rng.choice(members[b], size=int(quotas[b]), replace=False)
            chosen[picked] = True

    history = _greedy_swaps(chosen, members, full_counts.astype(float), SMOOTHING_ALPHA, rng,
                            10 * target)
    indices = tuple(np.flatnonzero(chosen).tolist())
    return SubsetPlan(indices=indices, achieved_kl_nats=history[-1], fraction=fraction)


# -- file interfaces ----------------------------------------------------------

_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """``int(text)`` for ASCII ``-?[0-9]+`` only: ``int`` also takes
    ``1_000``, ``+5`` and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def read_lengths_file(path: str) -> list[int]:
    """Read newline-delimited positive integer token lengths, each written
    as ASCII decimal digits. A bad line raises ValueError naming it."""
    lengths = []
    with open(path, "rb") as f:  # bytes, so a bad UTF-8 byte is blamed on its own line
        for lineno, line in enumerate(f, start=1):
            try:
                text = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if not text:
                continue
            try:
                lengths.append(_integer(text))
            except ValueError:
                raise ValueError(f"line {lineno}: not an integer: {text!r}") from None
            if lengths[-1] <= 0:
                raise ValueError(f"line {lineno}: token length must be positive, got {lengths[-1]}")
    return lengths


def write_plan_file(plan: SubsetPlan, path: str) -> None:
    """One-line JSON header, then one selected index per line."""
    header = {
        "fraction": plan.fraction,
        "size": len(plan.indices),
        "achieved_kl_nats": plan.achieved_kl_nats,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i in plan.indices:
            f.write(f"{i}\n")
