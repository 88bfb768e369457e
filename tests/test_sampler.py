"""Binning, KL and subset selection, with a differential test of
``sample_subset`` against the per-move loop it replaced.

``oracle_sample_subset`` and ``_oracle_greedy_swaps`` below are the
scalar selection that ``lmmk.sampler`` used to run (one KL per trial
move, one scan per bin for its members), kept verbatim as an oracle.
The oracle bins each length by its own search, sharing no binning code
with ``lmmk.sampler``.
"""

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmmk import sampler
from lmmk.errors import EmptyDataset, FractionOutOfRange
from lmmk.sampler import SubsetPlan


def lognormal_lengths(n=10_000, seed=1234):
    rng = np.random.default_rng(seed)
    return [int(x) + 1 for x in rng.lognormal(mean=5.0, sigma=0.6, size=n)]


def counts(lengths, num_bins):
    """Each bin's count of ``lengths`` under ``sampler._bins``."""
    _, idx = sampler._bins(lengths, num_bins)
    return tuple(np.bincount(idx, minlength=num_bins).tolist())


class TestHistogram:
    def test_two_even_bins(self):
        assert counts(list(range(1, 11)), 2) == (5, 5)

    def test_all_equal_lengths_occupy_one_bin(self):
        hist = counts([7] * 50, 8)
        assert sum(1 for c in hist if c > 0) == 1
        assert sum(hist) == 50

    def test_interior_edge_value_goes_to_lower_bin(self):
        # Edges for [0..10] with 2 bins are (0, 5, 10); the value 5 sits on
        # the interior edge and belongs to the lower bin.
        # span [1,10], edges (1, 5.5, 10): 1,5 -> bin0; 9,10 -> bin1
        assert counts([10, 5, 0 + 1, 9], 2) == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            sampler.sample_subset([], 0.5, num_bins=4)

    def test_min_bins(self):
        with pytest.raises(ValueError):
            sampler._bins([1, 2, 3], num_bins=1)

    def test_length_past_the_float_range_rejected(self):
        lengths = [5, 10**400]
        for select in (lambda: sampler._bins(lengths, 2),
                       lambda: sampler.sample_subset(lengths, 0.5)):
            with pytest.raises(ValueError, match="^token lengths must fit a float$"):
                select()

    def test_a_nan_length_is_refused(self):
        lengths = [1.0, float("nan"), 3.0]
        for select in (lambda: sampler._bins(lengths, 2),
                       lambda: sampler.sample_subset(lengths, 0.5)):
            with pytest.raises(ValueError, match="^token lengths must be positive$"):
                select()

    @pytest.mark.parametrize("edges", [(0.0, float("nan"), 2.0), (float("nan"), 1.0, 2.0),
                                       (0.0, 1.0, float("nan"))])
    def test_nan_edges_are_refused(self, edges):
        with mock.patch.object(np, "linspace", return_value=np.array(edges)):
            with pytest.raises(ValueError, match="^bin edges must be strictly increasing$"):
                sampler._bins([1, 2], 2)


class TestKLDivergence:
    """``sampler._kl_rows``, the one smoothed KL every plan reports."""

    def test_identical_histograms(self):
        full = np.array(counts(lognormal_lengths(500), 10), dtype=float)
        assert sampler._kl_rows(full[None], full, sampler.SMOOTHING_ALPHA) == [0.0]

    def test_hand_computed_value(self):
        kl = sampler._kl_rows(np.array([[1.0, 1.0]]), np.array([1.0, 3.0]), 0.0)
        assert kl == [pytest.approx(0.1438, abs=0.0001)]

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(2, 12), st.sampled_from([sampler.SMOOTHING_ALPHA, 3.0]))
    def test_nonnegative_on_random_pairs(self, data, num_bins, alpha):
        row = st.lists(st.integers(0, 300), min_size=num_bins, max_size=num_bins)
        subset, full = (np.array(data.draw(row), dtype=float) for _ in range(2))
        assert sampler._kl_rows(subset[None], full, alpha)[0] >= 0.0


class TestSampleSubset:
    def test_full_fraction_selects_everything(self):
        lengths = lognormal_lengths(500)
        plan = sampler.sample_subset(lengths, fraction=1.0, num_bins=10, seed=3)
        assert plan.indices == tuple(range(500))
        assert plan.achieved_kl_nats == 0.0

    def test_benchmark_sized_subset(self):
        lengths = lognormal_lengths(2_380, seed=9)
        plan = sampler.sample_subset(lengths, fraction=0.1, num_bins=30, seed=0)
        assert len(plan.indices) == 238

    def test_subset_size_follows_rounding(self):
        lengths = lognormal_lengths(1_001)
        plan = sampler.sample_subset(lengths, fraction=0.25, num_bins=10, seed=0)
        assert len(plan.indices) == 250  # round(250.25)

    def test_low_divergence_on_lognormal_corpus(self):
        plan = sampler.sample_subset(lognormal_lengths(), fraction=0.1, num_bins=30, seed=5)
        assert plan.achieved_kl_nats <= 0.05

    def test_deterministic(self):
        lengths = lognormal_lengths(3_000)
        a = sampler.sample_subset(lengths, 0.1, num_bins=30, seed=21)
        b = sampler.sample_subset(lengths, 0.1, num_bins=30, seed=21)
        assert a == b
        c = sampler.sample_subset(lengths, 0.1, num_bins=30, seed=22)
        assert a.indices != c.indices

    def test_indices_sorted_unique_in_range(self):
        lengths = lognormal_lengths(800)
        plan = sampler.sample_subset(lengths, 0.2, num_bins=20, seed=13)
        indices = plan.indices
        assert list(indices) == sorted(set(indices))
        assert all(0 <= i < 800 for i in indices)

    def test_swap_refinement_monotone(self):
        lengths = lognormal_lengths(4_000, seed=55)
        _, idx = sampler._bins(lengths, 25)
        full_counts = np.bincount(idx, minlength=25).astype(float)
        members = [np.flatnonzero(idx == b) for b in range(25)]
        rng = np.random.default_rng(2)
        # Deliberately bad start: grab the first 400 indices wholesale.
        chosen = np.zeros(4_000, dtype=bool)
        chosen[:400] = True
        history = sampler._greedy_swaps(chosen, members, full_counts, 0.5, rng, 4_000)
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))
        assert history[-1] < history[0]
        assert int(chosen.sum()) == 400

    def test_fraction_out_of_range(self):
        lengths = lognormal_lengths(100)
        with pytest.raises(FractionOutOfRange):
            sampler.sample_subset(lengths, 0.0)
        with pytest.raises(FractionOutOfRange):
            sampler.sample_subset(lengths, 1.5)
        with pytest.raises(FractionOutOfRange):
            sampler.sample_subset(lengths, 0.001)  # rounds to zero items


class TestFiles:
    def test_lengths_round_trip(self, tmp_path):
        path = tmp_path / "lengths.txt"
        path.write_text("12\n7\n\n300\n")
        assert sampler.read_lengths_file(str(path)) == [12, 7, 300]

    def test_bad_lengths_line_reported(self, tmp_path):
        path = tmp_path / "lengths.txt"
        path.write_text("12\nseven\n")
        with pytest.raises(ValueError, match="line 2"):
            sampler.read_lengths_file(str(path))

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_nonpositive_length_line_reported(self, tmp_path, value):
        path = tmp_path / "lengths.txt"
        path.write_text(f"12\n{value}\n7\n")
        with pytest.raises(ValueError) as info:
            sampler.read_lengths_file(str(path))
        assert str(info.value) == f"line 2: token length must be positive, got {int(value)}"

    @pytest.mark.parametrize("value", ["1_000", "+5", "\u0663"])
    def test_a_length_is_ascii_digits(self, tmp_path, value):
        path = tmp_path / "lengths.txt"
        path.write_text(f"12\n{value}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            sampler.read_lengths_file(str(path))
        assert str(info.value) == f"line 2: not an integer: {value!r}"

    def test_a_bad_utf_8_byte_names_its_line(self, tmp_path):
        path = tmp_path / "lengths.txt"
        path.write_bytes(b"12\n\xff\n7\n")
        with pytest.raises(ValueError) as info:
            sampler.read_lengths_file(str(path))
        assert str(info.value) == (
            "line 2: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")

    def test_plan_round_trip(self, tmp_path):
        plan = sampler.sample_subset(lognormal_lengths(400), 0.1, num_bins=10, seed=1)
        path = tmp_path / "plan.txt"
        sampler.write_plan_file(plan, str(path))
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {"fraction": plan.fraction, "size": len(plan.indices),
                                      "achieved_kl_nats": plan.achieved_kl_nats}
        assert tuple(map(int, lines)) == plan.indices


# -- the scalar selection, kept as the oracle -----------------------------------

def _oracle_bin_indices(values, edges):
    """Each value's bin by its own search: an interior edge belongs to the
    lower bin, the last edge to the last bin."""
    return np.clip(np.searchsorted(edges, values, "left") - 1, 0, len(edges) - 2)


def _oracle_histogram(lengths, num_bins):
    """Edges of num_bins equal-width bins over [min, max] of ``lengths``
    (widened by one if all are equal), and each bin's count."""
    if num_bins < 2:
        raise ValueError("num_bins must be at least 2")
    values = np.asarray(lengths, dtype=float)
    if not (values > 0).all():
        raise ValueError("token lengths must be positive")
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, num_bins + 1)
    if not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("bin edges must be strictly increasing")
    return edges, np.bincount(_oracle_bin_indices(values, edges), minlength=num_bins)


def _oracle_smoothed_kl_from_counts(subset_counts, full_counts, alpha):
    n_bins = len(full_counts)
    p = (subset_counts + alpha) / (subset_counts.sum() + alpha * n_bins)
    q = (full_counts + alpha) / (full_counts.sum() + alpha * n_bins)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _oracle_greedy_swaps(chosen, members, full_counts, alpha, rng, max_iterations):
    n_bins = len(full_counts)
    subset_counts = np.array(
        [int(chosen[m].sum()) for m in members], dtype=float
    )
    history = [_oracle_smoothed_kl_from_counts(subset_counts, full_counts, alpha)]
    for _ in range(max_iterations):
        current = history[-1]
        best_kl = current
        best_move = None
        for a in range(n_bins):
            if subset_counts[a] == 0:
                continue
            for b in range(n_bins):
                if a == b or subset_counts[b] >= full_counts[b]:
                    continue
                subset_counts[a] -= 1
                subset_counts[b] += 1
                trial = _oracle_smoothed_kl_from_counts(subset_counts, full_counts, alpha)
                subset_counts[a] += 1
                subset_counts[b] -= 1
                if trial < best_kl - 1e-15:
                    best_kl = trial
                    best_move = (a, b)
        if best_move is None:
            break
        a, b = best_move
        drop_pool = members[a][chosen[members[a]]]
        add_pool = members[b][~chosen[members[b]]]
        chosen[rng.choice(drop_pool)] = False
        chosen[rng.choice(add_pool)] = True
        subset_counts[a] -= 1
        subset_counts[b] += 1
        history.append(best_kl)
    return history


def _oracle_bins(lengths, num_bins):
    """``sampler._bins`` from the oracle: the histogram's edges and each
    length's bin."""
    edges, _ = _oracle_histogram(lengths, num_bins)
    return edges, _oracle_bin_indices(np.asarray(lengths, dtype=float), edges)


def _oracle_members(lengths, edges):
    idx = _oracle_bin_indices(np.asarray(lengths, dtype=float), edges)
    return [np.flatnonzero(idx == b) for b in range(len(edges) - 1)]


def oracle_sample_subset(lengths, fraction, num_bins=30, seed=0, smoothing_alpha=0.5):
    if not 0.0 < fraction <= 1.0:
        raise FractionOutOfRange(f"fraction={fraction} must be in (0, 1]")
    n = len(lengths)
    if n == 0:
        raise EmptyDataset("no token lengths supplied")
    target = int(math.floor(fraction * n + 0.5))
    if target < 1:
        raise FractionOutOfRange(f"fraction={fraction} selects no items from {n}")

    edges, full_counts = _oracle_histogram(lengths, num_bins)
    members = _oracle_members(lengths, edges)

    quotas = sampler._stratified_quotas(full_counts, fraction, target)
    rng = np.random.default_rng(seed)
    chosen = np.zeros(n, dtype=bool)
    for b in range(num_bins):
        if quotas[b] > 0:
            picked = rng.choice(members[b], size=int(quotas[b]), replace=False)
            chosen[picked] = True

    history = _oracle_greedy_swaps(
        chosen, members, full_counts.astype(float), smoothing_alpha, rng, 10 * target
    )
    indices = tuple(int(i) for i in np.flatnonzero(chosen))
    return SubsetPlan(indices=indices, achieved_kl_nats=history[-1], fraction=fraction)


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same_bins(got, expected):
    """Whether two outcomes of ``_bins`` agree: the same edges and bin
    values (the dtype may be narrower), or the same error."""
    arrays = [isinstance(edges, np.ndarray) for edges, _ in (got, expected)]
    if any(arrays):
        return all(arrays) and all(np.array_equal(a, b) for a, b in zip(got, expected))
    return got == expected


@st.composite
def corpora(draw):
    """1-5,000 token lengths: lognormal, narrow uniform or constant, and
    sometimes one length replaced by 0 or a negative value."""
    n = draw(st.integers(1, 5_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["lognormal", "uniform", "constant"]))
    if shape == "lognormal":
        lengths = rng.lognormal(draw(st.sampled_from([3.0, 5.0])), 0.7, n).astype(int) + 1
    elif shape == "uniform":
        lengths = rng.integers(1, draw(st.integers(2, 40)), n)
    else:
        lengths = np.full(n, draw(st.integers(1, 4_000)))
    lengths = lengths.tolist()
    if draw(st.integers(0, 5)) == 0:
        lengths[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, -1, -250]))
    return lengths


@st.composite
def boundary_corpora(draw):
    """(lengths, num_bins) on either side of the conditions under which
    ``sampler._bins`` looks bins up in a table: whole numbers spanning
    len - 1, len or len + 1 values; the same with some lengths moved off
    the integers; integers past 2**53, where the float conversion rounds;
    and every edge of a num_bins histogram, each held several times."""
    num_bins = draw(st.one_of(st.sampled_from([255, 256, 300]), st.integers(2, 60)))
    kind = draw(st.sampled_from(["whole", "non-integral", "past-2**53", "on-edges"]))
    if kind == "on-edges":  # e.g. 1..31 with 30 bins: each interior length is an edge
        width = draw(st.integers(1, 3))
        lengths = np.tile(np.arange(num_bins + 1) * width, width + 1)
        return (draw(st.integers(1, 10**6)) + lengths).tolist(), num_bins
    step = draw(st.sampled_from([1, 2, 3, 256])) if kind == "past-2**53" else 1
    n = draw(st.integers(2, 1_500 if step == 256 else 300))  # 2**60 + 256 * k needs span >= 512
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = max(1, (n + draw(st.sampled_from([-1, 0, 1]))) // step)
    keys = rng.permutation(np.append(rng.integers(0, span + 1, n - 2), [0, span]))
    if kind == "past-2**53":
        base = draw(st.sampled_from([2**53, 2**53 + 1, 2**60]))
        return [base + step * int(k) for k in keys], num_bins
    lengths = draw(st.integers(1, 10**6)) + keys.astype(float)
    if kind == "non-integral":
        moved = rng.integers(0, n, draw(st.integers(1, n)))
        lengths[moved] += draw(st.sampled_from([0.5, 0.25, 1e-6, 0.999]))
    return lengths.tolist(), num_bins


fractions = st.one_of(
    st.floats(0.002, 1.0),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([1.0, 0.0, -0.25, 1.5]),
)


class TestAgainstScalarSelection:
    @settings(max_examples=400, deadline=None)
    @given(corpora(), fractions, st.integers(1, 60), st.integers(0, 2**32 - 1))
    def test_sample_subset_matches_oracle(self, lengths, fraction, num_bins, seed):
        expected = outcome(oracle_sample_subset, lengths, fraction, num_bins, seed,
                           sampler.SMOOTHING_ALPHA)
        got = outcome(sampler.sample_subset, lengths, fraction, num_bins, seed)
        assert got == expected
        if isinstance(expected, SubsetPlan):
            assert type(got.achieved_kl_nats) is float
            assert all(type(i) is int for i in got.indices)
        assert same_bins(outcome(sampler._bins, lengths, num_bins),
                         outcome(_oracle_bins, lengths, num_bins))

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
    def test_greedy_swaps_from_a_bad_start_match_oracle(self, alpha):
        # The deliberately bad start of test_swap_refinement_monotone.
        lengths = lognormal_lengths(4_000, seed=55)
        edges, full_counts = _oracle_histogram(lengths, 25)
        members = _oracle_members(lengths, edges)
        full_counts = full_counts.astype(float)
        runs = []
        for swaps in (sampler._greedy_swaps, _oracle_greedy_swaps):
            chosen = np.zeros(4_000, dtype=bool)
            chosen[:400] = True
            history = swaps(chosen, members, full_counts, alpha, np.random.default_rng(2), 4_000)
            runs.append((history, chosen))
        (history, chosen), (expected_history, expected_chosen) = runs
        assert len(history) > 2
        assert history == expected_history
        assert np.array_equal(chosen, expected_chosen)

    @settings(max_examples=300, deadline=None)
    @given(boundary_corpora(), st.one_of(st.floats(0.005, 0.2), st.just(1.0)),
           st.integers(0, 2**32 - 1))
    @example(([*range(1, 32)], 30), 0.1, 0)
    @example(([2**60 + 256 * k for k in range(3)] * 200, 2), 0.1, 0)
    def test_binning_matches_oracle_on_both_sides_of_the_table_route(self, case, fraction, seed):
        lengths, num_bins = case
        assert same_bins(outcome(sampler._bins, lengths, num_bins),
                         outcome(_oracle_bins, lengths, num_bins))
        # The scalar selection is too slow at hundreds of bins, so the plan is
        # checked against the same selection run on the oracle's bins.
        with mock.patch.object(sampler, "_bins", _oracle_bins):
            expected_plan = outcome(sampler.sample_subset, lengths, fraction, num_bins, seed)
        assert outcome(sampler.sample_subset, lengths, fraction, num_bins, seed) == expected_plan

    def test_pinned_plan(self):
        # Selected on the scalar loop; any change to the selection shows here.
        plan = sampler.sample_subset(lognormal_lengths(200_000, seed=0), 0.01, num_bins=30,
                                     seed=0)
        digest = hashlib.sha256(",".join(map(str, plan.indices)).encode()).hexdigest()
        assert len(plan.indices) == 2_000
        assert digest == "aa9240f9208595a6d2f0041741c9d35bc8a018068bbd166ac44ff296e8f1afca"
        assert plan.achieved_kl_nats == 0.009312570532529483
