"""Correlation metrics against a brute-force 64-bit reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempqt.errors import MetricError
from tempqt.metrics import plcc, rank_average_ties, srocc


def brute_ranks(values):
    """O(n^2) average-tie ranks, written independently of the package."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.shape[0])
    for i, v in enumerate(arr):
        less = float(np.sum(arr < v))
        equal = float(np.sum(arr == v))
        # ranks occupied by the tie run: less+1 .. less+equal
        out[i] = less + (equal + 1.0) / 2.0
    return out


def brute_pearson(u, v):
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    du = u - u.mean()
    dv = v - v.mean()
    return float((du * dv).sum() / np.sqrt((du * du).sum() * (dv * dv).sum()))


def test_worked_examples():
    assert srocc([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-4)
    assert plcc([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-4)


def test_perfect_and_reversed():
    x = [0.1, 0.4, 0.2, 0.9]
    assert srocc(x, x) == pytest.approx(1.0)
    assert srocc(x, [-v for v in x]) == pytest.approx(-1.0)
    assert plcc(x, [2.0 * v + 1.0 for v in x]) == pytest.approx(1.0)


def test_matches_bruteforce_on_random_vectors():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 1000))
        gt = rng.normal(size=n)
        pred = rng.normal(size=n)
        if trial % 3 == 0:
            # force ties
            gt = np.round(gt, 1)
            pred = np.round(pred, 1)
            if np.unique(gt).size < 2 or np.unique(pred).size < 2:
                continue
        assert abs(plcc(gt, pred) - brute_pearson(gt, pred)) < 1e-12
        expect = brute_pearson(brute_ranks(gt), brute_ranks(pred))
        assert abs(srocc(gt, pred) - expect) < 1e-12


def test_rank_average_ties_known():
    assert np.allclose(rank_average_ties([10.0, 20.0, 20.0, 30.0]), [1.0, 2.5, 2.5, 4.0])
    assert np.allclose(rank_average_ties([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_classic_formula_without_ties():
    rng = np.random.default_rng(1)
    gt = rng.permutation(50).astype(float)
    pred = rng.permutation(50).astype(float)
    d = rank_average_ties(gt) - rank_average_ties(pred)
    n = 50
    classic = 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))
    assert srocc(gt, pred) == pytest.approx(classic, abs=1e-12)


@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=40).filter(
        lambda xs: len(set(xs)) > 1
    ),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100)
def test_srocc_monotone_invariance(xs, seed):
    rng = np.random.default_rng(seed)
    pred = rng.normal(size=len(xs))
    if np.unique(pred).size < 2:
        return
    base = srocc(xs, pred)
    x = np.asarray(xs)
    # strictly increasing maps preserve ranks exactly
    for mapped in (3.0 * x + 2.0, np.exp(x / 50.0), x ** 3):
        if np.unique(mapped).size != np.unique(x).size:
            continue  # mapping collapsed values in float, ranks changed
        assert srocc(mapped, pred) == base


def test_error_conditions():
    with pytest.raises(MetricError):
        srocc([1.0], [1.0])
    with pytest.raises(MetricError):
        plcc([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(MetricError):
        plcc([1.0, 1.0], [1.0, 2.0])  # zero variance
    with pytest.raises(MetricError):
        srocc([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(MetricError):
        plcc(np.ones((2, 2)), np.ones(4))
