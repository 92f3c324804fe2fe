"""Rank and linear correlation metrics, computed in 64-bit throughout.

Spearman correlation is the Pearson correlation of average-tie ranks,
which reduces to the classic 1 - 6*sum(d^2)/(n*(n^2-1)) formula when
no ties are present.
"""

from __future__ import annotations

import numpy as np

from .errors import MetricError


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise MetricError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise MetricError(f"{name} holds a non-finite value")
    return arr


def _check_pair(gt, pred) -> tuple[np.ndarray, np.ndarray]:
    g = _as_vector(gt, "gt")
    p = _as_vector(pred, "pred")
    if g.shape[0] != p.shape[0]:
        raise MetricError(f"length mismatch: {g.shape[0]} vs {p.shape[0]}")
    if g.shape[0] < 2:
        raise MetricError("need at least two observations")
    return g, p


def rank_average_ties(values) -> np.ndarray:
    """Ranks 1..n with equal values sharing the average of their ranks."""
    arr = _as_vector(values, "values")
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(arr.shape[0], dtype=np.float64)
    i = 0
    n = arr.shape[0]
    while i < n:
        j = i
        while j + 1 < n and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        ranks[order[i : j + 1]] = avg
        i = j + 1
    return ranks


def _pearson(u: np.ndarray, v: np.ndarray, what: str) -> float:
    du = u - u.mean()
    dv = v - v.mean()
    su = float(du @ du)
    sv = float(dv @ dv)
    if su == 0.0 or sv == 0.0:
        raise MetricError(f"{what} is undefined: an input has zero variance")
    r = float(du @ dv) / np.sqrt(su * sv)
    return float(min(1.0, max(-1.0, r)))


def plcc(gt, pred) -> float:
    """Pearson linear correlation coefficient."""
    g, p = _check_pair(gt, pred)
    return _pearson(g, p, "plcc")


def srocc(gt, pred) -> float:
    """Spearman rank-order correlation with average-tie ranks."""
    g, p = _check_pair(gt, pred)
    return _pearson(rank_average_ties(g), rank_average_ties(p), "srocc")
