"""Independent computations the benchmark checks the program against.

Nothing here calls the program: result vectors come from column sums and
threshold bisection, sequence kinds from their definitions written as sort
orders, and separability from brute-force pairwise distances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations

import numpy as np


def bin_of(eta, value: int) -> int | None:
    """Bin index of value, or None when it reaches the top threshold."""
    if value >= eta[-1]:
        return None
    return bisect_right(eta, value) - 1


def columns(values, base_matrix) -> np.ndarray:
    """The concatenated code matrix: column j*n_b + i is values[j] times
    base column i."""
    return np.hstack([int(a) * np.asarray(base_matrix, dtype=np.int64) for a in values])


def result_vector(eta, matrix: np.ndarray, defectives) -> tuple[int, ...] | None:
    """Quantized column sums of the defective set, or None on overflow."""
    sums = matrix[:, sorted(defectives)].sum(axis=1)
    bins = tuple(bin_of(eta, int(s)) for s in sums)
    return None if None in bins else bins


def campaign_cases(n: int, m: int, Q: int, d: int, e: int) -> int:
    """Defective sets of size 1..d times error patterns of weight <= e."""
    sets = sum(math.comb(n, s) for s in range(1, d + 1))
    patterns = sum(math.comb(m, t) * (Q - 1) ** t for t in range(e + 1))
    return sets * patterns


def _order_key(kind: str, values):
    """The order a sequence of the kind imposes on subset bins.

    quantized-bh imposes none (bins only differ); sqlo-s ranks subsets by
    their largest differing element, i.e. as binary numbers over the sorted
    elements; sqlo-l ranks by cardinality, then lexicographically."""
    position = {a: i for i, a in enumerate(values)}
    if kind == "sqlo-s":
        return lambda s: sum(1 << position[a] for a in s)
    if kind == "sqlo-l":
        return lambda s: (len(s), s)
    return None


def is_kind(values, eta, h: int, kind: str) -> bool:
    """Brute-force check of the kind's definition for subsets of size <= h."""
    values = tuple(values)
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        return False
    if values[0] < eta[1]:
        return False  # the smallest element must leave bin 0
    subsets = [s for r in range(1, min(h, len(values)) + 1)
               for s in combinations(values, r)]
    bins = {}
    for s in subsets:
        b = bin_of(eta, sum(s))
        if b is None:
            return False
        bins[s] = b
    if len(set(bins.values())) != len(subsets):
        return False
    key = _order_key(kind, values)
    if key is None:
        return True
    ranked = sorted(subsets, key=key)
    return all(bins[a] < bins[b] for a, b in zip(ranked, ranked[1:]))


def greedy_is_minimal(values, eta, h: int, kind: str, k_target: int) -> bool:
    """The greedy contract: start at eta_1 and take each next element as the
    smallest integer that keeps the prefix of the kind; a short sequence
    means no integer below the top extends it."""
    values = tuple(values)
    if not values or values[0] != eta[1] or len(values) > k_target:
        return False
    for i in range(1, len(values)):
        for c in range(values[i - 1] + 1, values[i]):
            if is_kind(values[:i] + (c,), eta, h, kind):
                return False
    if len(values) < k_target:
        for c in range(values[-1] + 1, eta[-1]):
            if is_kind(values + (c,), eta, h, kind):
                return False
    return True


def min_syndrome_distance(eta, matrix: np.ndarray, d: int) -> int | None:
    """Smallest Hamming distance between result vectors of two distinct
    sets of 1..d columns; None if some set overflows the top threshold."""
    n = matrix.shape[1]
    rows = []
    for size in range(1, d + 1):
        for D in combinations(range(n), size):
            y = result_vector(eta, matrix, D)
            if y is None:
                return None
            rows.append(y)
    Y = np.array(rows, dtype=np.int64)
    best = Y.shape[1]
    chunk = max(1, 2**22 // max(1, Y.size))
    for start in range(0, len(Y), chunk):
        block = Y[start : start + chunk]
        dist = (block[:, None, :] != Y[None, :, :]).sum(axis=2)
        idx = np.arange(len(block))
        dist[idx, start + idx] = Y.shape[1] + 1  # ignore self-distance
        best = min(best, int(dist.min()))
    return best


def same_code(a, b) -> bool:
    """Field-by-field equality of two codes over what the file format
    stores (a loaded base carries no provenance or construction params)."""
    return (
        np.array_equal(a.matrix, b.matrix)
        and a.thresholds.eta == b.thresholds.eta
        and a.sequence.values == b.sequence.values
        and a.sequence.kind == b.sequence.kind
        and a.sequence.h == b.sequence.h
        and a.sequence.thresholds.eta == b.sequence.thresholds.eta
        and np.array_equal(a.base.matrix, b.base.matrix)
        and (a.base.d, a.base.e) == (b.base.d, b.base.e)
        and (a.d, a.e, a.q, a.mode) == (b.d, b.e, b.q, b.mode)
    )
