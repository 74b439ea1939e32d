"""Reference routes the tests compare the package against; none of them
shares code with the routes it checks, except that the base scan tries
its candidates with check_base, which is itself checked against the
pairwise definitions, and the reference campaign decodes with decode,
which is itself checked against oracle_decode.  reference_decode shares
no code with decode: it writes decode's contract out plainly, so the two
are compared also on vectors outside the contract."""

import math
from itertools import combinations, product

import numpy as np

from sqgt import (
    DecodedResult,
    DecodingFailure,
    OutOfRange,
    TestOutcome,
    check_base,
    decode,
    quantize,
    syndrome,
)
from sqgt.campaign import SEEDED_RANDOM


def _subsets_up_to(values, h):
    return [s for r in range(1, min(h, len(values)) + 1) for s in combinations(values, r)]


def brute_force_subset_sum(values, d: int, beta: int) -> frozenset[int] | None:
    """Enumeration oracle for knapsack_solve; independent of it."""
    for subset in _subsets_up_to(tuple(values), d):
        if sum(subset) == beta:
            return frozenset(subset)
    return None


def check_sqlo_s_via_bh(seq, th, h) -> str | None:
    """Equivalent route to SQLO_s: quantized B_h (every subset sum below the
    top, the smallest element out of bin 0, no two subsets in one bin) plus
    bin-level superincreasing."""
    subsets = _subsets_up_to(seq, h)
    for subset in subsets:
        if sum(subset) >= th.top:
            return f"subset sum {subset} >= top threshold"
    bins = [quantize(th, sum(subset)) for subset in subsets]
    if bins[0] < 1:
        return f"smallest element {seq[0]} lands in bin 0"
    if len(set(bins)) < len(bins):
        return "two subsets share a quantization bin"
    for i in range(len(seq)):
        bin_i = quantize(th, seq[i])
        for subset in _subsets_up_to(seq[:i], h):
            if bin_i <= quantize(th, sum(subset)):
                return (
                    f"element {seq[i]} does not dominate prefix subset "
                    f"{subset} at the bin level"
                )
    return None


def quantize_linear_scan(th, alpha: int) -> int:
    """Linear-scan reference for quantize."""
    if alpha < 0 or alpha >= th.top:
        raise OutOfRange(f"value {alpha} outside [0, {th.top})")
    for r in range(th.Q):
        if th.eta[r] <= alpha < th.eta[r + 1]:
            return r
    raise AssertionError("unreachable")


def support_signature(vectors) -> set[tuple[int, ...]]:
    """Set of distinct binary supports underlying the given codewords."""
    return {tuple(1 if v else 0 for v in vec) for vec in vectors}


def reference_supports(outcomes, code) -> list[list[int]]:
    """The reference support rule, for each result vector: the base columns
    whose entries exceed it in at most e rows."""
    Y = np.array([o.y if isinstance(o, TestOutcome) else o for o in outcomes])
    violations = (code.base.matrix[None, :, :] > Y[:, :, None]).sum(axis=1)
    kept = (violations <= code.e).tolist()
    return [[i for i, ok in enumerate(row) if ok] for row in kept]


def reference_bin_subset(code, r):
    """The one subset of at most d multipliers whose sum lies in bin r,
    sorted and found by brute force; None if no such subset."""
    th = code.thresholds
    in_bin = [s for s in _subsets_up_to(code.sequence.values, code.d)
              if th.eta[r] <= sum(s) < th.eta[r + 1]]
    assert len(in_bin) <= 1, f"bin {r} holds {in_bin}"
    return tuple(sorted(in_bin[0])) if in_bin else None


def reference_decode(y, code) -> DecodedResult:
    """decode's contract, written out plainly: for each base column the
    reference support rule keeps, its 2e+1 nonzero rows of smallest value,
    ordered by (value, index); the middle one's bin needs e+1 votes among
    them and then names the one subset of at most d multipliers whose sum
    lies in it, found by brute force.  No vote majority or no such subset
    is a DecodingFailure; no support at all is a warning."""
    yv = tuple(y.y if isinstance(y, TestOutcome) else y)
    supports = reference_supports([yv], code)[0]
    if not supports:
        return DecodedResult(frozenset(), (), warning="no defectives recovered or contract violated")
    e, values = code.e, code.sequence.values
    defectives, per_support = set(), []
    for i in supports:
        rows = np.flatnonzero(code.base.matrix[:, i]).tolist()
        witnesses = sorted(rows, key=lambda k: (yv[k], k))[: 2 * e + 1]
        r = yv[witnesses[e]]
        multipliers = reference_bin_subset(code, r)
        if sum(yv[k] == r for k in witnesses) < e + 1 or multipliers is None:
            raise DecodingFailure(
                f"support column {i}: no candidate sum reached {e + 1} witness votes")
        per_support.append((i, multipliers))
        defectives.update(values.index(a) * code.base.n + i for a in multipliers)
    return DecodedResult(frozenset(defectives), tuple(per_support))


def oracle_decode(y, code) -> frozenset[int]:
    """Exhaustive maximum-agreement search over all candidate defective
    sets of size <= d; the independent reference for the decoder."""
    yv = np.asarray(y.y if isinstance(y, TestOutcome) else y)
    best: tuple[int, frozenset[int]] | None = None
    tied = False
    for size in range(1, code.d + 1):
        for subset in combinations(range(code.n), size):
            try:
                s = syndrome(code, subset)
            except OutOfRange:
                continue
            agree = int((np.asarray(s.y) == yv).sum())
            if best is None or agree > best[0]:
                best = (agree, frozenset(subset))
                tied = False
            elif agree == best[0]:
                tied = True
    if best is None or best[0] < code.m - code.e or tied:
        raise DecodingFailure("no unique candidate set within the error budget")
    return best[1]


def min_distance_by_syndrome(code, l, u):
    """Smallest distance between result vectors of distinct sets of l..u
    columns, one syndrome() call per set (inf for a single set); the
    OutOfRange message if a set overflows."""
    try:
        rows = np.array([
            syndrome(code, s).y
            for size in range(l, u + 1)
            for s in combinations(range(code.n), size)
        ])
    except OutOfRange as exc:
        return str(exc)
    if len(rows) < 2:
        return math.inf
    dist = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, code.m + 1)
    return int(dist.min())


def scan_base(family: str, h: int, K_target: int) -> tuple[int, ...]:
    """Smallest-integer scan for a base: from 1, each next element is the
    smallest integer passing check_base, tried up to a cap above every
    valid extension; stops early when none passes."""
    prefix = [1]
    while len(prefix) < K_target:
        cap = 1 + sum(prefix[-h - 1 :]) + prefix[-1]
        for candidate in range(prefix[-1] + 1, cap + 1):
            if check_base(prefix + [candidate], family, h):
                prefix.append(candidate)
                break
        else:
            break
    return tuple(prefix)


def recursive_superincreasing(h: int, K: int) -> tuple[int, ...]:
    """Closed-form h-superincreasing base: powers of two for the first h
    elements, then each element is 1 plus the sum of its h predecessors."""
    values: list[int] = []
    for i in range(K):
        values.append(2**i if i < h else 1 + sum(values[i - h : i]))
    return tuple(values)


def reference_inject_exhaustive(outcome, e: int, Q: int):
    """inject_exhaustive's outcomes in its order, each made through the
    public, checked TestOutcome: the clean outcome, then every set of t <= e
    coordinates, each changed to every other value in [Q]."""
    clean = TestOutcome(outcome.y)
    yield clean
    for t in range(1, e + 1):
        for coords in combinations(range(len(clean.y)), t):
            choices = [[v for v in range(Q) if v != clean.y[k]] for k in coords]
            for vals in product(*choices):
                y = list(clean.y)
                for k, v in zip(coords, vals):
                    y[k] = v
                yield TestOutcome(tuple(y), coords)


def reference_inject_random(outcome, e: int, Q: int, seed, count: int):
    """inject_random's seeded outcomes, each made through TestOutcome, with
    each new value drawn as an index into a list of the other values."""
    clean = TestOutcome(outcome.y)
    rng = np.random.default_rng(seed)
    m = len(clean.y)
    for _ in range(count):
        t = int(rng.integers(0, min(e, m) + 1))
        coords = tuple(sorted(rng.choice(m, size=t, replace=False).tolist())) if t else ()
        y = list(clean.y)
        for k in coords:
            others = [v for v in range(Q) if v != clean.y[k]]
            y[k] = int(others[rng.integers(0, len(others))])
        yield TestOutcome(tuple(y), coords)


def reference_campaign(code, e_inject: int, policy: str, seed: int = 0,
                       samples_per_set: int = 10, budget: int | None = None) -> dict:
    """simulate_campaign's counts on one process, from the reference
    injectors and one scalar decode per case."""
    cases = successes = 0
    examples = []
    sets = [D for size in range(1, code.d + 1) for D in combinations(range(code.n), size)]
    for index, D in enumerate(sets):
        clean = syndrome(code, D)
        if policy == SEEDED_RANDOM:
            outcomes = reference_inject_random(
                clean, e_inject, code.thresholds.Q, (seed, index), samples_per_set)
        else:
            outcomes = reference_inject_exhaustive(clean, e_inject, code.thresholds.Q)
        for outcome in outcomes:
            if budget is not None and cases >= budget:
                return {"cases": cases, "successes": successes, "failures": cases - successes,
                        "truncated": True, "failure_examples": examples}
            cases += 1
            try:
                ok = decode(outcome, code).defectives == frozenset(D)
            except DecodingFailure:
                ok = False
            successes += ok
            if not ok and len(examples) < 10:
                examples.append({"defectives": list(D), "y": list(outcome.y)})
    return {"cases": cases, "successes": successes, "failures": cases - successes,
            "truncated": False, "failure_examples": examples}
