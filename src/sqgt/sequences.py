"""Multiplier-sequence families, their definitional checkers, generators,
and the linear-time knapsack solvers used by the decoders.

Three families are supported, each defined by how the quantized sums of
small subsets must be ordered:

* quantized B_h   -- all subset sums (cardinality <= h) land in pairwise
                     distinct bins;
* SQLO_s          -- additionally superincreasing at the bin level: each
                     element's bin exceeds the bin of any sum of <= h
                     smaller elements;
* SQLO_l          -- subset sums are bin-ordered first by cardinality,
                     then lexicographically by sorted elements.

Each checker computes the bin of every subset sum once.  The SQLO orders
are total orders on subsets, so their checkers sort the subsets once and
compare neighbours; quantized B_h needs only distinct bins.  The checkers
are the correctness anchor for every construction in the package.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    CorruptSequence,
    InfeasibleThresholds,
    InvalidInput,
    UnsupportedKind,
)
from .quantization import Thresholds, quantize

QUANTIZED_BH = "quantized-bh"
SQLO_S = "sqlo-s"
SQLO_L = "sqlo-l"
KINDS = (QUANTIZED_BH, SQLO_S, SQLO_L)

SUBSET_SUM_DISTINCT = "subset-sum-distinct"
H_SUPERINCREASING = "h-superincreasing"
STRONG_LEX = "strong-lex"
FAMILIES = (SUBSET_SUM_DISTINCT, H_SUPERINCREASING, STRONG_LEX)

# Kind produced by the scaled construction for each base family.
FAMILY_TO_KIND = {
    SUBSET_SUM_DISTINCT: QUANTIZED_BH,
    H_SUPERINCREASING: SQLO_S,
    STRONG_LEX: SQLO_L,
}

MAX_EXHAUSTIVE_K = 20


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    first_violation: str | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class MultiplierSequence:
    """A sequence verified against its thresholds for the given kind."""

    values: tuple[int, ...]
    kind: str
    h: int
    thresholds: Thresholds

    @property
    def K(self) -> int:
        return len(self.values)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "h": self.h,
                "values": list(self.values),
                "thresholds": list(self.thresholds.eta),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MultiplierSequence":
        data = json.loads(text)
        return verified_sequence(
            data["values"],
            Thresholds(tuple(data["thresholds"])),
            data["h"],
            data["kind"],
        )


@dataclass(frozen=True)
class BaseSequence:
    """Integer base sequence feeding the scaled constructions."""

    values: tuple[int, ...]
    family: str
    h: int


def _subsets_up_to(values, h):
    out = []
    for size in range(1, min(h, len(values)) + 1):
        out.extend(combinations(values, size))
    return out


def _fmt(subset) -> str:
    return "{" + ",".join(str(v) for v in subset) + "}"


def _cardinality_feasible(K: int, h: int, Q: int) -> str | None:
    """Necessary counting conditions; None when satisfied."""
    if K <= h:
        if 2**K > Q:
            return f"K={K} elements need 2^K={2**K} bins but only Q={Q} exist"
    else:
        needed = sum(math.comb(K, i) for i in range(h + 1))
        if needed > Q:
            return (
                f"subsets of cardinality <= {h} need {needed} bins "
                f"but only Q={Q} exist"
            )
    return None


def _check_element_bins(seq, th) -> str | None:
    """Property 1 of every family: distinct, increasing, nonzero bins."""
    prev = 0
    for i, a in enumerate(seq):
        if a >= th.top:
            return f"element {a} >= top threshold {th.top}"
        b = quantize(th, a)
        if i == 0 and b < 1:
            return f"smallest element {a} lands in bin 0"
        if i > 0 and b <= prev:
            return f"elements {seq[i - 1]} and {a} do not lie in increasing bins"
        prev = b
    return None


def _check_quantized_bh(seq, th, h) -> str | None:
    violation = _check_element_bins(seq, th)
    if violation:
        return violation
    seen: dict[int, tuple] = {}
    for subset in _subsets_up_to(seq, h):
        if sum(subset) >= th.top:
            return f"subset sum {_fmt(subset)} = {sum(subset)} >= top threshold"
        b = quantize(th, sum(subset))
        if b in seen:
            return (
                f"subsets {_fmt(seen[b])} and {_fmt(subset)} share quantization bin {b}"
            )
        seen[b] = subset
    return None


def _check_sqlo(seq, th, h, kind) -> str | None:
    """The defining order of an SQLO kind, in one sorted pass.

    Each kind's order is a total order on the subsets of <= h elements, so
    bins rise along it iff they rise between neighbours in it.  SQLO_l
    ranks by cardinality, then lexicographically, the order combinations()
    emits; SQLO_s ranks by the largest element of the symmetric difference
    (a superset outranks its subsets), as binary numbers over the element
    positions.
    """
    violation = _check_element_bins(seq, th)
    if violation:
        return violation
    subsets = _subsets_up_to(seq, h)
    for subset in subsets:
        if sum(subset) >= th.top:
            return f"subset sum {_fmt(subset)} = {sum(subset)} >= top threshold"
    if kind == SQLO_S:
        weight = {a: 1 << i for i, a in enumerate(seq)}
        subsets.sort(key=lambda subset: sum(weight[a] for a in subset))
    bins = [bisect_right(th.eta, sum(subset)) - 1 for subset in subsets]
    for i in range(1, len(subsets)):
        if bins[i] > bins[i - 1]:
            continue
        lo, hi = subsets[i - 1], subsets[i]
        if kind == SQLO_S:
            if set(lo) < set(hi):
                return f"nested subsets: f({_fmt(hi)}) <= f({_fmt(lo)})"
            return (
                f"non-nested subsets: f({_fmt(hi)}) <= f({_fmt(lo)}) despite "
                "larger top element"
            )
        if len(hi) != len(lo):
            return (
                f"cardinality ordering: f({_fmt(hi)}) <= f({_fmt(lo)}) "
                f"with |{_fmt(hi)}| > |{_fmt(lo)}|"
            )
        return f"lexicographic ordering: f({_fmt(hi)}) <= f({_fmt(lo)})"
    return None


def _check_sqlo_s_via_bh(seq, th, h) -> str | None:
    """Equivalent route: quantized B_h plus bin-level superincreasing."""
    violation = _check_quantized_bh(seq, th, h)
    if violation:
        return violation
    for i in range(len(seq)):
        bin_i = quantize(th, seq[i])
        for subset in _subsets_up_to(seq[:i], h):
            if sum(subset) >= th.top:
                return f"prefix sum {_fmt(subset)} >= top threshold"
            if bin_i <= quantize(th, sum(subset)):
                return (
                    f"element {seq[i]} does not dominate prefix subset "
                    f"{_fmt(subset)} at the bin level"
                )
    return None


def check_sequence(seq, th: Thresholds, h: int, kind: str) -> CheckReport:
    """Verify the defining property of the given kind over every subset of
    at most h elements.

    The SQLO kinds are checked in one sorted pass over the subsets (their
    orders are total); SQLO_s takes the direct definitional route only, and
    the equivalent "quantized B_h + superincreasing in bins" route is kept
    as a reference for the tests.
    """
    seq = tuple(int(v) for v in seq)
    if not seq:
        raise InvalidInput("empty sequence")
    if kind not in KINDS:
        raise InvalidInput(f"unknown kind {kind!r}")
    if h < 1:
        raise InvalidInput(f"h must be >= 1, got {h}")
    if len(seq) > MAX_EXHAUSTIVE_K:
        raise InvalidInput(
            f"K={len(seq)} exceeds the exhaustive-check limit {MAX_EXHAUSTIVE_K}"
        )
    for a, b in zip(seq, seq[1:]):
        if b <= a:
            raise InvalidInput(f"sequence not strictly increasing at {a} -> {b}")
    if any(v < 1 for v in seq):
        raise InvalidInput("sequence elements must be positive")

    infeasible = _cardinality_feasible(len(seq), h, th.Q)
    if infeasible:
        return CheckReport(False, infeasible)

    if kind == QUANTIZED_BH:
        violation = _check_quantized_bh(seq, th, h)
    else:
        violation = _check_sqlo(seq, th, h, kind)
    return CheckReport(violation is None, violation)


def verified_sequence(values, th: Thresholds, h: int, kind: str) -> MultiplierSequence:
    """Construct a MultiplierSequence, raising if the kind check fails."""
    report = check_sequence(values, th, h, kind)
    if not report.passed:
        raise InvalidInput(
            f"sequence {list(values)} is not {kind} for h={h}: {report.first_violation}"
        )
    return MultiplierSequence(tuple(int(v) for v in values), kind, h, th)


def greedy_generate(
    th: Thresholds, h: int, K_target: int, kind: str
) -> MultiplierSequence:
    """Greedy search: start at eta_1, extend with the smallest integer that
    keeps the prefix valid, stop at K_target elements or when no integer
    below the top threshold extends it.

    Candidates that must fail are skipped.  Every kind puts the new element
    in a higher bin than the last one; SQLO_s also above the bin of the sum
    of the h largest elements, which it must outrank; SQLO_l with h >= 2
    below the bin of a_1 + a_2, which outranks every single element.
    """
    if K_target < 1:
        raise InvalidInput(f"K_target must be >= 1, got {K_target}")
    first = th.eta[1]
    if not check_sequence([first], th, h, kind).passed:
        raise InfeasibleThresholds(
            f"even the single-element sequence [{first}] fails the {kind} check"
        )
    eta = th.eta
    prefix = [first]
    while len(prefix) < K_target:
        # prefix sums of <= h elements lie below the top, so both bins exist
        floor = sum(prefix[-h:]) if kind == SQLO_S else prefix[-1]
        start = eta[bisect_right(eta, floor)]
        stop = th.top
        if kind == SQLO_L and h >= 2 and len(prefix) >= 2:
            stop = eta[bisect_right(eta, prefix[0] + prefix[1]) - 1]
        for candidate in range(start, stop):
            if check_sequence(prefix + [candidate], th, h, kind).passed:
                prefix.append(candidate)
                break
        else:
            break
    return verified_sequence(prefix, th, h, kind)


def check_base(seq, family: str, h: int) -> bool:
    """Exhaustive verification of the base-family property."""
    seq = tuple(int(v) for v in seq)
    if not seq:
        raise InvalidInput("empty sequence")
    if family not in FAMILIES:
        raise InvalidInput(f"unknown family {family!r}")
    for a, b in zip(seq, seq[1:]):
        if b <= a:
            raise InvalidInput(f"sequence not strictly increasing at {a} -> {b}")
    if any(v < 1 for v in seq):
        raise InvalidInput("sequence elements must be positive")

    if family == H_SUPERINCREASING:
        return all(
            seq[j] > sum(seq[max(0, j - h) : j]) for j in range(1, len(seq))
        )
    if family == SUBSET_SUM_DISTINCT:
        sums = [sum(s) for s in _subsets_up_to(seq, h)]
        return len(sums) == len(set(sums))
    # strong-lex(h): lex(s) for every s <= h, plus cardinality ordering.
    for s in range(2, min(h, len(seq)) + 1):
        for s1, s2 in combinations(combinations(seq, s), 2):
            r = next(i for i in range(s) if s1[i] != s2[i])
            hi, lo = (s2, s1) if s2[r] > s1[r] else (s1, s2)
            if sum(hi) <= sum(lo):
                return False
    subsets = _subsets_up_to(seq, h)
    for s1, s2 in combinations(subsets, 2):
        if len(s1) != len(s2):
            lo, hi = (s1, s2) if len(s1) < len(s2) else (s2, s1)
            if sum(hi) <= sum(lo):
                return False
    return True


def greedy_generate_base(
    family: str, h: int, K_target: int, start: int = 1
) -> BaseSequence:
    """Greedy base generator: smallest next integer keeping the family
    property.  May return fewer than K_target elements when the prefix
    cannot be extended (strong-lex prefixes bound later elements)."""
    if K_target < 1:
        raise InvalidInput(f"K_target must be >= 1, got {K_target}")
    if start < 1:
        raise InvalidInput(f"start must be >= 1, got {start}")
    prefix = [start]
    while len(prefix) < K_target:
        candidate = prefix[-1] + 1
        # Any valid extension is below the sum of the smallest h+1 elements
        # plus slack; 1 + sum of current prefix is a safe cap for all
        # three families.
        cap = 1 + sum(prefix[-h - 1 :]) + prefix[-1]
        while candidate <= cap:
            if check_base(prefix + [candidate], family, h):
                prefix.append(candidate)
                break
            candidate += 1
        else:
            break
    if not check_base(prefix, family, h):
        raise AssertionError(f"greedy base prefix {prefix} fails its own check")
    return BaseSequence(tuple(prefix), family, h)


def strong_lex_base(K: int) -> BaseSequence:
    """Direct strong-lex(2) construction for arbitrary K.

    The pair-sum lexicographic ordering holds iff each gap exceeds the
    sum of all gaps two or more positions to its right, so the reversed
    gap sequence is built Fibonacci-style; a constant offset then lifts
    every pair sum above every single element.
    """
    if K < 1:
        raise InvalidInput(f"K must be >= 1, got {K}")
    if K == 1:
        return BaseSequence((1,), STRONG_LEX, 2)
    gaps_rtl = []
    for k in range(1, K):
        gaps_rtl.append(1 + sum(gaps_rtl[: k - 2]))
    total = sum(gaps_rtl)
    values = [total]
    for r in reversed(gaps_rtl):
        values.append(values[-1] + r)
    seq = BaseSequence(tuple(values), STRONG_LEX, 2)
    if not check_base(seq.values, STRONG_LEX, 2):
        raise AssertionError(f"gap construction {values} is not strong-lex(2)")
    return seq


def base_recursive_superincreasing(h: int, K: int) -> BaseSequence:
    """Doubling start, then each element is 1 plus the sum of its h
    predecessors; the densest h-superincreasing construction used here."""
    if h < 1 or K < 1:
        raise InvalidInput("h and K must be >= 1")
    values: list[int] = []
    for i in range(1, K + 1):
        if i <= h:
            values.append(2 ** (i - 1))
        else:
            values.append(1 + sum(values[i - 1 - h : i - 1]))
    seq = BaseSequence(tuple(values), H_SUPERINCREASING, h)
    if not check_base(seq.values, H_SUPERINCREASING, h):
        raise AssertionError(f"recursive construction {values} is not h-superincreasing")
    return seq


def scaled_construction(
    base: BaseSequence, th: Thresholds, h: int, s: int
) -> MultiplierSequence:
    """Scale a base sequence by the largest gap of the first s thresholds.

    K_s is the largest prefix length whose h-window sum, scaled, stays
    below eta_s; the result is verified against its target kind.
    """
    if not 2 <= s <= th.Q:
        raise InvalidInput(f"s must be in [2, {th.Q}], got {s}")
    if base.h < h:
        raise InvalidInput(f"base built for h={base.h} < requested h={h}")
    kind = FAMILY_TO_KIND[base.family]
    g_s = th.max_gap(s)
    eta_s = th.eta[s]

    K_s = 0
    for K in range(1, len(base.values) + 1):
        window = sum(base.values[max(0, K - h - 1) : K])
        if eta_s > g_s * window:
            K_s = K
        else:
            break
    if K_s == 0:
        raise InfeasibleThresholds(
            f"eta_{s}={eta_s} <= g_s*beta_1={g_s * base.values[0]}; "
            "no scaled sequence fits"
        )
    values = tuple(g_s * b for b in base.values[:K_s])
    return verified_sequence(values, th, h, kind)


def gamma_bound(h: int) -> float:
    """Largest positive real root of x^(h+1) - 2x^h + 1, excluding the
    trivial root at 1 for h >= 2; governs the growth of the recursive
    h-superincreasing sequences."""
    if h < 1:
        raise InvalidInput(f"h must be >= 1, got {h}")
    if h == 1:
        # (x-1)^2; before the (x-1) multiplication the equation is x-1=0.
        return 1.0

    def g(x: float) -> float:
        return x ** (h + 1) - 2 * x**h + 1

    lo = 2 * h / (h + 1)  # local minimum; g(lo) < 0 for h >= 2
    hi = 2.0  # g(2) = 1 > 0
    assert g(lo) < 0 < g(hi)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def subset_sums(seq: MultiplierSequence, d: int) -> list[tuple[int, frozenset[int]]]:
    """Ordered table of all subset sums of cardinality 1..min(d, K), each
    with its unique generating subset."""
    if d < 1:
        raise InvalidInput(f"d must be >= 1, got {d}")
    table: dict[int, frozenset[int]] = {}
    for subset in _subsets_up_to(seq.values, d):
        total = sum(subset)
        if total in table:
            raise CorruptSequence(
                f"duplicate subset sum {total}: {_fmt(sorted(table[total]))} vs "
                f"{_fmt(subset)}; sequence violates its own invariant"
            )
        table[total] = frozenset(subset)
    return sorted(table.items())


def knapsack_solve(
    seq: MultiplierSequence, d: int, lo: int, hi: int | None = None
) -> frozenset[int] | None:
    """Recover the unique subset of <= d elements whose sum lies in
    [lo, hi), or None; hi defaults to lo + 1, an exact sum.

    The interval must lie inside one bin of thresholds the sequence is
    valid for, and d <= seq.h: the bin ordering of each kind then admits at
    most one such subset and lets both solvers decide every element against
    the budget hi - 1 alone.
    SQLO_s: greedy from the largest element, taking it while the running
    total stays within the budget (a larger element outranks any set of
    smaller ones).
    SQLO_l: the cardinality is the largest s <= d whose s smallest elements
    fit the budget, then a forward scan skips each element while the rest
    can still be completed within it (lexicographic order).
    Both run in O(K d) element comparisons, whatever the bin width.
    """
    if hi is None:
        hi = lo + 1
    if lo < 1:
        raise InvalidInput(f"lower sum bound must be >= 1, got {lo}")
    if hi <= lo:
        raise InvalidInput(f"empty sum interval [{lo}, {hi})")
    if d < 1:
        raise InvalidInput(f"d must be >= 1, got {d}")
    if seq.kind == QUANTIZED_BH:
        raise UnsupportedKind(
            "no linear-time solver for plain quantized B_h sequences; "
            "use the subset_sums table"
        )
    values = seq.values
    budget = hi - 1
    chosen: list[int] = []
    total = 0
    if seq.kind == SQLO_S:
        for a in reversed(values):
            if total + a <= budget:
                chosen.append(a)
                total += a
                if total >= lo or len(chosen) == d:
                    break
        return frozenset(chosen) if total >= lo else None

    # SQLO_l: every s-subset outranks every smaller one, so the cardinality
    # is the largest whose smallest subset fits the budget.
    s = 0
    for a in values[:d]:
        if total + a > budget:
            break
        total += a
        s += 1
    if s == 0:
        return None
    total = 0
    need = s
    for i, a in enumerate(values):
        if need == 0:
            break
        tail = values[i + 1 : i + 1 + need]
        # Fewer than `need` elements after i, or no completion of them
        # within the budget, forces inclusion of values[i].
        if len(tail) < need or total + sum(tail) > budget:
            chosen.append(a)
            total += a
            need -= 1
    return frozenset(chosen) if total >= lo else None


def brute_force_subset_sum(values, d: int, beta: int) -> frozenset[int] | None:
    """Enumeration oracle for knapsack_solve; independent of it."""
    for subset in _subsets_up_to(tuple(values), d):
        if sum(subset) == beta:
            return frozenset(subset)
    return None
