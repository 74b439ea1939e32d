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

Each order is a total order on the subsets of <= h elements (quantized
B_h ranks them by bin), so one checker decides every kind: it computes the
bin of every subset sum once, sorts the subsets by the kind's order and
compares neighbours.  On the identity quantizer (bin = sum, thresholds
None) the kinds are the classical base families: subset-sum-distinct,
h-superincreasing and strong-lex sequences, so a base is a sequence on
no thresholds.  The checker is the correctness anchor for every
construction in the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, repeat

from .errors import (
    BudgetExceeded,
    CorruptSequence,
    InfeasibleThresholds,
    InvalidInput,
    UnsupportedKind,
)
from .quantization import Thresholds, as_int, as_ints

QUANTIZED_BH = "quantized-bh"
SQLO_S = "sqlo-s"
SQLO_L = "sqlo-l"
KINDS = (QUANTIZED_BH, SQLO_S, SQLO_L)

SUBSET_SUM_DISTINCT = "subset-sum-distinct"
H_SUPERINCREASING = "h-superincreasing"
STRONG_LEX = "strong-lex"
FAMILIES = (SUBSET_SUM_DISTINCT, H_SUPERINCREASING, STRONG_LEX)

# The kind each base family is on the identity quantizer, and the kind the
# scaled construction turns it into.
FAMILY_TO_KIND = {
    SUBSET_SUM_DISTINCT: QUANTIZED_BH,
    H_SUPERINCREASING: SQLO_S,
    STRONG_LEX: SQLO_L,
}

# Subsets an order check may list: every subset of K <= 20 elements.
MAX_LISTED_SUBSETS = 2**20 - 1


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    first_violation: str | None = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class MultiplierSequence:
    """A sequence verified against its thresholds for the given kind; the
    constructor runs the kind check and raises InvalidInput if it fails.
    Thresholds None is the identity quantizer: a base sequence."""

    values: tuple[int, ...]
    kind: str
    h: int
    thresholds: Thresholds | None

    def __post_init__(self):
        object.__setattr__(self, "values", as_ints(self.values, "sequence element"))
        object.__setattr__(self, "h", as_int(self.h, "h", 1))
        report = check_sequence(self.values, self.thresholds, self.h, self.kind)
        if not report:
            raise InvalidInput(
                f"sequence {list(self.values)} is not {self.kind} for h={self.h}: "
                f"{report.first_violation}"
            )

    @property
    def K(self) -> int:
        return len(self.values)


def _subsets_up_to(values, h):
    out = []
    for size in range(1, min(h, len(values)) + 1):
        out.extend(combinations(values, size))
    return out


def _fmt(subset) -> str:
    return "{" + ",".join(str(v) for v in subset) + "}"


def _subsets_needed(K: int, h: int) -> int:
    """The empty set and the subsets of at most h of K elements."""
    return sum(map(math.comb, repeat(K), range(min(h, K) + 1)))


def _cardinality_feasible(needed: int, h: int, Q: int) -> str | None:
    """The counting bound: the `needed` subsets of at most h elements, the
    empty one included, need distinct bins.  None when Q bins suffice."""
    if needed > Q:
        return f"subsets of cardinality <= {h} need {needed} bins but only Q={Q} exist"
    return None


def _validated(seq) -> tuple[int, ...]:
    """seq as a tuple of ints, each at least 1, which must be non-empty and
    strictly increasing."""
    seq = as_ints(seq, "sequence element", least=1)
    if not seq:
        raise InvalidInput("empty sequence")
    for a, b in zip(seq, seq[1:]):
        if b <= a:
            raise InvalidInput(f"sequence not strictly increasing at {a} -> {b}")
    return seq


def _order_violation(seq, th: Thresholds | None, h: int, kind: str) -> str | None:
    """The defining order of a kind, in one sorted pass over the subsets of
    at most h elements; th None is the identity quantizer (bin = sum, no
    top), on which the kinds are the base families.

    Each kind's order is a total order on the subsets, so bins rise along
    it iff they rise between neighbours in it.  SQLO_l ranks by cardinality,
    then lexicographically, the order combinations() emits; SQLO_s ranks by
    the largest element of the symmetric difference (a superset outranks its
    subsets), as binary numbers over the element positions; quantized B_h
    ranks by bin, so rising means that no two subsets share one.  Every
    element is a singleton subset, so the element bins rise too.
    """
    subsets = _subsets_up_to(seq, h)
    bins = [sum(subset) for subset in subsets]  # the identity quantizer's bins
    if th is not None:
        if bins[-1] >= th.top:  # the last subset holds the largest elements
            return f"subset sum {_fmt(subsets[-1])} = {bins[-1]} >= top threshold"
        bins = [bisect_right(th.eta, total) - 1 for total in bins]
        if bins[0] < 1:
            return f"smallest element {seq[0]} lands in bin 0"
    order = range(len(subsets))
    if kind == SQLO_S:
        weight = {a: 1 << i for i, a in enumerate(seq)}
        order = sorted(order, key=lambda i: sum(weight[a] for a in subsets[i]))
    elif kind == QUANTIZED_BH:
        order = sorted(order, key=bins.__getitem__)
    for i, j in zip(order, order[1:]):
        if bins[j] > bins[i]:
            continue
        lo, hi = subsets[i], subsets[j]
        if kind == QUANTIZED_BH:
            return f"subsets {_fmt(lo)} and {_fmt(hi)} share quantization bin {bins[i]}"
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


def _window_violation(seq, h: int) -> str | None:
    """The SQLO_s order on the identity quantizer, in one pass over the
    elements: each must exceed the sum of the h before it, the largest sum
    of at most h smaller ones, so no subset of C(K, <= h) need be listed."""
    for j in range(1, len(seq)):
        window = seq[max(0, j - h) : j]
        if seq[j] <= sum(window):
            return f"element {seq[j]} <= {sum(window)}, the sum of {_fmt(window)}"
    return None


def check_sequence(seq, th: Thresholds | None, h: int, kind: str) -> CheckReport:
    """Verify the defining property of the given kind over every subset of
    at most h elements: the counting bound, then one sorted pass over the
    subsets (_order_violation), which BudgetExceeded refuses past
    MAX_LISTED_SUBSETS subsets.  On the identity quantizer (th None) there
    are no bins to count, and SQLO_s is the window test (_window_violation),
    which lists no subsets."""
    seq = _validated(seq)
    if kind not in KINDS:
        raise InvalidInput(f"unknown kind {kind!r}")
    h = as_int(h, "h", 1)
    if th is None and kind == SQLO_S:
        violation = _window_violation(seq, h)
    else:
        needed = _subsets_needed(len(seq), h)
        violation = None if th is None else _cardinality_feasible(needed, h, th.Q)
        if violation is None and needed - 1 > MAX_LISTED_SUBSETS:
            raise BudgetExceeded(f"{needed - 1} subsets to check, more than {MAX_LISTED_SUBSETS}")
        violation = violation or _order_violation(seq, th, h, kind)
    return CheckReport(violation is None, violation)


def verified_sequence(
    values, th: Thresholds | None, h: int, kind: str
) -> MultiplierSequence:
    """Construct a MultiplierSequence, raising if the kind check fails."""
    return MultiplierSequence(values, kind, h, th)


def _bin_start(th: Thresholds | None, x: int, above: int = 0) -> int:
    """The lowest integer of the bin `above` bins over the bin of x; x + above
    on the identity quantizer."""
    if th is None:
        return x + above
    return th.eta[bisect_right(th.eta, x) - 1 + above]


def greedy_generate(
    th: Thresholds | None, h: int, K_target: int, kind: str
) -> MultiplierSequence:
    """Greedy search: start at eta_1, extend with the smallest integer that
    keeps the prefix valid, stop at K_target elements or when no integer
    below the top threshold extends it.  On the identity quantizer (th
    None) the search starts at 1 and has no top.

    Candidates that must fail are skipped.  Every kind puts the new element
    in a higher bin than the last one; SQLO_s also above the bin of the sum
    of the h largest elements, which it must outrank; SQLO_l with h >= 2
    below the bin of a_1 + a_2, which outranks every single element.  The
    counting bound, alike for every candidate, ends the search.

    As in the greedy Sidon (Mian-Chowla) search, a candidate c is tested
    only on the subsets it adds, c + S for each S in `partial`: the (sum,
    size) of the prefix's subsets of < h elements, by ascending sum.  A
    valid prefix gives them distinct sums, and the test is that no c + s
    shares the bin of c plus the next smaller sum, and for quantized B_h
    that none lands in `taken`, the bins of the prefix's subsets.  For
    SQLO_s this is the rise of the bins along its binary-weight order,
    which on a valid prefix is the order of the sums.  SQLO_l at h >= 2,
    whose new subsets interleave the old, takes the full check_sequence.

    A failing candidate c jumps past the integers that fail alike.  For a
    failing sum s, take c' >= c with c' + s in the bin of c + s: that bin
    is still taken, or c' + s', for the next smaller sum s', lies in
    [c + s', c' + s) and so in the same bin.  The next candidate is the
    largest start of the bin above c + s, less s, over the failing sums;
    SQLO_l candidates still step by 1.  The returned sequence passes the full
    check.
    """
    K_target = as_int(K_target, "K_target", 1)
    first = 1 if th is None else th.eta[1]
    if not check_sequence([first], th, h, kind).passed:
        raise InfeasibleThresholds(
            f"even the single-element sequence [{first}] fails the {kind} check")
    lists = th is not None or kind != SQLO_S
    eta, top, Q = (None, math.inf, math.inf) if th is None else (th.eta, th.top, th.Q)
    # bins (shifted up by 1 on thresholds) are those of c + each partial sum
    prefix, partial, taken = [], [(0, 0)], set()
    bins = lambda c: [c + s if eta is None else bisect_right(eta, c + s) for s, _ in partial]
    def fit(c):
        """c if it extends the prefix, else the next candidate that may."""
        if kind == SQLO_L:
            return c if check_sequence(prefix + [c], th, h, kind).passed else c + 1
        new = bins(c)
        if len(set(new)) == len(new) and taken.isdisjoint(new):
            return c
        # a failing c + s stays in its bin below the next bin's start, eta[b]
        return max((b + 1 if eta is None else eta[b]) - s
                   for (s, _), below, b in zip(partial, [None] + new, new)
                   if b == below or b in taken)
    candidate = first
    while True:
        prefix.append(candidate)
        if lists:
            taken.update(bins(candidate) if kind == QUANTIZED_BH else ())
            partial += [(s + candidate, n + 1) for s, n in partial if n + 1 < h]
            partial.sort()
        needed = _subsets_needed(len(prefix) + 1, h)  # with one more element
        if len(prefix) == K_target or needed > Q:
            break
        # prefix sums of <= h elements lie below the top, so both bins exist
        floor = sum(prefix[-h:]) if kind == SQLO_S else prefix[-1]
        candidate = _bin_start(th, floor, 1)
        pair = kind == SQLO_L and h >= 2 and len(prefix) >= 2
        stop = _bin_start(th, prefix[0] + prefix[1]) if pair else top
        if lists and needed - 1 > MAX_LISTED_SUBSETS and candidate < stop:
            raise BudgetExceeded(f"{needed - 1} subsets to check, more than {MAX_LISTED_SUBSETS}")
        stop = min(stop, top - partial[-1][0])
        # partial == [(0, 0)] (h = 1, or SQLO_s on identity): the start passes
        while candidate < stop and len(partial) > 1 and (nxt := fit(candidate)) > candidate:
            candidate = nxt
        if candidate >= stop:
            break
    return verified_sequence(prefix, th, h, kind)


def check_base(seq, family: str, h: int) -> bool:
    """Exhaustive verification of the base-family property: the order of
    the kind the family scales to, on the identity quantizer."""
    if family not in FAMILIES:
        raise InvalidInput(f"unknown family {family!r}")
    return check_sequence(seq, None, h, FAMILY_TO_KIND[family]).passed


def greedy_generate_base(family: str, h: int, K_target: int) -> MultiplierSequence:
    """The greedy search on the identity quantizer for the family's kind.
    May return fewer than K_target elements when the prefix cannot be
    extended (strong-lex prefixes bound later elements)."""
    if family not in FAMILIES:
        raise InvalidInput(f"unknown family {family!r}")
    return greedy_generate(None, h, K_target, FAMILY_TO_KIND[family])


def strong_lex_base(K: int) -> MultiplierSequence:
    """Direct strong-lex(2) construction for arbitrary K.

    The pair-sum lexicographic ordering holds iff each gap exceeds the
    sum of all gaps two or more positions to its right, so the reversed
    gap sequence is built Fibonacci-style; a constant offset then lifts
    every pair sum above every single element.
    """
    K = as_int(K, "K", 1)
    if K == 1:
        return MultiplierSequence((1,), SQLO_L, 2, None)
    gaps_rtl = []
    for k in range(1, K):
        gaps_rtl.append(1 + sum(gaps_rtl[: k - 2]))
    total = sum(gaps_rtl)
    values = [total]
    for r in reversed(gaps_rtl):
        values.append(values[-1] + r)
    return MultiplierSequence(tuple(values), SQLO_L, 2, None)


def base_recursive_superincreasing(h: int, K: int) -> MultiplierSequence:
    """Doubling start, then each element is 1 plus the sum of its h
    predecessors: the greedy h-superincreasing base, the densest one."""
    return greedy_generate_base(H_SUPERINCREASING, h, K)


def scaled_construction(
    base: MultiplierSequence, th: Thresholds, h: int, s: int
) -> MultiplierSequence:
    """Scale a base sequence by the largest gap of the first s thresholds.

    K_s is the largest prefix length whose h-window sum, scaled, stays
    below eta_s; the result is verified against the base's kind.
    """
    s, h = as_int(s, "s", 2, th.Q), as_int(h, "h", 1)
    if base.h < h:
        raise InvalidInput(f"base built for h={base.h} < requested h={h}")
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
    return verified_sequence(values, th, h, base.kind)


def gamma_bound(h: int) -> float:
    """Largest positive real root of x^(h+1) - 2x^h + 1, excluding the
    trivial root at 1 for h >= 2; governs the growth of the recursive
    h-superincreasing sequences."""
    h = as_int(h, "h", 1)
    if h == 1:
        # (x-1)^2; before the (x-1) multiplication the equation is x-1=0.
        return 1.0

    def f(x: float) -> float:
        # the polynomial over x^h, of its sign for x > 0: x^-h underflows to
        # 0 where x^(h+1) overflows a float
        return x - 2 + x**-h

    lo = 2 * h / (h + 1)  # local minimum; f(lo) < 0 for h >= 2
    hi = 2.0  # f(2) = 2^-h > 0, or 0 once it underflows
    assert f(lo) < 0 <= f(hi)
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def subset_sums(seq: MultiplierSequence, d: int) -> list[tuple[int, frozenset[int]]]:
    """Ordered table of all subset sums of cardinality 1..min(d, K), each
    with its unique generating subset; d <= seq.h."""
    d = as_int(d, "d", 1, seq.h)
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
    [lo, hi), or None; hi defaults to lo + 1, an exact sum.  d, lo and hi
    pass the integer rule: 1 <= d <= seq.h and 1 <= lo < hi.

    The interval is to sit inside one bin of thresholds the sequence is
    valid for, and d is at most seq.h: the bin ordering of each kind then
    admits at most one such subset and lets both solvers decide every
    element against the budget hi - 1 alone.
    SQLO_s: greedy from the largest element, taking it while the running
    total stays within the budget (a larger element outranks any set of
    smaller ones).
    SQLO_l: the cardinality is the largest s <= d whose s smallest elements
    fit the budget, then a forward scan skips each element while the rest
    can still be completed within it (lexicographic order).
    Both run in O(K d) element comparisons, whatever the bin width.
    """
    d, lo = as_int(d, "d", 1, seq.h), as_int(lo, "lo", 1)
    hi = lo + 1 if hi is None else as_int(hi, "hi", lo + 1)
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

