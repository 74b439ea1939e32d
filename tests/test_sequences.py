import json
import math
import random
from bisect import bisect_right
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from sqgt import (
    H_SUPERINCREASING,
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    STRONG_LEX,
    SUBSET_SUM_DISTINCT,
    BudgetExceeded,
    CorruptSequence,
    InfeasibleThresholds,
    InvalidInput,
    MultiplierSequence,
    Thresholds,
    UnsupportedKind,
    base_recursive_superincreasing,
    check_base,
    check_sequence,
    gamma_bound,
    greedy_generate,
    greedy_generate_base,
    knapsack_solve,
    scaled_construction,
    strong_lex_base,
    subset_sums,
    unit_thresholds,
    uniform_thresholds,
    verified_sequence,
)
from sqgt import sequences
from sqgt.sequences import FAMILIES, FAMILY_TO_KIND, KINDS, _order_violation

from oracles import (
    brute_force_subset_sum,
    check_sqlo_s_via_bh,
    recursive_superincreasing,
    scan_base,
)


# --- the pairwise definitions, the oracle for check_sequence ---


def _outranks(kind, s1, s2):
    """Whether the kind's definition puts the bin of s1 above that of s2;
    None when it only asks the two bins to differ (quantized B_h)."""
    if kind == QUANTIZED_BH:
        return None
    if kind == SQLO_S:
        # nested: the superset; non-nested: the owner of the largest
        # element of the symmetric difference
        return max(set(s1) ^ set(s2)) in s1
    if len(s1) != len(s2):
        return len(s1) > len(s2)
    r = next(i for i in range(len(s1)) if s1[i] != s2[i])
    return s1[r] > s2[r]


def pairwise_oracle(values, eta, h, kind) -> bool:
    """The kind's definition, tested on every pair of subsets of <= h
    elements: all sums below the top, the smallest element out of bin 0."""
    subsets = [s for r in range(1, min(h, len(values)) + 1)
               for s in combinations(values, r)]
    if any(sum(s) >= eta[-1] for s in subsets):
        return False
    bins = {s: bisect_right(eta, sum(s)) - 1 for s in subsets}
    if bins[(values[0],)] < 1:
        return False
    for s1, s2 in combinations(subsets, 2):
        above = _outranks(kind, s1, s2)
        if above is None:
            if bins[s1] == bins[s2]:
                return False
        else:
            hi, lo = (s1, s2) if above else (s2, s1)
            if bins[hi] <= bins[lo]:
                return False
    return True


def _thresholds(gaps):
    eta = [0]
    for g in gaps:
        eta.append(eta[-1] + g)
    return Thresholds(tuple(eta))


# --- checkers on worked examples ---


def test_pair_is_quantized_bh(th_gaps):
    assert check_sequence([2, 5], th_gaps, 2, QUANTIZED_BH).passed


def test_greedy_triple_is_sqlo_s(th_gaps):
    assert check_sequence([2, 5, 11], th_gaps, 3, SQLO_S).passed
    # also quantized B_h, by implication
    assert check_sequence([2, 5, 11], th_gaps, 3, QUANTIZED_BH).passed


def test_sqlo_s_but_not_sqlo_l():
    # pair sums fall below the largest element: cardinality order broken
    th = unit_thresholds(31)
    assert check_sequence([3, 6, 12], th, 2, SQLO_S).passed
    report = check_sequence([3, 6, 12], th, 2, SQLO_L)
    assert not report.passed
    assert "cardinality" in report.first_violation


def test_sqlo_l_but_not_sqlo_s():
    # 4 does not dominate 2 + 3 at the bin level
    th = unit_thresholds(8)
    assert check_sequence([2, 3, 4], th, 2, SQLO_L).passed
    assert not check_sequence([2, 3, 4], th, 2, SQLO_S).passed
    # but it is still quantized B_h
    assert check_sequence([2, 3, 4], th, 2, QUANTIZED_BH).passed


def test_known_failing_lex_triple():
    # f(4+5) = f(6) = 3 under these thresholds, so the cardinality
    # ordering fails even though all pair sums are distinct.
    th = Thresholds((0, 2, 5, 6, 10, 11, 15, 18))
    report = check_sequence([4, 5, 6], th, 2, SQLO_L)
    assert not report.passed
    # the companion claim on the same thresholds does hold
    assert check_sequence([2, 5, 10], th, 2, SQLO_S).passed


def test_overflowing_subset_sum_rejected(th_gaps):
    # 5 + 16 = 21 >= top threshold 21
    report = check_sequence([5, 16], th_gaps, 2, QUANTIZED_BH)
    assert not report.passed
    assert "top threshold" in report.first_violation


def test_shared_bin_rejected(th_step3):
    # 3 and 4 share bin 1
    report = check_sequence([3, 4], th_step3, 1, QUANTIZED_BH)
    assert not report.passed


def test_cardinality_fast_fail():
    th = unit_thresholds(4)  # Q = 4
    report = check_sequence([1, 2, 3], th, 2, SQLO_L)
    assert not report.passed
    assert "bins" in report.first_violation


def test_input_validation(th_gaps):
    with pytest.raises(InvalidInput):
        check_sequence([], th_gaps, 2, QUANTIZED_BH)
    with pytest.raises(InvalidInput):
        check_sequence([5, 2], th_gaps, 2, QUANTIZED_BH)
    with pytest.raises(InvalidInput):
        check_sequence([2, 5], th_gaps, 0, QUANTIZED_BH)
    with pytest.raises(InvalidInput):
        check_sequence([2, 5], th_gaps, 2, "nope")
    for values in ([0, 2], [-3, 2]):
        with pytest.raises(InvalidInput, match=f"sequence element must be >= 1, got {values[0]}"):
            check_sequence(values, th_gaps, 2, QUANTIZED_BH)
    with pytest.raises(InvalidInput, match="unknown family 'nope'"):
        check_base([1, 2], "nope", 2)
    with pytest.raises(InvalidInput, match="unknown family 'nope'"):
        greedy_generate_base("nope", 2, 3)
    with pytest.raises(BudgetExceeded):
        check_sequence(list(range(1, 23)), unit_thresholds(10**7), 11, QUANTIZED_BH)
    with pytest.raises(InvalidInput):
        verified_sequence([3, 4], uniform_thresholds(3, 8), 1, QUANTIZED_BH)


def test_sequence_json_round_trip(th_gaps):
    seq = verified_sequence([2, 5, 11], th_gaps, 3, SQLO_S)
    data = json.loads(seq.to_json())
    th = Thresholds(tuple(data["thresholds"]))
    assert verified_sequence(data["values"], th, data["h"], data["kind"]) == seq


# --- the two SQLO_s check routes agree ---


@given(
    st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True),
    st.lists(st.integers(1, 6), min_size=3, max_size=8),
    st.integers(1, 3),
)
@settings(max_examples=200, deadline=None)
def test_sqlo_s_routes_agree(values, gaps, h):
    eta = [0]
    for g in gaps:
        eta.append(eta[-1] + g)
    th = Thresholds(tuple(eta))
    seq = tuple(sorted(values))
    direct = _order_violation(seq, th, h, SQLO_S)
    via_bh = check_sqlo_s_via_bh(seq, th, h)
    assert (direct is None) == (via_bh is None), (seq, eta, h, direct, via_bh)


# --- check_sequence against the pairwise oracle ---


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=14),
    st.lists(st.integers(1, 30), min_size=1, max_size=6, unique=True),
    st.integers(1, 3),
    st.sampled_from(KINDS),
)
@settings(max_examples=400, deadline=None)
def test_check_sequence_matches_pairwise_oracle(gaps, values, h, kind):
    th = _thresholds(gaps)
    values = tuple(sorted(values))
    got = check_sequence(values, th, h, kind).passed
    assert got == pairwise_oracle(values, th.eta, h, kind), (values, th.eta, h, kind)


def test_check_sequence_matches_pairwise_oracle_near_greedy_sequences():
    """Greedy sequences and their last element moved by up to 3 sit on the
    boundary between passing and failing."""
    rng = random.Random(4)
    passed = failed = 0
    for _ in range(150):
        th = _thresholds([rng.randint(1, 5) for _ in range(rng.randint(8, 40))])
        h, kind = rng.randint(1, 3), rng.choice(KINDS)
        try:
            base = greedy_generate(th, h, rng.randint(2, 6), kind).values
        except InfeasibleThresholds:
            continue
        for shift in range(-3, 4):
            values = base[:-1] + (base[-1] + shift,)
            if len(values) > 1 and values[-1] <= values[-2] or values[-1] < 1:
                continue
            got = check_sequence(values, th, h, kind).passed
            assert got == pairwise_oracle(values, th.eta, h, kind), (values, th.eta, h, kind)
            passed += got
            failed += not got
    assert passed > 100 and failed > 100


# --- greedy generation ---


def _plain_greedy(th, h, K, kind):
    """Smallest-integer scan over check_sequence, skipping nothing."""
    values = [th.eta[1]]
    while len(values) < K:
        nxt = next(
            (c for c in range(values[-1] + 1, th.top)
             if check_sequence(values + [c], th, h, kind).passed),
            None,
        )
        if nxt is None:
            break
        values.append(nxt)
    return tuple(values)


@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=30),
    st.integers(1, 3),
    st.integers(1, 6),
    st.sampled_from(KINDS),
)
@example([5, 5, 2, 2, 2, 1, 3, 2, 4, 5], 2, 4, SQLO_L)  # (5, 10, 12): 12 sits
# in the bin just below that of 5 + 10
@settings(max_examples=200, deadline=None)
def test_greedy_matches_plain_scan(gaps, h, K, kind):
    th = _thresholds(gaps)
    if not check_sequence([th.eta[1]], th, h, kind).passed:
        with pytest.raises(InfeasibleThresholds):
            greedy_generate(th, h, K, kind)
        return
    assert greedy_generate(th, h, K, kind).values == _plain_greedy(th, h, K, kind)


def test_greedy_sqlo_l_stops_below_the_smallest_pair(monkeypatch):
    # At unit thresholds no third element fits below 1 + 2; a scan of every
    # candidate up to the top made about 10^5 checks.
    calls = []
    real = sequences.check_sequence

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sequences, "check_sequence", counting)
    seq = greedy_generate(unit_thresholds(10**5), 2, 5, SQLO_L)
    assert seq.values == (1, 2)
    assert len(calls) == 3  # [1], [1, 2], and the final verification



def test_greedy_reproduces_worked_example(th_gaps):
    seq = greedy_generate(th_gaps, 3, 3, SQLO_S)
    assert seq.values == (2, 5, 11)


def test_greedy_is_deterministic(th_gaps):
    a = greedy_generate(th_gaps, 2, 3, QUANTIZED_BH)
    b = greedy_generate(th_gaps, 2, 3, QUANTIZED_BH)
    assert a == b


def test_greedy_stops_at_top():
    th = unit_thresholds(4)
    seq = greedy_generate(th, 1, 10, QUANTIZED_BH)
    assert len(seq.values) < 10
    assert check_sequence(seq.values, th, 1, QUANTIZED_BH).passed


def test_greedy_infeasible():
    th = Thresholds((0, 5, 6))
    # eta_1 = 5 but top = 6, so even [5] works; shrink further
    with pytest.raises(InfeasibleThresholds):
        greedy_generate(Thresholds((0, 6)), 2, 1, QUANTIZED_BH)


# --- base families and constructions ---


def test_recursive_superincreasing_base():
    base = base_recursive_superincreasing(2, 6)
    assert base.values == (1, 2, 4, 7, 12, 20)
    assert check_base(base.values, H_SUPERINCREASING, 2)
    base3 = base_recursive_superincreasing(3, 6)
    assert base3.values == (1, 2, 4, 8, 15, 28)
    assert check_base(base3.values, H_SUPERINCREASING, 3)


def test_check_base_families():
    assert check_base([1, 2, 4, 8], H_SUPERINCREASING, 3)
    assert not check_base([1, 2, 3], H_SUPERINCREASING, 2)
    assert check_base([1, 2, 4, 7], SUBSET_SUM_DISTINCT, 2)
    assert not check_base([1, 2, 3], SUBSET_SUM_DISTINCT, 2)  # 1+2 = 3
    assert check_base([2, 3, 4], STRONG_LEX, 2)
    assert not check_base([3, 6, 12], STRONG_LEX, 2)  # 3+6 < 12


def test_greedy_base_generators():
    ssd = greedy_generate_base(SUBSET_SUM_DISTINCT, 2, 5)
    assert check_base(ssd.values, SUBSET_SUM_DISTINCT, 2)
    assert ssd.values[:3] == (1, 2, 4)
    sup = greedy_generate_base(H_SUPERINCREASING, 2, 6)
    assert sup.values == (1, 2, 4, 7, 12, 20)


@given(
    st.lists(st.integers(1, 40), min_size=1, max_size=7, unique=True),
    st.integers(1, 4),
    st.sampled_from(FAMILIES),
)
@example([1, 2, 4, 7, 8], 2, H_SUPERINCREASING)  # 8 > 4 + 7 fails
@example([2, 3, 4], 2, STRONG_LEX)
@settings(max_examples=400, deadline=None)
def test_check_base_matches_pairwise_oracle(values, h, family):
    # On unit thresholds above every sum of <= h elements each family is the
    # kind it scales to.
    values = tuple(sorted(values))
    eta = unit_thresholds(sum(values[-h:]) + 1).eta
    got = check_base(values, family, h)
    assert got == pairwise_oracle(values, eta, h, FAMILY_TO_KIND[family]), (values, h, family)


def test_bases_of_the_benchmark_are_pinned():
    # h = 2, K = 4, as the decode-wide-bins workload builds them
    assert greedy_generate_base(SUBSET_SUM_DISTINCT, 2, 4).values == (1, 2, 4, 7)
    assert base_recursive_superincreasing(2, 4).values == (1, 2, 4, 7)
    assert strong_lex_base(4).values == (4, 6, 7, 8)
    assert greedy_generate_base(STRONG_LEX, 2, 4).values == (1, 2)
    assert greedy_generate_base(H_SUPERINCREASING, 2, 4).values == (1, 2, 4, 7)


def test_greedy_base_matches_the_scan():
    for family in FAMILIES:
        for h in range(1, 5):
            for K in range(1, 10):
                base = greedy_generate_base(family, h, K)
                assert base.values == scan_base(family, h, K), (family, h, K)
                assert (base.kind, base.h, base.thresholds) == (
                    FAMILY_TO_KIND[family], h, None
                )


def test_recursive_base_matches_the_closed_form():
    for h in range(1, 21):
        assert base_recursive_superincreasing(h, 40).values == (
            recursive_superincreasing(h, 40)
        ), h


@pytest.mark.parametrize("family", FAMILIES)
def test_bases_need_h_at_least_one(family):
    # with h = 0 no subset is listed, so every sequence would pass
    with pytest.raises(InvalidInput, match="h must be >= 1"):
        check_base([1, 2, 3], family, 0)
    with pytest.raises(InvalidInput, match="h must be >= 1"):
        greedy_generate_base(family, 0, 4)


def test_identity_sqlo_s_names_the_first_failing_element():
    report = check_sequence([1, 2, 4, 7, 8, 27], None, 2, SQLO_S)
    assert report.first_violation == "element 8 <= 11, the sum of {4,7}"
    assert check_sequence([1, 2, 4, 7, 12], None, 2, SQLO_S).passed
    # no counting bound without bins, and no limit on K alone
    assert check_sequence(list(range(1, 40)), None, 1, SQLO_L).passed


def test_the_order_check_limits_the_subsets_it_lists():
    # 22 singletons pass with thresholds; K alone is no limit
    assert check_sequence(list(range(1, 23)), unit_thresholds(10**7), 1, QUANTIZED_BH)
    # C(40, <= 20) subsets are refused before any is listed
    with pytest.raises(BudgetExceeded, match="subsets to check, more than"):
        check_base([2**i for i in range(40)], SUBSET_SUM_DISTINCT, 20)
    assert check_base([2**i for i in range(20)], SUBSET_SUM_DISTINCT, 2)
    # the window test lists none, and strong-lex(2) lists C(25, <= 2) = 325
    assert base_recursive_superincreasing(20, 40).K == 40
    assert strong_lex_base(25).K == 25


def test_strong_lex_base_construction():
    assert strong_lex_base(1).values == (1,)
    assert strong_lex_base(3).values == (2, 3, 4)
    for K in (2, 4, 6, 9, 12, 16):
        base = strong_lex_base(K)
        assert len(base.values) == K
        if K <= 10:
            assert check_base(base.values, STRONG_LEX, 2)


def test_scaled_construction_step3(th_step3):
    base = base_recursive_superincreasing(3, 8)
    seq = scaled_construction(base, th_step3, 3, s=th_step3.Q)
    assert seq.values == (3, 6, 12)
    assert seq.kind == SQLO_S


def test_scaled_construction_longer(th_step3_tall):
    base = base_recursive_superincreasing(2, 8)
    seq = scaled_construction(base, th_step3_tall, 2, s=th_step3_tall.Q)
    assert seq.values == (3, 6, 12, 21)


def test_scaled_construction_unit_gap():
    # unit thresholds leave the base unscaled
    base = base_recursive_superincreasing(2, 5)
    th = unit_thresholds(40)
    seq = scaled_construction(base, th, 2, s=th.Q)
    assert seq.values == (1, 2, 4, 7, 12)


def test_scaled_construction_infeasible():
    # beta_1 = 5 scaled by g_s = 2 already overshoots eta_2 = 3
    tall_start = MultiplierSequence((5, 11), SQLO_S, 2, None)
    with pytest.raises(InfeasibleThresholds):
        scaled_construction(tall_start, Thresholds((0, 2, 3)), 2, s=2)
    base = base_recursive_superincreasing(2, 4)
    with pytest.raises(InvalidInput):
        scaled_construction(base, unit_thresholds(40), 3, s=2)  # base.h = 2 < 3


# --- growth constant ---


def test_gamma_bound_values():
    assert gamma_bound(1) == 1.0
    assert abs(gamma_bound(2) - (1 + math.sqrt(5)) / 2) < 1e-9


def test_gamma_bound_root_and_interval():
    for h in range(2, 21):
        g = gamma_bound(h)
        assert 2 * h / (h + 1) < g < 2
        assert abs(g ** (h + 1) - 2 * g**h + 1) < 1e-6 * g**h


def test_recursive_base_growth_bounded_by_gamma():
    for h in (2, 3, 5):
        g = gamma_bound(h)
        values = base_recursive_superincreasing(h, 40).values
        ratios = [v / g**k for k, v in enumerate(values, start=1)]
        # beta_K / gamma^K converges to a constant below 2
        assert max(ratios) < 2.0
        assert abs(ratios[-1] - ratios[-2]) < 1e-3


# --- subset-sum tables and knapsack solvers ---


def test_subset_sums_table(th_step3_tall):
    seq = verified_sequence([3, 6, 12], th_step3_tall, 2, QUANTIZED_BH)
    table = subset_sums(seq, 2)
    assert [t for t, _ in table] == [3, 6, 9, 12, 15, 18]
    assert dict(table)[9] == frozenset({3, 6})
    assert dict(table)[15] == frozenset({3, 12})


def test_subset_sums_detects_corruption():
    # values tampered with after the check: 1 + 2 = 3 duplicates the singleton 3
    seq = MultiplierSequence((1, 2, 4), QUANTIZED_BH, 2, unit_thresholds(10))
    object.__setattr__(seq, "values", (1, 2, 3))
    with pytest.raises(CorruptSequence):
        subset_sums(seq, 2)


def test_solvers_refuse_d_above_h():
    # verified for h = 1, the sequence has two subsets summing to 9 at d = 2
    seq = greedy_generate(uniform_thresholds(3, 15), 1, 5, SQLO_S)
    assert seq.values[:3] == (3, 6, 9) and knapsack_solve(seq, 1, 9) == frozenset({9})
    for d in (2, 3):
        with pytest.raises(InvalidInput, match=f"d must be <= 1, got {d}"):
            knapsack_solve(seq, d, 9)
        with pytest.raises(InvalidInput, match=f"d must be <= 1, got {d}"):
            subset_sums(seq, d)


def test_knapsack_qbh_unsupported(th_step3_tall):
    seq = verified_sequence([3, 6, 12], th_step3_tall, 2, QUANTIZED_BH)
    with pytest.raises(UnsupportedKind):
        knapsack_solve(seq, 2, 9)


def test_knapsack_sqlo_l_worked_example():
    seq = verified_sequence([3, 4, 5], unit_thresholds(14), 2, SQLO_L)
    assert knapsack_solve(seq, 2, 8) == frozenset({3, 5})
    assert knapsack_solve(seq, 2, 7) == frozenset({3, 4})
    assert knapsack_solve(seq, 2, 9) == frozenset({4, 5})
    assert knapsack_solve(seq, 2, 6) is None
    assert knapsack_solve(seq, 2, 4) == frozenset({4})
    assert knapsack_solve(seq, 2, 12) is None  # would need all three
    assert knapsack_solve(seq, 2, 1) is None
    assert knapsack_solve(seq, 2, 8, 9) == frozenset({3, 5})  # the exact call


def test_knapsack_sqlo_s_worked_example(th_gaps):
    seq = verified_sequence([2, 5, 11], th_gaps, 3, SQLO_S)
    assert knapsack_solve(seq, 3, 18) == frozenset({2, 5, 11})
    assert knapsack_solve(seq, 2, 18) is None  # cardinality cap
    assert knapsack_solve(seq, 2, 13) == frozenset({2, 11})
    assert knapsack_solve(seq, 2, 4) is None
    # bin [16, 18) holds 5 + 11; bin [6, 10) holds 2 + 5 only with d >= 2
    assert knapsack_solve(seq, 2, 16, 18) == frozenset({5, 11})
    assert knapsack_solve(seq, 2, 6, 10) == frozenset({2, 5})
    assert knapsack_solve(seq, 1, 6, 10) is None
    with pytest.raises(InvalidInput):
        knapsack_solve(seq, 2, 0)
    with pytest.raises(InvalidInput):
        knapsack_solve(seq, 2, 5, 5)


@given(st.integers(2, 6), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_knapsack_sqlo_s_matches_brute_force(K, h_extra, data):
    h = min(K, 1 + h_extra)
    values = []
    for i in range(K):
        lo = 1 if not values else sum(values[-h:]) + 1
        values.append(data.draw(st.integers(lo, lo + 5)))
    th = unit_thresholds(sum(values) + 1)
    seq = verified_sequence(values, th, h, SQLO_S)
    beta = data.draw(st.integers(1, sum(values)))
    d = data.draw(st.integers(1, h))
    got = knapsack_solve(seq, d, beta)
    expected = brute_force_subset_sum(values, d, beta)
    assert got == expected


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 9), st.data())
@settings(max_examples=150, deadline=None)
def test_knapsack_sqlo_l_matches_brute_force(K, scale, offset, data):
    values = [scale * v + offset for v in strong_lex_base(K).values]
    if not check_base(values, STRONG_LEX, 2):
        return
    th = unit_thresholds(sum(sorted(values)[-2:]) + 1)
    seq = verified_sequence(values, th, 2, SQLO_L)
    beta = data.draw(st.integers(1, th.top - 1))
    got = knapsack_solve(seq, 2, beta)
    expected = brute_force_subset_sum(values, 2, beta)
    assert got == expected
