"""End-to-end acceptance suite.

Each test covers one release criterion and emits a single pass/fail
line (echoed in the terminal summary).  The shared code corpus lives in
conftest.py.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from sqgt import codebook, decoders, disjunct, sequences
from sqgt import (
    HeadroomError,
    InvalidInput,
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    STRONG_LEX,
    Thresholds,
    base_recursive_superincreasing,
    build,
    check_base,
    check_sequence,
    decode,
    feasibility_report,
    gamma_bound,
    greedy_generate,
    identity_code,
    inject_exhaustive,
    knapsack_solve,
    recover_support,
    replicated_identity,
    scaled_construction,
    simulate_campaign,
    strong_lex_base,
    subset_sums,
    syndrome,
    unit_thresholds,
    uniform_thresholds,
    verified_sequence,
    verify_sq_separable,
)
from sqgt.sequences import _order_violation as _check_sqlo

from oracles import (
    brute_force_subset_sum,
    check_sqlo_s_via_bh as _check_sqlo_s_via_bh,
    support_signature,
)


def _bench_code(K: int, kind: str, d: int):
    """Fixed-size base, growing sequence; unit thresholds keep every
    kind check cheap."""
    if kind == sequences.SQLO_S:
        values = sequences.base_recursive_superincreasing(d, K).values
    else:
        if d != 2:
            raise InvalidInput("bench SQLO_l sequences are generated for d=2 only")
        values = sequences.strong_lex_base(K).values
    top = sum(sorted(values)[-d:]) + 1
    th = unit_thresholds(top)
    seq = sequences.verified_sequence(values, th, d, kind)
    base = disjunct.identity_code(2)
    return codebook.build(base, seq, th, d, mode=codebook.PERMISSIVE)


def test_criterion_01_scaled_construction_bins(acceptance_record, th_step3):
    start = time.perf_counter()
    base = base_recursive_superincreasing(3, 8)
    seq = scaled_construction(base, th_step3, 3, s=th_step3.Q)
    ok = seq.values == (3, 6, 12)
    sums = sorted((sum(s) for r in range(1, 4)
                   for s in combinations(seq.values, r)), reverse=True)
    from sqgt import quantize
    bins = tuple(quantize(th_step3, v) for v in sums)
    ok &= bins == (7, 6, 5, 4, 3, 2, 1)
    ok &= check_sequence(seq.values, th_step3, 3, SQLO_S).passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    acceptance_record(
        "1 scaled-construction bins",
        ok,
        f"A={list(seq.values)} bins={list(bins)} in {elapsed:.3f}s",
    )


def test_criterion_02_greedy_worked_example(acceptance_record, th_gaps):
    start = time.perf_counter()
    seq = greedy_generate(th_gaps, 3, 3, SQLO_S)
    elapsed = time.perf_counter() - start
    ok = seq.values == (2, 5, 11) and elapsed < 1.0
    acceptance_record(
        "2 greedy sequence", ok, f"values={list(seq.values)} in {elapsed:.3f}s"
    )


def test_criterion_03_support_signature(acceptance_record):
    got = support_signature([[2, 0, 2, 2], [6, 0, 6, 6], [2, 0, 2, 0]])
    ok = got == {(1, 0, 1, 1), (1, 0, 1, 0)}
    acceptance_record("3 support signature", ok, f"got {sorted(got)}")


def test_criterion_04_separability_corpus(acceptance_record, code_corpus):
    start = time.perf_counter()
    failed = [
        name
        for name, code in code_corpus
        if not verify_sq_separable(code, 1, code.d, code.e)
    ]
    elapsed = time.perf_counter() - start
    ok = len(code_corpus) >= 20 and not failed and elapsed < 300
    acceptance_record(
        "4 separability corpus",
        ok,
        f"{len(code_corpus)} codes, failures={failed}, {elapsed:.1f}s",
    )


def test_criterion_05_exhaustive_campaigns(acceptance_record, code_corpus):
    start = time.perf_counter()
    total_cases = 0
    bad = []
    for name, code in code_corpus:
        summary = simulate_campaign(code)
        total_cases += summary.cases
        if summary.failures or summary.truncated:
            bad.append((name, summary.failures))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 600
    acceptance_record(
        "5 exhaustive decoding campaigns",
        ok,
        f"{total_cases} cases over {len(code_corpus)} codes, "
        f"failures={bad}, {elapsed:.1f}s",
    )


def test_criterion_06_knapsack_probes(acceptance_record):
    start = time.perf_counter()
    rng = np.random.default_rng(20250825)
    checked = {SQLO_S: 0, SQLO_L: 0}
    mismatches = []

    for _ in range(150):
        K = int(rng.integers(2, 13))
        h = int(rng.integers(1, 4))
        values = []
        for _i in range(K):
            lo = 1 if not values else sum(values[-h:]) + 1
            values.append(lo + int(rng.integers(0, 4)))
        th = unit_thresholds(sum(values) + 1)
        seq = verified_sequence(values, th, h, SQLO_S)
        d = int(rng.integers(1, h + 1))
        beta = int(rng.integers(1, th.top))
        if knapsack_solve(seq, d, beta) != brute_force_subset_sum(values, d, beta):
            mismatches.append((SQLO_S, values, d, beta))
        checked[SQLO_S] += 1

    for _ in range(150):
        K = int(rng.integers(1, 13))
        scale = int(rng.integers(1, 6))
        offset = int(rng.integers(0, 11))
        values = [scale * v + offset for v in strong_lex_base(K).values]
        assert check_base(values, STRONG_LEX, 2)
        th = unit_thresholds(sum(sorted(values)[-2:]) + 1)
        seq = verified_sequence(values, th, 2, SQLO_L)
        beta = int(rng.integers(1, th.top))
        if knapsack_solve(seq, 2, beta) != brute_force_subset_sum(values, 2, beta):
            mismatches.append((SQLO_L, values, 2, beta))
        checked[SQLO_L] += 1

    # Interval probes: sequences scaled past the largest gap of seeded
    # non-unit thresholds, plus a common shift, kept when still valid; every
    # bin is probed against the subsets whose sums fall in it.
    bins_probed = {SQLO_S: 0, SQLO_L: 0}
    sequences_probed = {SQLO_S: 0, SQLO_L: 0}
    while min(sequences_probed.values()) < 100:
        kind = SQLO_S if sequences_probed[SQLO_S] <= sequences_probed[SQLO_L] else SQLO_L
        if kind == SQLO_S:
            h = int(rng.integers(1, 4))
            base = base_recursive_superincreasing(h, int(rng.integers(1, 8))).values
        else:
            h = 2
            base = strong_lex_base(int(rng.integers(1, 8))).values
        gap = int(rng.integers(1, 7))
        shift = int(rng.integers(0, gap))
        values = [gap * b + shift for b in base]
        widths = [int(w) for w in rng.integers(1, gap + 1, size=sum(values) + 1)]
        eta = [0]
        for w in widths:
            eta.append(eta[-1] + w)
            if eta[-1] > sum(values):
                break
        th = Thresholds(tuple(eta))
        if not check_sequence(values, th, h, kind).passed:
            continue
        seq = verified_sequence(values, th, h, kind)
        d = int(rng.integers(1, h + 1))
        sums = [(sum(s), frozenset(s)) for r in range(1, d + 1)
                for s in combinations(values, r)]
        for lo, hi in zip(th.eta, th.eta[1:]):
            inside = [s for total, s in sums if lo <= total < hi]
            expected = inside[0] if len(inside) == 1 else None
            got = knapsack_solve(seq, d, max(lo, 1), hi) if max(lo, 1) < hi else None
            if len(inside) > 1 or got != expected:
                mismatches.append((kind, values, th.eta, d, lo, hi))
            bins_probed[kind] += 1
        sequences_probed[kind] += 1

    elapsed = time.perf_counter() - start
    ok = (
        not mismatches
        and all(c >= 100 for c in checked.values())
        and all(c >= 100 for c in sequences_probed.values())
        and elapsed < 60
    )
    acceptance_record(
        "6 knapsack solver equivalence",
        ok,
        f"probes={dict(checked)} bin probes={dict(bins_probed)} over "
        f"{dict(sequences_probed)} sequences mismatches={len(mismatches)} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_07_route_agreement(acceptance_record):
    rng = np.random.default_rng(7)
    trials = 0
    disagreements = []
    while trials < 250:
        K = int(rng.integers(1, 7))
        values = sorted(rng.choice(np.arange(1, 41), size=K, replace=False))
        values = tuple(int(v) for v in values)
        gaps = rng.integers(1, 9, size=int(rng.integers(3, 11)))
        eta = [0]
        for g in gaps:
            eta.append(eta[-1] + int(g))
        th = Thresholds(tuple(eta))
        h = int(rng.integers(1, 4))
        direct = _check_sqlo(values, th, h, SQLO_S)
        two_cond = _check_sqlo_s_via_bh(values, th, h)
        if (direct is None) != (two_cond is None):
            disagreements.append((values, eta, h))
        trials += 1
    ok = trials >= 200 and not disagreements
    acceptance_record(
        "7 definitional route agreement",
        ok,
        f"{trials} random sequences, disagreements={len(disagreements)}",
    )


def test_criterion_08_gamma_bound(acceptance_record):
    golden_ok = abs(gamma_bound(2) - (1 + math.sqrt(5)) / 2) < 1e-9
    interval_ok = all(
        (gamma_bound(h) == 1.0 if h == 1 else 2 * h / (h + 1) < gamma_bound(h) < 2)
        for h in range(1, 21)
    )
    growth_ok = True
    for h in range(2, 21):
        g = gamma_bound(h)
        values = base_recursive_superincreasing(h, 40).values
        C = max(v / g**k for k, v in enumerate(values, start=1))
        growth_ok &= all(
            v <= C * g**k * (1 + 1e-9) for k, v in enumerate(values, start=1)
        )
        growth_ok &= C < 2.0  # a single modest constant suffices
    ok = golden_ok and interval_ok and growth_ok
    acceptance_record(
        "8 growth constant",
        ok,
        f"gamma(2)={gamma_bound(2):.12f}, interval+growth checks for h<=20",
    )


def test_criterion_09_complexity_scaling(acceptance_record, monkeypatch):
    start = time.perf_counter()
    Ks = [4, 8, 12, 16]
    slopes = {}
    for kind in (SQLO_S, SQLO_L):
        means = []
        for K in Ks:
            code = _bench_code(K, kind, 2)
            y = syndrome(code, [0, code.n - 2])
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _r in range(50):
                    decode(y, code)
                best = min(best, (time.perf_counter() - t0) / 50)
            means.append(best)
        slope = float(np.polyfit(np.log(Ks), np.log(means), 1)[0])
        slopes[kind] = slope

    # Wide bins: one-error decodes on uniform thresholds of width `gap`
    # with the sequence scaled by it make the same knapsack calls at every
    # gap, since each witness costs one call over its whole bin.
    gaps = (1, 16, 256, 4096)
    wide_calls = {}
    wide_wrong = 0
    real_solve = decoders.knapsack_solve

    def counting_solve(*args):
        wide_calls[key] += 1
        return real_solve(*args)

    monkeypatch.setattr(decoders, "knapsack_solve", counting_solve)
    rep = replicated_identity(2, 3)
    for kind, base in ((SQLO_S, base_recursive_superincreasing(2, 8)),
                       (SQLO_L, strong_lex_base(8))):
        Q = max(sum(base.values[-3:]), 2 * base.values[-1]) + 1
        for gap in gaps:
            th = uniform_thresholds(gap, Q)
            seq = scaled_construction(base, th, 2, Q)
            code = build(rep, seq, th, 2, "strict")
            key = (kind, gap)
            wide_calls[key] = 0
            for D in ([0, code.n - 2], [code.n - 1]):
                clean = syndrome(code, D)
                for outcome in inject_exhaustive(clean, 1, Q):
                    wide_wrong += decode(outcome, code).defectives != frozenset(D)
    monkeypatch.undo()
    wide_ok = wide_wrong == 0 and all(
        wide_calls[kind, gap] <= wide_calls[kind, 1]
        for kind in (SQLO_S, SQLO_L) for gap in gaps
    )

    table_ok = True
    for K in Ks:
        values = base_recursive_superincreasing(2, K).values
        th = unit_thresholds(sum(values) + 1)
        seq = verified_sequence(values, th, 2, QUANTIZED_BH)
        expected = sum(math.comb(K, i) for i in (1, 2))
        table_ok &= len(subset_sums(seq, 2)) == expected

    elapsed = time.perf_counter() - start
    ok = (
        all(s <= 1.5 for s in slopes.values()) and wide_ok and table_ok
        and elapsed < 300
    )
    calls = {
        kind: [wide_calls[kind, gap] for gap in gaps] for kind in (SQLO_S, SQLO_L)
    }
    acceptance_record(
        "9 decoder complexity scaling",
        ok,
        f"log-log slopes={ {k: round(v, 2) for k, v in slopes.items()} }, "
        f"one-error knapsack calls at gaps {list(gaps)}={calls}, "
        f"wrong decodes={wide_wrong}, table sizes exact, {elapsed:.1f}s",
    )


def test_criterion_10_negative_controls(acceptance_record, code_corpus, th_step3):
    from sqgt import BinaryDisjunctCode

    # duplicated columns can never be separable
    th45 = uniform_thresholds(3, 15)
    seq = verified_sequence([3, 6], th45, 2, QUANTIZED_BH)
    dup = BinaryDisjunctCode(np.array([[1, 1], [1, 1]]), d=1, e=0)
    dup_code = build(dup, seq, th45, 1, "strict")
    dup_ok = not verify_sq_separable(dup_code, 1, 1, 0)

    # support recovery never admits a non-defective base column
    over_accepts = 0
    for name, code in code_corpus:
        Q = code.thresholds.Q
        for size in range(1, code.d + 1):
            for D in combinations(range(code.n), size):
                truth = {c % code.base_n for c in D}
                clean = syndrome(code, D)
                for outcome in inject_exhaustive(clean, code.e, Q):
                    got = set(recover_support(outcome, code))
                    if not got <= truth:
                        over_accepts += 1
    support_ok = over_accepts == 0

    # strict headroom: eta_Q = 24 cannot host d = 3 with q - 1 = 12
    seq3 = verified_sequence([3, 6, 12], th_step3, 3, QUANTIZED_BH)
    try:
        build(identity_code(4), seq3, th_step3, 3, "strict")
        headroom_ok = False
    except HeadroomError:
        headroom_ok = True

    ok = dup_ok and support_ok and headroom_ok
    acceptance_record(
        "10 negative controls",
        ok,
        f"duplicate-column fail={dup_ok}, over-accepts={over_accepts}, "
        f"strict headroom raise={headroom_ok}",
    )


def test_feasibility_formula(acceptance_record):
    value = feasibility_report(n=1000, d=10, Q=4)["tests_lower_bound_counting"]
    ok = abs(value - 33.2) < 0.1
    acceptance_record("counting-bound formula", ok, f"value={value:.3f}")
