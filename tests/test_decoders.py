import dataclasses
import math
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from sqgt import (
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    BinaryDisjunctCode,
    DecodingFailure,
    InvalidBase,
    InvalidBin,
    InvalidInput,
    base_recursive_superincreasing,
    build,
    decode,
    inject_exhaustive,
    inject_random,
    knapsack_solve,
    recover_support,
    replicated_identity,
    scaled_construction,
    select_witness_coords,
    simulate_campaign,
    strong_lex_base,
    syndrome,
    uniform_thresholds,
    verified_sequence,
)
from sqgt import decoders
from sqgt.campaign import SEEDED_RANDOM

from oracles import oracle_decode, reference_supports
from test_acceptance import _bench_code


def _entry(code_corpus, name):
    return dict(code_corpus)[name]


TH45 = uniform_thresholds(3, 15)


def _code(rows, e):
    """A d = 1 code on the base claimed by `rows`, trusted as given."""
    base = BinaryDisjunctCode(np.array(rows), d=1, e=e)
    return build(base, verified_sequence([3], TH45, 1, QUANTIZED_BH), TH45, 1)


def test_recover_support_example():
    rows = [[1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 0]]
    # y = (1, 0, 1, 1): column 2 places weight on the zero coordinate
    assert recover_support((1, 0, 1, 1), _code(rows, 0)) == [0, 1]
    # with e = 1 that single contradiction is forgiven
    assert recover_support((1, 0, 1, 1), _code(rows, 1)) == [0, 1, 2]
    for stage in (recover_support, decode):
        with pytest.raises(InvalidInput, match="result length 2"):
            stage((1, 0), _code(rows, 0))


def test_stages_called_directly_check_y(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    for stage in (recover_support, lambda y, c: select_witness_coords(y, c, 0)):
        with pytest.raises(InvalidInput, match="result length 3"):
            stage((3, 0, 0), code)
        with pytest.raises(InvalidBin):
            stage((code.thresholds.Q, 0), code)
    # values checked for one code are checked again against another
    checked = decoders._result_values((3, 0, 0), _entry(code_corpus, "qbh-i3-d2"))
    with pytest.raises(InvalidInput, match="result length 3"):
        recover_support(checked, code)


def test_decode_checks_y_once(code_corpus, monkeypatch):
    code = _entry(code_corpus, "sqs-ks3-d2")
    y = list(syndrome(code, [0, 4]).y)  # two supports
    calls = Counter()
    real = decoders.as_ints

    def counting(*args):
        calls["as_ints"] += 1
        return real(*args)

    monkeypatch.setattr(decoders, "as_ints", counting)
    assert decode(y, code).defectives == frozenset({0, 4})
    assert calls["as_ints"] == 1


def test_select_witness_coords():
    # smallest result values win, ties broken by index
    one_column = [[1]] * 4
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 1), 0) == [1, 2, 3]
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 0), 0) == [1]
    with pytest.raises(InvalidBase):
        select_witness_coords((5, 1), _code([[1]] * 2, 1), 0)  # needs 3 coordinates


@pytest.mark.parametrize("i", [-1, 3, 1.0, True])
def test_select_witness_coords_rejects_a_column_outside_the_base(i):
    # once column 2's witnesses, an IndexError, a TypeError and column 1's
    code = build(replicated_identity(3, 3), verified_sequence([3], TH45, 1, QUANTIZED_BH), TH45, 1)
    y = syndrome(code, [0])
    assert select_witness_coords(y, code, 0) == [0, 1, 2]
    with pytest.raises(InvalidInput, match="^i "):
        select_witness_coords(y, code, i)


def test_dec_qbh_round_trip(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    result = decode(syndrome(code, [0, 2]), code)
    assert result.defectives == frozenset({0, 2})
    assert result.per_support == ((0, (3, 6)),)
    assert result.warning is None


def test_dec_sqlo_s_round_trip(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    result = decode(syndrome(code, [0, 2]), code)
    assert result.defectives == frozenset({0, 2})
    assert result.per_support == ((0, (3, 6)),)


def test_dec_sqlo_l_round_trip(code_corpus):
    code = _entry(code_corpus, "sql-i2-d2")
    # columns 1 and 5 are base column 1 scaled by 3 and 5
    result = decode(syndrome(code, [1, 5]), code)
    assert result.defectives == frozenset({1, 5})


def test_decoder_kind_dispatch(code_corpus):
    sqs = _entry(code_corpus, "sqs-i2-d2")
    assert decode(syndrome(sqs, [0]), sqs).defectives == frozenset({0})


def test_split_witnesses_fail_on_quantized_bh(code_corpus):
    code = _entry(code_corpus, "qbh-rep4-d2-e1")
    # base column 0 owns rows 0-2; its three witnesses lie in three bins,
    # so no bin holds e + 1 = 2 of them
    y = (1, 2, 3) + (0,) * 9
    assert recover_support(y, code) == [0]
    with pytest.raises(DecodingFailure, match="witness votes"):
        decode(y, code)


def test_empty_support_warns(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    result = decode((0, 0), code)
    assert result.defectives == frozenset()
    assert result.warning is not None


def test_result_values_outside_the_bins_are_rejected(code_corpus):
    for name in ("qbh-i2-d2", "sqs-i2-d2", "sql-i2-d2"):
        code = _entry(code_corpus, name)
        for y in ((0, code.thresholds.Q), (-1, 1)):
            with pytest.raises(InvalidBin):
                decode(y, code)


@pytest.mark.parametrize(
    "y", [[3.9, 0.2], (3.9, 0.2), ("3", "0"), "30", (True, 0), np.array([3.0, 0.0])],
    ids=["float-list", "float-tuple", "str-tuple", "str", "bool", "float-array"],
)
def test_result_values_that_are_not_integers_are_rejected(code_corpus, y):
    # int() would read [3.9, 0.2] as (3, 0) and decode the wrong vector
    code = _entry(code_corpus, "sqs-i2-d2")
    with pytest.raises(InvalidBin, match="is not an integer"):
        decode(y, code)


def test_integer_result_values_of_any_container_decode(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    for y in ([3, 0], (3, 0), np.array([3, 0]), syndrome(code, [0, 2])):
        assert decode(y, code).defectives == frozenset({0, 2})


def test_oracle_rejects_garbage(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    with pytest.raises(DecodingFailure):
        oracle_decode((7, 1), code)  # row sum 21+ is beyond any two columns


def test_decoders_match_oracle_clean(code_corpus):
    for name in ("qbh-i3-d2", "sqs-i2-d2-perm", "sql-i2-234-d2"):
        code = _entry(code_corpus, name)
        for size in range(1, code.d + 1):
            for D in combinations(range(code.n), size):
                y = syndrome(code, D)
                assert decode(y, code).defectives == frozenset(D)
                assert oracle_decode(y, code) == frozenset(D)


def test_decoders_match_oracle_with_errors(code_corpus):
    code = _entry(code_corpus, "sql-rep3-d2-e1")
    Q = code.thresholds.Q
    for D in [(0,), (2, 7), (4, 8)]:
        clean = syndrome(code, D)
        for outcome in inject_exhaustive(clean, 1, Q):
            assert decode(outcome, code).defectives == frozenset(D)
    # support recovery keeps the reference rule on every exhaustive outcome
    # of every corpus code
    for name, code in code_corpus:
        for size in range(1, code.d + 1):
            for D in combinations(range(code.n), size):
                clean = syndrome(code, D)
                outcomes = list(inject_exhaustive(clean, code.e, code.thresholds.Q))
                got = [recover_support(outcome, code) for outcome in outcomes]
                assert got == reference_supports(outcomes, code), (name, D)


def _decoded(y, code):
    try:
        return decode(y, code)
    except DecodingFailure as exc:
        return "DecodingFailure", str(exc)


def _counting_solver(monkeypatch):
    """Count decode's knapsack_solve calls by (lo, hi); hi is None for the
    exact call."""
    calls = Counter()

    def counting(seq, d, lo, hi=None):
        calls[lo, hi] += 1
        return knapsack_solve(seq, d, lo, hi)

    monkeypatch.setattr(decoders, "knapsack_solve", counting)
    return calls


def test_cold_and_warm_tables_decode_alike(code_corpus):
    """A decode on an empty bin table (a freshly built code) and one after the
    table holds every bin seen agree, results and failures alike, on every
    exhaustive outcome at e and about 2,000 seeded outcomes at e + 1."""
    for name, code in code_corpus:
        if code.sequence.kind == QUANTIZED_BH:
            continue
        fresh = dataclasses.replace(code)
        table = fresh.plan.subset_in_bin
        assert not table
        full = {}
        Q = code.thresholds.Q
        sets = [D for size in range(1, code.d + 1) for D in combinations(range(code.n), size)]
        samples = math.ceil(2000 / len(sets))
        for index, D in enumerate(sets):
            clean = syndrome(code, D)
            outcomes = list(inject_exhaustive(clean, code.e, Q))
            outcomes += inject_random(clean, code.e + 1, Q, (13, index), samples)
            cold = []
            for y in outcomes:
                table.clear()
                cold.append(_decoded(y, fresh))
                full.update(table)
            table.update(full)
            assert [_decoded(y, fresh) for y in outcomes] == cold, (name, D)
            assert table == full  # no warm decode missed the table
            in_contract = cold[: -samples]
            assert all(r.defectives == frozenset(D) for r in in_contract), (name, D)


def test_a_campaign_solves_each_bin_once(code_corpus, monkeypatch):
    calls = _counting_solver(monkeypatch)
    code = dataclasses.replace(_entry(code_corpus, "sqs-rep4-d3-e1"))
    assert simulate_campaign(code).failures == 0
    simulate_campaign(code, code.e + 1, SEEDED_RANDOM, seed=5, samples_per_set=20)
    bins = [key for key in calls if key[1] is not None]
    assert bins and all(calls[key] == 1 for key in bins)
    assert sum(calls.values()) <= 2 * len(bins)
    assert len(code.plan.subset_in_bin) == len(bins) < code.thresholds.Q


def test_knapsack_solve_time_is_linear_in_K():
    """The paper's linear-time SQLO decoders, timed at the solver over the
    witness bins of criterion 9's codes: a decode after the first finds its
    bin in the plan's table, so timing decode would time a lookup."""
    Ks = [4, 8, 12, 16]
    for kind in (SQLO_S, SQLO_L):
        means = []
        for K in Ks:
            code = _bench_code(K, kind, 2)
            y = syndrome(code, [0, code.n - 2]).y
            eta = code.thresholds.eta
            bins = []
            for i in recover_support(y, code):
                r = y[select_witness_coords(y, code, i)[code.e]]
                bins.append((eta[r], eta[r + 1]))
            values = code.sequence.values
            for lo, hi in bins:
                assert knapsack_solve(code.sequence, 2, lo, hi) == {values[0], values[-1]}
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _r in range(500):
                    for lo, hi in bins:
                        knapsack_solve(code.sequence, 2, lo, hi)
                best = min(best, (time.perf_counter() - t0) / 500)
            means.append(best)
        slope = float(np.polyfit(np.log(Ks), np.log(means), 1)[0])
        assert slope <= 1.5, (kind, slope)


def test_knapsack_calls_do_not_grow_with_bin_width(monkeypatch):
    """One-error decodes on uniform thresholds of width 1 to 4096, with the
    sequence scaled to them, see the same bins, so fresh codes make the same
    solver calls at every width: at most two per distinct bin."""
    rep = replicated_identity(2, 3)
    for kind, base in ((SQLO_S, base_recursive_superincreasing(2, 8)),
                       (SQLO_L, strong_lex_base(8))):
        Q = max(sum(base.values[-3:]), 2 * base.values[-1]) + 1
        counts = []
        for gap in (1, 16, 256, 4096):
            calls = _counting_solver(monkeypatch)
            th = uniform_thresholds(gap, Q)
            code = build(rep, scaled_construction(base, th, 2, Q), th, 2, "strict")
            for D in ([0, code.n - 2], [code.n - 1]):
                for outcome in inject_exhaustive(syndrome(code, D), 1, Q):
                    assert decode(outcome, code).defectives == frozenset(D)
            bins = sum(hi is not None for _, hi in calls)
            assert 0 < sum(calls.values()) <= 2 * bins
            counts.append(sum(calls.values()))
        assert len(set(counts)) == 1, (kind, counts)
