import json
import math
import time

import numpy as np
import pytest

from sqgt import (
    BinaryDisjunctCode,
    BudgetExceeded,
    CorruptCode,
    HeadroomError,
    InfeasibleThresholds,
    InvalidInput,
    MultiplierSequence,
    OutOfRange,
    ParameterError,
    QUANTIZED_BH,
    SQLO_S,
    SqgtCode,
    Thresholds,
    build,
    code_from_config,
    feasibility_report,
    greedy_generate,
    identity_code,
    kautz_singleton,
    load_code,
    pair_sequence,
    random_code,
    replicated_identity,
    save_code,
    unit_thresholds,
    uniform_thresholds,
    verified_sequence,
    verify_disjunct,
    verify_sq_separable,
)
from sqgt.codebook import _group_weights, matrix_from_text

from oracles import min_distance_by_syndrome


def _entry(code_corpus, name):
    return dict(code_corpus)[name]


def test_pair_sequence(th_gaps):
    seq = pair_sequence(th_gaps)
    assert seq.values == (2, 5)
    assert seq.kind == QUANTIZED_BH


def test_pair_sequence_infeasible():
    with pytest.raises(InfeasibleThresholds):
        pair_sequence(Thresholds((0, 1, 2, 3)))  # Q = 3 < 4
    with pytest.raises(InfeasibleThresholds):
        pair_sequence(Thresholds((0, 3, 4, 5, 6)))  # top 6 <= 3 + 4


def test_build_concatenation(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    assert code.matrix.tolist() == [[3, 0, 6, 0, 12, 0], [0, 3, 0, 6, 0, 12]]
    assert code.q == 13
    assert (code.m, code.n) == (2, 6)


def test_build_strict_headroom(th_step3):
    seq = verified_sequence([3, 6, 12], th_step3, 3, QUANTIZED_BH)
    # eta_Q = 24 <= 3 * (13 - 1)
    with pytest.raises(HeadroomError):
        build(identity_code(4), seq, th_step3, 3, "strict")
    # d = 2 also fails strict: 24 <= 2 * 12
    with pytest.raises(HeadroomError):
        build(identity_code(4), seq, th_step3, 2, "strict")
    # permissive only needs 24 > 6 + 12
    code = build(identity_code(4), seq, th_step3, 2, "permissive")
    assert code.mode == "permissive"


def test_build_permissive_d3(th_step3):
    # a verified h >= d sequence always clears the permissive bound:
    # all subset sums of cardinality <= h stay below the top threshold
    seq = verified_sequence([3, 6, 12], th_step3, 3, QUANTIZED_BH)
    code = build(identity_code(4), seq, th_step3, 3, "permissive")
    assert (code.d, code.q) == (3, 13)


def test_build_permissive_bounds_overlapping_columns(th_gaps):
    # Two Kautz-Singleton columns of block 11 share a row: 11 + 11 = 22 >= 21,
    # although the two largest multipliers sum to 16.
    seq = verified_sequence([2, 5, 11], th_gaps, 3, SQLO_S)
    with pytest.raises(HeadroomError, match="22"):
        build(kautz_singleton(3, 2), seq, th_gaps, 2, "permissive")


def test_build_parameter_errors(th_step3_tall):
    seq = verified_sequence([3, 6, 12], th_step3_tall, 2, QUANTIZED_BH)
    with pytest.raises(ParameterError):
        build(identity_code(4), seq, th_step3_tall, 3, "strict")  # h = 2 < d
    with pytest.raises(InvalidInput):
        build(identity_code(4), seq, th_step3_tall, 2, "weird")


def test_build_vacuous_disjunctness(th_step3_tall):
    # an identity base is (n-1)-disjunct, and larger d is vacuous
    seq = verified_sequence([3, 6], th_step3_tall, 2, QUANTIZED_BH)
    code = build(identity_code(2), seq, th_step3_tall, 2, "strict")
    assert code.d == 2


def test_build_rejects_d_above_the_column_count(tmp_path, edit_json):
    # on 2 columns a d = 3 campaign ran, and the check at u = d raised
    th = uniform_thresholds(3, 15)
    seq = verified_sequence([3], th, 3, QUANTIZED_BH)
    with pytest.raises(ParameterError, match="d=3 exceeds the code's 2 columns"):
        build(identity_code(2), seq, th, 3)
    path = save_code(build(identity_code(2), seq, th, 2), str(tmp_path / "code"))
    edit_json(path, "d", value=3)
    with pytest.raises(CorruptCode, match="d=3 exceeds the code's 2 columns"):
        load_code(path)


def test_build_revalidates_other_thresholds(th_step3_tall, th_gaps):
    seq = verified_sequence([3, 6, 12], th_step3_tall, 2, QUANTIZED_BH)
    with pytest.raises(ParameterError):
        build(identity_code(3), seq, th_gaps, 2, "permissive")


def test_build_cannot_take_an_unverified_sequence(th_step3):
    # 3 and 4 share bin 1: built on identity_code(4) with d = 1, 4 of the 8
    # clean single-defective cases decoded to the wrong column
    with pytest.raises(InvalidInput, match="share quantization bin 1"):
        seq = MultiplierSequence((3, 4), QUANTIZED_BH, 1, th_step3)
        build(identity_code(4), seq, th_step3, 1)


def test_verify_sq_separable_positive(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    assert verify_sq_separable(code, 1, code.d, code.e)


def test_verify_sq_separable_duplicate_columns(th_step3_tall):
    seq = verified_sequence([3, 6], th_step3_tall, 2, QUANTIZED_BH)
    dup = BinaryDisjunctCode(
        np.array([[1, 1], [1, 1]]), d=1, e=0, provenance="user-supplied"
    )
    code = build(dup, seq, th_step3_tall, 1, "strict")
    assert not verify_sq_separable(code, 1, 1, 0)


def _ks_sqlo_s_code(base, K):
    """d = 2, greedy SQLO_s with h = 2 on uniform_thresholds(3, 40)."""
    th = uniform_thresholds(3, 40)
    return build(base, greedy_generate(th, 2, K, SQLO_S), th, 2)


@pytest.mark.parametrize("q, K", [(5, 3), (7, 2)])
def test_verify_sq_separable_decides_codes_past_an_all_pairs_budget(q, K):
    # n = 75 and 98: all pairs would be 2.0e8 and 1.2e9 coordinate
    # comparisons, but the runs of equal group keys hold 2.2e5 and 9.5e6
    code = _ks_sqlo_s_code(kautz_singleton(q, 2, 2), K)
    assert verify_sq_separable(code, 1, 2, code.e)


def test_verify_sq_separable_budget(code_corpus):
    base = kautz_singleton(11, 2, 2)
    # n = 484, m = 121: 117,370 sets hold 1.4e7 cells, refused before any
    # is built (just past the limit, so a broken check costs ~0.3 GB, no more)
    code = _ks_sqlo_s_code(base, 4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="14201770 result-vector cells held"):
        verify_sq_separable(code, 1, 2, code.e)
    assert time.perf_counter() - start < 0.1
    # n = 242, e = 4: 3.6e6 cells held, but the first run offset alone
    # would compare 2.6e7 (unlimited, the check takes 3.3e9 and seconds)
    code = _ks_sqlo_s_code(base, 2)
    with pytest.raises(BudgetExceeded, match="offset 1 -> 26044524 cells compared"):
        verify_sq_separable(code, 1, 2, code.e)
    code = _entry(code_corpus, "qbh-i3-d2")
    with pytest.raises(InvalidInput):
        verify_sq_separable(code, 0, 2, 0)
    with pytest.raises(InvalidInput):
        verify_sq_separable(code, 1, 2, -1)


@pytest.mark.parametrize("name", [
    "qbh-ks3-d2", "qbh-rep4-d2-e1", "sqs-i3-d1", "sqs-rep3-d2-e1-perm",
    "sqs-ks3-tall-d2", "sql-i4-d2", "sql-rep3-d2-e1", "sql-ks3-d2",
])
def test_verify_sq_separable_matches_syndrome_loop(code_corpus, name):
    code = _entry(code_corpus, name)
    for l, u in ((1, code.d), (1, code.d + 1), (2, code.d + 1)):
        u = min(u, code.n)
        expected = min_distance_by_syndrome(code, l, u)
        for e in (0, 1, 2):
            if isinstance(expected, str):
                with pytest.raises(OutOfRange) as info:
                    verify_sq_separable(code, l, u, e)
                assert str(info.value) == expected
            else:
                assert verify_sq_separable(code, l, u, e) == (expected >= 2 * e + 1)


def _direct_code(base_matrix, multipliers, eta):
    """A code made straight from its parts: no disjunctness, sequence or
    headroom check, so it may be far from separable or overflow."""
    base = BinaryDisjunctCode(np.asarray(base_matrix, dtype=int), d=1, e=0)
    seq = MultiplierSequence(tuple(multipliers), QUANTIZED_BH, 1, None)
    matrix = np.hstack([a * base.matrix for a in multipliers])
    return SqgtCode(matrix, Thresholds(tuple(eta)), seq, base, 1, 0, max(multipliers) + 1)


def _random_base(rng, shape):
    m, n = int(rng.integers(1, 10)), int(rng.integers(1, 6))
    if shape == "tiled":
        side = int(rng.integers(1, 5))
        return np.tile(np.eye(side, dtype=int), (int(rng.integers(1, 4)), 1))
    if shape == "narrow":  # m <= 3 < 2e+1 for e >= 2
        m = int(rng.integers(1, 4))
    matrix = (rng.random((m, n)) < rng.uniform(0.15, 0.8)).astype(int)
    if shape == "zero-rows":
        matrix[rng.random(m) < 0.5] = 0
    return matrix


@pytest.mark.parametrize("shape", ["random", "tiled", "zero-rows", "narrow"])
def test_verify_sq_separable_matches_brute_force_on_random_codes(shape):
    # unverified codes, most of them not separable, some overflowing and
    # some with a single result vector, against pairwise distances
    rng = np.random.default_rng(["random", "tiled", "zero-rows", "narrow"].index(shape))
    verdicts = set()
    for _ in range(200):
        base = _random_base(rng, shape)
        K = int(rng.integers(1, 4))
        multipliers = sorted(rng.choice(np.arange(1, 13), size=K, replace=False).tolist())
        eta = np.cumsum([0, *rng.integers(1, 5, size=int(rng.integers(3, 30)))])
        code = _direct_code(base, multipliers, eta.tolist())
        l = int(rng.integers(1, min(3, code.n) + 1))
        u = int(rng.integers(l, min(3, code.n) + 1))
        expected = min_distance_by_syndrome(code, l, u)
        for e in range(4):
            if isinstance(expected, str):
                with pytest.raises(OutOfRange) as info:
                    verify_sq_separable(code, l, u, e)
                assert str(info.value) == expected
                verdicts.add("overflow")
            else:
                got = verify_sq_separable(code, l, u, e)
                assert got == (expected >= 2 * e + 1), (base.tolist(), multipliers, eta, l, u, e)
                verdicts.add(got)
    assert verdicts == {True, False, "overflow"}


def test_verify_sq_separable_single_result_vector():
    code = _direct_code([[1]], [3], [0, 2, 5, 9])
    assert verify_sq_separable(code, 1, 1, 3)
    code = _direct_code([[1, 0], [0, 1]], [3], [0, 2, 5, 9])
    assert verify_sq_separable(code, 2, 2, 0)


def test_verify_sq_separable_compares_every_pair_of_a_run():
    # the one close pair, {0} and {3, 4} at distance 2, shares a run of
    # equal keys with vectors far from both, so the two need not be
    # neighbours in the sorted order
    base = [[1, 0, 0, 0, 1], [1, 1, 1, 1, 0], [1, 0, 1, 1, 0], [1, 1, 0, 1, 0],
            [1, 0, 1, 0, 1], [0, 1, 1, 1, 1], [0, 0, 1, 1, 0], [1, 1, 1, 0, 1]]
    code = _direct_code(base, [1], range(40))
    assert min_distance_by_syndrome(code, 1, 2) == 2
    assert not verify_sq_separable(code, 1, 2, 1)
    assert verify_sq_separable(code, 1, 2, 0)


@pytest.mark.parametrize("base", [
    np.tile(np.eye(3, dtype=int), (3, 1)),
    np.tile(np.eye(6, dtype=int), (3, 1)),
    replicated_identity(4, 3).matrix,
])
def test_group_weights_spread_every_column_over_all_groups(base):
    # the filter compares only vectors equal on a whole group; a column
    # whose rows all share one group leaves every other group equal for
    # sets that differ only in that column
    code = _direct_code(base, [3, 6], uniform_thresholds(3, 15).eta)
    in_group = _group_weights(code, 3) != 0
    assert (in_group.sum(axis=1) == 1).all()
    for column in base.T:
        assert in_group[column == 1].any(axis=0).all()
    expected = min_distance_by_syndrome(code, 1, 2)
    assert verify_sq_separable(code, 1, 2, 1) == (expected >= 3)


def test_group_weights_leave_no_group_empty():
    base = kautz_singleton(5, 2, 2).matrix
    code = _direct_code(base, [3], uniform_thresholds(3, 15).eta)
    in_group = _group_weights(code, 3) != 0
    assert in_group.any(axis=0).all()
    expected = min_distance_by_syndrome(code, 1, 2)
    assert verify_sq_separable(code, 1, 2, 1) == (expected >= 3)


def test_feasibility_report_counting_bound():
    report = feasibility_report(n=1000, d=10, Q=4)
    assert abs(report["tests_lower_bound_counting"] - 33.2) < 0.1
    assert report["tests_lower_bound_cgt"] > 0


def test_feasibility_report_checks(th_gaps):
    report = feasibility_report(K=4, h=2, Q=8)
    assert report["cardinality_check"]["feasible"] is False  # 11 > 8
    report = feasibility_report(K=3, h=3, Q=8)
    assert report["cardinality_check"]["feasible"] is True
    report = feasibility_report(q=2, th=th_gaps)
    assert report["alphabet_check"]["feasible"] is False
    assert any("binary" in note for note in report["notes"])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 1000, "d": 10, "Q": 1}, "Q must be >= 2, got 1"),
        ({"n": -5, "d": 2, "Q": 4}, "n must be >= 1, got -5"),
        ({"n": 10, "d": 0, "Q": 4}, "d must be >= 1, got 0"),
        ({"K": 0, "h": 2, "Q": 8}, "K must be >= 1, got 0"),
        ({"K": 3, "h": -1, "Q": 4}, "h must be >= 1, got -1"),
        ({"n": 5, "d": 10, "Q": 4}, "d must be <= 5, got 10"),
    ],
)
def test_feasibility_report_rejects_parameters_out_of_range(kwargs, message):
    with pytest.raises(InvalidInput, match=message):
        feasibility_report(**kwargs)


def test_matrix_text_round_trip(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    rows = (" ".join(map(str, row)) for row in code.matrix.tolist())
    text = f"{code.m} {code.n} {code.q}\n" + "\n".join(rows) + "\n"
    assert (matrix_from_text(text) == code.matrix).all()
    with pytest.raises(InvalidInput):
        matrix_from_text("")
    with pytest.raises(InvalidInput, match="bad matrix header"):
        matrix_from_text("2 2\n0 1\n0 1\n")
    with pytest.raises(InvalidInput):
        matrix_from_text("2 2 4\n0 1\n")  # missing row
    with pytest.raises(InvalidInput, match="row lengths disagree"):
        matrix_from_text("2 3 4\n0 1\n0 1\n")
    with pytest.raises(InvalidInput, match="matrix entry must be <= 3, got 9"):
        matrix_from_text("1 2 4\n0 9\n")  # entry outside alphabet
    with pytest.raises(InvalidInput):
        matrix_from_text("2 2 4\n0 1\n0 x\n")  # entry not an integer


def _config(base, d=2):
    return {
        "thresholds": list(range(0, 46, 3)),
        "base": base,
        "sequence": {"kind": "sqlo-s", "h": 3, "values": [3, 6, 12]},
        "d": d,
    }


def test_code_from_config_builds_every_base_spec(tmp_path):
    path = tmp_path / "base.txt"
    path.write_text("3 3 2\n1 0 0\n0 1 0\n0 0 1\n")
    for base, d, expected in [
        ({"spec": f"file:{path}", "d": 2, "e": 0}, 2, identity_code(3)),
        ({"spec": "replicated:2,3"}, 2, replicated_identity(2, 3)),
        ({"spec": "random:12,6,0.3,7", "d": 1}, 1, random_code(12, 6, 1, 0, 0.3, 7)),
    ]:
        built = code_from_config(_config(base, d)).base
        assert (built.matrix == expected.matrix).all()
        assert (built.d, built.e) == (expected.d, expected.e)


@pytest.mark.parametrize("base, message", [
    ({"spec": "file:base.txt", "d": 2}, "a file: base needs base.d and base.e"),
    ({"spec": "file:base.txt", "e": 0}, "a file: base needs base.d and base.e"),
    ({"spec": "random:12,6"}, "a random base needs base.d"),
])
def test_code_from_config_needs_the_claims_of_a_base_it_verifies(base, message):
    with pytest.raises(InvalidInput, match=message):
        code_from_config(_config(base))


def test_save_load_round_trip(code_corpus, tmp_path):
    for name, code in code_corpus:
        path = save_code(code, str(tmp_path / name))
        assert path == str(tmp_path / name) + ".json"
        loaded = load_code(path)
        assert (loaded.matrix == code.matrix).all(), name
        assert loaded.thresholds == code.thresholds
        assert loaded.sequence == code.sequence
        assert (loaded.base.matrix == code.base.matrix).all()
        assert (loaded.base.d, loaded.base.e) == (code.base.d, code.base.e)
        assert (loaded.d, loaded.e, loaded.q, loaded.mode) == (
            code.d, code.e, code.q, code.mode,
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name + ".json" for name, _ in code_corpus
    )


def _saved_identity_code(tmp_path, values):
    th = uniform_thresholds(3, 15)
    seq = verified_sequence(values, th, 2, QUANTIZED_BH)
    code = build(identity_code(4), seq, th, 2, "strict")
    return save_code(code, str(tmp_path / "code"))


def test_load_rejects_non_binary_base(tmp_path, edit_json):
    path = _saved_identity_code(tmp_path, [3, 6, 12])
    edit_json(path, "base", "matrix", 0, 1, value=2)
    with pytest.raises(CorruptCode, match="binary"):
        load_code(path)


def test_load_rejects_false_error_claim(tmp_path, edit_json):
    path = _saved_identity_code(tmp_path, [3, 6])
    # an identity base cannot correct an error: its columns have weight 1
    edit_json(path, "base", "e", value=1)
    with pytest.raises(CorruptCode, match="disjunct"):
        load_code(path)


def test_load_verifies_an_inline_base_claim(tmp_path):
    # each column lies in the union of the other two, so the base is not
    # 2-disjunct, and decoding under the claim gives wrong answers
    matrix = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert not verify_disjunct(np.array(matrix), 2, 0)
    path = tmp_path / "code.json"
    path.write_text(json.dumps({
        "thresholds": list(range(0, 46, 3)),
        "base": {"d": 2, "e": 0, "matrix": matrix},
        "sequence": {"kind": "sqlo-s", "h": 2, "values": [3, 6, 12]},
        "d": 2,
    }))
    with pytest.raises(CorruptCode, match="not 2-disjunct"):
        load_code(str(path))


def test_load_rejects_a_negative_error_claim(tmp_path, edit_json):
    path = _saved_identity_code(tmp_path, [3, 6])
    edit_json(path, "base", "e", value=-1)
    with pytest.raises(CorruptCode, match="e must be >= 0"):
        load_code(path)


def test_verify_sq_separable_bins_above_255():
    # columns 1*c and 257*c of one base column differ by 256 in every row
    # they touch: distinct result vectors whose bins agree modulo 256
    th = unit_thresholds(600)
    seq = verified_sequence([1, 257], th, 2, SQLO_S)
    code = build(replicated_identity(3, 3), seq, th, 2, "strict")
    for u in (1, 2):
        expected = min_distance_by_syndrome(code, 1, u)
        assert expected >= 3
        assert verify_sq_separable(code, 1, u, 1)
        assert verify_sq_separable(code, 1, u, 2) == (expected >= 5)


def test_load_rejects_sidecar_that_is_not_json(tmp_path):
    path = _saved_identity_code(tmp_path, [3, 6])
    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(CorruptCode, match="not valid JSON"):
        load_code(path)


@pytest.mark.parametrize("key", ["d", "base", "sequence", "thresholds"])
def test_load_rejects_sidecar_without_a_key(tmp_path, edit_json, key):
    path = _saved_identity_code(tmp_path, [3, 6])
    edit_json(path, key)
    with pytest.raises(CorruptCode, match=f"missing key '{key}'"):
        load_code(path)
