import json
import math
from itertools import combinations

import numpy as np
import pytest

from sqgt import (
    BinaryDisjunctCode,
    BudgetExceeded,
    CorruptCode,
    HeadroomError,
    InfeasibleThresholds,
    InvalidInput,
    OutOfRange,
    ParameterError,
    QUANTIZED_BH,
    SQLO_S,
    SqgtCode,
    Thresholds,
    build,
    feasibility_report,
    identity_code,
    kautz_singleton,
    load_code,
    pair_sequence,
    replicated_identity,
    save_code,
    syndrome,
    unit_thresholds,
    uniform_thresholds,
    verified_sequence,
    verify_sq_separable,
)
from sqgt.codebook import matrix_from_text, matrix_to_text


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


def test_column_block_round_trip(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    for col in range(code.n):
        j, i = code.column_block(col)
        assert col == j * code.base_n + i
        assert code.matrix[:, col].tolist() == (
            code.sequence.values[j] * code.base.matrix[:, i]
        ).tolist()
    with pytest.raises(InvalidInput):
        code.column_block(code.n)


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


def test_build_revalidates_other_thresholds(th_step3_tall, th_gaps):
    seq = verified_sequence([3, 6, 12], th_step3_tall, 2, QUANTIZED_BH)
    with pytest.raises(ParameterError):
        build(identity_code(3), seq, th_gaps, 2, "permissive")


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


def test_verify_sq_separable_budget(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    with pytest.raises(BudgetExceeded):
        verify_sq_separable(code, 1, 2, 0, budget=10)
    with pytest.raises(InvalidInput):
        verify_sq_separable(code, 0, 2, 0)
    with pytest.raises(InvalidInput):
        verify_sq_separable(code, 1, 2, -1)


def _min_distance_by_syndrome(code, l, u):
    """Smallest distance between result vectors of distinct sets of l..u
    columns, one syndrome() call per set; the OutOfRange message if a set
    overflows."""
    try:
        rows = np.array([
            syndrome(code, s).y
            for size in range(l, u + 1)
            for s in combinations(range(code.n), size)
        ])
    except OutOfRange as exc:
        return str(exc)
    dist = (rows[:, None, :] != rows[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, code.m + 1)
    return int(dist.min())


@pytest.mark.parametrize("name", [
    "qbh-ks3-d2", "qbh-rep4-d2-e1", "sqs-i3-d1", "sqs-rep3-d2-e1-perm",
    "sqs-ks3-tall-d2", "sql-i4-d2", "sql-rep3-d2-e1", "sql-ks3-d2",
])
def test_verify_sq_separable_matches_syndrome_loop(code_corpus, name):
    code = _entry(code_corpus, name)
    for l, u in ((1, code.d), (1, code.d + 1), (2, code.d + 1)):
        u = min(u, code.n)
        expected = _min_distance_by_syndrome(code, l, u)
        for e in (0, 1, 2):
            if isinstance(expected, str):
                with pytest.raises(OutOfRange) as info:
                    verify_sq_separable(code, l, u, e)
                assert str(info.value) == expected
            else:
                assert verify_sq_separable(code, l, u, e) == (expected >= 2 * e + 1)


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


def test_matrix_text_round_trip(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    text = matrix_to_text(code.matrix, code.q)
    matrix, q = matrix_from_text(text)
    assert q == code.q
    assert (matrix == code.matrix).all()
    with pytest.raises(InvalidInput):
        matrix_from_text("")
    with pytest.raises(InvalidInput):
        matrix_from_text("2 2 4\n0 1\n")  # missing row
    with pytest.raises(InvalidInput):
        matrix_from_text("1 2 4\n0 9\n")  # entry outside alphabet


def test_save_load_round_trip(code_corpus, tmp_path):
    code = _entry(code_corpus, "sqs-rep3-d2-e1-perm")
    _, sidecar = save_code(code, str(tmp_path / "code"))
    loaded = load_code(sidecar)
    assert (loaded.matrix == code.matrix).all()
    assert loaded.thresholds == code.thresholds
    assert loaded.sequence == code.sequence
    assert (loaded.base.matrix == code.base.matrix).all()
    assert (loaded.d, loaded.e, loaded.q, loaded.mode) == (
        code.d, code.e, code.q, code.mode,
    )


def _saved_identity_code(tmp_path, values):
    th = uniform_thresholds(3, 15)
    seq = verified_sequence(values, th, 2, QUANTIZED_BH)
    code = build(identity_code(4), seq, th, 2, "strict")
    matrix_path, sidecar = save_code(code, str(tmp_path / "code"))
    return code, matrix_path, sidecar


def test_load_rejects_edited_later_block(tmp_path):
    code, matrix_path, sidecar = _saved_identity_code(tmp_path, [3, 6, 12])
    matrix = code.matrix.copy()
    assert matrix[0, 5] == 0  # row 0, base column 1 of multiplier block 1
    matrix[0, 5] = 6
    with open(matrix_path, "w") as fh:
        fh.write(matrix_to_text(matrix, code.q))
    with pytest.raises(CorruptCode):
        load_code(sidecar)


def test_load_rejects_false_error_claim(tmp_path):
    _, _, sidecar = _saved_identity_code(tmp_path, [3, 6])
    with open(sidecar) as fh:
        data = json.load(fh)
    data["e"] = 1
    with open(sidecar, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(CorruptCode):
        load_code(sidecar)
    # claiming it for the base as well fails the column-weight test
    data["base"]["e"] = 1
    with open(sidecar, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(CorruptCode, match="weight"):
        load_code(sidecar)


def test_verify_sq_separable_bins_above_255():
    # columns 1*c and 257*c of one base column differ by 256 in every row
    # they touch: distinct result vectors whose bins agree modulo 256
    th = unit_thresholds(600)
    seq = verified_sequence([1, 257], th, 2, SQLO_S)
    code = build(replicated_identity(3, 3), seq, th, 2, "strict")
    for u in (1, 2):
        expected = _min_distance_by_syndrome(code, 1, u)
        assert expected >= 3
        assert verify_sq_separable(code, 1, u, 1)
        assert verify_sq_separable(code, 1, u, 2) == (expected >= 5)


def test_load_rejects_sidecar_that_is_not_json(tmp_path):
    _, _, sidecar = _saved_identity_code(tmp_path, [3, 6])
    with open(sidecar, "w") as fh:
        fh.write("{not json")
    with pytest.raises(CorruptCode, match="not valid JSON"):
        load_code(sidecar)


@pytest.mark.parametrize("key", ["d", "base", "matrix", "thresholds"])
def test_load_rejects_sidecar_without_a_key(tmp_path, key):
    _, _, sidecar = _saved_identity_code(tmp_path, [3, 6])
    with open(sidecar) as fh:
        data = json.load(fh)
    del data[key]
    with open(sidecar, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(CorruptCode, match=key):
        load_code(sidecar)
