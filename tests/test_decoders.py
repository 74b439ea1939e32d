from itertools import combinations

import numpy as np
import pytest

from sqgt import (
    QUANTIZED_BH,
    BinaryDisjunctCode,
    DecodingFailure,
    InvalidBase,
    InvalidBin,
    InvalidInput,
    build,
    decode,
    inject_exhaustive,
    recover_support,
    select_witness_coords,
    syndrome,
    uniform_thresholds,
    verified_sequence,
)

from oracles import oracle_decode, reference_supports


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


def test_select_witness_coords():
    # smallest result values win, ties broken by index
    one_column = [[1]] * 4
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 1), 0) == [1, 2, 3]
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 0), 0) == [1]
    with pytest.raises(InvalidBase):
        select_witness_coords((5, 1), _code([[1]] * 2, 1), 0)  # needs 3 coordinates


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
