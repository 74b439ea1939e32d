from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sqgt import (
    BinaryDisjunctCode,
    BudgetExceeded,
    InvalidInput,
    identity_code,
    kautz_singleton,
    random_code,
    replicated_identity,
    user_code,
    verify_disjunct,
)
from sqgt import disjunct
from sqgt.disjunct import _gram_certificate, _search_disjunct


def test_identity_is_maximally_disjunct():
    code = identity_code(3)
    assert (code.d, code.e) == (2, 0)
    assert verify_disjunct(code.matrix, 2, 0)
    # each column has a single private row, so no error slack exists
    assert not verify_disjunct(code.matrix, 1, 1)
    with pytest.raises(InvalidInput):
        identity_code(1)


def test_random_code_gives_up_after_its_retries():
    # two rows leave no column a private row against every other one
    with pytest.raises(InvalidInput, match=f"in {disjunct.MAX_RETRIES} attempts"):
        random_code(2, 6, 1)


def test_duplicate_columns_are_not_disjunct():
    matrix = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 1]])
    assert not verify_disjunct(matrix, 1, 0)


def test_verify_disjunct_input_checks():
    with pytest.raises(InvalidInput):
        verify_disjunct(np.array([[0, 2], [1, 0]]), 1, 0)
    with pytest.raises(InvalidInput):
        verify_disjunct(np.eye(3, dtype=int), 3, 0)  # d must stay below n


def test_kautz_singleton_small():
    code = kautz_singleton(3, 2)
    assert (code.m, code.n) == (9, 9)
    assert (code.matrix.sum(axis=0) == 3).all()  # constant column weight
    assert (code.d, code.e) == (2, 0)
    assert verify_disjunct(code.matrix, 2, 0)


def test_kautz_singleton_error_correcting():
    code = kautz_singleton(5, 2, d=2)
    assert (code.m, code.n) == (25, 25)
    assert (code.d, code.e) == (2, 1)
    assert verify_disjunct(code.matrix, 2, 1)


def test_kautz_singleton_parameter_errors():
    with pytest.raises(InvalidInput):
        kautz_singleton(4, 2)  # not a prime field
    with pytest.raises(InvalidInput):
        kautz_singleton(3, 4)  # k > q_field
    with pytest.raises(InvalidInput):
        kautz_singleton(5, 2, d=5)  # beyond d_max = 4


def test_replicated_identity():
    code = replicated_identity(4, 3)
    assert (code.m, code.n) == (12, 4)
    assert (code.d, code.e) == (3, 1)
    assert verify_disjunct(code.matrix, 3, 1)
    assert not verify_disjunct(code.matrix, 3, 2)


def test_random_code_is_verified_and_deterministic():
    a = random_code(12, 6, 1, seed=7)
    b = random_code(12, 6, 1, seed=7)
    assert (a.matrix == b.matrix).all()
    assert verify_disjunct(a.matrix, 1, 0)


def test_user_code_round_trip():
    base = kautz_singleton(3, 2)
    wrapped = user_code(base.matrix, 2, 0)
    assert wrapped.d == 2
    with pytest.raises(InvalidInput):
        user_code(np.eye(3, dtype=int), 2, 1)


def test_bases_keep_no_unused_knobs():
    # a user-supplied base is always verified, and no construction
    # parameters are stored that nothing reads
    with pytest.raises(TypeError):
        user_code(np.eye(3, dtype=int), 2, 0, verify=False)
    with pytest.raises(TypeError):
        random_code(12, 6, 1, max_retries=1)
    assert [f.name for f in fields(BinaryDisjunctCode)] == ["matrix", "d", "e", "provenance"]


def test_gram_certificate_settles_the_constructions():
    for code in (
        identity_code(4), kautz_singleton(3, 2), kautz_singleton(5, 2, d=2),
        replicated_identity(4, 3),
    ):
        assert _gram_certificate(code.matrix, code.d, code.e), code.provenance
    # columns {0}, {1,2,3} and {1,2,4}: weight 1 and overlap 2 defeat the
    # certificate, but each column keeps a row from any other one
    matrix = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1]])
    assert not _gram_certificate(matrix, 1, 0)
    assert verify_disjunct(matrix, 1, 0)


def test_the_search_past_its_limit_is_refused(monkeypatch):
    # the matrix above needs the search: 3 columns x C(2, 1) others = 6 checks
    matrix = np.array([[1, 0, 0], [0, 1, 1], [0, 1, 1], [0, 1, 0], [0, 0, 1]])
    monkeypatch.setattr(disjunct, "MAX_SEARCH_CHECKS", 5)
    with pytest.raises(BudgetExceeded, match="6 column checks"):
        verify_disjunct(matrix, 1, 0)
    # a base the Gram certificate settles needs no search
    assert verify_disjunct(np.eye(3, dtype=int), 2, 0)


def test_a_matrix_of_non_integers_is_refused_not_truncated():
    with pytest.raises(InvalidInput, match="binary integer"):
        user_code([[1, 0.5], [0.7, 1]], 1, 0)
    with pytest.raises(InvalidInput, match="binary integer"):
        verify_disjunct(np.eye(3), 2, 0)
    assert user_code(np.eye(3, dtype=np.uint8), 2, 0).matrix.dtype == int


@given(
    st.integers(2, 8).flatmap(
        lambda m: st.lists(
            st.frozensets(st.integers(0, m - 1), min_size=1, max_size=3),
            min_size=2, max_size=6,
        ).map(lambda cols: np.array([[int(r in c) for c in cols] for r in range(m)]))
    ),
    st.integers(1, 4),
    st.integers(0, 2),
)
@example(np.eye(4, dtype=int), 3, 0)
@example(np.repeat(np.eye(3, dtype=int), 3, axis=0), 2, 1)
@settings(max_examples=400, deadline=None)
def test_gram_certificate_never_accepts_what_the_search_rejects(matrix, d, e):
    d = min(d, matrix.shape[1] - 1)
    found = _search_disjunct(matrix, d, e)
    if _gram_certificate(matrix, d, e):
        assert found
    assert verify_disjunct(matrix, d, e) == found


def test_verify_disjunct_rejects_a_negative_e():
    with pytest.raises(InvalidInput, match="e must be >= 0"):
        verify_disjunct(np.eye(3, dtype=int), 2, -1)
