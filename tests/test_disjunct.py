from dataclasses import fields

import numpy as np
import pytest

from sqgt import (
    BinaryDisjunctCode,
    InvalidInput,
    identity_code,
    kautz_singleton,
    random_code,
    replicated_identity,
    user_code,
    verify_disjunct,
)


def test_identity_is_maximally_disjunct():
    code = identity_code(3)
    assert (code.d, code.e) == (2, 0)
    assert verify_disjunct(code.matrix, 2, 0)
    # each column has a single private row, so no error slack exists
    assert not verify_disjunct(code.matrix, 1, 1)
    with pytest.raises(InvalidInput):
        identity_code(3, e=1)
    with pytest.raises(InvalidInput):
        identity_code(1)


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
