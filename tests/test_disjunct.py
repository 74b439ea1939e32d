import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

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


def test_identity_is_the_one_copy_replicated_identity():
    for n in range(2, 7):
        a, b = identity_code(n), replicated_identity(n, 1)
        assert np.array_equal(a.matrix, b.matrix) and a.matrix.dtype == b.matrix.dtype
        assert (a.d, a.e) == (b.d, b.e) == (n - 1, 0)
    for n in (1, True, 2.0):
        with pytest.raises(InvalidInput) as identity_error:
            identity_code(n)
        with pytest.raises(InvalidInput) as replicated_error:
            replicated_identity(n, 1)
        assert str(identity_error.value) == str(replicated_error.value)


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


HUGE_BASES = {  # numpy refused each with an untyped ValueError or MemoryError
    "identity": lambda: identity_code(10**10),
    "replicated": lambda: replicated_identity(10**10, 2),
    "ks": lambda: kautz_singleton(1000003, 2),
    "random": lambda: random_code(3, 10**10, 1),
}


@pytest.mark.parametrize("make", HUGE_BASES.values(), ids=HUGE_BASES)
def test_a_huge_base_is_refused_before_it_is_made(make):
    with pytest.raises(BudgetExceeded, match=f"base has more than {disjunct.MAX_BASE_CELLS} cells$"):
        make()


def test_a_huge_field_is_refused_before_its_primality_test(monkeypatch):
    # trial division of 10**18 + 3 ran past 10 s; any field above 56 makes
    # at least q^2 x q^2 cells, past the limit whatever k is
    tested = []

    def counting(p):
        tested.append(p)
        assert p <= 56, f"primality of {p} tested before the size limit"
        return is_prime(p)

    is_prime = disjunct._is_prime
    monkeypatch.setattr(disjunct, "_is_prime", counting)
    start = time.process_time()
    for q_field, k in ((10**18 + 3, 2), (10**18 + 3, 10**18), (10**18, 2), (57, 2)):
        with pytest.raises(BudgetExceeded, match="cells$"):
            kautz_singleton(q_field, k)
    assert tested == [] and time.process_time() - start < 0.5
    with pytest.raises(InvalidInput, match="not a prime"):
        kautz_singleton(56, 2)
    assert tested == [56]


def test_a_wide_base_raises_budget_exceeded_not_memory_error():
    # Under a 2 GiB address-space limit a whole Gram matrix of a 2 x 20000 base
    # (3.2 GB) or of random_code(20, 100000, 1) (74.5 GiB) is a MemoryError; the
    # certificate takes overlaps a block of columns at a time, fails both, and the
    # search refuses them on its budget.  The 2-of-81 base (81 x 3240, every pair
    # of rows) is past what the search can afford, and the certificate proves it.
    script = """if True:
        import resource
        from itertools import combinations
        import numpy as np
        from sqgt import random_code, verify_disjunct
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
        pairs = np.zeros((81, 3240), dtype=int)
        for col, rows in enumerate(combinations(range(81), 2)):
            pairs[rows, col] = 1
        for make in (lambda: verify_disjunct(np.tile(np.eye(2, dtype=int), 10000), 1, 0),
                     lambda: random_code(20, 100000, 1), lambda: verify_disjunct(pairs, 1, 0)):
            try:
                print(make())
            except Exception as exc:
                print(type(exc).__name__)
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120, env=env, check=True)
    assert out.stdout.split() == ["BudgetExceeded", "BudgetExceeded", "True"], out.stdout


@pytest.mark.parametrize("cells", [1, 7, 30, 10**7])
def test_the_blocked_certificate_is_the_whole_gram_bound(monkeypatch, cells):
    # whatever the block size, the bound is the one an n x n Gram matrix gives
    monkeypatch.setattr(disjunct, "MAX_BASE_CELLS", cells)
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, n = rng.integers(2, 9, size=2)
        matrix = (rng.random((m, n)) < rng.random()).astype(int)
        gram = matrix.T @ matrix
        w, lam = gram.diagonal().min(), (gram - np.diag(gram.diagonal())).max()
        for d, e in ((1, 0), (2, 0), (1, 1), (3, 1)):
            assert _gram_certificate(matrix, d, e) == (w - d * lam >= 2 * e + 1), matrix


def test_the_base_limit_counts_cells(monkeypatch):
    monkeypatch.setattr(disjunct, "MAX_BASE_CELLS", 18)
    assert identity_code(4).matrix.size == 16
    assert replicated_identity(3, 2).matrix.size == 18
    for make in (lambda: identity_code(5), lambda: replicated_identity(4, 2),
                 lambda: kautz_singleton(3, 2), lambda: random_code(5, 4, 1)):
        with pytest.raises(BudgetExceeded, match="cells$"):
            make()


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
    assert [f.name for f in fields(BinaryDisjunctCode)] == ["matrix", "d", "e"]


def test_gram_certificate_settles_the_constructions():
    for code in (
        identity_code(4), kautz_singleton(3, 2), kautz_singleton(5, 2, d=2),
        replicated_identity(4, 3),
    ):
        assert _gram_certificate(code.matrix, code.d, code.e), code.matrix.shape
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
