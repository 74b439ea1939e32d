"""Binary d-disjunct, e-error-correcting base matrices.

These are the building blocks every concatenated test matrix scales and
stacks.  Constructions are either analytically disjunct (identity,
Kautz-Singleton from Reed-Solomon codes) or verified (random, user
supplied): by the Gram certificate where it holds, else by exhaustive
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, InvalidInput
from .quantization import as_int

MAX_SEARCH_CHECKS = 10**8  # column checks the exhaustive search may make
MAX_RETRIES = 50  # random_code draws before giving up


@dataclass(frozen=True)
class BinaryDisjunctCode:
    matrix: np.ndarray  # m x n over {0, 1}
    d: int
    e: int
    provenance: str = "user-supplied"

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def _gram_certificate(matrix: np.ndarray, d: int, e: int) -> bool:
    """The Kautz-Singleton bound, a sufficient condition: with the smallest
    column weight w and the largest overlap lambda of two columns, any d
    other columns cover at most d*lambda rows of a column, so w - d*lambda
    >= 2e+1 leaves every column enough private rows."""
    gram = matrix.T.astype(int) @ matrix
    w = int(gram.diagonal().min())
    np.fill_diagonal(gram, 0)
    return w - d * int(gram.max()) >= 2 * e + 1


def verify_disjunct(matrix: np.ndarray, d: int, e: int) -> bool:
    """Check of the disjunctness definition: every column keeps >= 2e+1 rows
    private from the union of any d other columns.  The Gram certificate
    settles most bases; the rest are searched exhaustively, which
    BudgetExceeded refuses past MAX_SEARCH_CHECKS checks."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.dtype.kind not in "iu" or not (
        (matrix == 0) | (matrix == 1)
    ).all():
        raise InvalidInput("matrix must be a two-dimensional binary integer array")
    d, e = as_int(d, "d", 1, matrix.shape[1] - 1), as_int(e, "e", 0)
    if _gram_certificate(matrix, d, e):
        return True
    return _search_disjunct(matrix, d, e)


def _search_disjunct(matrix: np.ndarray, d: int, e: int) -> bool:
    """The definition, tried for every column and every d others."""
    n = matrix.shape[1]
    checks = n * math.comb(n - 1, d)
    if checks > MAX_SEARCH_CHECKS:
        raise BudgetExceeded(
            f"the disjunctness search needs {checks} column checks, "
            f"more than {MAX_SEARCH_CHECKS}"
        )
    cols = matrix.T.astype(bool)
    need = 2 * e + 1
    for z in range(n):
        others = [i for i in range(n) if i != z]
        for X in combinations(others, d):
            covered = np.zeros(matrix.shape[0], dtype=bool)
            for x in X:
                covered |= cols[x]
            if int((cols[z] & ~covered).sum()) < need:
                return False
    return True


def identity_code(n: int) -> BinaryDisjunctCode:
    """n x n identity: (n-1)-disjunct, but each column has exactly one
    private coordinate, so e = 0."""
    n = as_int(n, "n", 2)
    return BinaryDisjunctCode(np.eye(n, dtype=int), d=n - 1, e=0, provenance="identity")


def _is_prime(p: int) -> bool:
    """Whether p is prime; p >= 2, as kautz_singleton's integer rule checks."""
    return all(p % f for f in range(2, int(p**0.5) + 1))


def kautz_singleton(
    q_field: int, k: int, d: int | None = None
) -> BinaryDisjunctCode:
    """Reed-Solomon evaluation code over GF(q_field) mapped row-wise by the
    indicator embedding: q_field^2 binary rows, q_field^k columns of
    constant weight q_field.  Two columns agree in at most k-1 rows, so
    w - d(k-1) private rows survive any d other columns.

    Only prime fields are supported; extension-field arithmetic is out of
    scope for the desk-scale instances this package targets.
    """
    q_field = as_int(q_field, "q_field", 2)
    if not _is_prime(q_field):
        raise InvalidInput(f"q_field={q_field} is not a prime (prime fields only)")
    k = as_int(k, "k", 2, q_field)
    w = q_field
    d_max = (w - 1) // (k - 1)
    d = d_max if d is None else as_int(d, "d", 1, d_max)
    e = (w - d * (k - 1) - 1) // 2

    n = q_field**k
    matrix = np.zeros((q_field * q_field, n), dtype=int)
    for col, coeffs in enumerate(product(range(q_field), repeat=k)):
        for x in range(q_field):
            val = sum(c * pow(x, i, q_field) for i, c in enumerate(coeffs)) % q_field
            matrix[x * q_field + val, col] = 1
    return BinaryDisjunctCode(matrix, d=d, e=e, provenance="kautz-singleton")


def random_code(
    m: int,
    n: int,
    d: int,
    e: int = 0,
    density: float | None = None,
    seed: int = 0,
) -> BinaryDisjunctCode:
    """i.i.d. Bernoulli draws, emitted only after passing verify_disjunct;
    a failed draw retries with an incremented seed."""
    m, n = as_int(m, "m", 1), as_int(n, "n", 2)
    d, e = as_int(d, "d", 1, n - 1), as_int(e, "e", 0)
    if density is None:
        density = 1.0 / (d + 1)
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        matrix = (rng.random((m, n)) < density).astype(int)
        if (matrix.sum(axis=0) == 0).any():
            continue
        if verify_disjunct(matrix, d, e):
            return BinaryDisjunctCode(matrix, d=d, e=e, provenance="random")
    raise InvalidInput(
        f"no {d}-disjunct draw with e={e} found in {MAX_RETRIES} attempts "
        f"(m={m}, n={n}, density={density})"
    )


def user_code(matrix, d: int, e: int) -> BinaryDisjunctCode:
    """Wrap a caller-supplied binary matrix, verifying its claimed
    parameters."""
    matrix = np.asarray(matrix)
    if not verify_disjunct(matrix, d, e):
        raise InvalidInput(f"matrix is not {d}-disjunct with e={e}")
    d, e = as_int(d, "d"), as_int(e, "e")  # verified above; stored as ints
    return BinaryDisjunctCode(matrix.astype(int), d=d, e=e, provenance="user-supplied")


def replicated_identity(n: int, copies: int) -> BinaryDisjunctCode:
    """Identity with each row repeated `copies` times: every column owns
    `copies` private rows, giving e = (copies - 1) // 2."""
    n, copies = as_int(n, "n", 2), as_int(copies, "copies", 1)
    matrix = np.repeat(np.eye(n, dtype=int), copies, axis=0)
    return BinaryDisjunctCode(
        matrix, d=n - 1, e=(copies - 1) // 2, provenance="replicated-identity"
    )
