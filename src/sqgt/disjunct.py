"""Binary d-disjunct, e-error-correcting base matrices.

These are the building blocks every concatenated test matrix scales and
stacks.  Constructions are either analytically disjunct (identity,
Kautz-Singleton from Reed-Solomon codes) or brute-force verified
(random, user supplied).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import InvalidInput

DEFAULT_VERIFY_BUDGET = 10**8
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


def verify_disjunct(
    matrix: np.ndarray, d: int, e: int, budget: int = DEFAULT_VERIFY_BUDGET
) -> bool:
    """Brute-force check of the disjunctness definition: every column keeps
    >= 2e+1 rows private from the union of any d other columns."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or not np.isin(matrix, (0, 1)).all():
        raise InvalidInput("matrix must be binary and two-dimensional")
    n = matrix.shape[1]
    if not 1 <= d < n:
        raise InvalidInput(f"need 1 <= d < n, got d={d}, n={n}")
    checks = n * math.comb(n - 1, d)
    if checks > budget:
        warnings.warn(
            f"verify_disjunct will perform ~{checks} subset checks "
            f"(budget {budget}); this may take a while",
            stacklevel=2,
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


def identity_code(n: int, e: int = 0) -> BinaryDisjunctCode:
    """n x n identity: (n-1)-disjunct, but each column has exactly one
    private coordinate, so e must be 0."""
    if n < 2:
        raise InvalidInput(f"need n >= 2, got {n}")
    if e != 0:
        raise InvalidInput("identity columns have weight 1; e > 0 is impossible")
    return BinaryDisjunctCode(np.eye(n, dtype=int), d=n - 1, e=0, provenance="identity")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
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
    if not _is_prime(q_field):
        raise InvalidInput(f"q_field={q_field} is not a prime (prime fields only)")
    if not 2 <= k <= q_field:
        raise InvalidInput(f"need 2 <= k <= q_field, got k={k}, q_field={q_field}")
    w = q_field
    d_max = (w - 1) // (k - 1)
    if d is None:
        d = d_max
    if not 1 <= d <= d_max:
        raise InvalidInput(f"requested d={d} outside [1, {d_max}] for these parameters")
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
    """Wrap a caller-supplied binary matrix, brute-force verifying its
    claimed parameters."""
    matrix = np.asarray(matrix, dtype=int)
    if not verify_disjunct(matrix, d, e):
        raise InvalidInput(f"matrix is not {d}-disjunct with e={e}")
    return BinaryDisjunctCode(matrix, d=d, e=e, provenance="user-supplied")


def replicated_identity(n: int, copies: int) -> BinaryDisjunctCode:
    """Identity with each row repeated `copies` times: every column owns
    `copies` private rows, giving e = (copies - 1) // 2."""
    if n < 2 or copies < 1:
        raise InvalidInput("need n >= 2 and copies >= 1")
    matrix = np.repeat(np.eye(n, dtype=int), copies, axis=0)
    return BinaryDisjunctCode(
        matrix, d=n - 1, e=(copies - 1) // 2, provenance="replicated-identity"
    )
