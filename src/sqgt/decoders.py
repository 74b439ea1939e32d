"""Zero-error decoders for the three code families.

All three share the same support-recovery step: a base column survives
iff its nonzero coordinates are contradicted by the result vector in at
most e places.  They differ in how the multiplier subset per support is
recovered: an ordered subset-sum table for quantized B_h codes, and for
the SQLO families the majority bin of 2e+1 witness coordinates, solved by
one knapsack call over the whole bin, so a decode costs O(K) per support
whatever the bin width.  Per-code state (column supports, the block map,
the subset-sum table) comes from the code's shared plan, ``SqgtCode.plan``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import TestOutcome
from .codebook import SqgtCode
from .errors import (
    DecodingFailure,
    InvalidBase,
    InvalidBin,
    InvalidInput,
    UnsupportedKind,
)
from .sequences import QUANTIZED_BH, SQLO_L, SQLO_S, knapsack_solve


@dataclass(frozen=True)
class DecodedResult:
    defectives: frozenset[int]  # column indices into the code
    per_support: tuple[tuple[int, tuple[int, ...]], ...]  # (base col, multipliers)
    warning: str | None = None


def recover_support(y, base_matrix: np.ndarray, e: int) -> list[int]:
    """Base columns whose nonzero coordinates exceed y in at most e places."""
    y = np.asarray(_y_values(y))
    if y.shape[0] != base_matrix.shape[0]:
        raise InvalidInput(
            f"result length {y.shape[0]} != base row count {base_matrix.shape[0]}"
        )
    violations = (base_matrix > y[:, None]).sum(axis=0)
    return [int(i) for i in np.nonzero(violations <= e)[0]]


def select_witness_coords(y, support: Sequence[int], e: int) -> list[int]:
    """The 2e+1 support coordinates with the smallest result values, in
    ascending order of value, ties broken by ascending coordinate index."""
    need = 2 * e + 1
    if len(support) < need:
        raise InvalidBase(
            f"support of size {len(support)} cannot supply {need} witness coordinates"
        )
    yv = _y_values(y)
    return sorted(support, key=lambda j: (yv[j], j))[:need]


def _y_values(y) -> tuple[int, ...]:
    if isinstance(y, TestOutcome):
        return y.y
    if isinstance(y, tuple):
        return y
    return tuple(int(v) for v in y)


def _result_values(y, code: SqgtCode) -> tuple[int, ...]:
    """y as a tuple of bin indices, each checked to lie in [0, Q)."""
    yv = _y_values(y)
    if yv and (min(yv) < 0 or max(yv) >= code.thresholds.Q):
        raise InvalidBin(f"result values must lie in [0, {code.thresholds.Q})")
    return yv


def _empty_result() -> DecodedResult:
    return DecodedResult(
        frozenset(), (), warning="no defectives recovered or contract violated"
    )


def _columns_for(code: SqgtCode, base_col: int, multipliers) -> set[int]:
    block_of = code.plan.block_of
    return {block_of[a] * code.base_n + base_col for a in multipliers}


def dec_qbh(y, code: SqgtCode) -> DecodedResult:
    """Table decoder: per recovered support, pick the largest subset sum
    consistent (up to e exceptions) with the upper thresholds of the
    observed bins."""
    if code.sequence.kind != QUANTIZED_BH:
        raise UnsupportedKind(f"code built from a {code.sequence.kind} sequence")
    yv = _result_values(y, code)
    supports = recover_support(yv, code.base.matrix, code.e)
    if not supports:
        return _empty_result()
    plan = code.plan
    eta = code.thresholds.eta
    defectives: set[int] = set()
    per_support = []
    for i in supports:
        # beta * x_i(j) < u(j) must hold on all but e support coordinates
        # (zero coordinates satisfy it vacuously), so beta stays below the
        # (e+1)-th smallest upper threshold over the support.
        upper = sorted(eta[yv[j] + 1] for j in plan.coords[i])
        k = len(plan.sums)
        if len(upper) > code.e:
            k = bisect_left(plan.sums, upper[code.e])
        if k == 0:
            raise DecodingFailure(
                f"no subset sum consistent with support column {i}"
            )
        multipliers = tuple(sorted(plan.subsets[k - 1]))
        per_support.append((i, multipliers))
        defectives |= _columns_for(code, i, multipliers)
    return DecodedResult(frozenset(defectives), tuple(per_support))


def _dec_sqlo(y, code: SqgtCode, kind: str) -> DecodedResult:
    if code.sequence.kind != kind:
        raise UnsupportedKind(
            f"code built from a {code.sequence.kind} sequence, expected {kind}"
        )
    yv = _result_values(y, code)
    supports = recover_support(yv, code.base.matrix, code.e)
    if not supports:
        return _empty_result()
    plan = code.plan
    eta = code.thresholds.eta
    e = code.e
    defectives: set[int] = set()
    per_support = []
    for i in supports:
        witnesses = select_witness_coords(yv, plan.coords[i], e)
        # The witnesses come sorted by bin, so a bin held by e+1 of the 2e+1
        # is the middle one's.  The quantized B_d property puts at most one
        # subset sum in it, found by one solver call; bin 0 holds none, as
        # every element is at least eta_1.
        r = yv[witnesses[e]]
        subset = None
        if r and sum(yv[j] == r for j in witnesses) > e:
            subset = knapsack_solve(code.sequence, code.d, eta[r], eta[r + 1])
        if subset is None:
            raise DecodingFailure(
                f"support column {i}: no candidate sum reached {e + 1} witness votes"
            )
        subset = knapsack_solve(code.sequence, code.d, sum(subset))
        multipliers = tuple(sorted(subset))
        per_support.append((i, multipliers))
        defectives |= _columns_for(code, i, multipliers)
    return DecodedResult(frozenset(defectives), tuple(per_support))


def dec_sqlo_s(y, code: SqgtCode) -> DecodedResult:
    return _dec_sqlo(y, code, SQLO_S)


def dec_sqlo_l(y, code: SqgtCode) -> DecodedResult:
    return _dec_sqlo(y, code, SQLO_L)


DECODERS = {QUANTIZED_BH: dec_qbh, SQLO_S: dec_sqlo_s, SQLO_L: dec_sqlo_l}


def decode(y, code: SqgtCode) -> DecodedResult:
    """Dispatch to the decoder matching the code's sequence kind."""
    return DECODERS[code.sequence.kind](y, code)


def oracle_decode(y, code: SqgtCode) -> frozenset[int]:
    """Exhaustive maximum-agreement search over all candidate defective
    sets of size <= d; the independent reference for every decoder."""
    from itertools import combinations

    from .channel import syndrome
    from .errors import OutOfRange

    yv = np.asarray(_y_values(y))
    best: tuple[int, frozenset[int]] | None = None
    tied = False
    for size in range(1, code.d + 1):
        for subset in combinations(range(code.n), size):
            try:
                s = syndrome(code, subset)
            except OutOfRange:
                continue
            agree = int((np.asarray(s.y) == yv).sum())
            if best is None or agree > best[0]:
                best = (agree, frozenset(subset))
                tied = False
            elif agree == best[0]:
                tied = True
    if best is None or best[0] < code.m - code.e or tied:
        raise DecodingFailure("no unique candidate set within the error budget")
    return best[1]
