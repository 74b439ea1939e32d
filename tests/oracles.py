"""Reference routes the tests compare the package against; none of them
shares code with the routes it checks."""

from itertools import combinations

from sqgt import quantize


def _subsets_up_to(values, h):
    return [s for r in range(1, min(h, len(values)) + 1) for s in combinations(values, r)]


def brute_force_subset_sum(values, d: int, beta: int) -> frozenset[int] | None:
    """Enumeration oracle for knapsack_solve; independent of it."""
    for subset in _subsets_up_to(tuple(values), d):
        if sum(subset) == beta:
            return frozenset(subset)
    return None


def check_sqlo_s_via_bh(seq, th, h) -> str | None:
    """Equivalent route to SQLO_s: quantized B_h (every subset sum below the
    top, the smallest element out of bin 0, no two subsets in one bin) plus
    bin-level superincreasing."""
    subsets = _subsets_up_to(seq, h)
    for subset in subsets:
        if sum(subset) >= th.top:
            return f"subset sum {subset} >= top threshold"
    bins = [quantize(th, sum(subset)) for subset in subsets]
    if bins[0] < 1:
        return f"smallest element {seq[0]} lands in bin 0"
    if len(set(bins)) < len(bins):
        return "two subsets share a quantization bin"
    for i in range(len(seq)):
        bin_i = quantize(th, seq[i])
        for subset in _subsets_up_to(seq[:i], h):
            if bin_i <= quantize(th, sum(subset)):
                return (
                    f"element {seq[i]} does not dominate prefix subset "
                    f"{subset} at the bin level"
                )
    return None
