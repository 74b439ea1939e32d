"""Syndrome computation and adversarial error injection."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidBin, InvalidInput, OutOfRange
from .quantization import as_int, as_ints


@dataclass(frozen=True)
class TestOutcome:
    """A Q-ary result vector, optionally carrying injected-error metadata.
    Both pass the integer rule when the outcome is made, which bounds each
    value below by 0 and each error position to index y; the positions must
    strictly increase.  The injectors check their input once, each value
    below their Q too, and make each outcome they yield without the check:
    it is valid by construction."""

    y: tuple[int, ...]
    error_positions: tuple[int, ...] = ()

    def __post_init__(self):
        y = as_ints(self.y, "result value", InvalidBin, least=0)
        positions = as_ints(self.error_positions, "error position", least=0, most=len(y) - 1)
        if len(positions) > 1 and any(a >= b for a, b in zip(positions, positions[1:])):
            raise InvalidInput(f"error positions must strictly increase, got {list(positions)}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "error_positions", positions)


def quantize_sums(thresholds, sums: np.ndarray) -> np.ndarray:
    """The bin of each non-negative sum in a 2-D array, one row per column
    set.  OutOfRange names the first row's coordinate that reaches the top;
    below it each sum indexes a table of every integer's bin, used where the
    top is no larger than the number of sums, else it is binary-searched."""
    eta = thresholds.eta
    if sums.max() >= eta[-1]:
        row = sums[int((sums.max(axis=1) >= eta[-1]).argmax())]
        k = int(row.argmax())
        raise OutOfRange(f"coordinate {k}: sum {int(row[k])} >= top threshold {eta[-1]}")
    if eta[-1] <= sums.size:
        return np.repeat(np.arange(thresholds.Q), np.diff(thresholds.array))[sums]
    return np.searchsorted(thresholds.array, sums, side="right") - 1


def syndrome(code, defectives: Iterable[int]) -> TestOutcome:
    """The adder channel and the quantizer: the bins of the coordinate-wise
    sum of the defective columns.  OutOfRange names the coordinate whose sum
    reaches the top threshold."""
    n = code.matrix.shape[1]
    idx = sorted(set(as_ints(defectives, "column index", least=0, most=n - 1)))
    if not idx:
        raise InvalidInput("defective set must be nonempty")
    sums = code.matrix.T[np.asarray([idx], dtype=np.intp)].sum(axis=1)
    return TestOutcome(tuple(quantize_sums(code.thresholds, sums)[0].tolist()))


def inject_explicit(outcome: TestOutcome, changes: Sequence[tuple[int, int]], Q: int) -> TestOutcome:
    """Apply an explicit list of (coordinate, new value) changes, at most
    one per coordinate.  As in the other injectors, each input value lies in [Q]."""
    changes, Q = list(changes), as_int(Q, "Q", 1)
    y = list(as_ints(outcome.y, "result value", InvalidBin, 0, Q - 1))
    positions = as_ints((pos for pos, _ in changes), "error position", InvalidInput, 0, len(y) - 1)
    values = as_ints((val for _, val in changes), "error value", InvalidBin, 0, Q - 1)
    for pos, val in zip(positions, values):
        if y[pos] != outcome.y[pos]:  # every change changes its coordinate
            raise InvalidInput(f"error position {pos} given twice")
        if val == y[pos]:
            raise InvalidInput(f"value at position {pos} unchanged; not an error")
        y[pos] = val
    return TestOutcome(tuple(y), tuple(sorted(positions)))


def _injected(y: tuple[int, ...], positions: tuple[int, ...]) -> TestOutcome:
    """A TestOutcome made unchecked: each value lies in range(Q), and the
    positions come from combinations(range(m), t)."""
    outcome = object.__new__(TestOutcome)
    vars(outcome).update(y=y, error_positions=positions)
    return outcome


def inject_exhaustive(outcome: TestOutcome, e: int, Q: int) -> Iterator[TestOutcome]:
    """Stream every outcome differing from the input in <= e coordinates,
    each changed entry taking any other value in [Q].  The clean outcome
    is emitted first (the zero-change pattern).  The input is checked once,
    each value in [Q]; the outcomes are valid by construction, so they are
    not checked."""
    e, Q = as_int(e, "e", 0), as_int(Q, "Q", 1)
    if not isinstance(outcome, TestOutcome):
        outcome = TestOutcome(outcome.y)
    y = as_ints(outcome.y, "result value", InvalidBin, 0, Q - 1)
    yield outcome
    for t in range(1, min(e, len(y)) + 1):  # at most m coordinates can change
        for coords in combinations(range(len(y)), t):
            # the changes before the last coordinate, then each last value
            k = coords[-1]
            for vals in product(*[[v for v in range(Q) if v != y[j]] for j in coords[:-1]]):
                z = list(y)
                for j, v in zip(coords, vals):
                    z[j] = v
                pre, post = tuple(z[:k]), y[k + 1 :]
                for v in range(Q):
                    if v != y[k]:
                        yield _injected(pre + (v,) + post, coords)


def inject_random(
    outcome: TestOutcome, e: int, Q: int, seed: int | tuple[int, ...], count: int
) -> Iterator[TestOutcome]:
    """Deterministic seeded sampling of <= e-error patterns; at most m
    coordinates can change.  The seed is an int or a tuple of ints, such as
    a campaign's (seed, defective-set index), each at least 0.  As in
    inject_exhaustive, only the input is checked."""
    e, Q, count = as_int(e, "e", 0), as_int(Q, "Q", 1), as_int(count, "count", 0)
    seed = as_ints(seed, "seed", least=0) if isinstance(seed, tuple) else as_int(seed, "seed", 0)
    if not isinstance(outcome, TestOutcome):
        outcome = TestOutcome(outcome.y)
    y = as_ints(outcome.y, "result value", InvalidBin, 0, Q - 1)
    rng, m = np.random.default_rng(seed), len(y)
    for _ in range(count):
        t = int(rng.integers(0, min(e, m) + 1))
        coords = tuple(sorted(rng.choice(m, size=t, replace=False).tolist())) if t else ()
        if Q == 1:  # y is all 0, and a 0 has no other value: as in inject_exhaustive
            coords = ()
        z = list(y)
        for k in coords:
            # an index into the values of range(Q) other than y[k]
            i = int(rng.integers(0, Q - 1))
            z[k] = i + (i >= y[k])
        yield _injected(tuple(z), coords)
