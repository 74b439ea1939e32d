"""Syndrome computation and adversarial error injection."""

from __future__ import annotations

import json
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
    error position to index y."""

    y: tuple[int, ...]
    error_positions: tuple[int, ...] = ()

    def __post_init__(self):
        y = as_ints(self.y, "result value", InvalidBin)
        positions = as_ints(self.error_positions, "error position", least=0, most=len(y) - 1)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "error_positions", positions)

    @property
    def clean(self) -> bool:
        return not self.error_positions

    def to_json(self) -> str:
        return json.dumps(
            {
                "y": list(self.y),
                "errors": [[p, self.y[p]] for p in self.error_positions],
            }
        )


def syndromes(code, sets) -> np.ndarray:
    """The adder channel and the quantizer: the result vector of each of
    equally large column sets, one row per set, binned from the
    coordinate-wise sum of its columns.  OutOfRange names the first set's
    coordinate whose sum reaches the top threshold."""
    sums = code.matrix.T[np.asarray(sets, dtype=np.intp)].sum(axis=1)
    eta = code.thresholds.eta
    if sums.max() >= eta[-1]:
        row = sums[int((sums.max(axis=1) >= eta[-1]).argmax())]
        k = int(row.argmax())
        raise OutOfRange(f"coordinate {k}: sum {int(row[k])} >= top threshold {eta[-1]}")
    return np.searchsorted(code.thresholds.array, sums, side="right") - 1


def syndrome(code, defectives: Iterable[int]) -> TestOutcome:
    """Quantized coordinate-wise sum of the defective columns."""
    n = code.matrix.shape[1]
    idx = sorted(set(as_ints(defectives, "column index", least=0, most=n - 1)))
    if not idx:
        raise InvalidInput("defective set must be nonempty")
    return TestOutcome(tuple(syndromes(code, [idx])[0].tolist()))


def inject_explicit(outcome: TestOutcome, changes: Sequence[tuple[int, int]], Q: int) -> TestOutcome:
    """Apply an explicit list of (coordinate, new value) changes, at most
    one per coordinate."""
    changes, Q, y = list(changes), as_int(Q, "Q", 1), list(outcome.y)
    positions = as_ints((pos for pos, _ in changes), "error position", InvalidInput, 0, len(y) - 1)
    values = as_ints((val for _, val in changes), "error value", InvalidBin, 0, Q - 1)
    for pos, val in zip(positions, values):
        if y[pos] != outcome.y[pos]:  # every change changes its coordinate
            raise InvalidInput(f"error position {pos} given twice")
        if val == y[pos]:
            raise InvalidInput(f"value at position {pos} unchanged; not an error")
        y[pos] = val
    return TestOutcome(tuple(y), tuple(sorted(positions)))


def inject_exhaustive(outcome: TestOutcome, e: int, Q: int) -> Iterator[TestOutcome]:
    """Stream every outcome differing from the input in <= e coordinates,
    each changed entry taking any other value in [Q].  The clean outcome
    is emitted first (the zero-change pattern)."""
    e, Q = as_int(e, "e", 0), as_int(Q, "Q", 1)
    m = len(outcome.y)
    yield outcome
    for t in range(1, e + 1):
        for coords in combinations(range(m), t):
            choices = [
                [v for v in range(Q) if v != outcome.y[k]] for k in coords
            ]
            for vals in product(*choices):
                y = list(outcome.y)
                for k, v in zip(coords, vals):
                    y[k] = v
                yield TestOutcome(tuple(y), tuple(coords))


def inject_random(
    outcome: TestOutcome, e: int, Q: int, seed: int | tuple[int, ...], count: int
) -> Iterator[TestOutcome]:
    """Deterministic seeded sampling of <= e-error patterns; at most m
    coordinates can change.  The seed is an int or a tuple of ints, such as
    a campaign's (seed, defective-set index), each at least 0."""
    e, Q, count = as_int(e, "e", 0), as_int(Q, "Q", 1), as_int(count, "count", 0)
    seed = as_ints(seed, "seed", least=0) if isinstance(seed, tuple) else as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    m = len(outcome.y)
    for _ in range(count):
        t = int(rng.integers(0, min(e, m) + 1))
        coords = tuple(sorted(rng.choice(m, size=t, replace=False).tolist())) if t else ()
        y = list(outcome.y)
        for k in coords:
            others = [v for v in range(Q) if v != outcome.y[k]]
            y[k] = int(others[rng.integers(0, len(others))])
        yield TestOutcome(tuple(y), coords)
