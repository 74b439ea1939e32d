"""Syndrome computation and adversarial error injection."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInput, OutOfRange


@dataclass(frozen=True)
class TestOutcome:
    """A Q-ary result vector, optionally carrying injected-error metadata."""

    y: tuple[int, ...]
    error_positions: tuple[int, ...] = ()
    clean: bool = True

    def to_json(self) -> str:
        return json.dumps(
            {
                "y": list(self.y),
                "errors": [[p, self.y[p]] for p in self.error_positions],
            }
        )


def syndrome(code, defectives: Iterable[int]) -> TestOutcome:
    """Quantized coordinate-wise sum of the defective columns."""
    idx = sorted(set(int(i) for i in defectives))
    if not idx:
        raise InvalidInput("defective set must be nonempty")
    n = code.matrix.shape[1]
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInput(f"column index outside [0, {n})")
    sums = code.matrix[:, idx].sum(axis=1)
    eta = code.thresholds.eta
    if int(sums.max()) >= eta[-1]:
        k = int(sums.argmax())
        raise OutOfRange(
            f"coordinate {k}: sum {int(sums[k])} >= top threshold {eta[-1]}"
        )
    y = np.searchsorted(eta, sums, side="right") - 1
    return TestOutcome(tuple(int(v) for v in y), clean=True)


def support_signature(vectors: Iterable[Sequence[int]]) -> set[tuple[int, ...]]:
    """Set of distinct binary supports underlying the given codewords."""
    return {tuple(1 if v else 0 for v in vec) for vec in vectors}


def inject_explicit(outcome: TestOutcome, changes: Sequence[tuple[int, int]], Q: int) -> TestOutcome:
    """Apply an explicit list of (coordinate, new value) changes."""
    y = list(outcome.y)
    positions = []
    for pos, val in changes:
        if not 0 <= pos < len(y):
            raise InvalidInput(f"error position {pos} outside [0, {len(y)})")
        if not 0 <= val < Q:
            raise InvalidInput(f"error value {val} outside [0, {Q})")
        if val == y[pos]:
            raise InvalidInput(f"value at position {pos} unchanged; not an error")
        y[pos] = val
        positions.append(pos)
    return TestOutcome(tuple(y), tuple(sorted(positions)), clean=not positions)


def inject_exhaustive(outcome: TestOutcome, e: int, Q: int) -> Iterator[TestOutcome]:
    """Stream every outcome differing from the input in <= e coordinates,
    each changed entry taking any other value in [Q].  The clean outcome
    is emitted first (the zero-change pattern)."""
    if e < 0:
        raise InvalidInput(f"e must be >= 0, got {e}")
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
                yield TestOutcome(tuple(y), tuple(coords), clean=False)


def inject_random(
    outcome: TestOutcome, e: int, Q: int, seed: int, count: int
) -> Iterator[TestOutcome]:
    """Deterministic seeded sampling of <= e-error patterns; at most m
    coordinates can change."""
    if e < 0:
        raise InvalidInput(f"e must be >= 0, got {e}")
    rng = np.random.default_rng(seed)
    m = len(outcome.y)
    for _ in range(count):
        t = int(rng.integers(0, min(e, m) + 1))
        coords = tuple(sorted(rng.choice(m, size=t, replace=False).tolist())) if t else ()
        y = list(outcome.y)
        for k in coords:
            others = [v for v in range(Q) if v != outcome.y[k]]
            y[k] = int(others[rng.integers(0, len(others))])
        yield TestOutcome(tuple(y), coords, clean=not coords)
