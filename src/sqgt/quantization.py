"""Quantizer thresholds and the bin-indexing function.

A threshold vector eta = [0, eta_1, ..., eta_Q] splits the non-negative
integers below eta_Q into Q bins; bin r is the half-open interval
[eta_r, eta_{r+1}).  Everything else in the package is expressed through
this mapping.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidBin, InvalidInput, OutOfRange


@dataclass(frozen=True)
class Thresholds:
    """Strictly increasing integer thresholds starting at 0."""

    eta: tuple[int, ...]

    def __post_init__(self):
        eta = tuple(int(v) for v in self.eta)
        object.__setattr__(self, "eta", eta)
        if len(eta) < 2:
            raise InvalidInput("need at least two thresholds (Q >= 1)")
        if eta[0] != 0:
            raise InvalidInput(f"first threshold must be 0, got {eta[0]}")
        for a, b in zip(eta, eta[1:]):
            if b <= a:
                raise InvalidInput(f"thresholds not strictly increasing at {a} -> {b}")

    @property
    def Q(self) -> int:
        return len(self.eta) - 1

    @property
    def top(self) -> int:
        """Largest threshold eta_Q; valid inputs are strictly below it."""
        return self.eta[-1]

    def max_gap(self, s: int | None = None) -> int:
        """Largest gap between consecutive thresholds among the first s."""
        s = self.Q if s is None else s
        if not 1 <= s <= self.Q:
            raise InvalidInput(f"s must be in [1, {self.Q}], got {s}")
        return max(self.eta[i] - self.eta[i - 1] for i in range(1, s + 1))

    def to_json(self) -> str:
        return json.dumps(list(self.eta))

    @classmethod
    def from_json(cls, text: str) -> "Thresholds":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"thresholds are not valid JSON: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
            raise InvalidInput("thresholds must be a JSON array of integers")
        return cls(tuple(data))


def quantize(th: Thresholds, alpha: int) -> int:
    """Index of the bin containing alpha: eta[r] <= alpha < eta[r+1]."""
    if alpha < 0:
        raise OutOfRange(f"negative value {alpha}")
    if alpha >= th.top:
        raise OutOfRange(
            f"value {alpha} >= top threshold {th.top}; "
            "the model requires all sums to stay below it"
        )
    return bisect_right(th.eta, alpha) - 1


def quantize_vector(th: Thresholds, values: Iterable[int]) -> tuple[int, ...]:
    """Element-wise quantize; reports the offending coordinate on error."""
    out = []
    for i, v in enumerate(values):
        try:
            out.append(quantize(th, v))
        except OutOfRange as exc:
            raise OutOfRange(f"coordinate {i}: {exc}") from exc
    return tuple(out)


def bin_greater(th: Thresholds, a: int, b: int) -> bool:
    """True iff a lands in a strictly higher bin than b."""
    return quantize(th, a) > quantize(th, b)


def bin_bounds(th: Thresholds, r: int) -> tuple[int, int]:
    """Lower (inclusive) and upper (exclusive) thresholds of bin r."""
    if not 0 <= r < th.Q:
        raise InvalidBin(f"bin index {r} outside [0, {th.Q})")
    return th.eta[r], th.eta[r + 1]


def quantize_linear_scan(th: Thresholds, alpha: int) -> int:
    """Linear-scan reference for quantize; kept as the test oracle."""
    if alpha < 0 or alpha >= th.top:
        raise OutOfRange(f"value {alpha} outside [0, {th.top})")
    for r in range(th.Q):
        if th.eta[r] <= alpha < th.eta[r + 1]:
            return r
    raise AssertionError("unreachable")


def unit_thresholds(top: int) -> Thresholds:
    """Thresholds [0, 1, ..., top]; every integer below top is its own bin."""
    return Thresholds(tuple(range(top + 1)))


def uniform_thresholds(step: int, Q: int) -> Thresholds:
    """Thresholds [0, step, 2*step, ..., Q*step]."""
    return Thresholds(tuple(step * i for i in range(Q + 1)))
