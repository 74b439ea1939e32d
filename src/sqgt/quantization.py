"""Quantizer thresholds and the bin-indexing function.

A threshold vector eta = [0, eta_1, ..., eta_Q] splits the non-negative
integers below eta_Q into Q bins; bin r is the half-open interval
[eta_r, eta_{r+1}).  Everything else in the package is expressed through
this mapping, and every integer the package takes passes one rule,
as_int, or as_ints for a sequence.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, OutOfRange


def as_int(value, what: str, least: int | None = None, most: int | None = None,
           error: type = InvalidInput) -> int:
    """value as an int, the one integer rule of every scalar count: `error`
    says that a bool or a non-integer is not an integer, or that the value
    lies below `least` or above `most`.  numpy integers are converted."""
    if type(value) is not int:  # a numpy integer, or no integer at all
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise error(f"{what} {value!r} is not an integer")
        value = operator.index(value)
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise error(f"{what} must be <= {most}, got {value}")
    return value


def as_ints(values, what: str, error: type = InvalidInput,
            least: int | None = None, most: int | None = None) -> tuple[int, ...]:
    """values as a tuple of ints, each under as_int's rule and bounds; the
    error names the first value that breaks them.  A tuple of ints within
    the bounds is returned as it is."""
    try:
        values = tuple(values)
    except TypeError:
        raise error(f"{what}: {values!r} is not a sequence") from None
    for v in values:
        if type(v) is not int:
            break
    else:  # all ints: only the bounds are left to check
        if not values or ((least is None or min(values) >= least)
                          and (most is None or max(values) <= most)):
            return values
    return tuple(as_int(v, what, least, most, error) for v in values)


@dataclass(frozen=True)
class Thresholds:
    """Strictly increasing integer thresholds from 0 to at most 2**63 - 1."""

    eta: tuple[int, ...]

    def __post_init__(self):
        eta = as_ints(self.eta, "threshold", most=2**63 - 1)
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

    @cached_property
    def array(self) -> np.ndarray:
        """eta as a numpy array, made once for the vectorised quantizer."""
        return np.array(self.eta)

    @property
    def top(self) -> int:
        """Largest threshold eta_Q; valid inputs are strictly below it."""
        return self.eta[-1]

    def max_gap(self, s: int | None = None) -> int:
        """Largest gap between consecutive thresholds among the first s."""
        s = self.Q if s is None else as_int(s, "s", 1, self.Q)
        return max(self.eta[i] - self.eta[i - 1] for i in range(1, s + 1))


def read_file(path: str, as_json: bool = False):
    """The text of the UTF-8 file at `path`, or with as_json the value it
    holds, the one read of every file the package takes.  A file that cannot
    be read (missing, a directory, a NUL byte in the path, not UTF-8), or
    with as_json is not JSON, is InvalidInput naming the path, also as its
    `.path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: the NUL, or the decoding
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidInput(f"cannot read {path!r}: {reason}", path=path) from exc
    try:
        return json.loads(text) if as_json else text
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidInput(f"{path!r} is not valid JSON: {exc}", path=path) from exc


def load_thresholds(spec: str) -> Thresholds:
    """Thresholds from a JSON list, or from the path of a file holding one."""
    if not spec.strip().startswith("["):
        data = read_file(spec, as_json=True)
    else:
        try:
            data = json.loads(spec)
        except (ValueError, RecursionError) as exc:
            raise InvalidInput(f"thresholds are not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InvalidInput("thresholds must be a JSON array of integers")
    return Thresholds(tuple(data))


def quantize(th: Thresholds, alpha: int) -> int:
    """Index of the bin containing alpha: eta[r] <= alpha < eta[r+1]."""
    alpha = as_int(alpha, "value")
    if alpha < 0:
        raise OutOfRange(f"negative value {alpha}")
    if alpha >= th.top:
        raise OutOfRange(
            f"value {alpha} >= top threshold {th.top}; "
            "the model requires all sums to stay below it"
        )
    return bisect_right(th.eta, alpha) - 1


def unit_thresholds(top: int) -> Thresholds:
    """Thresholds [0, 1, ..., top]; every integer below top is its own bin."""
    return Thresholds(tuple(range(as_int(top, "top", 1) + 1)))


def uniform_thresholds(step: int, Q: int) -> Thresholds:
    """Thresholds [0, step, 2*step, ..., Q*step]."""
    return Thresholds(tuple(step * i for i in range(as_int(Q, "Q", 1) + 1)))
