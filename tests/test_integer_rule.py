"""One integer rule at every boundary: a value that is a bool or no integer
raises the entry point's typed error, never a truncated answer; numpy
integers are accepted as the ints they hold."""

import numpy as np
import pytest

from sqgt import (
    H_SUPERINCREASING,
    QUANTIZED_BH,
    SQLO_S,
    InvalidBin,
    InvalidInput,
    MultiplierSequence,
    TestOutcome,
    Thresholds,
    build,
    check_base,
    check_sequence,
    decode,
    identity_code,
    inject_explicit,
    syndrome,
    uniform_thresholds,
    verified_sequence,
)

TH = uniform_thresholds(3, 15)
# identity(2) scaled by 3 and 6: columns 0..3, y = (3, 0) decodes to {0, 2}
CODE = build(identity_code(2), verified_sequence([3, 6], TH, 2, QUANTIZED_BH), TH, 2)
Y = TestOutcome((3, 0, 1, 2))

# Each entry point takes the value 3 in one integer slot.
ENTRY_POINTS = {
    "Thresholds": (InvalidInput, lambda v: Thresholds((0, v, 9))),
    "MultiplierSequence": (
        InvalidInput, lambda v: MultiplierSequence([v, 6, 12], SQLO_S, 3, TH)
    ),
    "check_sequence": (InvalidInput, lambda v: check_sequence([v, 6], TH, 2, QUANTIZED_BH)),
    "check_base": (InvalidInput, lambda v: check_base([v, 6, 12], H_SUPERINCREASING, 2)),
    "syndrome": (InvalidInput, lambda v: syndrome(CODE, [0, v])),
    "inject_explicit position": (InvalidInput, lambda v: inject_explicit(Y, [(v, 5)], 8)),
    "inject_explicit value": (InvalidBin, lambda v: inject_explicit(Y, [(1, v)], 8)),
    "decode": (InvalidBin, lambda v: decode((v, 0), CODE)),
}
NOT_INTEGERS = (3.9, True, "3", np.float64(3.0))


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integers_raise_the_typed_error(entry, value):
    error, call = ENTRY_POINTS[entry]
    with pytest.raises(error, match="is not an integer"):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_are_the_ints_they_hold(entry):
    _, call = ENTRY_POINTS[entry]
    assert call(np.int64(3)) == call(3)


def test_numpy_integer_arrays_are_accepted():
    assert Thresholds(np.arange(0, 46, 3)) == TH
    assert syndrome(CODE, np.array([0, 2])) == syndrome(CODE, [0, 2])
    assert decode(np.array([3, 0]), CODE).defectives == frozenset({0, 2})


def test_a_non_sequence_is_a_typed_error():
    with pytest.raises(InvalidInput, match="is not a sequence"):
        syndrome(CODE, 3)
    with pytest.raises(InvalidBin, match="is not a sequence"):
        decode(3, CODE)
