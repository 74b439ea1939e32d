"""One integer rule at every boundary: a value that is a bool or no integer
raises the entry point's typed error, never a truncated answer; numpy
integers are accepted as the ints they hold.  Scalar counts also raise
when they lie out of range."""

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
    base_recursive_superincreasing,
    build,
    check_base,
    check_sequence,
    decode,
    feasibility_report,
    gamma_bound,
    greedy_generate,
    identity_code,
    inject_exhaustive,
    inject_explicit,
    inject_random,
    kautz_singleton,
    knapsack_solve,
    quantize,
    random_code,
    replicated_identity,
    scaled_construction,
    simulate_campaign,
    strong_lex_base,
    subset_sums,
    syndrome,
    uniform_thresholds,
    unit_thresholds,
    verified_sequence,
    verify_disjunct,
    verify_sq_separable,
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
    "TestOutcome y": (InvalidBin, lambda v: TestOutcome((v, 0))),
    "TestOutcome error position": (InvalidInput, lambda v: TestOutcome((3, 0, 1, 2), (v,))),
    "quantize": (InvalidInput, lambda v: quantize(TH, v)),
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


# --- scalar counts ---

SEQ = CODE.sequence  # [3, 6], quantized-bh, h = 2
SQLO = MultiplierSequence([3, 6, 12], SQLO_S, 3, TH)
EYE3 = np.eye(3, dtype=int)


def _campaign(**kwargs):
    summary = simulate_campaign(CODE, **kwargs)
    return summary.cases, summary.failures, summary.truncated


# (entry point, parameter): (call, a valid value, a value below the lower
# bound, a value above the upper bound or None)
SCALARS = {
    "Thresholds.max_gap s": (TH.max_gap, 2, 0, 16),
    "unit_thresholds top": (unit_thresholds, 4, 0, None),
    "uniform_thresholds Q": (lambda v: uniform_thresholds(3, v), 15, 0, None),
    "check_sequence h": (lambda v: check_sequence([3, 6], TH, v, QUANTIZED_BH), 2, 0, None),
    "MultiplierSequence h": (
        lambda v: MultiplierSequence([3, 6], QUANTIZED_BH, v, TH), 2, 0, None
    ),
    "scaled_construction h": (
        lambda v: scaled_construction(base_recursive_superincreasing(3, 8), TH, v, 15),
        3, 0, None,
    ),
    "scaled_construction s": (
        lambda v: scaled_construction(base_recursive_superincreasing(3, 8), TH, 3, v),
        15, 1, 16,
    ),
    "gamma_bound h": (gamma_bound, 2, 0, None),
    "greedy_generate K_target": (lambda v: greedy_generate(TH, 2, v, SQLO_S), 2, 0, None),
    "strong_lex_base K": (strong_lex_base, 3, 0, None),
    "subset_sums d": (lambda v: subset_sums(SEQ, v), 2, 0, None),
    "knapsack_solve d": (lambda v: knapsack_solve(SQLO, v, 9), 2, 0, None),
    "knapsack_solve lo": (lambda v: knapsack_solve(SQLO, 2, v), 9, 0, None),
    "knapsack_solve hi": (lambda v: knapsack_solve(SQLO, 2, 9, v), 12, 9, None),
    "verify_disjunct d": (lambda v: verify_disjunct(EYE3, v, 0), 2, 0, 3),
    "verify_disjunct e": (lambda v: verify_disjunct(EYE3, 2, v), 0, -1, None),
    "identity_code n": (identity_code, 2, 1, None),
    "identity_code e": (lambda v: identity_code(2, v), 0, -1, None),
    "kautz_singleton q_field": (lambda v: kautz_singleton(v, 2), 3, 1, None),
    "kautz_singleton k": (lambda v: kautz_singleton(3, v), 2, 1, 4),
    "kautz_singleton d": (lambda v: kautz_singleton(3, 2, v), 2, 0, 3),
    "replicated_identity n": (lambda v: replicated_identity(v, 3), 3, 1, None),
    "replicated_identity copies": (lambda v: replicated_identity(3, v), 3, 0, None),
    "random_code m": (lambda v: random_code(v, 6, 1, seed=7), 12, 0, None),
    "random_code n": (lambda v: random_code(12, v, 1, seed=7), 6, 1, None),
    "random_code d": (lambda v: random_code(12, 6, v, seed=7), 1, 0, 6),
    "random_code e": (lambda v: random_code(12, 6, 1, v, seed=7), 0, -1, None),
    "build d": (lambda v: build(identity_code(2), SEQ, TH, v), 2, 0, None),
    "verify_sq_separable l": (lambda v: verify_sq_separable(CODE, v, 2, 0), 1, 0, None),
    "verify_sq_separable u": (lambda v: verify_sq_separable(CODE, 1, v, 0), 2, 0, 5),
    "verify_sq_separable e": (lambda v: verify_sq_separable(CODE, 1, 2, v), 1, -1, None),
    "verify_sq_separable budget": (
        lambda v: verify_sq_separable(CODE, 1, 2, 0, v), 10**4, -1, None
    ),
    "feasibility_report n": (lambda v: feasibility_report(n=v, d=2, Q=4), 10, 0, None),
    "feasibility_report d": (lambda v: feasibility_report(n=10, d=v, Q=4), 2, 0, 11),
    "feasibility_report Q": (lambda v: feasibility_report(n=10, d=2, Q=v), 4, 1, None),
    "feasibility_report K": (lambda v: feasibility_report(K=v, h=2, Q=8), 3, 0, None),
    "feasibility_report h": (lambda v: feasibility_report(K=3, h=v, Q=8), 2, 0, None),
    "feasibility_report q": (lambda v: feasibility_report(q=v, th=TH), 4, 1, None),
    "inject_explicit Q": (lambda v: inject_explicit(Y, [(1, 5)], v), 8, 0, None),
    "inject_exhaustive e": (lambda v: list(inject_exhaustive(Y, v, 3)), 1, -1, None),
    "inject_exhaustive Q": (lambda v: list(inject_exhaustive(Y, 1, v)), 3, 0, None),
    "inject_random e": (lambda v: list(inject_random(Y, v, 8, 0, 3)), 2, -1, None),
    "inject_random Q": (lambda v: list(inject_random(Y, 2, v, 0, 3)), 8, 0, None),
    "inject_random count": (lambda v: list(inject_random(Y, 2, 8, 0, v)), 3, -1, None),
    "simulate_campaign e_inject": (lambda v: _campaign(e_inject=v), 1, -1, None),
    "simulate_campaign samples_per_set": (
        lambda v: _campaign(policy="seeded-random", samples_per_set=v), 2, 0, None
    ),
    "simulate_campaign budget": (lambda v: _campaign(budget=v), 3, -1, None),
    "simulate_campaign workers": (lambda v: _campaign(workers=v), 1, 0, None),
}
NON_INTEGER_COUNTS = (1.5, True, "2", np.float64(2.0))


@pytest.mark.parametrize("value", NON_INTEGER_COUNTS, ids=repr)
@pytest.mark.parametrize("entry", SCALARS)
def test_non_integer_counts_raise_the_typed_error(entry, value):
    call = SCALARS[entry][0]
    with pytest.raises(InvalidInput, match=f"{entry.split()[-1]} .* is not an integer"):
        call(value)


@pytest.mark.parametrize("entry", SCALARS)
def test_counts_out_of_range_raise_the_typed_error(entry):
    call, _, low, high = SCALARS[entry]
    name = entry.split()[-1]
    with pytest.raises(InvalidInput, match=f"{name} must be >= "):
        call(low)
    if high is not None:
        with pytest.raises(InvalidInput, match=f"{name} must be <= "):
            call(high)


@pytest.mark.parametrize("entry", SCALARS)
def test_numpy_integer_counts_are_the_ints_they_hold(entry):
    call, good, _, _ = SCALARS[entry]
    # repr tells a stored numpy integer from an int
    assert repr(call(np.int64(good))) == repr(call(good))
