import json
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from sqgt import (
    InvalidBin,
    InvalidInput,
    OutOfRange,
    TestOutcome,
    inject_exhaustive,
    inject_explicit,
    inject_random,
    syndrome,
    unit_thresholds,
)
from sqgt.channel import syndromes
from sqgt.cli import main

from oracles import support_signature


def _entry(code_corpus, name):
    return dict(code_corpus)[name]


def test_syndrome_single_block(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    # columns 0 and 2 are base column 0 scaled by 3 and 6: sums (9, 0)
    assert syndrome(code, [0, 2]).y == (3, 0)
    assert syndrome(code, [0]).y == (1, 0)


def test_syndrome_mixed_rows(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    # sums (21, 18, 3) -> bins (7, 6, 1) under the step-3 thresholds
    outcome = syndrome(code, [0, 3, 6, 4, 7, 2])
    assert outcome.y == (7, 6, 1)
    assert outcome.clean


def test_syndrome_input_checks(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    with pytest.raises(InvalidInput):
        syndrome(code, [])
    with pytest.raises(InvalidInput):
        syndrome(code, [99])


def test_syndrome_overflow_names_coordinate():
    fake = SimpleNamespace(
        matrix=np.array([[3], [4]]), thresholds=unit_thresholds(4)
    )
    with pytest.raises(OutOfRange, match="coordinate 1"):
        syndrome(fake, [0])


def test_support_signature_collapses_scalings():
    vectors = [[2, 0, 2, 2], [6, 0, 6, 6], [2, 0, 2, 0]]
    assert support_signature(vectors) == {(1, 0, 1, 1), (1, 0, 1, 0)}


def test_inject_explicit():
    clean = TestOutcome((3, 0, 1))
    hit = inject_explicit(clean, [(1, 5)], Q=8)
    assert hit.y == (3, 5, 1)
    assert hit.error_positions == (1,)
    assert not hit.clean
    with pytest.raises(InvalidInput):
        inject_explicit(clean, [(1, 0)], Q=8)  # unchanged value
    with pytest.raises(InvalidInput):
        inject_explicit(clean, [(9, 5)], Q=8)
    with pytest.raises(InvalidBin, match="error value must be <= 7, got 8"):
        inject_explicit(clean, [(1, 8)], Q=8)
    for val in (4.5, True, "5"):
        with pytest.raises(InvalidBin, match="is not an integer"):
            inject_explicit(clean, [(1, val)], Q=8)


@pytest.mark.parametrize("changes", [[(1, 5), (1, 0)], [(1, 5), (1, 6)], [(2, 4), (2, 4)]])
def test_inject_explicit_rejects_a_coordinate_given_twice(changes, capsys):
    # (1, 5) then (1, 0) once gave y equal to its input with two errors
    with pytest.raises(InvalidInput, match=f"error position {changes[0][0]} given twice"):
        inject_explicit(TestOutcome((3, 0, 1)), changes, Q=8)
    explicit = ",".join(f"{pos}:{val}" for pos, val in changes)
    assert main(["--json", "inject", "--y", "3 0 1", "--Q", "8", "--explicit", explicit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: error position {changes[0][0]} given twice\n"


def test_inject_exhaustive_counts():
    clean = TestOutcome((3, 0))
    outcomes = list(inject_exhaustive(clean, 1, Q=8))
    # clean first, then 2 coordinates x 7 alternative values
    assert outcomes[0] is clean
    assert len(outcomes) == 1 + 2 * 7
    assert all(not o.clean for o in outcomes[1:])
    assert len({o.y for o in outcomes}) == len(outcomes)


def test_inject_exhaustive_two_errors():
    clean = TestOutcome((0, 0, 0))
    outcomes = list(inject_exhaustive(clean, 2, Q=3))
    # 1 + 3*2 + C(3,2)*2^2
    assert len(outcomes) == 1 + 6 + 12


def test_inject_random_deterministic():
    clean = TestOutcome((3, 0, 1, 2))
    a = [o.y for o in inject_random(clean, 1, Q=8, seed=5, count=20)]
    b = [o.y for o in inject_random(clean, 1, Q=8, seed=5, count=20)]
    assert a == b
    assert all(sum(x != y for x, y in zip(clean.y, o)) <= 1 for o in a)


def test_seeded_outcomes_serialise():
    clean = TestOutcome((3, 0, 1, 2))
    for outcome in inject_random(clean, 2, Q=8, seed=5, count=20):
        errors = json.loads(outcome.to_json())["errors"]
        assert errors == [[p, outcome.y[p]] for p in outcome.error_positions]


def test_inject_random_bounds_the_error_count():
    clean = TestOutcome((3, 0, 1))
    with pytest.raises(InvalidInput):
        next(inject_random(clean, -1, Q=8, seed=5, count=1))
    # e above m changes at most every coordinate
    drawn = list(inject_random(clean, 5, Q=8, seed=5, count=50))
    assert len(drawn) == 50
    assert all(len(o.error_positions) <= 3 for o in drawn)
    assert any(len(o.error_positions) == 3 for o in drawn)
    # e = m draws what it always drew
    again = list(inject_random(clean, 3, Q=8, seed=5, count=50))
    assert [o.y for o in again] == [o.y for o in drawn]


def test_outcome_json():
    hit = TestOutcome((3, 5, 1), (1,))
    assert '"errors": [[1, 5]]' in hit.to_json()


@pytest.mark.parametrize("position", [5, 2, -1])
def test_outcome_rejects_error_positions_outside_y(position):
    # 5 used to raise an untyped IndexError from to_json, -1 to report the
    # error at the last coordinate
    with pytest.raises(InvalidInput, match=f"error position must be [<>]= [01], got {position}$"):
        TestOutcome((3, 0), (position,))


def test_clean_follows_the_error_positions():
    assert TestOutcome((3, 5, 1)).clean
    assert not TestOutcome((3, 5, 1), (1,)).clean


def test_syndromes_are_the_syndrome_of_each_set(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    sets = list(combinations(range(code.n), 2))
    rows = syndromes(code, sets)
    assert [tuple(row) for row in rows.tolist()] == [syndrome(code, D).y for D in sets]
