import json
from types import SimpleNamespace

import numpy as np
import pytest

from sqgt import (
    InvalidBin,
    InvalidInput,
    OutOfRange,
    TestOutcome,
    Thresholds,
    inject_exhaustive,
    inject_explicit,
    inject_random,
    save_code,
    syndrome,
    unit_thresholds,
)
from sqgt import channel
from sqgt.channel import quantize_sums
from sqgt.cli import main

from oracles import reference_inject_exhaustive, reference_inject_random, support_signature


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
    assert outcome.error_positions == ()


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
    assert all(o.error_positions for o in outcomes[1:])
    assert len({o.y for o in outcomes}) == len(outcomes)


def test_inject_exhaustive_two_errors():
    clean = TestOutcome((0, 0, 0))
    outcomes = list(inject_exhaustive(clean, 2, Q=3))
    # 1 + 3*2 + C(3,2)*2^2
    assert len(outcomes) == 1 + 6 + 12


def test_inject_exhaustive_changes_at_most_m_coordinates(monkeypatch):
    # e = 10**5 on 2 coordinates once ran its loop to e, each pass a
    # combinations call that yields nothing: 1.3 s for 225 outcomes
    real, sizes = channel.combinations, []

    def counting(coords, t):
        assert t <= len(coords), f"combinations of {t} of {len(coords)} coordinates"
        sizes.append(t)
        return real(coords, t)

    monkeypatch.setattr(channel, "combinations", counting)
    clean = TestOutcome((3, 0))
    at_m = [(o.y, o.error_positions) for o in inject_exhaustive(clean, 2, Q=15)]
    assert len(at_m) == 1 + 2 * 14 + 14 * 14 and sizes == [1, 2]
    past_m = [(o.y, o.error_positions) for o in inject_exhaustive(clean, 10**5, Q=15)]
    assert past_m == at_m and sizes == [1, 2, 1, 2]


def test_inject_random_deterministic():
    clean = TestOutcome((3, 0, 1, 2))
    a = [o.y for o in inject_random(clean, 1, Q=8, seed=5, count=20)]
    b = [o.y for o in inject_random(clean, 1, Q=8, seed=5, count=20)]
    assert a == b
    assert all(sum(x != y for x, y in zip(clean.y, o)) <= 1 for o in a)


def _some_sets(code):
    """The first and last single columns and the last pair, as far as d allows."""
    sets = [(0,), (code.n - 1,)]
    return sets + [(code.n - 2, code.n - 1)] if code.d >= 2 else sets


def _as_fields(outcomes):
    return [(o.y, o.error_positions) for o in outcomes]


def test_injectors_match_the_checked_reference(code_corpus):
    # the injectors make their outcomes unchecked; each must be the outcome
    # the checked constructor makes, in the reference's order
    for name, code in code_corpus:
        Q = code.thresholds.Q
        top = 3 if code.m <= 3 else 2 if code.m <= 9 else 1
        for D in _some_sets(code):
            clean = syndrome(code, D)
            for e in range(top + 1):
                got = list(inject_exhaustive(clean, e, Q))
                assert _as_fields(got) == _as_fields(reference_inject_exhaustive(clean, e, Q)), \
                    (name, D, e)
                assert all(o == TestOutcome(o.y, o.error_positions) for o in got)
            for seed in (0, 7, (3, 11)):
                for e in range(3):
                    got = list(inject_random(clean, e, Q, seed, 25))
                    want = reference_inject_random(clean, e, Q, seed, 25)
                    assert _as_fields(got) == _as_fields(want), (name, D, seed, e)
                    assert all(o == TestOutcome(o.y, o.error_positions) for o in got)


def test_injectors_match_the_reference_above_q():
    # a value at or above Q has Q others, not Q - 1
    clean = TestOutcome((9, 0, 3))
    got = inject_exhaustive(clean, 3, 4)
    assert _as_fields(got) == _as_fields(reference_inject_exhaustive(clean, 3, 4))
    for seed in range(5):
        got = inject_random(clean, 3, 4, seed, 30)
        assert _as_fields(got) == _as_fields(reference_inject_random(clean, 3, 4, seed, 30))


@pytest.mark.parametrize("y", [(0, 0), (0, 3, 0), (2, 0, 5)])
def test_inject_random_with_one_bin_makes_only_exhaustive_outcomes(y):
    # with Q = 1 a 0 has no other value: it stays, as in inject_exhaustive,
    # and only the values at or above Q change
    clean = TestOutcome(y)
    for e in range(len(y) + 1):
        possible = set(_as_fields(inject_exhaustive(clean, e, 1)))
        for seed in range(5):
            got = _as_fields(inject_random(clean, e, 1, seed, 20))
            assert len(got) == 20 and set(got) <= possible, (e, seed)
    assert set(_as_fields(inject_random(TestOutcome((0, 0)), 1, 1, 0, 5))) == {((0, 0), ())}


@pytest.mark.parametrize("value", [-1, 3.5])
def test_injectors_check_an_input_that_is_not_an_outcome(value):
    # the check runs once per call, on the input; it still names the value
    fake = SimpleNamespace(y=(3, value, 1))
    match = "result value must be >= 0, got -1$" if value == -1 else "result value 3.5 is not"
    with pytest.raises(InvalidBin, match=match):
        list(inject_exhaustive(fake, 1, 8))
    with pytest.raises(InvalidBin, match=match):
        list(inject_random(fake, 1, 8, 5, 3))


def test_seeded_outcomes_serialise(capsys):
    # each seeded outcome, given to `inject --explicit`, prints its own errors
    clean = TestOutcome((3, 0, 1, 2))
    for outcome in inject_random(clean, 2, Q=8, seed=5, count=20):
        if not outcome.error_positions:
            continue
        explicit = ",".join(f"{p}:{outcome.y[p]}" for p in outcome.error_positions)
        assert main(["--json", "inject", "--y", "3 0 1 2", "--Q", "8", "--explicit", explicit]) == 0
        errors = [[p, outcome.y[p]] for p in outcome.error_positions]
        assert json.loads(capsys.readouterr().out) == [{"y": list(outcome.y), "errors": errors}]


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


def test_outcome_json(code_corpus, tmp_path, capsys):
    assert main(["--json", "inject", "--y", "3 0 1", "--Q", "8", "--explicit", "1:5"]) == 0
    assert capsys.readouterr().out == '[{"errors": [[1, 5]], "y": [3, 5, 1]}]\n'
    path = save_code(_entry(code_corpus, "qbh-i2-d2"), str(tmp_path / "code"))
    assert main(["--json", "syndrome", "--code", path, "--defectives", "1 3"]) == 0
    assert capsys.readouterr().out == '{"errors": [], "y": [3, 0]}\n'


@pytest.mark.parametrize("position", [5, 2, -1])
def test_outcome_rejects_error_positions_outside_y(position):
    # 5 used to raise an untyped IndexError when printed, -1 to report the
    # error at the last coordinate
    with pytest.raises(InvalidInput, match=f"error position must be [<>]= [01], got {position}$"):
        TestOutcome((3, 0), (position,))


def test_outcome_rejects_a_negative_result_value(capsys):
    # decode refused (-1, 0), but the outcome took it and inject printed it
    with pytest.raises(InvalidBin, match="result value must be >= 0, got -1$"):
        TestOutcome((-1, 0))
    assert main(["inject", "--y", "-1 0", "--Q", "15", "--e", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: result value must be >= 0, got -1\n")


@pytest.mark.parametrize("positions", [(1, 1), (2, 0)])
def test_outcome_rejects_repeated_or_unsorted_error_positions(positions):
    # (1, 1) printed two errors on one coordinate; (2, 0) was stored as given
    with pytest.raises(InvalidInput, match=r"error positions must strictly increase, got \["):
        TestOutcome((3, 0, 1), positions)


def test_syndromes_name_the_first_overflowing_set():
    # the sums of three sets: set 1 reaches the top at coordinate 1; set 2
    # passes it further, at 0
    sums = np.array([[1, 1], [1, 8], [9, 3]])
    with pytest.raises(OutOfRange, match=r"^coordinate 1: sum 8 >= top threshold 8$"):
        quantize_sums(Thresholds((0, 4, 8)), sums)
