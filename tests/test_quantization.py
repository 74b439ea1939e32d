import pytest
from hypothesis import given, strategies as st

from sqgt import (
    InvalidInput,
    OutOfRange,
    Thresholds,
    quantize,
    uniform_thresholds,
    unit_thresholds,
)
from sqgt.quantization import load_thresholds

from oracles import quantize_linear_scan


def test_load_thresholds_reads_a_list_or_a_file(tmp_path):
    path = tmp_path / "thresholds.json"
    path.write_text("[0, 2, 5, 6]")
    assert load_thresholds(str(path)) == load_thresholds(" [0, 2, 5, 6]") == Thresholds((0, 2, 5, 6))


def test_running_example_step3(th_step3):
    # eta = [0, 3, ..., 24]
    assert quantize(th_step3, 21) == 7
    assert quantize(th_step3, 0) == 0
    assert quantize(th_step3, 2) == 0
    assert quantize(th_step3, 3) == 1
    assert quantize(th_step3, 23) == 7


def test_nonuniform_bins_frozen(th_gaps):
    # bins of eta = [0,2,5,6,10,13,15,16,18,21], frozen from enumeration
    expected = {0: 0, 1: 0, 2: 1, 4: 1, 5: 2, 6: 3, 9: 3, 10: 4,
                12: 4, 13: 5, 15: 6, 16: 7, 17: 7, 18: 8, 20: 8}
    for alpha, r in expected.items():
        assert quantize(th_gaps, alpha) == r


def test_out_of_range(th_gaps):
    with pytest.raises(OutOfRange):
        quantize(th_gaps, -1)
    with pytest.raises(OutOfRange):
        quantize(th_gaps, 21)
    with pytest.raises(OutOfRange):
        quantize(th_gaps, 1000)


def test_invalid_thresholds():
    with pytest.raises(InvalidInput):
        Thresholds((0,))
    with pytest.raises(InvalidInput):
        Thresholds((1, 2, 3))
    with pytest.raises(InvalidInput):
        Thresholds((0, 5, 5))
    with pytest.raises(InvalidInput):
        Thresholds((0, 5, 3))
    with pytest.raises(InvalidInput, match="3.7 is not an integer"):
        Thresholds((0, 3.7, 6))
    with pytest.raises(InvalidInput, match="'3' is not an integer"):
        Thresholds((0, "3", 6))
    with pytest.raises(InvalidInput, match="True is not an integer"):
        Thresholds((0, True, 6))


def test_json_round_trip(th_gaps):
    assert Thresholds.from_json(th_gaps.to_json()) == th_gaps
    with pytest.raises(InvalidInput):
        Thresholds.from_json("not json")
    with pytest.raises(InvalidInput):
        Thresholds.from_json('{"a": 1}')
    with pytest.raises(InvalidInput):
        Thresholds.from_json("[0, 1.5, 3]")


def test_max_gap(th_gaps):
    assert th_gaps.max_gap() == 4  # 6 -> 10
    assert th_gaps.max_gap(3) == 3  # gaps 2, 3, 1
    assert th_gaps.max_gap(1) == 2
    with pytest.raises(InvalidInput):
        th_gaps.max_gap(0)


def test_helpers():
    assert unit_thresholds(4).eta == (0, 1, 2, 3, 4)
    assert uniform_thresholds(3, 8).eta == tuple(range(0, 25, 3))


thresholds_strategy = st.lists(
    st.integers(1, 30), min_size=1, max_size=8, unique=True
).map(lambda gaps: Thresholds(tuple(__import__("itertools").accumulate([0] + gaps))))


@given(thresholds_strategy, st.integers(0, 200))
def test_matches_linear_scan_oracle(th, alpha):
    if alpha >= th.top:
        with pytest.raises(OutOfRange):
            quantize(th, alpha)
    else:
        assert quantize(th, alpha) == quantize_linear_scan(th, alpha)


@given(thresholds_strategy)
def test_monotone_over_full_range(th):
    bins = [quantize(th, a) for a in range(th.top)]
    assert bins == sorted(bins)
    assert bins[0] == 0
    assert bins[-1] == th.Q - 1


def test_thresholds_array_is_made_once_and_is_not_a_field(th_gaps):
    # the quantizer's array form, held by the thresholds so that no
    # syndrome converts the tuple again; equality and hashing ignore it
    assert th_gaps.array is th_gaps.array
    assert th_gaps.array.tolist() == list(th_gaps.eta)
    fresh = Thresholds(th_gaps.eta)
    assert fresh == th_gaps and hash(fresh) == hash(th_gaps)
