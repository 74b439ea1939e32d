import json

import pytest

from sqgt import (
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    Thresholds,
    build,
    identity_code,
    kautz_singleton,
    pair_sequence,
    replicated_identity,
    unit_thresholds,
    uniform_thresholds,
    verified_sequence,
)


@pytest.fixture(scope="session")
def th_step3():
    # uniform step-3 thresholds up to 24: the running example
    return uniform_thresholds(3, 8)


@pytest.fixture(scope="session")
def th_step3_tall():
    # same spacing extended to 45 for headroom
    return uniform_thresholds(3, 15)


@pytest.fixture(scope="session")
def th_gaps():
    # the non-uniform thresholds used by the greedy example
    return Thresholds((0, 2, 5, 6, 10, 13, 15, 16, 18, 21))


@pytest.fixture(scope="session")
def th_gaps_tall():
    return Thresholds((0, 2, 5, 6, 10, 13, 15, 16, 18, 21, 24, 28, 33))


def _corpus():
    """>= 20 built codes spanning all three kinds, several bases, K in
    1..4, d in 1..3, e in {0, 1}, strict and permissive modes."""
    th45 = uniform_thresholds(3, 15)
    thg = Thresholds((0, 2, 5, 6, 10, 13, 15, 16, 18, 21))
    thg_tall = Thresholds((0, 2, 5, 6, 10, 13, 15, 16, 18, 21, 24, 28, 33))
    thu14 = unit_thresholds(14)
    thu9 = unit_thresholds(9)

    i2, i3, i4, i5 = (identity_code(n) for n in (2, 3, 4, 5))
    ks3 = kautz_singleton(3, 2)
    ks5 = kautz_singleton(5, 2, d=2)
    rep3 = replicated_identity(3, 3)
    rep4 = replicated_identity(4, 3)

    qbh_45 = verified_sequence([3, 6, 12], th45, 3, QUANTIZED_BH)
    qbh_45_k2 = verified_sequence([3, 6], th45, 2, QUANTIZED_BH)
    qbh_45_k1 = verified_sequence([3], th45, 2, QUANTIZED_BH)
    sqs_45 = verified_sequence([3, 6, 12], th45, 3, SQLO_S)
    sqs_45_k2 = verified_sequence([3, 6], th45, 2, SQLO_S)
    sqs_g = verified_sequence([2, 5, 11], thg, 3, SQLO_S)
    sqs_g_tall = verified_sequence([2, 5, 11], thg_tall, 3, SQLO_S)
    sql_345 = verified_sequence([3, 4, 5], thu14, 2, SQLO_L)
    sql_234 = verified_sequence([2, 3, 4], thu9, 2, SQLO_L)
    sql_45_k2 = verified_sequence([3, 6], th45, 2, SQLO_L)
    pair_g = pair_sequence(thg)

    entries = [
        ("qbh-i2-d2", build(i2, qbh_45, th45, 2, "strict")),
        ("qbh-i3-d2", build(i3, qbh_45, th45, 2, "strict")),
        ("qbh-ks3-d2", build(ks3, qbh_45, th45, 2, "strict")),
        ("qbh-i4-k2-d2", build(i4, qbh_45_k2, th45, 2, "strict")),
        ("qbh-i5-k1-d2", build(i5, qbh_45_k1, th45, 2, "strict")),
        ("qbh-rep4-d2-e1", build(rep4, qbh_45, th45, 2, "strict")),
        ("qbh-pair-i3-d2", build(i3, pair_g, thg, 2, "strict")),
        ("sqs-i2-d2", build(i2, sqs_45, th45, 2, "strict")),
        ("sqs-ks3-d2", build(ks3, sqs_45, th45, 2, "strict")),
        ("sqs-i3-d1", build(i3, sqs_g, thg, 1, "strict")),
        ("sqs-i2-d2-perm", build(i2, sqs_g, thg, 2, "permissive")),
        ("sqs-rep3-d2-e1-perm", build(rep3, sqs_g, thg, 2, "permissive")),
        ("sqs-ks3-tall-d2", build(ks3, sqs_g_tall, thg_tall, 2, "strict")),
        ("sqs-rep4-d3-e1", build(rep4, sqs_45, th45, 3, "strict")),
        ("sqs-ks5-k2-d2-e1", build(ks5, sqs_45_k2, th45, 2, "strict")),
        ("sql-i2-d2", build(i2, sql_345, thu14, 2, "strict")),
        ("sql-i4-d2", build(i4, sql_345, thu14, 2, "strict")),
        ("sql-ks3-d2", build(ks3, sql_345, thu14, 2, "strict")),
        ("sql-rep3-d2-e1", build(rep3, sql_345, thu14, 2, "strict")),
        ("sql-i2-234-d2", build(i2, sql_234, thu9, 2, "strict")),
        ("sql-i3-k2-d2", build(i3, sql_45_k2, th45, 2, "strict")),
    ]
    return entries


@pytest.fixture(scope="session")
def code_corpus():
    return _corpus()


_DELETE = object()


@pytest.fixture
def edit_json():
    """Rewrite a JSON file with data[k1]...[kn] set to `value`, or deleted."""

    def edit(path, *keys, value=_DELETE):
        with open(path) as fh:
            data = json.load(fh)
        node = data
        for key in keys[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        with open(path, "w") as fh:
            json.dump(data, fh)

    return edit


# The five tests that decode or recover supports over the hot code's
# outcomes (all 447,525, or 20,000 for the reference campaign) on the
# scalar path, about two thirds of a full run.
# `pytest -m "not slow"` leaves them out; a plain run keeps them.
SLOW_TESTS = {
    "test_cold_and_warm_tables_decode_alike",
    "test_decoders_match_oracle_with_errors",
    "test_criterion_05_exhaustive_campaigns",
    "test_criterion_10_negative_controls",
    "test_summaries_match_the_reference_campaign",
}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name in SLOW_TESTS:
            item.add_marker(pytest.mark.slow)


# One pass/fail line per acceptance criterion, echoed after the run so
# they stay visible under output capture.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_record():
    def record(criterion: str, ok: bool, detail: str = "") -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"[{verdict}] {criterion}: {detail}" if detail else f"[{verdict}] {criterion}"
        ACCEPTANCE_LINES.append(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
