import pytest

from sqgt import (
    QUANTIZED_BH,
    CampaignSummary,
    InvalidInput,
    build,
    identity_code,
    simulate_campaign,
    uniform_thresholds,
    verified_sequence,
)
from sqgt.campaign import EXHAUSTIVE, SEEDED_RANDOM


def _entry(code_corpus, name):
    return dict(code_corpus)[name]


def test_exhaustive_small(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    summary = simulate_campaign(code)
    # C(6,1) + C(6,2) defective sets, one clean outcome each
    assert summary.cases == 21
    assert summary.failures == 0
    assert summary.successes == 21
    assert not summary.truncated


def test_exhaustive_with_error_injection(code_corpus):
    code = _entry(code_corpus, "sqs-rep3-d2-e1-perm")
    summary = simulate_campaign(code)
    sets = 9 + 36
    patterns = 1 + 9 * (code.thresholds.Q - 1)
    assert summary.cases == sets * patterns
    assert summary.failures == 0


def test_overinjection_is_detected(code_corpus):
    # e = 0 code with one injected error must produce failures
    code = _entry(code_corpus, "qbh-i2-d2")
    summary = simulate_campaign(code, e_inject=1)
    assert summary.failures > 0
    assert summary.failure_examples


def test_budget_truncation(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    summary = simulate_campaign(code, budget=5)
    assert summary.truncated
    assert summary.cases == 5


def test_seeded_random_policy(code_corpus):
    code = _entry(code_corpus, "sqs-rep3-d2-e1-perm")
    a = simulate_campaign(code, policy=SEEDED_RANDOM, seed=3, samples_per_set=4)
    b = simulate_campaign(code, policy=SEEDED_RANDOM, seed=3, samples_per_set=4)
    assert a.cases == b.cases == 45 * 4
    assert a.failures == b.failures == 0
    with pytest.raises(InvalidInput, match="unknown error policy"):
        simulate_campaign(code, policy="nope")


def test_workers_agree_with_serial(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    serial = simulate_campaign(code)
    parallel = simulate_campaign(code, workers=2)
    assert (serial.cases, serial.failures) == (parallel.cases, parallel.failures)


def test_budget_is_exact_at_any_worker_count():
    th = uniform_thresholds(3, 15)
    seq = verified_sequence([3, 6], th, 2, QUANTIZED_BH)
    code = build(identity_code(4), seq, th, 2)

    def counts(**kwargs):
        return {
            (s.cases, s.successes, s.failures, s.truncated)
            for s in (simulate_campaign(code, workers=w, **kwargs) for w in (1, 2, 3))
        }

    # the first 100 of the 36 * 57 one-error cases, whatever the chunking
    assert counts(e_inject=1, budget=100) == {(100, 2, 98, True)}
    assert len(counts(e_inject=1, policy=SEEDED_RANDOM, samples_per_set=7, budget=50)) == 1
    assert counts(budget=36) == {(36, 36, 0, False)}


def test_summary_merge():
    a = CampaignSummary(cases=2, successes=1, failures=1, failure_examples=[{"x": 1}])
    b = CampaignSummary(cases=3, successes=3, truncated=True)
    a.merge(b)
    assert (a.cases, a.successes, a.failures) == (5, 4, 1)
    assert a.truncated
    assert a.as_dict()["failures"] == 1
