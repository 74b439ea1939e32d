import concurrent.futures
import os
from concurrent.futures import Future

import pytest

from sqgt import (
    QUANTIZED_BH,
    CampaignSummary,
    InvalidInput,
    build,
    identity_code,
    replicated_identity,
    simulate_campaign,
    uniform_thresholds,
    verified_sequence,
)
from sqgt import campaign
from sqgt.campaign import EXHAUSTIVE, SEEDED_RANDOM

from oracles import reference_campaign


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
    for samples in (0, -3):
        with pytest.raises(InvalidInput, match="samples_per_set must be >= 1"):
            simulate_campaign(code, policy=SEEDED_RANDOM, samples_per_set=samples)


def test_seeded_campaign_draws_each_set_afresh(monkeypatch):
    th = uniform_thresholds(3, 15)
    code = build(replicated_identity(3, 3), verified_sequence([3, 6], th, 2, QUANTIZED_BH), th, 2)
    drawn = {}
    real = campaign.inject_random

    def recording(clean, e, Q, seed, count):
        outcomes = list(real(clean, e, Q, seed, count))
        drawn[seed] = tuple(o.error_positions for o in outcomes)
        return iter(outcomes)

    monkeypatch.setattr(campaign, "inject_random", recording)
    simulate_campaign(code, policy=SEEDED_RANDOM, seed=3, samples_per_set=6)
    # one stream per defective set, keyed by (seed, set index)
    assert sorted(drawn) == [(3, i) for i in range(21)]
    assert len(set(drawn.values())) == len(drawn)


def test_workers_agree_with_serial(code_corpus):
    code = _entry(code_corpus, "qbh-i3-d2")
    serial = simulate_campaign(code)
    parallel = simulate_campaign(code, workers=2)
    assert (serial.cases, serial.failures) == (parallel.cases, parallel.failures)


def test_the_pool_starts_no_more_processes_than_chunks_or_cpus(monkeypatch):
    # A fork pool starts max_workers processes at its first submit: --workers
    # 500 on a 36-set campaign asked for 500.  The fake runs chunks inline.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    th = uniform_thresholds(3, 15)
    code = build(identity_code(4), verified_sequence([3, 6], th, 2, QUANTIZED_BH), th, 2)
    serial = simulate_campaign(code)
    for cpus, workers, expected in ((64, 500, 36), (2, 500, 2), (None, 500, 1), (64, 3, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pooled = simulate_campaign(code, workers=workers)
        assert (pooled.cases, pooled.successes) == (serial.cases, serial.successes)
        assert sizes.pop() == expected, (cpus, workers)


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


def test_summaries_match_the_reference_campaign(code_corpus):
    # unchecked injected outcomes leave every count and example as the
    # checked reference injectors leave them, under contract (exhaustive at
    # e) and past it (seeded-random at e + 1); the hot code runs on a budget
    for name, code in code_corpus:
        budget = 20_000 if name == "sqs-ks5-k2-d2-e1" else None
        for e, policy in ((code.e, EXHAUSTIVE), (code.e + 1, SEEDED_RANDOM)):
            got = simulate_campaign(code, e, policy, seed=7, budget=budget)
            want = reference_campaign(code, e, policy, seed=7, budget=budget)
            assert vars(got) == want, (name, policy)
