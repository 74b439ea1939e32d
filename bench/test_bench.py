"""Checks on the benchmark itself: its reference computations agree with
the definitions, and a wrong program output is counted as failed.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from sqgt import codebook, decoders, quantization, sequences  # noqa: E402

GAPS = (0, 2, 5, 6, 10, 13, 15, 16, 18, 21)


def test_reference_kind_checks_match_the_worked_example():
    assert reference.is_kind((2, 5, 11), GAPS, 3, "sqlo-s")
    assert reference.greedy_is_minimal((2, 5, 11), GAPS, 3, "sqlo-s", 3)
    assert not reference.is_kind((2, 5, 10), GAPS, 3, "sqlo-s")
    # 2 5 11 stays valid, but 2 5 12 skips the smaller valid 11
    assert not reference.greedy_is_minimal((2, 5, 12), GAPS, 3, "sqlo-s", 3)


def test_reference_case_count_matches_a_campaign():
    th = quantization.Thresholds(GAPS)
    seq = sequences.verified_sequence((2, 5, 11), th, 3, "sqlo-s")
    code = codebook.build(workloads.make_base(("identity", 3)), seq, th, 1)
    summary = workloads.campaign.simulate_campaign(code)
    assert summary.cases == reference.campaign_cases(code.n, code.m, code.thresholds.Q, 1, 0)


def test_wrong_decode_is_counted_as_failed(tmp_path, monkeypatch):
    wl = workloads.DecodeWideBins(seed=1, workdir=tmp_path)
    wl.specs = wl.specs[:1]
    wl.setup()
    samples = []
    attempted, failed = wl.run_round(samples)
    assert attempted == len(samples) > 0 and failed == 0

    real = decoders.decode

    def off_by_one(y, code):
        result = real(y, code)
        shifted = frozenset((c + 1) % code.n for c in result.defectives)
        return decoders.DecodedResult(shifted, result.per_support)

    monkeypatch.setattr(decoders, "decode", off_by_one)
    attempted, failed = wl.run_round(samples)
    assert failed == attempted


def test_campaign_that_bypasses_the_probe_fails_a_check(tmp_path, monkeypatch):
    wl = workloads.CampaignCorpus(seed=1, workdir=tmp_path)
    wl.setup()
    wl.codes = wl.codes[:1]
    samples = []
    attempted, failed = wl.run_round(samples)
    assert attempted == len(samples) > 0 and failed == 0 and wl.problems == []

    real_simulate, real_decode = workloads.campaign.simulate_campaign, decoders.decode

    def batched(code, **kwargs):
        # a campaign whose decodes no longer go through campaign.decode
        probe = workloads.campaign.decode
        workloads.campaign.decode = real_decode
        try:
            return real_simulate(code, **kwargs)
        finally:
            workloads.campaign.decode = probe

    monkeypatch.setattr(workloads.campaign, "simulate_campaign", batched)
    wl.run_round(samples)
    assert len(wl.problems) == 1 and "0 decode calls" in wl.problems[0]


def _construct(tmp_path, keep):
    wl = workloads.ConstructCodes(seed=1, workdir=tmp_path)
    wl.items = [wl.items[i] for i in keep]
    wl.setup()
    return wl


def test_construct_checks_pass_on_the_program(tmp_path):
    wl = _construct(tmp_path, keep=[0, -1])
    attempted, failed = wl.run_round([])
    extra, problems = wl.finish()
    assert (attempted, failed, extra, problems) == (2, 0, 0, [])


def test_non_minimal_sequence_is_counted_as_failed(tmp_path, monkeypatch):
    wl = _construct(tmp_path, keep=[0])
    real = sequences.greedy_generate

    def skip_last(th, h, K, kind):
        seq = real(th, h, K, kind)
        # a valid sequence whose last element is not the smallest choice
        for c in range(seq.values[-1] + 1, th.top):
            values = seq.values[:-1] + (c,)
            if sequences.check_sequence(values, th, h, kind):
                return sequences.verified_sequence(values, th, h, kind)
        pytest.skip("no larger valid last element")

    monkeypatch.setattr(sequences, "greedy_generate", skip_last)
    wl.run_round([])
    extra, _ = wl.finish()
    assert extra == 1


def test_tampered_loaded_code_is_counted_as_failed(tmp_path, monkeypatch):
    wl = _construct(tmp_path, keep=[0])
    real = codebook.load_code

    def tampered(path):
        code = real(path)
        matrix = code.matrix.copy()
        matrix[0, -1] = code.sequence.values[-1] - matrix[0, -1]
        return codebook.SqgtCode(matrix, code.thresholds, code.sequence, code.base,
                                 code.d, code.e, code.q, code.mode)

    monkeypatch.setattr(codebook, "load_code", tampered)
    wl.run_round([])
    extra, _ = wl.finish()
    assert extra == 1


def test_min_syndrome_distance_sees_duplicate_columns():
    matrix = np.array([[1, 1], [0, 0]])
    assert reference.min_syndrome_distance((0, 1, 2, 3), matrix, 1) == 0


def test_tracer_counts_calls_and_restores_the_program():
    import tracing

    th = quantization.Thresholds(GAPS)
    seq = sequences.verified_sequence((2, 5, 11), th, 3, "sqlo-s")
    code = codebook.build(workloads.make_base(("identity", 3)), seq, th, 1)
    original = decoders.knapsack_solve
    tracer = tracing.Tracer()
    tracer.trace(decoders, "decode", "decode")
    tracer.trace(sequences, "knapsack_solve", "knapsack",
                 count=lambda subset: subset is not None)
    try:
        decoders.decode((2, 0, 0), code)
    finally:
        tracer.uninstall()
    decode, knapsack = tracer.stats["decode"], tracer.stats["knapsack"]
    assert decode.calls == 1 and knapsack.calls >= 2 and knapsack.items == 2
    assert knapsack.parents["decode"] == knapsack.calls
    assert decode.self_ns > 0 and knapsack.self_ns > 0
    assert decoders.knapsack_solve is original
