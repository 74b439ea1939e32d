import ast
import dataclasses
import math
import sys
import threading
import time
from collections import Counter
from itertools import combinations, zip_longest
from pathlib import Path

import numpy as np
import pytest

from sqgt import (
    QUANTIZED_BH,
    SQLO_L,
    SQLO_S,
    BinaryDisjunctCode,
    DecodingFailure,
    InvalidBase,
    InvalidBin,
    InvalidInput,
    SqgtError,
    base_recursive_superincreasing,
    build,
    decode,
    inject_exhaustive,
    inject_random,
    knapsack_solve,
    recover_support,
    replicated_identity,
    scaled_construction,
    select_witness_coords,
    simulate_campaign,
    strong_lex_base,
    syndrome,
    uniform_thresholds,
    verified_sequence,
)
from sqgt import decoders
from sqgt.campaign import SEEDED_RANDOM

from oracles import oracle_decode, reference_bin_subset, reference_decode, reference_supports
from test_acceptance import _bench_code


def _entry(code_corpus, name):
    return dict(code_corpus)[name]


TH45 = uniform_thresholds(3, 15)


def _code(rows, e):
    """A d = 1 code on the base claimed by `rows`, trusted as given."""
    base = BinaryDisjunctCode(np.array(rows), d=1, e=e)
    return build(base, verified_sequence([3], TH45, 1, QUANTIZED_BH), TH45, 1)


def test_recover_support_example():
    rows = [[1, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 0]]
    # y = (1, 0, 1, 1): column 2 places weight on the zero coordinate
    assert recover_support((1, 0, 1, 1), _code(rows, 0)) == [0, 1]
    # with e = 1 that single contradiction is forgiven
    assert recover_support((1, 0, 1, 1), _code(rows, 1)) == [0, 1, 2]
    for stage in (recover_support, decode):
        with pytest.raises(InvalidInput, match="result length 2"):
            stage((1, 0), _code(rows, 0))


def test_stages_called_directly_check_y(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    for stage in (recover_support, lambda y, c: select_witness_coords(y, c, 0)):
        with pytest.raises(InvalidInput, match="result length 3"):
            stage((3, 0, 0), code)
        with pytest.raises(InvalidBin):
            stage((code.thresholds.Q, 0), code)
    # values checked for one code are checked again against another
    checked = decoders._result_values((3, 0, 0), _entry(code_corpus, "qbh-i3-d2"))
    with pytest.raises(InvalidInput, match="result length 3"):
        recover_support(checked, code)


def test_decode_checks_y_once(code_corpus, monkeypatch):
    # one _result_values call a decode, whatever the supports; its stages
    # take the checked values without a second call
    code = _entry(code_corpus, "sqs-ks3-d2")
    outcome = syndrome(code, [0, 4])  # two supports
    calls = Counter()
    for name in ("as_ints", "_result_values"):
        def counting(*args, name=name, real=getattr(decoders, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(decoders, name, counting)
    # a TestOutcome's values passed the integer rule when it was made
    for y, scans in ((list(outcome.y), 1), (outcome.y, 1), (outcome, 0)):
        calls.clear()
        assert decode(y, code).defectives == frozenset({0, 4})
        assert (calls["as_ints"], calls["_result_values"]) == (scans, 1), type(y)


@pytest.mark.parametrize("y, error, message", [
    ((-1, 0), InvalidBin, "result value must be >= 0, got -1"),
    ((15, 0), InvalidBin, "result value must be <= 14, got 15"),
    ((3.5, 0), InvalidBin, "result value 3.5 is not an integer"),
    ((True, 0), InvalidBin, "result value True is not an integer"),
    ((0, 0, 0), InvalidInput, "result length 3 != code row count 2"),
    ("30", InvalidBin, "result value '3' is not an integer"),
], ids=["negative", "Q", "float", "bool", "length", "string"])
def test_each_stage_names_a_bad_y_alike(code_corpus, y, error, message):
    code = _entry(code_corpus, "sqs-i2-d2")
    assert (code.m, code.thresholds.Q) == (2, 15)
    for stage in (decode, recover_support, lambda y, c: select_witness_coords(y, c, 0)):
        with pytest.raises(SqgtError) as raised:
            stage(y, code)
        assert (type(raised.value), str(raised.value)) == (error, message)


def test_row_bits_live_on_the_plan_not_in_the_module(code_corpus):
    # each code's plan holds one bit per row, built with the plan; a
    # module-level table of row bits cost about 1.1 MB of RSS in every
    # process that imports sqgt
    for name, code in code_corpus:
        assert code.plan.row_bits == tuple(1 << k for k in range(code.m)), name
    tables = [name for name, value in vars(decoders).items() if not name.startswith("__")
              and isinstance(value, (tuple, list, dict, set, frozenset, np.ndarray))]
    assert tables == []


def test_the_plan_lives_in_decoders():
    # DecoderPlan and its builder sit beside decode's SQLO bin fill, so one
    # file holds the table policy; codebook only hooks the builder onto
    # SqgtCode.plan, and decoders names SqgtCode in annotations alone.
    trees = {name: ast.parse(Path(decoders.__file__).with_name(f"{name}.py").read_text())
             for name in ("codebook", "decoders")}
    defining = [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "DecoderPlan"]
    assert defining == ["decoders"]

    def runtime_imports(tree):
        guarded = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
                   and ast.unparse(block.test) == "TYPE_CHECKING"
                   for statement in block.body for node in ast.walk(statement)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and id(node) not in guarded:
                yield f"{node.module}"
                yield from (f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import) and id(node) not in guarded:
                yield from (alias.name for alias in node.names)

    assert not [name for name in runtime_imports(trees["decoders"]) if "codebook" in name]
    assert not {"sequences.subset_sums", "quantization.quantize"} & set(
        runtime_imports(trees["codebook"]))


def test_select_witness_coords():
    # smallest result values win, ties broken by index
    one_column = [[1]] * 4
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 1), 0) == [1, 2, 3]
    assert select_witness_coords((5, 1, 1, 2), _code(one_column, 0), 0) == [1]
    with pytest.raises(InvalidBase):
        select_witness_coords((5, 1), _code([[1]] * 2, 1), 0)  # needs 3 coordinates


def test_a_column_of_no_rows_is_refused_on_every_decode():
    # it has no values to key a vote on, and never stores one
    code = _code([[0, 1]] * 3, 0)
    for _ in range(2):
        with pytest.raises(InvalidBase, match="base column 0 has 0 rows"):
            decode((1, 1, 1), code)
    assert code.plan.last_vote[0] == (None, None)


@pytest.mark.parametrize("i", [-1, 3, 1.0, True])
def test_select_witness_coords_rejects_a_column_outside_the_base(i):
    # once column 2's witnesses, an IndexError, a TypeError and column 1's
    code = build(replicated_identity(3, 3), verified_sequence([3], TH45, 1, QUANTIZED_BH), TH45, 1)
    y = syndrome(code, [0])
    assert select_witness_coords(y, code, 0) == [0, 1, 2]
    with pytest.raises(InvalidInput, match="^i "):
        select_witness_coords(y, code, i)


def test_dec_qbh_round_trip(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    result = decode(syndrome(code, [0, 2]), code)
    assert result.defectives == frozenset({0, 2})
    assert result.per_support == ((0, (3, 6)),)
    assert result.warning is None


def test_dec_sqlo_s_round_trip(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    result = decode(syndrome(code, [0, 2]), code)
    assert result.defectives == frozenset({0, 2})
    assert result.per_support == ((0, (3, 6)),)


def test_dec_sqlo_l_round_trip(code_corpus):
    code = _entry(code_corpus, "sql-i2-d2")
    # columns 1 and 5 are base column 1 scaled by 3 and 5
    result = decode(syndrome(code, [1, 5]), code)
    assert result.defectives == frozenset({1, 5})


def test_decoder_kind_dispatch(code_corpus):
    sqs = _entry(code_corpus, "sqs-i2-d2")
    assert decode(syndrome(sqs, [0]), sqs).defectives == frozenset({0})


def test_split_witnesses_fail_on_quantized_bh(code_corpus):
    code = _entry(code_corpus, "qbh-rep4-d2-e1")
    # base column 0 owns rows 0-2; its three witnesses lie in three bins,
    # so no bin holds e + 1 = 2 of them
    y = (1, 2, 3) + (0,) * 9
    assert recover_support(y, code) == [0]
    with pytest.raises(DecodingFailure, match="witness votes"):
        decode(y, code)


def test_empty_support_warns(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    result = decode((0, 0), code)
    assert result.defectives == frozenset()
    assert result.warning is not None


def test_result_values_outside_the_bins_are_rejected(code_corpus):
    for name in ("qbh-i2-d2", "sqs-i2-d2", "sql-i2-d2"):
        code = _entry(code_corpus, name)
        for y in ((0, code.thresholds.Q), (-1, 1)):
            with pytest.raises(InvalidBin):
                decode(y, code)


@pytest.mark.parametrize(
    "y", [[3.9, 0.2], (3.9, 0.2), ("3", "0"), "30", (True, 0), np.array([3.0, 0.0])],
    ids=["float-list", "float-tuple", "str-tuple", "str", "bool", "float-array"],
)
def test_result_values_that_are_not_integers_are_rejected(code_corpus, y):
    # int() would read [3.9, 0.2] as (3, 0) and decode the wrong vector
    code = _entry(code_corpus, "sqs-i2-d2")
    with pytest.raises(InvalidBin, match="is not an integer"):
        decode(y, code)


def test_integer_result_values_of_any_container_decode(code_corpus):
    code = _entry(code_corpus, "sqs-i2-d2")
    for y in ([3, 0], (3, 0), np.array([3, 0]), syndrome(code, [0, 2])):
        assert decode(y, code).defectives == frozenset({0, 2})


def test_oracle_rejects_garbage(code_corpus):
    code = _entry(code_corpus, "qbh-i2-d2")
    with pytest.raises(DecodingFailure):
        oracle_decode((7, 1), code)  # row sum 21+ is beyond any two columns


def test_decoders_match_oracle_clean(code_corpus):
    for name in ("qbh-i3-d2", "sqs-i2-d2-perm", "sql-i2-234-d2"):
        code = _entry(code_corpus, name)
        for size in range(1, code.d + 1):
            for D in combinations(range(code.n), size):
                y = syndrome(code, D)
                assert decode(y, code).defectives == frozenset(D)
                assert oracle_decode(y, code) == frozenset(D)


def test_decoders_match_oracle_with_errors(code_corpus):
    code = _entry(code_corpus, "sql-rep3-d2-e1")
    Q = code.thresholds.Q
    for D in [(0,), (2, 7), (4, 8)]:
        clean = syndrome(code, D)
        for outcome in inject_exhaustive(clean, 1, Q):
            assert decode(outcome, code).defectives == frozenset(D)
    # support recovery keeps the reference rule on every exhaustive outcome
    # of every corpus code
    for name, code in code_corpus:
        for size in range(1, code.d + 1):
            for D in combinations(range(code.n), size):
                clean = syndrome(code, D)
                outcomes = list(inject_exhaustive(clean, code.e, code.thresholds.Q))
                got = [recover_support(outcome, code) for outcome in outcomes]
                assert got == reference_supports(outcomes, code), (name, D)


def _exhaustive_cases(code):
    """Each defective set and its exhaustive outcomes at the code's e, in
    the campaign's order."""
    for size in range(1, code.d + 1):
        for D in combinations(range(code.n), size):
            yield D, list(inject_exhaustive(syndrome(code, D), code.e, code.thresholds.Q))


def test_the_support_memo_keeps_the_reference_rule(code_corpus):
    """recover_support gives the reference rule on every exhaustive outcome
    of four codes, the hot code among them, two codes at a time in
    alternation.  The second pair, rep3 at e = 1 and ks3 at e = 0, has one
    length m, and each of its outcomes is decoded after its recovery: a memo
    shared between plans would hand one code the other's supports."""
    pairs = (("sqs-ks5-k2-d2-e1", "qbh-rep4-d2-e1"), ("sql-rep3-d2-e1", "sql-ks3-d2"))
    for names in pairs:
        codes = [dataclasses.replace(_entry(code_corpus, name)) for name in names]
        decoding = codes[0].m == codes[1].m
        streams = [_exhaustive_cases(code) for code in codes]
        for cases in zip_longest(*streams):
            for code, case in zip(codes, cases):
                if case is None:
                    continue
                D, outcomes = case
                got = []
                for outcome in outcomes:
                    got.append(recover_support(outcome, code))
                    if decoding:
                        assert decode(outcome, code).defectives == frozenset(D)
                assert got == reference_supports(outcomes, code), (code.m, D)


def test_the_support_memo_hands_out_a_fresh_list(code_corpus):
    # the memo holds its supports as a tuple: a caller that changes its list,
    # on a miss or on a hit, changes no later answer
    code = dataclasses.replace(_entry(code_corpus, "sqs-rep4-d3-e1"))
    clean = syndrome(code, [0, 5])
    want = reference_supports([clean], code)[0]
    assert len(want) == 2
    for _ in range(3):  # a miss, then hits: the clean outcome's zero mask again
        got = recover_support(clean, code)
        assert got == want
        got.append(99)
        got.pop(0)
    assert recover_support(clean, code) == want


@pytest.mark.parametrize("y, error", [((15, 0), InvalidBin), ((3, 0, 0), InvalidInput)],
                         ids=["Q", "length"])
def test_a_memo_hit_still_checks_y(code_corpus, y, error):
    # (15, 0) and (3, 0, 0) have the zero mask of the stored (3, 0)
    code = dataclasses.replace(_entry(code_corpus, "sqs-i2-d2"))
    assert recover_support((3, 0), code) == [0]
    with pytest.raises(error):
        recover_support(y, code)
    with pytest.raises(error):
        decode(y, code)
    assert code.plan.last_support[0] == (0b10, (0,))


def _vote_cases(code, samples):
    """Each defective set's exhaustive outcomes at the code's e, then
    `samples` seeded outcomes at e + 1, in the campaign's order."""
    for index, (_, outcomes) in enumerate(_exhaustive_cases(code)):
        clean = outcomes[0]  # the clean outcome comes first
        yield outcomes + list(inject_random(clean, code.e + 1, code.thresholds.Q, (33, index),
                                            samples))


def test_the_vote_memo_keeps_the_reference_decode(code_corpus):
    """decode gives reference_decode's result, or its failure, on every
    exhaustive outcome of an e = 1 code and an e = 0 code and on seeded
    outcomes at e + 1, the two codes, of one m, decoded a set at a time in
    alternation.  A key that leaves out a column's last row or its first
    fails on the e = 0 code: an error there moves the vote."""
    codes = [dataclasses.replace(_entry(code_corpus, name))
             for name in ("sql-rep3-d2-e1", "sql-ks3-d2")]
    assert codes[0].m == codes[1].m and [code.e for code in codes] == [1, 0]
    seen = Counter()
    for cases in zip_longest(*(_vote_cases(code, 20) for code in codes)):
        for code, outcomes in zip(codes, cases):
            if outcomes is None:
                continue
            got = [_decoded(y, code) for y in outcomes]
            assert got == [_decoded(y, code, reference_decode) for y in outcomes], code.e
            seen.update(type(r).__name__ for r in got)
    assert seen["DecodedResult"] and seen["tuple"], seen  # results and failures alike
    for code in codes:  # and the memo was used
        assert any(key is not None for key, _ in code.plan.last_vote)


@pytest.mark.parametrize("y, error", [((1, 15), InvalidBin), ((1, 0, 0), InvalidInput),
                                      ((1, -1), InvalidBin), ((1, 0.5), InvalidBin)],
                         ids=["Q", "length", "negative", "float"])
def test_a_vote_memo_hit_still_checks_y(code_corpus, y, error):
    # column 0's one row holds 1 in each y, the value of its stored vote
    code = dataclasses.replace(_entry(code_corpus, "sqs-i2-d2"))
    assert decode((1, 0), code).defectives == frozenset({0})
    stored = code.plan.last_vote[0]
    assert stored == (1, 1)  # one row: a scalar key, and bin 1 by its one vote
    with pytest.raises(error):
        decode(y, code)
    assert code.plan.last_vote[0] == stored


def test_two_threads_decoding_one_code_agree_with_the_reference(code_corpus):
    """Two threads share one code's plan, and with it the support and vote
    memos.  Each takes every other outcome of the same sets, two sets at a
    time in alternation, so that each often meets a zero mask the other has
    just stored for the other set's supports, and, where the two sets hold
    one base column with other multipliers, a column's values the other has
    just replaced with its own and their vote: every recovery keeps the
    reference rule, every decode gives its set, and each vote slot holds
    its values' vote."""
    code = dataclasses.replace(_entry(code_corpus, "sqs-ks5-k2-d2-e1"))
    cases = [case for _, case in zip(range(60), _exhaustive_cases(code))]
    # (i,) and (i + base n,): base column i with the first and the second multiplier
    pairs = [*zip(cases[0::2], cases[1::2]), *zip(cases[:10], cases[code.base_n:][:10])]
    shares = [[], []]
    for (D1, one), (D2, two) in pairs:
        for start, share in enumerate(shares):
            for pair in zip(one[start::2], two[start::2]):
                share += zip((D1, D2), pair)
    got = [[], []]

    def work(index):
        for _, outcome in shares[index]:
            try:
                result = recover_support(outcome, code), decode(outcome, code).defectives
            except SqgtError as exc:  # recorded: a wrong support shows in the comparison
                result = exc
            got[index].append(result)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, within a recovery too
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for share, results in zip(shares, got):
        want = [(supports, frozenset(D)) for (D, _), supports
                in zip(share, reference_supports([y for _, y in share], code))]
        assert results == want
    e, stored = code.e, 0
    for i, (key, vote) in enumerate(code.plan.last_vote):
        if key is not None:
            witnesses = sorted(key)[: 2 * e + 1]
            assert vote == (witnesses[e] if witnesses.count(witnesses[e]) > e else None), i
            stored += 1
    assert stored == code.base_n


def test_a_bin_filled_between_two_lookups_still_decodes(code_corpus):
    # A thread that found a bin missing and then, after another thread
    # filled it, found it present took it for a bin with no subset and
    # raised DecodingFailure; decode now looks a bin up once.
    y = syndrome(_entry(code_corpus, "sqs-ks3-d2"), [0, 4])
    warm = dataclasses.replace(_entry(code_corpus, "sqs-ks3-d2"))
    decode(y, warm)
    solved = dict(warm.plan.subset_in_bin)
    assert solved

    class FilledAfterEachLookup(dict):
        def get(self, *args):
            found = super().get(*args)
            self.update(solved)  # as another thread's decode would, just then
            return found

    code = dataclasses.replace(warm)
    vars(code)["plan"] = dataclasses.replace(code.plan, subset_in_bin=FilledAfterEachLookup())
    assert decode(y, code).defectives == frozenset({0, 4})


def _decoded(y, code, decoder=decode):
    try:
        return decoder(y, code)
    except DecodingFailure as exc:
        return "DecodingFailure", str(exc)


def _counting_solver(monkeypatch):
    """Count decode's knapsack_solve calls by (lo, hi); hi is None for the
    exact call."""
    calls = Counter()

    def counting(seq, d, lo, hi=None):
        calls[lo, hi] += 1
        return knapsack_solve(seq, d, lo, hi)

    monkeypatch.setattr(decoders, "knapsack_solve", counting)
    return calls


def test_cold_and_warm_tables_decode_alike(code_corpus):
    """A decode on an empty bin table (a freshly built code) and one after the
    table holds every bin seen agree, results and failures alike, on every
    exhaustive outcome at e and about 2,000 seeded outcomes at e + 1."""
    for name, code in code_corpus:
        if code.sequence.kind == QUANTIZED_BH:
            continue
        fresh = dataclasses.replace(code)
        table = fresh.plan.subset_in_bin
        assert not table
        full = {}
        Q = code.thresholds.Q
        sets = [D for size in range(1, code.d + 1) for D in combinations(range(code.n), size)]
        samples = math.ceil(2000 / len(sets))
        for index, D in enumerate(sets):
            clean = syndrome(code, D)
            outcomes = list(inject_exhaustive(clean, code.e, Q))
            outcomes += inject_random(clean, code.e + 1, Q, (13, index), samples)
            cold = []
            for y in outcomes:
                table.clear()
                cold.append(_decoded(y, fresh))
                full.update(table)
            table.update(full)
            assert [_decoded(y, fresh) for y in outcomes] == cold, (name, D)
            assert table == full  # no warm decode missed the table
            in_contract = cold[: -samples]
            assert all(r.defectives == frozenset(D) for r in in_contract), (name, D)


def test_decode_matches_the_reference_outside_the_contract(code_corpus):
    """decode gives reference_decode's result, or its failure, on every
    corpus code: at e + 1 seeded-random errors (about 200 outcomes a code)
    and on 200 uniformly random vectors, with a cold bin table and a warm
    one."""
    rng = np.random.default_rng(28)
    seen = Counter()
    for name, code in code_corpus:
        fresh = dataclasses.replace(code)
        table = fresh.plan.subset_in_bin
        cold_table = code.sequence.kind != QUANTIZED_BH  # else whole from the start
        Q = code.thresholds.Q
        sets = [D for size in range(1, code.d + 1) for D in combinations(range(code.n), size)]
        samples = math.ceil(200 / len(sets))
        vectors = []
        for index, D in enumerate(sets):
            vectors += inject_random(syndrome(code, D), code.e + 1, Q, (28, index), samples)
        vectors += rng.integers(0, Q, size=(200, code.m)).tolist()
        want = [_decoded(y, code, reference_decode) for y in vectors]
        cold, full = [], dict(table)
        for y in vectors:
            if cold_table:
                table.clear()
            cold.append(_decoded(y, fresh))
            full.update(table)
        assert cold == want, name
        table.update(full)
        warm = [_decoded(y, fresh) for y in vectors]
        assert warm == want, name
        assert table == full, name  # every bin the warm pass met was known
        assert list(map(hash, warm)) == list(map(hash, want)), name
        # each entry holds its bin's sorted multipliers and their column offsets
        values, base_n = code.sequence.values, code.base_n
        for r, entry in table.items():
            subset = reference_bin_subset(code, r)
            offsets = subset and tuple(values.index(a) * base_n for a in subset)
            assert entry == (subset and (subset, offsets)), (name, r)
        seen.update(
            r[0] if isinstance(r, tuple) else "warning" if r.warning else "decoded"
            for r in want)
    # the comparison covers results, warnings and vote failures alike
    assert seen["decoded"] and seen["warning"] and seen["DecodingFailure"], seen


def test_the_bin_table_is_the_only_decode_cache(code_corpus, monkeypatch):
    # a cleared table makes the next decode cold again: nothing beside it
    # keeps a solved bin
    calls = _counting_solver(monkeypatch)
    code = dataclasses.replace(_entry(code_corpus, "sqs-ks3-d2"))
    y = syndrome(code, [0, 4])
    decode(y, code)
    solved = sum(calls.values())
    decode(y, code)
    assert solved > 0 and sum(calls.values()) == solved
    code.plan.subset_in_bin.clear()
    decode(y, code)
    assert sum(calls.values()) == 2 * solved


def test_a_campaign_solves_each_bin_once(code_corpus, monkeypatch):
    calls = _counting_solver(monkeypatch)
    code = dataclasses.replace(_entry(code_corpus, "sqs-rep4-d3-e1"))
    assert simulate_campaign(code).failures == 0
    simulate_campaign(code, code.e + 1, SEEDED_RANDOM, seed=5, samples_per_set=20)
    bins = [key for key in calls if key[1] is not None]
    assert bins and all(calls[key] == 1 for key in bins)
    assert sum(calls.values()) <= 2 * len(bins)
    assert len(code.plan.subset_in_bin) == len(bins) < code.thresholds.Q


def test_knapsack_solve_time_is_linear_in_K():
    """The paper's linear-time SQLO decoders, timed at the solver over the
    witness bins of criterion 9's codes: a decode after the first finds its
    bin in the plan's table, so timing decode would time a lookup."""
    Ks = [4, 8, 12, 16]
    for kind in (SQLO_S, SQLO_L):
        means = []
        for K in Ks:
            code = _bench_code(K, kind, 2)
            y = syndrome(code, [0, code.n - 2]).y
            eta = code.thresholds.eta
            bins = []
            for i in recover_support(y, code):
                r = y[select_witness_coords(y, code, i)[code.e]]
                bins.append((eta[r], eta[r + 1]))
            values = code.sequence.values
            for lo, hi in bins:
                assert knapsack_solve(code.sequence, 2, lo, hi) == {values[0], values[-1]}
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _r in range(500):
                    for lo, hi in bins:
                        knapsack_solve(code.sequence, 2, lo, hi)
                best = min(best, (time.perf_counter() - t0) / 500)
            means.append(best)
        slope = float(np.polyfit(np.log(Ks), np.log(means), 1)[0])
        assert slope <= 1.5, (kind, slope)


def test_knapsack_calls_do_not_grow_with_bin_width(monkeypatch):
    """One-error decodes on uniform thresholds of width 1 to 4096, with the
    sequence scaled to them, see the same bins, so fresh codes make the same
    solver calls at every width: at most two per distinct bin."""
    rep = replicated_identity(2, 3)
    for kind, base in ((SQLO_S, base_recursive_superincreasing(2, 8)),
                       (SQLO_L, strong_lex_base(8))):
        Q = max(sum(base.values[-3:]), 2 * base.values[-1]) + 1
        counts = []
        for gap in (1, 16, 256, 4096):
            calls = _counting_solver(monkeypatch)
            th = uniform_thresholds(gap, Q)
            code = build(rep, scaled_construction(base, th, 2, Q), th, 2, "strict")
            for D in ([0, code.n - 2], [code.n - 1]):
                for outcome in inject_exhaustive(syndrome(code, D), 1, Q):
                    assert decode(outcome, code).defectives == frozenset(D)
            bins = sum(hi is not None for _, hi in calls)
            assert 0 < sum(calls.values()) <= 2 * bins
            counts.append(sum(calls.values()))
        assert len(set(counts)) == 1, (kind, counts)
