"""Two seeded properties over whole codes: a fuzz of saved code files that
may only ever raise the package's typed errors, and the decoding claim that
every code build accepts keeps."""

import copy
import json
import random
from contextlib import suppress
from itertools import accumulate

import numpy as np

from sqgt import (
    SqgtError,
    Thresholds,
    build,
    decode,
    greedy_generate,
    load_code,
    save_code,
    simulate_campaign,
    syndrome,
    user_code,
)
from sqgt.sequences import KINDS


def _mutate(rng, node, pool):
    """Replace one value of a nested description: descend from the root
    into a random child, stopping at each nonempty dict or list with
    probability 1/2."""
    while True:
        key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
        if isinstance(node[key], (dict, list)) and node[key] and rng.random() < 0.5:
            node = node[key]
            continue
        node[key] = copy.deepcopy(rng.choice(pool))
        return


def untyped_escapes(code_corpus, tmp_path, mutations, seed):
    """(exception, description) for each untyped error that load_code, or
    syndrome and decode of a code it loads, raises on a mutation of a saved
    corpus description.  Each mutation replaces up to two values by ones
    from a fixed pool; in 3 of 10 every threshold and multiplier is first
    shifted left by 56 to 63 bits, to values near and past 2**63."""
    saved = []
    for name, code in code_corpus:
        with open(save_code(code, str(tmp_path / name))) as fh:
            saved.append(json.load(fh))
    missing, directory, nul = str(tmp_path / "missing"), str(tmp_path), "a\x00b"
    latin = tmp_path / "latin1"  # not UTF-8
    latin.write_bytes(b"\xff\xfe[0, 3, 6]")
    latin = str(latin)
    pool = [2**62, 2**63 - 1, 2**63, 2**64, -1, float("nan"), 3.5, True, False, None,
            [[1, 0], [1]], [0, [3, 6]], {}, missing, directory, "file:" + directory,
            {"spec": "file:" + directory, "d": 1, "e": 0}, {"spec": "file:" + missing},
            "identity:x", "ks:3", "nope:1", "random:4,-1", {"spec": "ks:3,2,1"},
            nul, latin, "file:" + nul, "file:" + latin,
            {"spec": "file:" + nul, "d": 1, "e": 0}, {"spec": "file:" + latin, "d": 1, "e": 0}]
    huge = ["identity:10000000000", "replicated:10000000000,2", "ks:1000003,2", "random:3,10000000000"]
    pool += huge + [{"spec": spec, "d": 1} for spec in huge]  # bases numpy refuses to make
    rng, path, escapes = random.Random(seed), str(tmp_path / "mutated.json"), []
    for i in range(mutations):
        description = copy.deepcopy(rng.choice(saved))
        if i % 10 < 3:
            shift = rng.randint(56, 63)
            description["thresholds"] = [v << shift for v in description["thresholds"]]
            values = description["sequence"]["values"]
            description["sequence"]["values"] = [v << shift for v in values]
        for _ in range(rng.randint(0, 2)):
            _mutate(rng, description, pool)
        with open(path, "w") as fh:
            json.dump(description, fh)
        try:
            code = load_code(path)
            clean = syndrome(code, rng.sample(range(code.n), rng.randint(1, code.d)))
            noise = [rng.randrange(code.thresholds.Q) for _ in range(code.m)]
            for y in (clean, noise):
                with suppress(SqgtError):
                    decode(y, code)
        except SqgtError:
            pass
        except Exception as exc:  # noqa: BLE001 - the property is that none arrives
            escapes.append((exc, description))
    return escapes


def test_mutated_code_files_raise_only_typed_errors(code_corpus, tmp_path):
    escapes = untyped_escapes(code_corpus, tmp_path, 1000, seed=8)
    assert not escapes, [f"{type(exc).__name__}: {exc} on {d}" for exc, d in escapes[:3]]


def test_every_code_build_accepts_decodes_every_pattern_it_promises():
    # Random small bases whose claimed d and e user_code verifies, greedy
    # sequences of every kind on thresholds with bins 1-4 wide, d in 1-3 and
    # both modes: each code build accepts recovers every <= d set under
    # every <= e errors.  A base less than min(d, n-1)-disjunct fails here.
    rng, built = random.Random(23), 0
    while built < 1000:
        m, n = rng.randint(2, 7), rng.randint(2, 5)
        matrix = np.array([[rng.randint(0, 1) for _ in range(n)] for _ in range(m)])
        gaps = [rng.randint(1, 4) for _ in range(rng.randint(1, 20))]
        th = Thresholds(tuple(accumulate([0] + gaps)))
        try:
            base = user_code(matrix, rng.randint(1, n - 1), rng.randint(0, 1))
            seq = greedy_generate(th, rng.randint(1, 3), rng.randint(1, 3), rng.choice(KINDS))
            code = build(base, seq, th, rng.randint(1, 3), rng.choice(("strict", "permissive")))
        except SqgtError:
            continue
        built += 1
        summary = simulate_campaign(code)
        assert summary.failures == 0, (matrix.tolist(), base.d, base.e, seq, code.d, code.mode)
