"""The benchmark's three workloads.

Each workload draws its inputs from the seed in ``__init__``; ``setup``
does the program's own set-up work (and may run several times);
``run_round`` makes one whole round of operations, appending one latency
sample in nanoseconds per operation; ``finish`` runs the checks that are
too costly for the timed phase.  Every call into the program goes through
a module attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import random
import time
from itertools import accumulate, combinations
from pathlib import Path

import numpy as np
from sqgt import campaign, channel, codebook, decoders, disjunct, errors, quantization, sequences

import reference

# Every timing is CPU time of this process.  The program is single-threaded
# and CPU-bound, so CPU time is its latency on an unshared core; wall time on
# a shared VM also counts the time the CPU was given to other tenants.
clock_ns = time.process_time_ns

QBH, SQLO_S, SQLO_L = "quantized-bh", "sqlo-s", "sqlo-l"
KINDS = (QBH, SQLO_S, SQLO_L)
# Inputs whose cost varies too much between draws for the few draws a run
# can afford come from this fixed seed instead of --seed.
LAYOUT_SEED = 20141018


def shuffled_thresholds(rng: random.Random, widths: list[int]) -> tuple[int, ...]:
    """Thresholds whose bins have the given widths, in seeded order."""
    rng.shuffle(widths)
    return tuple(accumulate(widths, initial=0))


def make_base(spec):
    kind, *args = spec
    if kind == "identity":
        return disjunct.identity_code(*args)
    if kind == "replicated":
        return disjunct.replicated_identity(*args)
    q_field, k, d = args
    return disjunct.kautz_singleton(q_field, k, d)


# --- campaign-corpus ------------------------------------------------------
# A fixed copy of the 21-code test corpus, so edits to the tests do not
# change this workload.  The hot code sqs-ks5-k2-d2-e1 holds 447,525 of the
# 521,506 cases.

CORPUS_THRESHOLDS = {
    "step3": tuple(range(0, 46, 3)),
    "gaps": (0, 2, 5, 6, 10, 13, 15, 16, 18, 21),
    "gaps-tall": (0, 2, 5, 6, 10, 13, 15, 16, 18, 21, 24, 28, 33),
    "unit14": tuple(range(15)),
    "unit9": tuple(range(10)),
}
CORPUS_BASES = {
    "i2": ("identity", 2), "i3": ("identity", 3),
    "i4": ("identity", 4), "i5": ("identity", 5),
    "ks3": ("kautz-singleton", 3, 2, None), "ks5": ("kautz-singleton", 5, 2, 2),
    "rep3": ("replicated", 3, 3), "rep4": ("replicated", 4, 3),
}
# name, base, thresholds, kind, h, multipliers (None: pair_sequence), d, mode
CORPUS = (
    ("qbh-i2-d2", "i2", "step3", QBH, 3, (3, 6, 12), 2, "strict"),
    ("qbh-i3-d2", "i3", "step3", QBH, 3, (3, 6, 12), 2, "strict"),
    ("qbh-ks3-d2", "ks3", "step3", QBH, 3, (3, 6, 12), 2, "strict"),
    ("qbh-i4-k2-d2", "i4", "step3", QBH, 2, (3, 6), 2, "strict"),
    ("qbh-i5-k1-d2", "i5", "step3", QBH, 2, (3,), 2, "strict"),
    ("qbh-rep4-d2-e1", "rep4", "step3", QBH, 3, (3, 6, 12), 2, "strict"),
    ("qbh-pair-i3-d2", "i3", "gaps", QBH, 2, None, 2, "strict"),
    ("sqs-i2-d2", "i2", "step3", SQLO_S, 3, (3, 6, 12), 2, "strict"),
    ("sqs-ks3-d2", "ks3", "step3", SQLO_S, 3, (3, 6, 12), 2, "strict"),
    ("sqs-i3-d1", "i3", "gaps", SQLO_S, 3, (2, 5, 11), 1, "strict"),
    ("sqs-i2-d2-perm", "i2", "gaps", SQLO_S, 3, (2, 5, 11), 2, "permissive"),
    ("sqs-rep3-d2-e1-perm", "rep3", "gaps", SQLO_S, 3, (2, 5, 11), 2, "permissive"),
    ("sqs-ks3-tall-d2", "ks3", "gaps-tall", SQLO_S, 3, (2, 5, 11), 2, "strict"),
    ("sqs-rep4-d3-e1", "rep4", "step3", SQLO_S, 3, (3, 6, 12), 3, "strict"),
    ("sqs-ks5-k2-d2-e1", "ks5", "step3", SQLO_S, 2, (3, 6), 2, "strict"),
    ("sql-i2-d2", "i2", "unit14", SQLO_L, 2, (3, 4, 5), 2, "strict"),
    ("sql-i4-d2", "i4", "unit14", SQLO_L, 2, (3, 4, 5), 2, "strict"),
    ("sql-ks3-d2", "ks3", "unit14", SQLO_L, 2, (3, 4, 5), 2, "strict"),
    ("sql-rep3-d2-e1", "rep3", "unit14", SQLO_L, 2, (3, 4, 5), 2, "strict"),
    ("sql-i2-234-d2", "i2", "unit9", SQLO_L, 2, (2, 3, 4), 2, "strict"),
    ("sql-i3-k2-d2", "i3", "step3", SQLO_L, 2, (3, 6), 2, "strict"),
)
HOT_CODE = "sqs-ks5-k2-d2-e1"
CASE_SAMPLES = 200  # seeded cases re-derived by the benchmark's own arithmetic


def warm_up(code) -> None:
    """One decode of the cleanest vector, so lazily built per-code state
    lands in set-up."""
    y = reference.result_vector(
        code.thresholds.eta, reference.columns(code.sequence.values, code.base.matrix), [0]
    )
    decoders.decode(y, code)


def separable(code) -> bool:
    return codebook.verify_sq_separable(code, 1, code.d, code.e)


class CampaignCorpus:
    """Exhaustive simulate_campaign at e_inject = code.e over the corpus.

    Latency samples are per case: a probe on the campaign's call to decode
    reads the clock as each case reaches its decode, and a case lasts until
    the next case does (the first from the campaign's start, the last until
    it returns), so a case includes its share of injection and syndromes.
    The probe writes each case's time straight into the sample store and
    keeps only the last clock reading.  A campaign that does not call
    decode once per case fails a check.  The tail is p99: p99.99, the highest
    percentile with ten samples beyond it, read 282, 416 and 516 us in
    three runs of this identical round."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.codes = []
        self.per_code: list[tuple[str, int, int]] = []  # name, cases, ns
        self.problems: list[str] = []

    def setup(self) -> None:
        codes = []
        for name, base, th, kind, h, values, d, mode in CORPUS:
            eta = quantization.Thresholds(CORPUS_THRESHOLDS[th])
            if values is None:
                seq = codebook.pair_sequence(eta)
            else:
                seq = sequences.verified_sequence(values, eta, h, kind)
            code = codebook.build(make_base(CORPUS_BASES[base]), seq, eta, d, mode)
            if not separable(code):
                raise RuntimeError(f"{name}: corpus code is not separable")
            warm_up(code)
            codes.append((name, code))
        self.codes = codes

    def run_round(self, samples) -> tuple[int, int]:
        attempted = failed = 0
        self.per_code = []
        decode = campaign.decode
        probe_state = [0, 0]  # decode calls this campaign, last clock reading

        def probe(y, code):
            now = clock_ns()
            if probe_state[0]:
                samples.append(now - probe_state[1])
                probe_state[1] = now
            probe_state[0] += 1
            return decode(y, code)

        campaign.decode = probe
        try:
            for name, code in self.codes:
                a, f = self._campaign(name, code, probe_state, samples)
                attempted, failed = attempted + a, failed + f
        finally:
            campaign.decode = decode
        return attempted, failed

    def _campaign(self, name, code, probe_state, samples) -> tuple[int, int]:
        expected = reference.campaign_cases(code.n, code.m, code.thresholds.Q, code.d, code.e)
        t0 = clock_ns()
        probe_state[:] = [0, t0]  # the first case starts with the campaign
        try:
            summary = campaign.simulate_campaign(code, e_inject=code.e, workers=1)
        except errors.SqgtError as exc:
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return expected, expected
        t1 = clock_ns()
        samples.append(t1 - probe_state[1])  # the last case ends with the campaign
        if summary.cases != expected or summary.truncated:
            self.problems.append(
                f"{name}: {summary.cases} cases (expected {expected}), "
                f"truncated={summary.truncated}"
            )
        if probe_state[0] != summary.cases:
            self.problems.append(
                f"{name}: {probe_state[0]} decode calls for {summary.cases} cases"
            )
        self.per_code.append((name, summary.cases, t1 - t0))
        return expected, summary.failures + max(0, expected - summary.cases)

    def finish(self) -> tuple[int, list[str]]:
        """Re-derive a seeded sample of cases: the clean result vector from
        column sums and bisection, the injected vector within e of it, and
        the decode of that vector."""
        problems = list(self.problems)
        for _ in range(CASE_SAMPLES):
            name, code = self.rng.choice(self.codes)
            eta = code.thresholds.eta
            size = self.rng.randint(1, code.d)
            D = tuple(sorted(self.rng.sample(range(code.n), size)))
            own = reference.result_vector(
                eta, reference.columns(code.sequence.values, code.base.matrix), D
            )
            clean = channel.syndrome(code, D)
            if own is None or clean.y != own:
                problems.append(f"{name} {D}: syndrome {clean.y} != {own}")
                continue
            outcomes = list(channel.inject_exhaustive(clean, code.e, code.thresholds.Q))
            outcome = self.rng.choice(outcomes)
            moved = [k for k in range(code.m) if outcome.y[k] != own[k]]
            if len(moved) > code.e or not set(moved) <= set(outcome.error_positions):
                problems.append(f"{name} {D}: outcome {outcome.y} is not within e of {own}")
                continue
            try:
                got = decoders.decode(outcome.y, code).defectives
            except errors.SqgtError as exc:
                got = exc
            if got != frozenset(D):
                problems.append(f"{name} {D}: decoded {got} from {outcome.y}")
        return 0, problems


def campaign_rates(per_code) -> tuple[float, float]:
    """Cases per second of the hot code and of the other codes."""

    def rate(rows):
        ns = sum(ns for _, _, ns in rows)
        return sum(c for _, c, _ in rows) / (ns / 1e9) if ns else 0.0

    return (rate([r for r in per_code if r[0] == HOT_CODE]),
            rate([r for r in per_code if r[0] != HOT_CODE]))


# --- decode-wide-bins -----------------------------------------------------
# Small codes of every kind on non-uniform thresholds whose largest gap is
# 1, 16, 256 or 4096: an SQLO decode scans a witness's whole bin through
# knapsack_solve, so its cost grows with the gap, while the quantized-bh
# table decode does not and serves as the control.  Each code decodes every
# defective set of size 1..d once clean and once with one corrupted
# coordinate.  The threshold layouts come from a fixed seed: where the sums
# land in their bins sets the scan length, and with layouts drawn from
# --seed that moved ops_per_s by 27% (IQR over median) between seeds.
# --seed draws the corruptions.

WIDE_GAPS = (1, 16, 256, 4096)
WIDE_BINS = 64  # Q; the top is about 48 times the largest gap
WIDE_BASE = ("replicated", 2, 3)  # m=6, n_b=2, e=1
WIDE_D = 2
WIDE_K = 4


def wide_thresholds(rng: random.Random, gap: int) -> tuple[int, ...]:
    """Q bins whose widths spread evenly from gap/2 to exactly `gap`."""
    return shuffled_thresholds(
        rng, [max(1, gap - gap * i // (2 * WIDE_BINS)) for i in range(WIDE_BINS)]
    )


def wide_layouts(kind: str, gap: int) -> int:
    """Layouts per kind and gap.  SQLO kinds have one layout per gap, which
    keeps a round short (about 2 s), so a run makes about ten rounds; the
    cheap quantized-bh control gets three per gap above 1, so that more
    than half of all decodes are narrow-bin ones and the median decode is
    one of them."""
    return 3 if kind == QBH and gap > 1 else 1


def base_sequence(kind: str):
    if kind == QBH:
        return sequences.greedy_generate_base("subset-sum-distinct", WIDE_D, WIDE_K)
    if kind == SQLO_S:
        return sequences.base_recursive_superincreasing(WIDE_D, WIDE_K)
    return sequences.strong_lex_base(WIDE_K)


class DecodeWideBins:
    """One decode call per result vector.

    Every round decodes the same vectors, so the samples beyond p99.9 are
    the repeats of the round's one or two slowest vectors, which --seed
    picks: over five seeds p99.9 spread by 10% (IQR over median), p99, the
    slowest 1% of the vectors, by 3%.  The tail is p99."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        layouts = random.Random(LAYOUT_SEED)
        n, m = WIDE_K * WIDE_BASE[1], WIDE_BASE[1] * WIDE_BASE[2]
        sets = [D for size in range(1, WIDE_D + 1) for D in combinations(range(n), size)]
        self.specs = []  # (kind, eta, [(defectives, corruption or None)])
        for kind in KINDS:
            for gap in WIDE_GAPS:
                for _ in range(wide_layouts(kind, gap)):
                    eta = wide_thresholds(layouts, gap)
                    # corruption (coordinate, shift): the value moves by shift mod Q
                    draws = [(D, None) for D in sets] + [
                        (D, (rng.randrange(m), rng.randrange(1, WIDE_BINS))) for D in sets
                    ]
                    self.specs.append((kind, eta, draws))
        self.vectors = []  # (code, y, truth)

    def setup(self) -> None:
        base = make_base(WIDE_BASE)
        bases = {kind: base_sequence(kind) for kind in KINDS}
        codes = []
        for kind, eta, _ in self.specs:
            th = quantization.Thresholds(eta)
            seq = sequences.scaled_construction(bases[kind], th, WIDE_D, th.Q)
            code = codebook.build(base, seq, th, WIDE_D, "strict")
            if code.e < 1 or not separable(code):
                raise RuntimeError(f"{kind} code on {eta} does not correct one error")
            warm_up(code)
            codes.append(code)
        self.vectors = [
            (code, y, frozenset(D))
            for code, (_, eta, draws) in zip(codes, self.specs)
            for D, y in self._result_vectors(code, eta, draws)
        ]

    @staticmethod
    def _result_vectors(code, eta, draws):
        matrix = reference.columns(code.sequence.values, code.base.matrix)
        for D, corrupt in draws:
            y = list(reference.result_vector(eta, matrix, D))
            if corrupt is not None:
                k, shift = corrupt
                y[k] = (y[k] + shift) % (len(eta) - 1)
            yield D, tuple(y)

    def run_round(self, samples) -> tuple[int, int]:
        failed = 0
        clock = clock_ns
        for code, y, truth in self.vectors:
            t0 = clock()
            try:
                got = decoders.decode(y, code).defectives
            except errors.SqgtError:
                got = None
            samples.append(clock() - t0)
            failed += got != truth
        return len(self.vectors), failed

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# --- construct-codes ------------------------------------------------------
# Seeded thresholds through the design path: greedy_generate -> build ->
# verify_sq_separable(u=d) -> save_code -> load_code.  Nothing is decoded.
# The d=1 designs are cheap and weighted so the median operation is one of
# them (file I/O is a large share of it); their thresholds come from --seed.
# The d=2 and d=3 designs carry the exhaustive checkers and the separability
# check into the tail and most of a round's time.  Their thresholds come
# from a fixed seed: one draw of each cost 0.6 to 2.2 times its median,
# and with seeded draws one seed's rounds ran 13% slower than another's in
# every run, so ops_per_s spread by 10% (IQR over median) over five seeds.
# SQLO_l greedy with h >= 2 stalls after two elements and scans every
# candidate up to the top threshold.

CONSTRUCT_BASES = {
    "i3": ("identity", 3), "i4": ("identity", 4),
    "rep3": ("replicated", 3, 3), "rep4": ("replicated", 4, 3),
    "ks3": ("kautz-singleton", 3, 2, None),
}
# K target, d, base, bins Q (top = 3Q), draws per round.  Codes on
# identity-type bases are built in permissive mode: greedy sequences break
# the strict headroom d(q-1) < top on some seeds (d=3 often, K=8 d=2 once
# in 150 seeds), and these bases never overlap two columns of one block,
# so no sum can reach the top.  Kautz-Singleton codes are built strict.
CONSTRUCT_DESIGNS = (
    (4, 1, "i3", 40, 12), (6, 1, "rep3", 60, 12), (8, 1, "i3", 80, 12),
    (4, 2, "ks3", 120, 1), (5, 2, "i3", 150, 1), (6, 2, "rep3", 200, 1),
    (7, 2, "i3", 260, 1), (8, 2, "rep3", 320, 1),
    (4, 3, "i4", 200, 1), (5, 3, "rep4", 300, 1),
)
GREEDY_EXAMPLE = ((0, 2, 5, 6, 10, 13, 15, 16, 18, 21), 3, 3, SQLO_S, (2, 5, 11))


def construct_thresholds(rng: random.Random, bins: int) -> tuple[int, ...]:
    """Bins of widths 1..5 in equal numbers."""
    return shuffled_thresholds(rng, [1 + i % 5 for i in range(bins)])


class ConstructCodes:
    """One operation designs one code from its thresholds."""

    def __init__(self, seed: int, workdir: Path):
        rng, fixed = random.Random(seed), random.Random(LAYOUT_SEED)
        self.workdir = workdir
        self.items = [
            (kind, K, d, base, construct_thresholds(rng if d == 1 else fixed, bins))
            for kind in KINDS
            for K, d, base, bins, draws in CONSTRUCT_DESIGNS
            for _ in range(draws)
        ]
        self.warm_up_items = [
            (kind, K, d, base, construct_thresholds(fixed, bins))
            for kind in KINDS
            for K, d, base, bins, _ in CONSTRUCT_DESIGNS
            if d == 1
        ]
        self.bases = {}
        self.outputs = None  # outputs of the first round, checked in finish
        self.rounds = 0

    def setup(self) -> None:
        """Build the bases and warm up one design of every d=1 design and
        kind on fixed thresholds, so that set-up does the same work on every
        seed (with one seeded warm-up design per kind it lasted about 4 ms
        and its median moved by 29% between runs)."""
        self.bases = {key: make_base(spec) for key, spec in CONSTRUCT_BASES.items()}
        for i, item in enumerate(self.warm_up_items):
            self._design(f"warm{i}", item)

    def _design(self, tag, item):
        kind, K, d, base, eta = item
        th = quantization.Thresholds(eta)
        seq = sequences.greedy_generate(th, d, K, kind)
        mode = "strict" if CONSTRUCT_BASES[base][0] == "kautz-singleton" else "permissive"
        code = codebook.build(self.bases[base], seq, th, d, mode)
        ok = codebook.verify_sq_separable(code, 1, d, code.e)
        prefix = str(self.workdir / f"code{tag}")
        codebook.save_code(code, prefix)
        return seq, code, ok, codebook.load_code(prefix + ".json")

    def run_round(self, samples) -> tuple[int, int]:
        outputs = []
        failed = 0
        clock = clock_ns
        for i, item in enumerate(self.items):
            t0 = clock()
            try:
                out = self._design(i, item)
            except errors.SqgtError:
                out = None
            samples.append(clock() - t0)
            outputs.append(out)
        if self.outputs is None:
            self.outputs = outputs
        for out, first in zip(outputs, self.outputs):
            failed += out is None or not _same_design(out, first)
        self.rounds += 1
        return len(self.items), failed

    def finish(self) -> tuple[int, list[str]]:
        """Check the first round's designs against the definitions; a design
        that fails counts as failed in every round, as it would recur."""
        bad = sum(
            out is not None and not self._design_ok(item, out)
            for item, out in zip(self.items, self.outputs)
        )
        eta, h, K, kind, want = GREEDY_EXAMPLE
        got = sequences.greedy_generate(quantization.Thresholds(eta), h, K, kind).values
        problems = [] if got == want else [f"greedy example gave {got}, not {want}"]
        return bad * self.rounds, problems

    @staticmethod
    def _design_ok(item, out) -> bool:
        kind, K, d, _, eta = item
        seq, code, ok, loaded = out
        if not (ok and seq.kind == kind and seq.h == d):
            return False
        if not reference.is_kind(seq.values, eta, d, kind):
            return False
        if not reference.greedy_is_minimal(seq.values, eta, d, kind, K):
            return False
        matrix = reference.columns(seq.values, code.base.matrix)
        if not np.array_equal(matrix, code.matrix):
            return False
        distance = reference.min_syndrome_distance(eta, matrix, d)
        if distance is None or distance < 2 * code.e + 1:
            return False
        return reference.same_code(code, loaded)


def _same_design(a, b) -> bool:
    """Whether a later round designed what the first round did."""
    if a is None or b is None:
        return a is b
    return (
        a[0].values == b[0].values
        and a[2] == b[2]
        and np.array_equal(a[1].matrix, b[1].matrix)
        and np.array_equal(a[3].matrix, b[3].matrix)
    )


WORKLOADS = {
    "campaign-corpus": CampaignCorpus,
    "decode-wide-bins": DecodeWideBins,
    "construct-codes": ConstructCodes,
}
