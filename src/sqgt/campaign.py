"""Exhaustive decoding campaigns over defective sets and error patterns."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import combinations

from .channel import inject_exhaustive, inject_random, syndrome
from .codebook import SqgtCode
from .decoders import decode
from .errors import DecodingFailure, InvalidInput
from .quantization import as_int

EXHAUSTIVE = "exhaustive"
SEEDED_RANDOM = "seeded-random"


@dataclass
class CampaignSummary:
    cases: int = 0
    successes: int = 0
    failures: int = 0
    truncated: bool = False
    failure_examples: list = field(default_factory=list)

    def merge(self, other: "CampaignSummary") -> None:
        self.cases += other.cases
        self.successes += other.successes
        self.failures += other.failures
        self.truncated |= other.truncated
        self.failure_examples.extend(other.failure_examples)
        self.failure_examples = self.failure_examples[:10]


def _defective_sets(code: SqgtCode, d_max: int):
    for size in range(1, d_max + 1):
        yield from combinations(range(code.n), size)


def _run_chunk(
    code: SqgtCode,
    chunk,
    e_inject: int,
    policy: str,
    seed: int,
    samples: int,
    budget: int | None,
) -> CampaignSummary:
    summary = CampaignSummary()
    Q = code.thresholds.Q
    for index, D in chunk:
        truth = frozenset(D)
        clean = syndrome(code, D)
        # each set draws from its own stream, whatever chunk it lands in
        for outcome in (inject_exhaustive(clean, e_inject, Q) if policy == EXHAUSTIVE
                        else inject_random(clean, e_inject, Q, (seed, index), samples)):
            if budget is not None and summary.cases >= budget:
                summary.truncated = True
                return summary
            summary.cases += 1
            try:
                result = decode(outcome, code)
                ok = result.defectives == truth
            except DecodingFailure:
                ok = False
            if ok:
                summary.successes += 1
            else:
                summary.failures += 1
                if len(summary.failure_examples) < 10:
                    summary.failure_examples.append(
                        {"defectives": sorted(truth), "y": list(outcome.y)}
                    )
    return summary


def simulate_campaign(
    code: SqgtCode,
    e_inject: int | None = None,
    policy: str = EXHAUSTIVE,
    seed: int = 0,
    samples_per_set: int = 10,
    budget: int | None = None,
    workers: int = 1,
) -> CampaignSummary:
    """Enumerate all defective sets with 1 <= |D| <= d, run the kind-matched
    decoder on every error pattern per policy, and report exact-recovery
    counts.  Under contract (e_inject <= code.e) failures must be 0."""
    if policy not in (EXHAUSTIVE, SEEDED_RANDOM):
        raise InvalidInput(f"unknown error policy {policy!r}")
    e_inject = code.e if e_inject is None else as_int(e_inject, "e_inject", 0)
    samples_per_set = as_int(samples_per_set, "samples_per_set", 1)
    budget = None if budget is None else as_int(budget, "budget", 0)
    workers, seed = as_int(workers, "workers", 1), as_int(seed, "seed", 0)
    sets = list(enumerate(_defective_sets(code, code.d)))
    summary = CampaignSummary()
    if workers == 1:
        summary = _run_chunk(code, sets, e_inject, policy, seed, samples_per_set, budget)
    else:
        # imported here: the pool's modules add about 1.5 MB to every process
        from concurrent.futures import ProcessPoolExecutor
        chunk_size = max(1, len(sets) // workers)
        # Every set has the same number of outcomes, so the budget's first
        # cases in enumeration order end at a known place in each chunk.
        per_set = samples_per_set if policy == SEEDED_RANDOM else sum(
            math.comb(code.m, t) * (code.thresholds.Q - 1) ** t
            for t in range(min(e_inject, code.m) + 1)
        )
        starts = range(0, len(sets), chunk_size)
        # A fork pool starts all its processes at the first submit: start no
        # more than there are chunks or CPUs.
        with ProcessPoolExecutor(min(workers, len(starts), os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(
                    _run_chunk, code, sets[i : i + chunk_size], e_inject, policy,
                    seed, samples_per_set,
                    None if budget is None else max(0, budget - i * per_set),
                )
                for i in starts
            ]
            for fut in futures:
                summary.merge(fut.result())
    return summary
