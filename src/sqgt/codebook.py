"""Assembly and verification of concatenated q-ary test matrices.

A code is built by horizontally concatenating alpha_j * C_b for every
multiplier alpha_j of a verified sequence; column (j*n_b + i) is base
column i scaled by alpha_j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, cycle

import numpy as np

from .channel import quantize_sums
from .decoders import _build_plan
from .disjunct import (
    BinaryDisjunctCode,
    identity_code,
    kautz_singleton,
    random_code,
    replicated_identity,
    user_code,
)
from .errors import (
    BudgetExceeded,
    CorruptCode,
    HeadroomError,
    InfeasibleThresholds,
    InvalidInput,
    ParameterError,
    SqgtError,
)
from .quantization import Thresholds, as_int, as_ints, load_thresholds, read_file
from .sequences import (
    QUANTIZED_BH,
    MultiplierSequence,
    _cardinality_feasible,
    _subsets_needed,
    check_sequence,
    greedy_generate,
    verified_sequence,
)

STRICT = "strict"
PERMISSIVE = "permissive"

MAX_SEPARABILITY_CELLS = 10**7  # result-vector coordinates one check holds, or compares


@dataclass(frozen=True)
class SqgtCode:
    matrix: np.ndarray  # m x (K * base.n) over [q]
    thresholds: Thresholds
    sequence: MultiplierSequence
    base: BinaryDisjunctCode
    d: int
    e: int
    q: int
    mode: str = STRICT

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def base_n(self) -> int:
        return self.base.n

    plan = cached_property(_build_plan)  # the decoders' plan, built on first use


def pair_sequence(th: Thresholds) -> MultiplierSequence:
    """The two-multiplier sequence {eta_1, max(eta_2, eta_3 - eta_1)}."""
    if th.Q < 4:
        raise InfeasibleThresholds(f"need Q >= 4, got Q={th.Q}")
    a1 = th.eta[1]
    a2 = max(th.eta[2], th.eta[3] - th.eta[1])
    if th.top <= a1 + a2:
        raise InfeasibleThresholds(
            f"top threshold {th.top} <= alpha_1 + alpha_2 = {a1 + a2}"
        )
    return verified_sequence((a1, a2), th, 2, QUANTIZED_BH)


def build(
    base: BinaryDisjunctCode,
    seq: MultiplierSequence,
    th: Thresholds,
    d: int,
    mode: str = STRICT,
) -> SqgtCode:
    """Concatenate the scaled copies of the base matrix into an SQGT code.

    Strict mode enforces the blanket model headroom eta_Q > d(q-1);
    permissive mode requires eta_Q to exceed the largest sum of any d
    entries in one row of the concatenated matrix, the largest value a
    syndrome of at most d defectives can take, so no such syndrome
    overflows.  In both modes every row of the matrix sums below 2**63.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise InvalidInput(f"unknown mode {mode!r}")
    d = as_int(d, "d", 1)
    if seq.h < d:
        raise ParameterError(f"sequence verified for h={seq.h} < d={d}")
    if d > base.n * len(seq.values):
        raise ParameterError(f"d={d} exceeds the code's {base.n * len(seq.values)} columns")
    # Support recovery drops a column only through 2e+1 of its rows that miss
    # every defective column, and up to min(d, n-1) other columns are defective.
    if base.d < min(d, base.n - 1):
        raise ParameterError(f"base is {base.d}-disjunct < d={d}")
    if seq.thresholds != th:
        report = check_sequence(seq.values, th, seq.h, seq.kind)
        if not report.passed:
            raise ParameterError(
                f"sequence not valid for these thresholds: {report.first_violation}"
            )
    q = seq.values[-1] + 1
    matrix = np.hstack([a * base.matrix for a in seq.values])
    # A row's sum bounds every column-set sum in it, so below 2**63 none wraps in int64.
    if int(matrix.max()) * matrix.shape[1] >= 2**63:
        r, total = max(enumerate(map(sum, matrix.tolist())), key=lambda rt: rt[1])
        if total >= 2**63:
            raise HeadroomError(f"row {r} of the code matrix sums to {total} >= 2**63")
    if mode == STRICT:
        if th.top <= d * (q - 1):
            raise HeadroomError(
                f"strict headroom violated: eta_Q={th.top} <= d*(q-1)={d * (q - 1)}"
            )
    else:
        # Columns overlapping in a row may reuse one multiplier, so the d
        # largest multipliers do not bound a row sum; its d largest entries do.
        row_max = np.sort(matrix, axis=1)[:, -d:].sum(axis=1)
        r = int(row_max.argmax())
        if th.top <= row_max[r]:
            raise HeadroomError(
                f"permissive headroom violated: eta_Q={th.top} <= "
                f"sum of the {d} largest entries of row {r} = {int(row_max[r])}"
            )
    return SqgtCode(
        matrix=matrix,
        thresholds=th,
        sequence=seq,
        base=base,
        d=d,
        e=base.e,
        q=q,
        mode=mode,
    )


def _group_weights(code: SqgtCode, count: int) -> np.ndarray:
    """m x count weights giving each group of coordinates a key: its bins in
    radix Q|1 mod 2**64.  Each base column deals its unplaced rows to the
    groups it has not met, least-filled first.  A row no column covers joins none."""
    group, fill = [-1] * code.m, [0] * count
    weights = np.zeros((code.m, count), dtype=np.uint64)
    for column in code.base.matrix.T.tolist():
        rows = [k for k, v in enumerate(column) if v]
        met = {group[k] for k in rows}
        ranked = sorted(range(count), key=lambda g: (g in met, fill[g])) if -1 in met else ()
        for k, g in zip([k for k in rows if group[k] < 0], cycle(ranked)):
            group[k], weights[k, g] = g, pow(code.thresholds.Q | 1, fill[g], 2**64)
            fill[g] += 1
    return weights


def verify_sq_separable(code: SqgtCode, l: int, u: int, e: int) -> bool:
    """Exhaustive check: result vectors of any two distinct column sets
    with sizes in [l, u] differ in >= 2e+1 coordinates.

    The column sums are built level by level, each set of the next size as
    a set plus one column past its last: every set once, in combinations()
    order.  One call of the channel's quantizer bins them all, and its
    OutOfRange names the first overflowing set.

    Only vectors equal on one of 2e+1 disjoint groups of coordinates are
    compared in full.  This is exact: two vectors that differ in at most 2e
    coordinates leave a group untouched (pigeonhole), so they share a run of
    its sorted keys.  A wrapped key only adds pairs to compare.  BudgetExceeded
    refuses to hold more than MAX_SEPARABILITY_CELLS vector coordinates (about
    24 bytes of peak memory each), or to compare more in the runs."""
    l, e = as_int(l, "l", 1), as_int(e, "e", 0)
    u = as_int(u, "u", l, code.n)
    num_sets = sum(math.comb(code.n, s) for s in range(l, u + 1))
    if num_sets * code.m > MAX_SEPARABILITY_CELLS:
        raise BudgetExceeded(
            f"{num_sets} sets -> {num_sets * code.m} result-vector cells held "
            f"exceed {MAX_SEPARABILITY_CELLS}"
        )
    n, columns = code.n, code.matrix.T
    sets = np.array(list(combinations(range(n), l)), np.intp).reshape(-1, l)
    sums = np.empty((num_sets, code.m), np.int64)
    sums[: len(sets)] = columns.take(sets, axis=0).sum(axis=1)
    last, start, end = sets[:, -1], 0, len(sets)
    for _ in range(l, u):  # each set one larger: a set of this size and a column past its last
        count = n - 1 - last
        parent = np.repeat(np.arange(start, end), count)
        last = np.arange(len(parent)) + np.repeat(last + 1 - (np.cumsum(count) - count), count)
        start, end = end, end + len(last)
        np.add(sums.take(parent, axis=0), columns.take(last, axis=0), out=sums[start:end])
    rows = quantize_sums(code.thresholds, sums)
    del sums  # one array of cells fewer at the peak
    need = 2 * e + 1
    if code.m < need:  # two vectors differ in at most m < 2e+1 coordinates
        return len(rows) < 2
    keys = _group_weights(code, need).T @ rows.astype(np.uint64).T
    order, keys = keys.argsort(axis=1).ravel(), np.sort(keys, axis=1)
    # same[i]: sorted places i and i + 1 hold equal keys of one group
    same = np.hstack([keys[:, 1:] == keys[:, :-1], np.zeros((need, 1), bool)]).ravel()
    active, t, compared = np.flatnonzero(same), 1, 0  # places i with equal keys at i + t
    while active.size:
        compared += active.size * code.m
        if compared > MAX_SEPARABILITY_CELLS:
            raise BudgetExceeded(
                f"offset {t} -> {compared} cells compared exceed {MAX_SEPARABILITY_CELLS}"
            )
        if np.count_nonzero(rows[order[active]] != rows[order[active + t]], axis=1).min() < need:
            return False
        active = active[same[active + t]]
        t += 1
    return True


def feasibility_report(
    n: int | None = None,
    d: int | None = None,
    Q: int | None = None,
    K: int | None = None,
    h: int | None = None,
    q: int | None = None,
    th: Thresholds | None = None,
) -> dict:
    """Informational lower bounds and necessary-condition checks; never
    blocking.  InvalidInput names a given n, d, K or h below 1, Q or q below
    2, or d above a given n."""
    n, K, h, Q, q = (
        None if v is None else as_int(v, name, least)
        for name, v, least in (("n", n, 1), ("K", K, 1), ("h", h, 1), ("Q", Q, 2), ("q", q, 2))
    )
    d = None if d is None else as_int(d, "d", 1, n)
    report: dict = {"notes": []}
    if n and d and Q:
        report["tests_lower_bound_counting"] = d * math.log(n / d, Q)
        report["notes"].append("counting bound drops the o(1) term")
        if d >= 2:
            report["tests_lower_bound_cgt"] = (
                d * d / (2 * math.log2(d)) * math.log2(n)
            )
    if K and h and Q:
        violation = _cardinality_feasible(_subsets_needed(K, h), h, Q)
        report["cardinality_check"] = {
            "condition": violation or f"subsets of cardinality <= {h} fit in Q={Q} bins",
            "feasible": violation is None,
        }
    if q is not None and th is not None:
        ok = q >= th.eta[1] + 1
        report["alphabet_check"] = {
            "condition": f"q >= eta_1 + 1 ({q} >= {th.eta[1] + 1})",
            "feasible": ok,
        }
        if not ok and q == 2:
            report["notes"].append("no binary code exists for these thresholds")
    return report


# --- matrix text format of file: bases: "m n q" header, then m rows over [q] ---


def matrix_from_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInput("empty matrix file")
    try:
        m, n, q = (int(v) for v in lines[0].split())
    except ValueError as exc:
        raise InvalidInput(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != m + 1:
        raise InvalidInput(f"expected {m} rows, found {len(lines) - 1}")
    try:
        matrix = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=int)
    except ValueError as exc:
        raise InvalidInput(f"matrix rows are not {n} integers each") from exc
    if matrix.shape != (m, n):
        raise InvalidInput("row lengths disagree with header")
    as_ints(matrix.ravel().tolist(), "matrix entry", least=0, most=q - 1)
    return matrix


# --- code descriptions: the one path from a description to build() ---

_REQUIRED = object()
BASE_SPECS = (
    "identity:N | ks:Q,K | replicated:N,COPIES | random:M,N[,DENSITY[,SEED]] | file:PATH"
)


def _field(block: dict, key: str, types: tuple, prefix: str = "", default=_REQUIRED):
    """block[key], which must be of one of `types` (a bool is no int)."""
    value = block.get(key, default)
    if value is _REQUIRED:
        raise InvalidInput(f"missing key {prefix + key!r}")
    if value is not default and (not isinstance(value, types) or isinstance(value, bool)):
        names = " or ".join(t.__name__ for t in types)
        raise InvalidInput(
            f"key {prefix + key!r} must be {names}, got {type(value).__name__}"
        )
    return value


def _base_from_spec(spec: str, d: int | None, e: int | None) -> BinaryDisjunctCode:
    """A base named by one of BASE_SPECS; random needs d, file needs d and e."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        if d is None or e is None:
            raise InvalidInput("a file: base needs base.d and base.e")
        return user_code(matrix_from_text(read_file(rest)), d, e)
    try:
        nums = [float(v) if i == 2 else int(v) for i, v in enumerate(rest.split(","))]
        if min(nums) < 0:
            raise ValueError
    except ValueError:
        nums = []  # no branch below takes it
    if kind == "identity" and len(nums) == 1:
        return identity_code(*nums)
    if kind == "ks" and len(nums) == 2:
        return kautz_singleton(*nums, d=d)
    if kind == "replicated" and len(nums) == 2:
        return replicated_identity(*nums)
    if kind == "random" and 2 <= len(nums) <= 4:
        if d is None:
            raise InvalidInput("a random base needs base.d")
        return random_code(*nums[:2], d, e or 0, *nums[2:])
    raise InvalidInput(f"key 'base.spec': {spec!r} is not {BASE_SPECS}")


def _base_from_config(block: dict) -> BinaryDisjunctCode:
    """A base from its spec, or an inline one: a binary matrix whose claimed
    d and e user_code verifies, as it does for a file: base."""
    inline = "matrix" in block
    required = _REQUIRED if inline else None
    d, e = (_field(block, key, (int,), "base.", required) for key in ("d", "e"))
    if not inline:
        return _base_from_spec(_field(block, "spec", (str,), "base."), d, e)
    try:
        matrix = np.array(_field(block, "matrix", (list,), "base."))
    except ValueError:  # rows of unequal length
        matrix = np.array(())
    if matrix.ndim != 2 or 0 in matrix.shape or matrix.dtype.kind != "i" or (
        not ((matrix == 0) | (matrix == 1)).all()
    ):
        raise InvalidInput("key 'base.matrix' must be a non-empty binary matrix")
    return user_code(matrix, d, e)


def code_from_config(cfg: dict) -> SqgtCode:
    """Build the code a description names: "thresholds" (a list, or a string
    load_thresholds reads), "base" ({"spec", "d"?, "e"?} or {"matrix", "d", "e"}),
    "sequence" ({"kind", "h", "values"}, or "K" in place of "values" for a
    greedy one), "d" and "mode" (default strict); other keys are ignored.
    A missing key, a wrong type or a malformed spec raises InvalidInput
    naming the key."""
    if not isinstance(cfg, dict):
        raise InvalidInput(f"a code description is an object, got {type(cfg).__name__}")
    eta = _field(cfg, "thresholds", (list, str))
    th = load_thresholds(eta) if isinstance(eta, str) else Thresholds(tuple(eta))
    base = _base_from_config(_field(cfg, "base", (dict,)))
    seq_cfg = _field(cfg, "sequence", (dict,))
    kind = _field(seq_cfg, "kind", (str,), "sequence.")
    h = _field(seq_cfg, "h", (int,), "sequence.")
    if "values" in seq_cfg:
        values = _field(seq_cfg, "values", (list,), "sequence.")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
            raise InvalidInput("key 'sequence.values' must be a list of integers")
        seq = verified_sequence(values, th, h, kind)
    else:
        seq = greedy_generate(th, h, _field(seq_cfg, "K", (int,), "sequence."), kind)
    d = _field(cfg, "d", (int,))
    return build(base, seq, th, d, _field(cfg, "mode", (str,), default=STRICT))


def save_code(code: SqgtCode, prefix: str) -> str:
    """Write PREFIX.json, the description code_from_config builds the code
    from, with the base matrix inline; it is also a `simulate` config."""
    path, base, seq = prefix + ".json", code.base, code.sequence
    description = {
        "thresholds": list(code.thresholds.eta),
        "base": {"d": base.d, "e": base.e, "matrix": base.matrix.tolist()},
        "sequence": {"kind": seq.kind, "h": seq.h, "values": list(seq.values)},
        "d": code.d,
        "mode": code.mode,
    }
    lines = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in description.items())
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise InvalidInput(f"cannot write {path!r}: {reason}") from exc
    return path


def load_code(path: str) -> SqgtCode:
    """Rebuild a code from the file save_code wrote (see code_from_config);
    CorruptCode names the file and what is wrong with it, or with a file
    it names."""
    try:
        return code_from_config(read_file(path, as_json=True))
    except SqgtError as exc:
        raise CorruptCode(f"{path}: {exc}") from exc
