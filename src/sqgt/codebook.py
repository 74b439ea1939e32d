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
from itertools import combinations

import numpy as np

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
    OutOfRange,
    ParameterError,
    SqgtError,
)
from .quantization import Thresholds, load_thresholds, quantize
from .sequences import (
    QUANTIZED_BH,
    MultiplierSequence,
    check_sequence,
    greedy_generate,
    subset_sums,
    verified_sequence,
)

STRICT = "strict"
PERMISSIVE = "permissive"

DEFAULT_SEPARABILITY_BUDGET = 10**8


@dataclass(frozen=True)
class DecoderPlan:
    """What every decode of one code needs, derived once from the code."""

    coords: tuple[tuple[int, ...], ...]  # nonzero rows of each base column
    block_of: dict[int, int]  # multiplier value -> block index
    subset_in_bin: dict[int, frozenset[int]]  # quantized-bh only: bin -> subset


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

    @cached_property
    def plan(self) -> DecoderPlan:
        """The decoders' per-code plan, built on first use."""
        # h >= d puts every sum of at most d multipliers in its own bin.
        table = (
            subset_sums(self.sequence, self.d)
            if self.sequence.kind == QUANTIZED_BH
            else []
        )
        return DecoderPlan(
            coords=tuple(tuple(np.flatnonzero(col).tolist()) for col in self.base.matrix.T),
            block_of={a: j for j, a in enumerate(self.sequence.values)},
            subset_in_bin={quantize(self.thresholds, total): s for total, s in table},
        )

    def column_block(self, col: int) -> tuple[int, int]:
        """Map a column index to (multiplier index j, base column i)."""
        if not 0 <= col < self.n:
            raise InvalidInput(f"column {col} outside [0, {self.n})")
        return col // self.base_n, col % self.base_n


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
    overflows.
    """
    if mode not in (STRICT, PERMISSIVE):
        raise InvalidInput(f"unknown mode {mode!r}")
    if d < 1:
        raise InvalidInput(f"d must be >= 1, got {d}")
    if seq.h < d:
        raise ParameterError(f"sequence verified for h={seq.h} < d={d}")
    # Disjunctness is vacuous for d > n-1: there are no d-subsets of other
    # columns to cover a codeword, so any base qualifies there.
    if base.d < d and d <= base.n - 1:
        raise ParameterError(f"base is {base.d}-disjunct < d={d}")
    if seq.thresholds != th:
        report = check_sequence(seq.values, th, seq.h, seq.kind)
        if not report.passed:
            raise ParameterError(
                f"sequence not valid for these thresholds: {report.first_violation}"
            )
    q = seq.values[-1] + 1
    matrix = np.hstack([a * base.matrix for a in seq.values])
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


def _enumerate_syndromes(code: SqgtCode, l: int, u: int) -> np.ndarray:
    """Result vectors of every column set of l..u columns, one row each in
    combinations order; OutOfRange names the first set that overflows."""
    columns = code.matrix.T
    eta = np.asarray(code.thresholds.eta)
    top = code.thresholds.top
    blocks = []
    for size in range(l, u + 1):
        sets = np.array(list(combinations(range(code.n), size)), dtype=np.intp)
        sums = columns[sets].sum(axis=1)
        over = sums.max(axis=1) >= top
        if over.any():
            row = sums[int(over.argmax())]
            k = int(row.argmax())
            raise OutOfRange(f"coordinate {k}: sum {int(row[k])} >= top threshold {top}")
        blocks.append(np.searchsorted(eta, sums, side="right") - 1)
    return np.concatenate(blocks)


def verify_sq_separable(
    code: SqgtCode,
    l: int,
    u: int,
    e: int,
    budget: int = DEFAULT_SEPARABILITY_BUDGET,
) -> bool:
    """Exhaustive check: result vectors of any two distinct column sets
    with sizes in [l, u] differ in >= 2e+1 coordinates."""
    if not 1 <= l <= u <= code.n:
        raise InvalidInput(f"need 1 <= l <= u <= n, got l={l}, u={u}")
    if e < 0:
        raise InvalidInput(f"e must be >= 0, got {e}")
    num_sets = sum(math.comb(code.n, s) for s in range(l, u + 1))
    if num_sets * num_sets * code.m > budget:
        raise BudgetExceeded(
            f"{num_sets} sets -> ~{num_sets**2 * code.m} coordinate comparisons "
            f"exceed budget {budget}"
        )
    rows = _enumerate_syndromes(code, l, u)
    if e == 0:
        return len(np.unique(rows, axis=0)) == len(rows)
    need = 2 * e + 1
    # Distances of each block of rows to all later rows, added up one
    # coordinate at a time in the narrowest integer types that hold them.
    cols = rows.T.astype(np.min_scalar_type(code.thresholds.Q - 1), order="C")
    count = np.min_scalar_type(max(code.m, need))
    total = len(rows)
    chunk = max(1, 2**18 // total)
    for start in range(0, total, chunk):
        stop = min(total, start + chunk)
        dist = np.zeros((stop - start, total - start), dtype=count)
        for col in cols:
            dist += col[start:stop, None] != col[None, start:]
        own = np.arange(stop - start)
        dist[own, own] = need  # self-comparison
        if int(dist.min()) < need:
            return False
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
    blocking."""
    report: dict = {"notes": []}
    if n and d and Q:
        report["tests_lower_bound_counting"] = d * math.log(n / d, Q)
        report["notes"].append("counting bound drops the o(1) term")
        if d >= 2:
            report["tests_lower_bound_cgt"] = (
                d * d / (2 * math.log2(d)) * math.log2(n)
            )
    if K and h and Q:
        if K <= h:
            feasible = 2**K <= Q
            report["cardinality_check"] = {
                "condition": f"2^K <= Q ({2**K} <= {Q})",
                "feasible": feasible,
            }
        else:
            needed = sum(math.comb(K, i) for i in range(h + 1))
            report["cardinality_check"] = {
                "condition": f"sum C(K,i) <= Q ({needed} <= {Q})",
                "feasible": needed <= Q,
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


def matrix_from_text(text: str) -> tuple[np.ndarray, int]:
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
    if matrix.min() < 0 or matrix.max() >= q:
        raise InvalidInput(f"entries outside [0, {q})")
    return matrix, q


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
        with open(rest) as fh:
            return user_code(matrix_from_text(fh.read())[0], d, e)
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
    """A base from its spec, or an inline one.  An inline base must be
    binary, and its e at most (w-1)//2 for its smallest column weight w:
    necessary for correcting e errors, not a proof of it."""
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
        not np.isin(matrix, (0, 1)).all()
    ):
        raise InvalidInput("key 'base.matrix' must be a non-empty binary matrix")
    weight = int(matrix.sum(axis=0).min())
    if not 0 <= e <= (weight - 1) // 2:
        raise InvalidInput(
            f"base e={e} is negative or exceeds (w-1)//2={(weight - 1) // 2} for "
            f"the smallest base column weight w={weight}"
        )
    return BinaryDisjunctCode(matrix, d=d, e=e, provenance="user-supplied")


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
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return path


def load_code(path: str) -> SqgtCode:
    """Rebuild a code from the file save_code wrote (see code_from_config);
    CorruptCode names the file and what is wrong with it."""
    try:
        with open(path) as fh:
            description = json.load(fh)
    except ValueError as exc:
        raise CorruptCode(f"{path}: not valid JSON: {exc}") from exc
    try:
        return code_from_config(description)
    except SqgtError as exc:
        raise CorruptCode(f"{path}: {exc}") from exc
