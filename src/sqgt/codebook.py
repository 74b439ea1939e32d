"""Assembly and verification of concatenated q-ary test matrices.

A code is built by horizontally concatenating alpha_j * C_b for every
multiplier alpha_j of a verified sequence; column (j*n_b + i) is base
column i scaled by alpha_j.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .disjunct import BinaryDisjunctCode
from .errors import (
    BudgetExceeded,
    CorruptCode,
    HeadroomError,
    InfeasibleThresholds,
    InvalidInput,
    OutOfRange,
    ParameterError,
)
from .quantization import Thresholds
from .sequences import (
    QUANTIZED_BH,
    MultiplierSequence,
    check_sequence,
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
    # quantized-bh only: subset sums ascending, and their subsets
    sums: tuple[int, ...]
    subsets: tuple[frozenset[int], ...]


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
        table = (
            subset_sums(self.sequence, self.d)
            if self.sequence.kind == QUANTIZED_BH
            else []
        )
        return DecoderPlan(
            coords=tuple(tuple(np.flatnonzero(col).tolist()) for col in self.base.matrix.T),
            block_of={a: j for j, a in enumerate(self.sequence.values)},
            sums=tuple(total for total, _ in table),
            subsets=tuple(subset for _, subset in table),
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


# --- shared matrix text format: "m n q" header, then m rows over [q] ---


def matrix_to_text(matrix: np.ndarray, q: int) -> str:
    m, n = matrix.shape
    lines = [f"{m} {n} {q}"]
    lines.extend(" ".join(map(str, row)) for row in matrix.tolist())
    return "\n".join(lines) + "\n"


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
    matrix = np.array([[int(v) for v in ln.split()] for ln in lines[1:]], dtype=int)
    if matrix.shape != (m, n):
        raise InvalidInput("row lengths disagree with header")
    if matrix.min() < 0 or matrix.max() >= q:
        raise InvalidInput(f"entries outside [0, {q})")
    return matrix, q


def save_code(code: SqgtCode, prefix: str) -> tuple[str, str]:
    """Write PREFIX.txt (matrix) and PREFIX.json (sidecar)."""
    matrix_path = prefix + ".txt"
    sidecar_path = prefix + ".json"
    with open(matrix_path, "w") as fh:
        fh.write(matrix_to_text(code.matrix, code.q))
    sidecar = {
        "matrix": os.path.basename(matrix_path),
        "thresholds": list(code.thresholds.eta),
        "sequence": {
            "kind": code.sequence.kind,
            "h": code.sequence.h,
            "values": list(code.sequence.values),
        },
        "d": code.d,
        "e": code.e,
        "base": {"m": code.base.m, "n": code.base.n, "d": code.base.d, "e": code.base.e},
        "mode": code.mode,
    }
    with open(sidecar_path, "w") as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return matrix_path, sidecar_path


def load_code(sidecar_path: str) -> SqgtCode:
    """Reload a code from its sidecar.

    The base matrix is recovered by dividing the first block by the
    smallest multiplier, and the code is rebuilt from it and the sidecar;
    the matrix file must equal the rebuilt matrix.  The claimed e must be
    the base's, and at most (w-1)//2 for the smallest column weight w: a
    necessary condition for correcting e errors, not a proof of it.
    """
    try:
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        seq_info, base_info = sidecar["sequence"], sidecar["base"]
        values, h, kind = seq_info["values"], seq_info["h"], seq_info["kind"]
        n_b, base_d, e = base_info["n"], base_info["d"], base_info["e"]
        matrix_name, eta = sidecar["matrix"], sidecar["thresholds"]
        d, code_e, mode = sidecar["d"], sidecar["e"], sidecar["mode"]
    except ValueError as exc:
        raise CorruptCode(f"{sidecar_path}: not valid JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise CorruptCode(f"{sidecar_path}: missing or misplaced key {exc}") from exc
    matrix_path = os.path.join(os.path.dirname(sidecar_path), matrix_name)
    with open(matrix_path) as fh:
        matrix, q = matrix_from_text(fh.read())
    th = Thresholds(tuple(eta))
    seq = verified_sequence(values, th, h, kind)
    if not 0 < n_b <= matrix.shape[1]:
        raise CorruptCode(f"{sidecar_path}: base width {n_b} outside the matrix")
    base_matrix = matrix[:, :n_b] // seq.values[0]
    if base_matrix.max() > 1:  # entries are non-negative
        raise CorruptCode(
            f"{matrix_path}: first block is not a binary base scaled by {seq.values[0]}"
        )
    if code_e != e:
        raise CorruptCode(f"{sidecar_path}: code e={code_e} != base e={e}")
    weight = int(base_matrix.sum(axis=0).min())
    if e > (weight - 1) // 2:
        raise CorruptCode(
            f"{sidecar_path}: e={e} exceeds (w-1)//2={(weight - 1) // 2} for the "
            f"smallest base column weight w={weight}"
        )
    base = BinaryDisjunctCode(base_matrix, d=base_d, e=e, provenance="user-supplied")
    code = build(base, seq, th, d, mode)
    if q != code.q or not np.array_equal(matrix, code.matrix):
        raise CorruptCode(
            f"{matrix_path}: matrix differs from the code its sidecar builds"
        )
    return code
