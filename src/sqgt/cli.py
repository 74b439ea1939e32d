"""Command-line front end.

Subcommands: seq gen|check, base gen|verify, code build|verify,
syndrome, inject, decode, simulate, report.  All output goes to
stdout; --json switches to machine-readable JSON, and `--json simulate`
writes its wall time to stderr.  Exit codes: 0 ok, 1 domain error,
2 usage error, 3 decoding failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import campaign, codebook, decoders, sequences
from .channel import TestOutcome, inject_exhaustive, inject_explicit, syndrome
from .codebook import _field
from .errors import DecodingFailure, InvalidInput, SqgtError
from .quantization import as_int, load_thresholds, read_file


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split()]
    except ValueError as exc:
        raise InvalidInput(f"expected space-separated integers, got {text!r}") from exc


def _emit(payload: dict | list, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _outcome_payload(outcome: TestOutcome) -> dict:
    return {"y": list(outcome.y), "errors": [[p, outcome.y[p]] for p in outcome.error_positions]}


# --- subcommand handlers ---


def cmd_seq_gen(args) -> int:
    th = load_thresholds(args.thresholds)
    seq = sequences.greedy_generate(th, args.h, args.K, args.kind)
    payload = {"kind": seq.kind, "h": seq.h, "values": list(seq.values),
               "thresholds": list(seq.thresholds.eta)}
    _emit(payload, args.json, " ".join(str(v) for v in seq.values))
    return 0


def cmd_seq_check(args) -> int:
    th = load_thresholds(args.thresholds)
    report = sequences.check_sequence(_parse_ints(args.values), th, args.h, args.kind)
    payload = {"pass": report.passed, "first_violation": report.first_violation}
    _emit(
        payload,
        args.json,
        "pass" if report.passed else f"fail: {report.first_violation}",
    )
    return 0 if report.passed else 1


def cmd_base_gen(args) -> int:
    base = sequences.greedy_generate_base(args.family, args.h, args.K)
    payload = {"family": args.family, "h": base.h, "values": list(base.values)}
    _emit(payload, args.json, " ".join(str(v) for v in base.values))
    return 0


def cmd_base_verify(args) -> int:
    ok = sequences.check_base(_parse_ints(args.values), args.family, args.h)
    _emit({"pass": ok}, args.json, "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_code_build(args) -> int:
    if args.sequence is not None:
        sequence = read_file(args.sequence, as_json=True)
    elif args.values is not None:
        sequence = {"kind": args.kind, "h": args.h, "values": _parse_ints(args.values)}
    else:
        sequence = {"kind": args.kind, "h": args.h, "K": args.K}
    code = codebook.code_from_config({
        "thresholds": args.thresholds,
        "base": {"spec": args.base, "d": args.base_d, "e": args.base_e},
        "sequence": sequence,
        "d": args.d,
        "mode": args.mode,
    })
    path = codebook.save_code(code, args.out)
    payload = {"code": path, "m": code.m, "n": code.n, "q": code.q}
    _emit(payload, args.json, f"wrote {path} ({code.m}x{code.n}, q={code.q})")
    return 0


def cmd_code_verify(args) -> int:
    code = codebook.load_code(args.code)
    u, e = (code.d if args.u is None else args.u), (code.e if args.e is None else args.e)
    ok = codebook.verify_sq_separable(code, args.l, u, e)
    _emit({"pass": ok}, args.json, "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_syndrome(args) -> int:
    code = codebook.load_code(args.code)
    cols = [v - 1 for v in _parse_ints(args.defectives)]
    outcome = syndrome(code, cols)
    _emit(_outcome_payload(outcome), args.json, " ".join(str(v) for v in outcome.y))
    return 0


def cmd_inject(args) -> int:
    y = TestOutcome(tuple(_parse_ints(args.y)))
    if args.explicit is not None:
        changes = []
        for part in args.explicit.split(","):
            pos, _, val = part.partition(":")
            try:
                changes.append((int(pos), int(val)))
            except ValueError as exc:
                raise InvalidInput(f"expected pos:val, got {part!r}") from exc
        outcomes = [inject_explicit(y, changes, args.Q)]
    else:
        outcomes = list(inject_exhaustive(y, args.e, args.Q))
    _emit([_outcome_payload(o) for o in outcomes], args.json,
          "\n".join(" ".join(str(v) for v in o.y) for o in outcomes))
    return 0


def cmd_decode(args) -> int:
    code = codebook.load_code(args.code)
    y = _parse_ints(args.y)
    result = decoders.decode(y, code)
    cols = sorted(c + 1 for c in result.defectives)
    payload = {"defectives": cols, "warning": result.warning}
    _emit(payload, args.json, " ".join(str(c) for c in cols))
    return 0


def cmd_simulate(args) -> int:
    cfg = read_file(args.config, as_json=True)
    code = codebook.code_from_config(cfg)
    err = _field(cfg, "errors", (dict,), default={})
    samples = as_int(_field(err, "samples", (int,), "errors.", 10), "key 'errors.samples'", 1)
    start = time.perf_counter()
    summary = campaign.simulate_campaign(
        code,
        e_inject=_field(err, "e", (int,), "errors.", None),
        policy=_field(err, "policy", (str,), "errors.", campaign.EXHAUSTIVE),
        seed=_field(cfg, "seed", (int,), default=0),
        samples_per_set=samples,
        budget=_field(cfg, "budget", (int,), default=None),
        workers=args.workers,
    )
    if args.json:  # on stderr, so that stdout is the same on every run
        print(json.dumps({"wall_time": round(time.perf_counter() - start, 3)}), file=sys.stderr)
    _emit(
        vars(summary),
        args.json,
        f"cases={summary.cases} successes={summary.successes} "
        f"failures={summary.failures} truncated={summary.truncated}",
    )
    return 0 if summary.failures == 0 and not summary.truncated else 1


def cmd_report(args) -> int:
    th = None if args.thresholds is None else load_thresholds(args.thresholds)
    report = codebook.feasibility_report(
        n=args.n, d=args.d, Q=args.Q, K=args.K, h=args.h, q=args.q, th=th
    )
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqgt")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq").add_subparsers(dest="action", required=True)
    p = seq.add_parser("gen")
    p.add_argument("--kind", choices=sequences.KINDS, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--thresholds", required=True)
    p.set_defaults(func=cmd_seq_gen)
    p = seq.add_parser("check")
    p.add_argument("--kind", choices=sequences.KINDS, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--thresholds", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=cmd_seq_check)

    base = sub.add_parser("base").add_subparsers(dest="action", required=True)
    p = base.add_parser("gen")
    p.add_argument("--family", choices=sequences.FAMILIES, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.set_defaults(func=cmd_base_gen)
    p = base.add_parser("verify")
    p.add_argument("--family", choices=sequences.FAMILIES, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=cmd_base_verify)

    code = sub.add_parser("code").add_subparsers(dest="action", required=True)
    p = code.add_parser("build")
    p.add_argument("--thresholds", required=True)
    p.add_argument("--base", required=True, help=codebook.BASE_SPECS)
    p.add_argument("--base-d", type=int)
    p.add_argument("--base-e", type=int)
    p.add_argument("--sequence", help="sequence JSON file: {kind, h, values} or {kind, h, K}")
    p.add_argument("--values", help="explicit multiplier values")
    p.add_argument("--kind", choices=sequences.KINDS, default=sequences.QUANTIZED_BH)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=(codebook.STRICT, codebook.PERMISSIVE), default=codebook.STRICT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_code_build)
    p = code.add_parser("verify")
    p.add_argument("--code", required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--u", type=int, help="default: the code's d")
    p.add_argument("--e", type=int, help="default: the code's e")
    p.set_defaults(func=cmd_code_verify)

    p = sub.add_parser("syndrome")
    p.add_argument("--code", required=True)
    p.add_argument("--defectives", required=True, help="1-based column indices")
    p.set_defaults(func=cmd_syndrome)

    p = sub.add_parser("inject")
    p.add_argument("--y", required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--e", type=int, default=0)
    p.add_argument("--explicit", help="comma-separated pos:val pairs")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("decode")
    p.add_argument("--code", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--Q", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--thresholds")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DecodingFailure as exc:
        print(f"decoding failure: {exc}", file=sys.stderr)
        return 3
    except (SqgtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
