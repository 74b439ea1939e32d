import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sqgt import BudgetExceeded, CorruptCode, InvalidInput, code_from_config, load_code
from sqgt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TH_GAPS = "[0, 2, 5, 6, 10, 13, 15, 16, 18, 21]"
TH_STEP3_TALL = json.dumps(list(range(0, 46, 3)))


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_error(capsys, *argv):
    """Run a command that must fail with exit 1 and one `error:` line."""
    rc = main(list(argv))
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def build_demo_code(capsys, tmp_path, mode="strict"):
    prefix = str(tmp_path / "demo")
    rc, out = run(
        capsys, "code", "build",
        "--thresholds", TH_STEP3_TALL,
        "--base", "identity:2",
        "--values", "3 6 12", "--kind", "sqlo-s", "--h", "3",
        "--d", "2", "--mode", mode, "--out", prefix,
    )
    assert rc == 0
    assert out.strip() == f"wrote {prefix}.json (2x6, q=13)"
    return prefix


def test_seq_gen_worked_example(capsys):
    rc, out = run(
        capsys, "seq", "gen",
        "--thresholds", TH_GAPS, "--kind", "sqlo-s", "--h", "3", "--K", "3",
    )
    assert rc == 0
    assert out.strip() == "2 5 11"


def test_seq_gen_json(capsys):
    rc, out = run(
        capsys, "--json", "seq", "gen",
        "--thresholds", TH_GAPS, "--kind", "sqlo-s", "--h", "3", "--K", "3",
    )
    assert json.loads(out)["values"] == [2, 5, 11]


def test_seq_check_pass_and_fail(capsys):
    rc, out = run(
        capsys, "seq", "check",
        "--thresholds", TH_GAPS, "--kind", "sqlo-s", "--h", "3",
        "--values", "2 5 11",
    )
    assert rc == 0 and out.strip() == "pass"
    rc, out = run(
        capsys, "seq", "check",
        "--thresholds", "[0, 2, 5, 6, 10, 11, 15, 18]", "--kind", "sqlo-l",
        "--h", "2", "--values", "4 5 6",
    )
    assert rc == 1 and out.startswith("fail")


def test_base_gen_and_verify(capsys):
    rc, out = run(
        capsys, "base", "gen", "--family", "h-superincreasing",
        "--h", "2", "--K", "6",
    )
    assert rc == 0 and out.strip() == "1 2 4 7 12 20"
    rc, out = run(
        capsys, "base", "verify", "--family", "h-superincreasing",
        "--h", "2", "--values", "1 2 4 7 12 20",
    )
    assert rc == 0 and out.strip() == "pass"
    rc, out = run(
        capsys, "base", "verify", "--family", "subset-sum-distinct",
        "--h", "2", "--values", "1 2 3",
    )
    assert rc == 1


def test_base_gen_rejects_h_below_one(capsys):
    # with h = 0 no subset would be checked, and 1 + 2 = 3 would pass
    err = run_error(
        capsys, "base", "gen", "--family", "subset-sum-distinct", "--h", "0", "--K", "4",
    )
    assert "h must be >= 1" in err


@pytest.mark.parametrize("option", [["--greedy"], ["--start", "5"]])
def test_base_gen_has_one_route(option):
    with pytest.raises(SystemExit) as exc:
        main(["base", "gen", "--family", "h-superincreasing", "--h", "2", "--K", "5", *option])
    assert exc.value.code == 2


def test_seq_check_rejects_boolean_thresholds(capsys):
    err = run_error(
        capsys, "seq", "check", "--thresholds", "[0,true,5,9]",
        "--kind", "quantized-bh", "--h", "1", "--values", "1 5",
    )
    assert "threshold True is not an integer" in err


def test_code_build_verify_syndrome_decode(capsys, tmp_path):
    prefix = build_demo_code(capsys, tmp_path)
    rc, out = run(
        capsys, "code", "verify", "--code", prefix + ".json", "--u", "2",
    )
    assert rc == 0 and out.strip() == "pass"
    # 1-based columns 1 and 3 are base column 1 scaled by 3 and 6
    rc, out = run(
        capsys, "syndrome", "--code", prefix + ".json", "--defectives", "1 3",
    )
    assert rc == 0 and out.strip() == "3 0"
    rc, out = run(capsys, "decode", "--code", prefix + ".json", "--y", "3 0")
    assert rc == 0 and out.strip() == "1 3"


def test_code_verify_checks_the_codes_own_claim_by_default(capsys, tmp_path):
    # n = 75, d = 2, e = 1: with no --u or --e, verify checks u = d and e = 1
    prefix = str(tmp_path / "ks5")
    rc, _ = run(
        capsys, "code", "build", "--thresholds", json.dumps(list(range(0, 121, 3))),
        "--base", "ks:5,2", "--base-d", "2", "--kind", "sqlo-s", "--h", "2", "--K", "3",
        "--d", "2", "--out", prefix,
    )
    assert rc == 0
    rc, out = run(capsys, "code", "verify", "--code", prefix + ".json")
    assert rc == 0 and out.strip() == "pass"


def test_decode_failure_exit_code(capsys, tmp_path):
    prefix = build_demo_code(capsys, tmp_path)
    # bin [30, 33) contains no representable subset sum
    rc, _ = run(capsys, "decode", "--code", prefix + ".json", "--y", "10 0")
    assert rc == 3


def test_domain_error_exit_code(capsys):
    rc, _ = run(
        capsys, "seq", "gen",
        "--thresholds", "[0, 6]", "--kind", "quantized-bh", "--h", "2", "--K", "1",
    )
    assert rc == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "gen", "--kind", "sqlo-s"])
    assert exc.value.code == 2


def test_inject(capsys):
    rc, out = run(capsys, "inject", "--y", "3 0", "--Q", "8", "--e", "1")
    lines = out.strip().splitlines()
    assert lines[0] == "3 0"
    assert len(lines) == 1 + 2 * 7
    rc, out = run(
        capsys, "--json", "inject", "--y", "3 0", "--Q", "8",
        "--explicit", "1:5",
    )
    assert json.loads(out) == [{"y": [3, 5], "errors": [[1, 5]]}]


def test_a_result_vector_that_is_not_integers_is_an_error(capsys):
    err = run_error(capsys, "inject", "--y", "3 x", "--Q", "8")
    assert "expected space-separated integers, got '3 x'" in err


@pytest.mark.parametrize("pairs", ["1", "a:1", "1:x"])
def test_inject_rejects_malformed_pairs(capsys, pairs):
    err = run_error(capsys, "inject", "--y", "3 0", "--Q", "8", "--explicit", pairs)
    assert repr(pairs) in err


def test_simulate_deterministic(capsys, tmp_path):
    config = {
        "thresholds": list(range(0, 46, 3)),
        "base": {"spec": "identity:2"},
        "sequence": {"kind": "sqlo-s", "h": 3, "values": [3, 6, 12]},
        "d": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    runs = []
    for _ in range(2):
        rc = main(["--json", "simulate", "--config", str(path)])
        runs.append((rc, capsys.readouterr()))
    (rc1, a), (rc2, b) = runs
    assert rc1 == rc2 == 0
    assert a.out == b.out
    summary = json.loads(a.out)
    assert summary["failures"] == 0 and summary["cases"] == 21
    # the time is one line on stderr, never on stdout
    assert "wall_time" not in summary
    for captured in (a, b):
        assert captured.err.count("\n") == 1
        assert list(json.loads(captured.err)) == ["wall_time"]
    rc, out = run(capsys, "simulate", "--config", str(path))
    assert (rc, out) == (0, "cases=21 successes=21 failures=0 truncated=False\n")
    assert capsys.readouterr().err == ""


def test_report(capsys):
    rc, out = run(capsys, "report", "--n", "1000", "--d", "10", "--Q", "4")
    payload = json.loads(out)
    assert abs(payload["tests_lower_bound_counting"] - 33.2) < 0.1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "1000", "--d", "10", "--Q", "1"), "Q must be >= 2"),
        (("--n", "-5", "--d", "2", "--Q", "4"), "n must be >= 1"),
        (("--K", "3", "--h", "-1", "--Q", "4"), "h must be >= 1"),
        (("--n", "5", "--d", "10", "--Q", "4"), "d must be <= 5, got 10"),
    ],
)
def test_report_rejects_parameters_out_of_range(capsys, argv, message):
    assert message in run_error(capsys, "report", *argv)


def test_code_build_output_is_a_simulate_config(capsys, tmp_path):
    prefix = build_demo_code(capsys, tmp_path)
    rc, out = run(capsys, "--json", "simulate", "--config", prefix + ".json")
    summary = json.loads(out)
    assert rc == 0 and summary["cases"] == 21 and summary["failures"] == 0


def test_code_build_json_names_the_one_file(capsys, tmp_path):
    prefix = str(tmp_path / "demo")
    rc, out = run(
        capsys, "--json", "code", "build", "--thresholds", TH_STEP3_TALL,
        "--base", "identity:2", "--values", "3 6 12", "--kind", "sqlo-s",
        "--h", "3", "--d", "2", "--out", prefix,
    )
    assert rc == 0
    assert json.loads(out) == {"code": prefix + ".json", "m": 2, "n": 6, "q": 13}
    assert [p.name for p in tmp_path.iterdir()] == ["demo.json"]


def test_code_build_from_a_sequence_file(capsys, tmp_path):
    rc, out = run(
        capsys, "--json", "seq", "gen",
        "--thresholds", TH_GAPS, "--kind", "sqlo-s", "--h", "3", "--K", "3",
    )
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(out)
    prefix = str(tmp_path / "demo")
    rc, out = run(
        capsys, "code", "build", "--thresholds", TH_GAPS, "--base", "identity:3",
        "--sequence", str(seq_path), "--d", "1", "--out", prefix,
    )
    assert rc == 0
    assert load_code(prefix + ".json").sequence.values == (2, 5, 11)
    seq_path.write_text("{not json")
    run_error(
        capsys, "code", "build", "--thresholds", TH_GAPS, "--base", "identity:3",
        "--sequence", str(seq_path), "--d", "1", "--out", prefix,
    )


@pytest.mark.parametrize("keys, edit, message", [
    (("sequence", "values"), {"value": "36"}, "'sequence.values' must be"),
    (("d",), {"value": "2"}, "'d' must be int"),
    (("d",), {}, "missing key 'd'"),  # deleted
    (("thresholds", 1), {"value": 3.7}, "threshold 3.7 is not an integer"),
    (("thresholds", 1), {"value": True}, "threshold True is not an integer"),
], ids=["values-string", "d-string", "d-missing", "threshold-float", "threshold-bool"])
def test_malformed_code_file_is_refused(capsys, tmp_path, edit_json, keys, edit, message):
    path = build_demo_code(capsys, tmp_path) + ".json"
    edit_json(path, *keys, **edit)
    with pytest.raises(CorruptCode, match=message):
        load_code(path)
    assert message in run_error(capsys, "simulate", "--config", path)


@pytest.mark.parametrize("keys, value, message", [
    (("base", "matrix"), [[1, 0], [1]], "key 'base.matrix' must be a non-empty binary matrix"),
    ((), [1, 2], "a code description is an object, got list"),
    (("sequence", "values"), [3, True], "key 'sequence.values' must be a list of integers"),
    (("sequence", "values"), [3, "6"], "key 'sequence.values' must be a list of integers"),
    (("sequence", "values"), [3, 6.0], "key 'sequence.values' must be a list of integers"),
], ids=["matrix-ragged", "description-list", "values-bool", "values-string", "values-float"])
def test_malformed_description_is_refused_on_every_path(
    capsys, tmp_path, edit_json, keys, value, message
):
    path = build_demo_code(capsys, tmp_path) + ".json"
    if keys:
        edit_json(path, *keys, value=value)
    else:  # the whole description
        with open(path, "w") as fh:
            json.dump(value, fh)
    with open(path) as fh:
        description = json.load(fh)
    with pytest.raises(InvalidInput, match=message):
        code_from_config(description)
    with pytest.raises(CorruptCode, match=message):
        load_code(path)
    assert message in run_error(capsys, "simulate", "--config", path)


@pytest.mark.parametrize("spec", ["identity:x", "ks:3", "ks:3,2,1", "nope:1", "random:4,-1"])
def test_malformed_base_spec_is_refused(capsys, tmp_path, spec):
    err = run_error(
        capsys, "code", "build", "--thresholds", TH_STEP3_TALL, "--base", spec,
        "--values", "3 6", "--d", "1", "--out", str(tmp_path / "demo"),
    )
    assert "base.spec" in err


@pytest.mark.parametrize(
    "spec", ["identity:10000000000", "replicated:10000000000,2", "ks:1000003,2", "random:3,10000000000"]
)
def test_a_huge_base_spec_is_refused(capsys, tmp_path, spec):
    # numpy's ValueError or MemoryError was a traceback
    message = "base has more than 10000000 cells"
    with pytest.raises(BudgetExceeded, match=message):
        code_from_config({"thresholds": TH_STEP3_TALL, "base": {"spec": spec, "d": 1},
                          "sequence": {"kind": "quantized-bh", "h": 2, "values": [3, 6]}, "d": 1})
    err = run_error(
        capsys, "code", "build", "--thresholds", TH_STEP3_TALL, "--base", spec, "--base-d", "1",
        "--values", "3 6", "--d", "1", "--out", str(tmp_path / "demo"),
    )
    assert message in err
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"thresholds": [0, 3, 6, 9], "base": {"spec": spec, "d": 1},
                                "sequence": {"kind": "sqlo-s", "h": 1, "values": [3]}, "d": 1}))
    with pytest.raises(CorruptCode, match=f"^{re.escape(str(path))}: .*{message}$"):
        load_code(str(path))


def test_missing_files_are_errors_not_tracebacks(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    run_error(capsys, "decode", "--code", missing, "--y", "3 0")
    run_error(capsys, "simulate", "--config", missing)
    run_error(capsys, "seq", "gen", "--thresholds", missing, "--kind", "sqlo-s",
              "--h", "2", "--K", "2")
    run_error(
        capsys, "code", "build", "--thresholds", TH_STEP3_TALL,
        "--base", "file:" + missing, "--base-d", "1", "--base-e", "0",
        "--values", "3 6", "--d", "1", "--out", str(tmp_path / "demo"),
    )
    # a thresholds file that is not UTF-8 was a UnicodeDecodeError traceback
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b"\xff\xfe[0, 3, 6]")
    err = run_error(capsys, "seq", "gen", "--thresholds", str(latin), "--kind", "sqlo-s",
                    "--h", "2", "--K", "2")
    assert f"cannot read {str(latin)!r}: 'utf-8' codec can't decode" in err
    # a thresholds file that is not JSON was refused without its name
    latin.write_text("not json")
    err = run_error(capsys, "seq", "gen", "--thresholds", str(latin), "--kind", "sqlo-s",
                    "--h", "2", "--K", "2")
    assert f"{str(latin)!r} is not valid JSON: Expecting value" in err
    # a --sequence file that cannot be read, and an --out that names a directory
    (tmp_path / "taken.json").mkdir()
    code_build = ["code", "build", "--thresholds", TH_STEP3_TALL, "--base", "identity:2",
                  "--d", "1"]
    run_error(capsys, *code_build, "--sequence", missing, "--out", str(tmp_path / "demo"))
    err = run_error(capsys, *code_build, "--values", "3 6", "--out", str(tmp_path / "taken"))
    assert f"cannot write {str(tmp_path / 'taken.json')!r}: Is a directory" in err
    # an empty path is a path: `report --thresholds ''` printed {"notes": []}
    # and exited 0, and `--sequence ''` fell back to --kind, --h and --K
    assert "cannot read ''" in run_error(capsys, "report", "--thresholds", "")
    err = run_error(capsys, *code_build, "--sequence", "", "--out", str(tmp_path / "demo"))
    assert "cannot read ''" in err


def test_empty_values_are_parsed_not_dropped(capsys, tmp_path):
    # `code build --values ''` built a greedy code from --kind, --h and --K,
    # and `inject --explicit ''` fell back to exhaustive injection at --e 0
    err = run_error(capsys, "code", "build", "--thresholds", TH_STEP3_TALL,
                    "--base", "identity:2", "--d", "1", "--values", "",
                    "--out", str(tmp_path / "demo"))
    assert err == "error: empty sequence\n"
    assert not (tmp_path / "demo.json").exists()
    err = run_error(capsys, "inject", "--y", "3 0", "--Q", "4", "--explicit", "")
    assert err == "error: expected pos:val, got ''\n"


def test_a_closed_stdout_is_one_error_line():
    # 37,521 outcomes overrun the pipe: `... | head -1` closes it mid-write
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    argv = ["inject", "--y", " ".join(["3"] * 20), "--Q", "15", "--e", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "sqgt.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"3 " * 19 + b"3\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == "error: [Errno 32] Broken pipe\n"


def test_simulate_rejects_an_unknown_policy(capsys, tmp_path, edit_json):
    path = build_demo_code(capsys, tmp_path) + ".json"
    edit_json(path, "errors", value={"policy": "nope"})
    assert "unknown error policy" in run_error(capsys, "simulate", "--config", path)


@pytest.mark.parametrize("key, value, message", [
    ("errors", [], "'errors' must be dict"),
    ("errors", {"e": "1"}, "'errors.e' must be int"),
    ("errors", {"e": True}, "'errors.e' must be int"),
    ("errors", {"policy": 1}, "'errors.policy' must be str"),
    ("errors", {"samples": "4"}, "'errors.samples' must be int"),
    ("seed", None, "'seed' must be int"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("budget", "5", "'budget' must be int"),
    ("errors", {"policy": "seeded-random", "samples": 0}, "'errors.samples' must be >= 1"),
    ("errors", {"policy": "seeded-random", "samples": -3}, "'errors.samples' must be >= 1"),
], ids=["errors-list", "e-string", "e-bool", "policy-int", "samples-string", "seed-null",
        "seed-negative", "budget-string", "samples-zero", "samples-negative"])
def test_simulate_rejects_mistyped_campaign_keys(capsys, tmp_path, edit_json, key, value, message):
    path = build_demo_code(capsys, tmp_path) + ".json"
    edit_json(path, key, value=value)
    assert message in run_error(capsys, "simulate", "--config", path)


def readme_cli_examples():
    """(argv, stdout, exit code) of each `sqgt` command in the README's CLI
    block that a `# -> OUTPUT` note follows, on its line or the next, in
    order.  A `#    (with --json: OUTPUT)` note below adds the --json run,
    and `(exit N)` in the comments above a command sets its exit code."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", "").splitlines() + ["", ""]
    examples, comments = [], ""
    for i, line in enumerate(lines):
        if not line.startswith("sqgt "):
            comments += line
            continue
        command, _, note = line.partition("# -> ")
        if not note and lines[i + 1].startswith("# -> "):
            note = lines[i + 1][len("# -> "):]
        code = re.search(r"\(exit (\d+)\)", comments)
        code, comments = int(code[1]) if code else 0, ""
        if note:
            argv = shlex.split(command)[1:]
            examples.append((argv, note.strip(), code))
            as_json = re.fullmatch(r"#\s+\(with --json: (.*)\)", lines[i + 2])
            if as_json:
                examples.append((["--json", *argv], as_json[1], code))
    return examples


def test_readme_cli_examples_print_what_the_readme_says(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_examples()
    assert {"2 5 11", "wrote demo.json (2x6, q=13)", "3 0", "1 3", "3 5",
            "cases=21 successes=21 failures=0 truncated=False"} <= {
        out for _, out, _ in examples
    }
    # simulate runs on the pool, plain and with --json
    assert [argv for argv, _, _ in examples if "simulate" in argv] == [
        [*json_flag, "simulate", "--config", "demo.json", "--workers", "4"]
        for json_flag in ([], ["--json"])
    ]
    assert [code for _, out, code in examples if out.startswith("fail: ")] == [1]
    for argv, out, code in examples:
        assert (main(argv), capsys.readouterr().out) == (code, out + "\n"), argv
