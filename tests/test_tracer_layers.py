"""The benchmark's tracer wraps program functions by name; a renamed or
removed stage must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_every_traced_layer_names_a_callable():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    names = [(module, attr) for _, module, attrs, _, _ in run.LAYERS for attr in attrs]
    assert names
    for module, attr in names:
        assert callable(getattr(importlib.import_module(f"sqgt.{module}"), attr, None)), (
            f"sqgt.{module}.{attr}"
        )


def test_a_traced_benchmark_run_sees_both_stages():
    """A short traced decode-wide-bins run: a decode that bypassed its stages
    or a harness broken by a rename fails here."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", "decode-wide-bins", "--seed", "5",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert report["correct"] is True and report["failed"] == 0
    assert round(metrics["decoders.supports_per_decode"], 3) == 1.438
    assert metrics["decoders.recover_support.self_ms"] > 0
    assert metrics["decoders.select_witness_coords.self_ms"] > 0
    assert metrics["sequences.knapsack_solve.calls_per_decode"] < 1
