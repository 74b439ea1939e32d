"""The benchmark's tracer wraps program functions by name; a renamed or
removed stage must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
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
