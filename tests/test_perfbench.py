"""The benchmark's tracer wraps package functions by (module, attribute);
a rename in the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("module_name, attr",
                         [(m, a) for m, a, _, _ in load_bindings()])
def test_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
