"""The benchmark's tracer wraps kspoly functions by name
(`perfbench/spans.py`, `LAYERS`): every one of them must exist, so that a
rename fails here and not in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    local = ("spans", "harness", "checks")  # perfbench's own modules
    for name in local:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        layers = importlib.import_module("spans").LAYERS
    finally:
        for name in local:
            sys.modules.pop(name, None)
    assert layers
    for layer, (module, functions, _hook) in layers.items():
        mod = importlib.import_module(f"kspoly.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), (
                f"{layer}: kspoly.{module}.{name} is missing")
