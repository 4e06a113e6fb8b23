"""The benchmark's tracer wraps kspoly functions by name
(`perfbench/spans.py`, `LAYERS`): every one of them must exist, so that a
rename fails here and not in a traced benchmark run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def traced_layers(monkeypatch) -> dict:
    """spans.LAYERS: per layer, (module, function names, count hook)."""
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
    return layers


def test_traced_functions_exist(monkeypatch):
    layers = traced_layers(monkeypatch)
    for layer, (module, functions, _hook) in layers.items():
        mod = importlib.import_module(f"kspoly.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), (
                f"{layer}: kspoly.{module}.{name} is missing")


def test_cli_import_loads_every_traced_module(monkeypatch):
    """The tracer finds each traced module in sys.modules right after
    `import kspoly.cli`, so none of them may become a lazy import.  Checked
    in a fresh interpreter: this one has imported them all already."""
    traced = {f"kspoly.{module}"
              for module, _, _ in traced_layers(monkeypatch).values()}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, kspoly.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert traced - set(loaded) == set()
