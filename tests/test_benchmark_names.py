"""The benchmark's tracer wraps kspoly functions by name
(`perfbench/spans.py`, `LAYERS`): every one of them must exist, so that a
rename fails here and not in a traced benchmark run."""

import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def spans_module(monkeypatch):
    """perfbench/spans.py, imported without writing into perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    local = ("spans", "harness", "checks")  # perfbench's own modules
    for name in local:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return importlib.import_module("spans")
    finally:
        for name in local:
            sys.modules.pop(name, None)


def traced_layers(monkeypatch) -> dict:
    """spans.LAYERS: per layer, (module, function names, count hook)."""
    layers = spans_module(monkeypatch).LAYERS
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


RAYSET = {"cli.main", "geometry.rayset"}
GRAPH = RAYSET | {"geometry.orthogonality_graph", "geometry.enumerate_bases"}
TABLE = {"cli.main", "datasets.load_polytope", "raysystem.build_basis_table"}
# the span names of one traced in-process CLI run per subcommand, word
# action and geometry check
TRACED_RUNS = {
    "gen-bases --polytope 600cell": TABLE,
    "weights --polytope 600cell --odd": {
        "cli.main", "datasets.load_polytope",
        "raysystem.build_profile_matrix", "gf2.gf2_nullspace",
        "gf2.dual_weight_distribution", "gf2.macwilliams_transform"},
    "word --polytope 600cell a expand": TABLE,
    "word --polytope 600cell a verify --check-assignment": TABLE | {
        "contextuality.verify_parity_proof",
        "contextuality.find_ks_assignment.refute"},
    "word --polytope 600cell a symbol": TABLE | {
        "raysystem.symbol_from_word"},
    "word --polytope 600cell acd minimal": TABLE | {
        "raysystem.build_profile_matrix", "gf2.is_minimal_word",
        "gf2.gf2_nullspace"},
    "word --polytope 600cell acd decompose": TABLE | {
        "contextuality.verify_parity_proof",
        "contextuality.incidence_nullspace_proofs",
        "contextuality.classify_decomposition",
        "contextuality.find_ks_assignment.assign",
        "raysystem.ray_basis_symbol", "gf2.gf2_nullspace"},
    "geometry construct --polytope 600cell": GRAPH | {"geometry.saturated"},
    "geometry project --polytope 600cell": RAYSET | {
        "geometry.coxeter_projection", "geometry.pentadecagon_classes"},
    "geometry match --polytope 600cell": GRAPH | TABLE | {
        "geometry.match_labeling"},
    "geometry rigidity": RAYSET | {"geometry.rigidity_demo"},
}


@pytest.mark.parametrize("command", TRACED_RUNS)
def test_traced_cli_reaches_every_layer(monkeypatch, command):
    """perfbench's tracer rebinds the traced functions on the modules that
    bind them, so a CLI that keeps its own references (a table of builders
    made at import, say) loses their spans in the traced `cli` run."""
    import kspoly.cli

    tracer = spans_module(monkeypatch).Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = kspoly.cli.main(command.split())
    finally:
        tracer.uninstall()
    assert code == 0
    assert {span[0] for span in tracer.spans} == TRACED_RUNS[command]
