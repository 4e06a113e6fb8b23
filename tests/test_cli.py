"""CLI subcommands: formats, exit codes, determinism, schema validity."""

import json
from importlib import resources

import jsonschema
import pytest

from kspoly.cli import main


def schema(name: str) -> dict:
    return json.loads(
        resources.files("kspoly.schemas").joinpath(name).read_text())


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# --------------------------------------------------------------------------
# gen-bases


def test_gen_bases_text(capsys):
    code, out = run(capsys, "gen-bases", "--polytope", "600cell")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 76
    assert lines[1] == "1\ta\t0\t1 5 55 56"


def test_gen_bases_json_validates(capsys):
    code, out = run(capsys, "gen-bases", "--polytope", "600cell",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("basis_table.schema.json"))
    assert doc["count"] == 75


def test_gen_bases_csv_gosset(capsys):
    code, out = run(capsys, "gen-bases", "--polytope", "gosset",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2026
    assert lines[0].startswith("index,generator,shift,r1")


def test_gen_bases_bad_polytope(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-bases", "--polytope", "24cell"])
    assert exc.value.code == 2


def test_gen_bases_deterministic(capsys):
    _, out1 = run(capsys, "gen-bases", "--polytope", "120cell",
                  "--format", "csv")
    _, out2 = run(capsys, "gen-bases", "--polytope", "120cell",
                  "--format", "csv")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "bases.csv"
    code, out = run(capsys, "gen-bases", "--polytope", "600cell",
                    "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("index,generator")


def test_data_override(tmp_path, capsys):
    from kspoly.datasets import dataset_to_dict, load_polytope
    layout, gens = load_polytope("600cell")
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(dataset_to_dict(layout, gens[:1])))
    code, out = run(capsys, "gen-bases", "--polytope", "600cell",
                    "--data", str(path))
    assert code == 0
    assert len(out.strip().split("\n")) == 16


def _bad_data(tmp_path, edit):
    from kspoly.datasets import dataset_to_dict, load_polytope
    doc = dataset_to_dict(*load_polytope("600cell"))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def _delete_dimension(doc):
    del doc["dimension"]


def _retype_lo(doc):
    doc["pentadecagons"][2]["lo"] = "31"


def _retype_ray(doc):
    doc["generators"][1]["rays"][0] = None


def _empty_layout(doc):
    doc["pentadecagons"] = []


@pytest.mark.parametrize("edit, message", [
    (_delete_dimension, "missing field dimension"),
    (_retype_lo, "field pentadecagons[2].lo: expected integer, got string"),
    (_retype_ray, "field generators[1].rays[0]: expected integer, got null"),
    (_empty_layout, "a layout needs at least one pentadecagon"),
])
def test_data_malformed_exit2(tmp_path, capsys, edit, message):
    path = _bad_data(tmp_path, edit)
    code = main(["gen-bases", "--polytope", "600cell", "--data", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"kspoly: {path}: {message}\n"


def _crowd_b(doc):
    doc["generators"][1]["rays"] = [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [
    ["gen-bases"],
    ["word", "a", "verify"],
    ["geometry", "match"],
])
def test_data_table_invariant_exit2(tmp_path, capsys, argv):
    """A dataset whose orbits break a basis-table invariant is bad data."""
    path = _bad_data(tmp_path, _crowd_b)
    code = main(argv + ["--polytope", "600cell", "--data", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"kspoly: {path}: non-uniform ray occurrence: [3, 5, 9]\n")


def test_data_missing_file_exit2(tmp_path, capsys):
    path = tmp_path / "absent.json"
    code = main(["word", "--polytope", "600cell", "a", "verify",
                 "--data", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kspoly: cannot read {path}:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["{\"polytope\": ", "[1, 2]"])
def test_data_not_a_dataset_exit2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["geometry", "match", "--polytope", "600cell",
                 "--data", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"kspoly: {path}: ")
    assert err.count("\n") == 1


# --------------------------------------------------------------------------
# weights


def test_weights_600cell_odd(capsys):
    code, out = run(capsys, "weights", "--polytope", "600cell", "--odd")
    assert code == 0
    rows = [line.split("\t") for line in out.strip().split("\n")[1:]]
    assert [(int(w), int(c)) for w, c in rows] == [(1, 2), (3, 6)]
    assert "odd_total=8" in out


def test_weights_120cell_json(capsys, proof_counts_120cell):
    code, out = run(capsys, "weights", "--polytope", "120cell", "--odd",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("weights.schema.json"))
    assert doc["n"] == 45 and doc["k"] == 30
    assert doc["odd_total"] == str(2 ** 29)
    assert {int(k): int(v) for k, v in doc["counts"].items()} \
        == proof_counts_120cell


def test_weights_gosset_head(capsys):
    code, out = run(capsys, "weights", "--polytope", "gosset", "--odd",
                    "--max-weight", "3", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == ["weight,count", "1,16", "3,25812"]


# --------------------------------------------------------------------------
# word


def test_word_symbol(capsys):
    code, out = run(capsys, "word", "--polytope", "120cell",
                    "a b e g k r i'", "symbol")
    assert code == 0
    assert out.strip() == "150_2 30_4-105_4"


def test_word_symbol_json(capsys):
    code, out = run(capsys, "word", "--polytope", "gosset",
                    "a1 c1 d1 h1 m1", "symbol", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("word_report.schema.json"))
    assert doc["symbol"]["text"] == "30_2 60_4 15_8 15_12-75_8"


def test_word_expand(capsys):
    code, out = run(capsys, "word", "--polytope", "120cell", "cdy",
                    "expand", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("word_report.schema.json"))
    assert len(doc["basis_indices"]) == 45


def test_word_verify_valid(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "a", "verify",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("word_report.schema.json"))
    assert doc["certificate"]["valid"] is True


def test_word_verify_invalid_is_exit_zero(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "c", "verify",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["certificate"]["valid"] is False


def test_word_verify_empty(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "", "verify",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["valid"] is False
    assert doc["certificate"]["basis_count"] == 0


def test_word_verify_with_assignment_check(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "a", "verify",
                    "--check-assignment", "--format", "json")
    assert code == 0
    assert json.loads(out)["assignment_exists"] is False


def test_word_verify_node_budget_exit6(capsys, monkeypatch):
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "1")
    code = main(["word", "--polytope", "600cell", "a", "verify",
                 "--check-assignment"])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == "kspoly: assignment search exceeded 1 nodes\n"


def test_word_verify_bad_node_budget_exit2(capsys, monkeypatch):
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "abc")
    code = main(["word", "--polytope", "600cell", "a", "verify",
                 "--check-assignment"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("kspoly: bad KSPOLY_NODE_BUDGET: ")
    assert err.count("\n") == 1


def test_word_minimal_past_support_limit_exit6(capsys):
    # 27 letters: beyond the exact-search limit of 25
    code = main(["word", "--polytope", "120cell",
                 "abcdefghijklmnopqrstuvwxyza'", "minimal"])
    err = capsys.readouterr().err
    assert code == 6
    assert err == ("kspoly: support 27 exceeds the exact-search limit "
                   "25\n")


def test_word_parse_error_exit2(capsys):
    code, _ = run(capsys, "word", "--polytope", "600cell", "a!!", "symbol")
    assert code == 2


def test_word_unknown_letter_exit2(capsys):
    code, _ = run(capsys, "word", "--polytope", "600cell", "z", "symbol")
    assert code == 2


def test_word_minimal(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "acd",
                    "minimal", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minimal"] is False and doc["bound"] == 2


def test_word_minimal_non_proof_exit4(capsys):
    code, _ = run(capsys, "word", "--polytope", "600cell", "c", "minimal")
    assert code == 4


def test_word_decompose(capsys):
    code, out = run(capsys, "word", "--polytope", "gosset", "e1 e2",
                    "decompose", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("word_report.schema.json"))
    nine = [s for s in doc["sub_proofs"] if len(s["local_indices"]) == 9]
    assert {tuple(s["local_indices"]) for s in nine} >= {
        (1, 4, 6, 9, 11, 14, 17, 22, 27)}
    assert all(s["symbol"] == "36_2-9_8" for s in nine)


def test_word_decompose_non_nullspace_exit4(capsys):
    code, _ = run(capsys, "word", "--polytope", "120cell", "c", "decompose")
    assert code == 4


# --------------------------------------------------------------------------
# geometry


def test_geometry_construct(capsys):
    code, out = run(capsys, "geometry", "construct", "--polytope", "gosset",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("geometry_report.schema.json"))
    assert doc["rays"] == 120 and doc["bases"] == 2025
    assert doc["bases_per_ray"] == [135]


def test_geometry_project(capsys):
    code, out = run(capsys, "geometry", "project", "--polytope", "600cell",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("geometry_report.schema.json"))
    radii = [p["radius"] for p in doc["pentadecagons"]]
    assert len(radii) == 4
    for got, want in zip(radii, (1.0, 0.8135, 0.6728, 0.3383)):
        assert abs(got - want) < 5e-4


def test_geometry_project_csv(capsys):
    code, out = run(capsys, "geometry", "project", "--polytope", "600cell",
                    "--format", "csv")
    assert code == 0
    assert out.startswith("ray,radius,angle_deg")
    assert len(out.strip().split("\n")) == 61


def test_geometry_match(capsys):
    code, out = run(capsys, "geometry", "match", "--polytope", "600cell",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["mapped_rays"] == 60


def test_geometry_rigidity(capsys):
    code, out = run(capsys, "geometry", "rigidity", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("geometry_report.schema.json"))
    assert doc["all_passed"] is True


def test_geometry_requires_polytope(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "construct"])
    assert exc.value.code == 2


def test_proof_schema_accepts_interface_docs():
    doc = {"polytope": "120cell", "word": "c d y",
           "basis_indices": [31, 32, 33]}
    jsonschema.validate(doc, schema("proof.schema.json"))
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"polytope": "120cell"},
                            schema("proof.schema.json"))


def test_rayset_schema(capsys):
    from kspoly.geometry import icosian_600cell, rayset_to_json
    jsonschema.validate(rayset_to_json(icosian_600cell()),
                        schema("rayset.schema.json"))
