"""CLI subcommands: formats, exit codes, determinism, schema validity."""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kspoly
from kspoly import contextuality
from kspoly.cli import build_parser, main
from kspoly.datasets import data_text
from kspoly.raysystem import POLYTOPES


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


def test_table_exports(capsys):
    code, out = run(capsys, "gen-bases", "--polytope", "600cell",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 75
    assert doc["bases"][0] == [1, 5, 55, 56]
    assert doc["origin"][0] == {"index": 1, "generator": "a", "shift": 0}
    code, csv_text = run(capsys, "gen-bases", "--polytope", "600cell",
                         "--format", "csv")
    assert code == 0
    lines = csv_text.strip().split("\n")
    assert lines[0] == "index,generator,shift,r1,r2,r3,r4"
    assert lines[1] == "1,a,0,1,5,55,56"
    assert len(lines) == 76


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


@pytest.mark.parametrize("name", ["missing/out.txt", ""],
                         ids=["missing-directory", "directory"])
def test_out_unwritable_exit2(tmp_path, capsys, name):
    target = tmp_path / name
    code = main(["geometry", "project", "--polytope", "600cell",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"kspoly: cannot write {target}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["closed-pipe", "/dev/full"])
@pytest.mark.parametrize("command", [
    "weights --polytope 600cell", "gen-bases --polytope gosset --format json",
    "--help", "geometry match --help"])
def test_stdout_unwritable_exit2(target, command):
    """A reader that closes the pipe at once, or a full device: one
    stderr line and exit 2, with no traceback and no second report when
    the interpreter flushes stdout at exit.  Run with stdout buffered, as
    by default, so that a short output is still buffered when it fails.
    argparse's help is covered too: it is written outside the report."""
    if target == "closed-pipe":
        read, out = os.pipe()
        os.close(read)
    elif os.path.exists(target):
        out = os.open(target, os.O_WRONLY)
    else:
        pytest.skip(f"no {target} on this system")
    env = dict(os.environ, PYTHONPATH=str(Path(kspoly.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kspoly.cli", *command.split()],
            stdout=out, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(out)
    assert done.returncode == 2
    assert done.stderr.startswith("kspoly: cannot write stdout: ")
    assert done.stderr.count("\n") == 1


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_help_to_a_working_stdout_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


def test_stdout_unwritable_in_process_exit2(capsys, monkeypatch):
    """An in-process caller's stdout that fails is reported like --out,
    and the process's own fd 1 is left alone."""
    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    code = main(["weights", "--polytope", "600cell"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"kspoly: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


def test_data_override(tmp_path, capsys):
    doc = json.loads(data_text("600cell.json"))
    doc["generators"] = doc["generators"][:1]
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "gen-bases", "--polytope", "600cell",
                    "--data", str(path))
    assert code == 0
    assert len(out.strip().split("\n")) == 16


def _bad_data(tmp_path, edit):
    doc = json.loads(data_text("600cell.json"))
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


def _set_pentadecagon(field, value):
    def edit(doc):
        doc["pentadecagons"][1][field] = value
    return edit


def _set_dimension(doc):
    doc["dimension"] = 5


@pytest.mark.parametrize("edit, message", [
    (_set_dimension, "field dimension: expected 4 or 8, got 5"),
    (_set_pentadecagon("label", "Z9"), "field pentadecagons[1].label: "
     "expected a label matching ^[A-L][12]?$, got 'Z9'"),
    (_set_pentadecagon("radius", -1.0),
     "field pentadecagons[1].radius: expected > 0, got -1.0"),
    (_set_pentadecagon("radius", 0),
     "field pentadecagons[1].radius: expected > 0, got 0"),
    (_set_pentadecagon("angle_deg", 400),
     "field pentadecagons[1].angle_deg: expected 0..360, got 400"),
    (_set_pentadecagon("angle_deg", -0.5),
     "field pentadecagons[1].angle_deg: expected 0..360, got -0.5"),
])
@pytest.mark.parametrize("argv", [
    ["gen-bases"],
    ["word", "a", "verify"],
    ["geometry", "match"],
])
def test_data_out_of_schema_bounds_exit2(tmp_path, capsys, edit, message,
                                         argv):
    """dataset.schema.json's enums, patterns and bounds are enforced."""
    path = _bad_data(tmp_path, edit)
    code = main(argv + ["--polytope", "600cell", "--data", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"kspoly: {path}: {message}\n"


def test_data_schema_bounds_are_inclusive(tmp_path, capsys):
    def edit(doc):
        doc["pentadecagons"][0]["angle_deg"] = 0
        doc["pentadecagons"][1]["angle_deg"] = 360
        doc["pentadecagons"][2]["label"] = "L2"
    path = _bad_data(tmp_path, edit)
    assert main(["gen-bases", "--polytope", "600cell", "--data",
                 str(path)]) == 0


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


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00bad", "not UTF-8: byte 0: invalid start byte"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
], ids=["not-utf8", "deeply-nested"])
def test_data_unparseable_exit2(tmp_path, capsys, content, message):
    """A file that is not UTF-8, or JSON nested past Python's recursion
    limit, is a bad dataset: one line on stderr, no traceback."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code = main(["gen-bases", "--polytope", "600cell", "--data", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"kspoly: {path}: {message}\n"


# one JSON value in place of a dataset field: plausible and implausible
_FIELD_VALUES = st.one_of(
    st.integers(-2, 70), st.sampled_from(("a", "a'", "b1", "A", "", "P1")),
    st.text(max_size=3), st.none(), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _mutated_dataset(draw, polytope):
    """The embedded dataset with one field changed: a pentadecagon or
    generator label, the polytope, the dimension, a lo, hi, radius or
    angle_deg, one ray id, the generator list (dropped, repeated or
    reordered generators) or the pentadecagon list (truncated)."""
    doc = json.loads(data_text(f"{polytope}.json"))
    field = draw(st.sampled_from(("label", "polytope", "dimension", "lo",
                                  "hi", "radius", "angle_deg", "ray",
                                  "generators", "pentadecagons")))
    if field == "label":
        items = doc[draw(st.sampled_from(("pentadecagons", "generators")))]
        draw(st.sampled_from(items))["label"] = draw(_FIELD_VALUES)
    elif field == "polytope":
        doc["polytope"] = draw(st.sampled_from(POLYTOPES) | _FIELD_VALUES)
    elif field == "dimension":
        doc["dimension"] = draw(_FIELD_VALUES)
    elif field in ("lo", "hi", "radius", "angle_deg"):
        draw(st.sampled_from(doc["pentadecagons"]))[field] = draw(
            _FIELD_VALUES)
    elif field == "ray":
        rays = draw(st.sampled_from(doc["generators"]))["rays"]
        rays[draw(st.integers(0, len(rays) - 1))] = draw(_FIELD_VALUES)
    elif field == "generators":
        doc["generators"] = draw(st.lists(
            st.sampled_from(doc["generators"]), max_size=7))
    else:
        rings = doc["pentadecagons"]
        del rings[draw(st.integers(0, len(rings) - 1)):]
    return doc


_FUZZ_COMMANDS = {
    "600cell": (
        ["gen-bases"],
        ["weights", "--odd"],
        ["word", "a", "verify"],
        ["word", "a b", "expand"],
        ["word", "a c d", "symbol"],
        ["word", "a c d", "minimal"],
        ["word", "a c d", "decompose"],
        ["word", "a", "verify", "--check-assignment"],
        ["geometry", "match"],
    ),
    "120cell": (
        ["gen-bases"],
        ["weights", "--odd"],
        ["word", "cdy", "verify"],
        ["word", "cdy", "decompose"],
        ["geometry", "match"],
    ),
    "gosset": (
        ["gen-bases"],
        ["weights", "--odd"],
        ["word", "e1 e2", "verify"],
        ["word", "b1", "expand"],
        ["geometry", "match"],
    ),
}


def _exit_code(polytope, doc, argv, tmp_path_factory):
    """The exit code of one command on a --data file holding doc."""
    path = tmp_path_factory.mktemp("fuzz") / "data.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv + ["--polytope", polytope, "--data", str(path)])


@settings(max_examples=25, deadline=None)
@given(_mutated_dataset("600cell"), st.sampled_from(_FUZZ_COMMANDS["600cell"]))
def test_data_fuzz_documented_exits(tmp_path_factory, doc, argv):
    """A --data file with one mutated field ends in a documented exit
    code, never an exception."""
    code = _exit_code("600cell", doc, argv, tmp_path_factory)
    assert code in (0, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("polytope", ["120cell", "gosset"])
def test_data_fuzz_larger_datasets(tmp_path_factory, polytope):
    """The same one-field mutations of the 120-cell and Gosset datasets,
    a few examples each."""
    @settings(max_examples=8, deadline=None)
    @given(_mutated_dataset(polytope),
           st.sampled_from(_FUZZ_COMMANDS[polytope]))
    def check(doc, argv):
        code = _exit_code(polytope, doc, argv, tmp_path_factory)
        assert code in (0, 2, 3, 4, 5, 6)
    check()


# letters of a dataset, plus tokens that are malformed or in no dataset
_ODD_TOKENS = ("z", "a'", "e'2", "b_1", "'", "7", "A", "é", "a-b", "--x")


@st.composite
def _contract_argv(draw, polytope):
    """One command line: gen-bases, weights, a word action (a word of the
    dataset's letters and odd tokens) or geometry match, on the embedded
    dataset or on a mutated copy (the doc to write, else None)."""
    labels = [g["label"] for g in
              json.loads(data_text(f"{polytope}.json"))["generators"]]
    command = draw(st.sampled_from(("gen-bases", "weights", "word",
                                    "geometry")))
    if command == "word":
        tokens = draw(st.lists(st.sampled_from(labels), max_size=4))
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))),
                          draw(st.sampled_from(_ODD_TOKENS)))
        action = draw(st.sampled_from(("expand", "symbol", "verify",
                                       "minimal", "decompose")))
        argv = ["word", " ".join(tokens), action]
        if action == "verify" and draw(st.booleans()):
            argv.append("--check-assignment")
    else:
        argv = ["geometry", "match"] if command == "geometry" else [command]
    doc = draw(st.none() | _mutated_dataset(polytope))
    return argv + ["--polytope", polytope], doc


@pytest.mark.parametrize("polytope", POLYTOPES)
def test_error_contract(tmp_path_factory, monkeypatch, polytope):
    """On mutated datasets and words, main returns a documented code
    (0, 2-6) or argparse exits 2; a returned failure writes exactly one
    stderr line, "kspoly: ...", and success writes none."""
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "200")
    path = tmp_path_factory.mktemp("contract") / "data.json"

    @settings(max_examples=20, deadline=None)
    @given(_contract_argv(polytope))
    def check(case):
        argv, doc = case
        if doc is not None:
            path.write_text(json.dumps(doc))
            argv = argv + ["--data", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refused the command line
                assert exc.code == 2
                return
        assert code in (0, 2, 3, 4, 5, 6)
        if code:
            assert err.getvalue().startswith("kspoly: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
    check()


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


def test_certificate_json(capsys):
    code, out = run(capsys, "word", "--polytope", "600cell", "c", "verify",
                    "--format", "json")
    assert code == 0
    doc = json.loads(out)["certificate"]
    assert doc["valid"] is False
    assert doc["basis_count"] == 15
    assert len(doc["offending_rays"]) == 60
    json.dumps(doc)  # serialisable


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
    assert captured.err == ("kspoly: assignment search exceeded 1 nodes (0 "
                            "of 4 root branches refuted, 0 rays banned, "
                            "depth 2)\n")


def test_word_verify_bad_node_budget_exit2(capsys, monkeypatch):
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "abc")
    code = main(["word", "--polytope", "600cell", "a", "verify",
                 "--check-assignment"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("kspoly: bad KSPOLY_NODE_BUDGET: ")
    assert err.count("\n") == 1


def test_word_verify_negative_node_budget_exit2(capsys, monkeypatch):
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "-1")
    code = main(["word", "--polytope", "600cell", "a", "verify",
                 "--check-assignment"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("kspoly: bad KSPOLY_NODE_BUDGET: node budget "
                            "must not be negative, got -1\n")


def test_word_verify_search_error_is_not_a_budget_error(monkeypatch):
    """Only the budget's parse maps ValueError to exit 2: one raised by the
    search itself is not reported as a bad KSPOLY_NODE_BUDGET."""
    def broken(bases, node_budget=None, stats=None):
        raise ValueError("raised inside the search")

    monkeypatch.setattr(contextuality, "find_ks_assignment", broken)
    with pytest.raises(ValueError, match="inside the search"):
        main(["word", "--polytope", "600cell", "a", "verify",
              "--check-assignment"])


def test_word_minimal_past_support_limit(capsys):
    # 31 letters, restricted nullity 27: beyond the span limit of 25, but
    # minimality reads the nullity and walks nothing
    code, out = run(capsys, "word", "--polytope", "gosset",
                    "a2a3b1c2d2d3d4d5d6d7d8e1e2f1f2f3f4f5f6f7f8f9g1g2g3g4g5"
                    "h2h3i1i2", "minimal")
    assert code == 0
    assert out.endswith("not minimal (length 31, bound 5)\n")


def test_word_minimal_long_non_proof_exit4(capsys):
    # 27 letters, not a nullspace word: rejected before any walk
    code = main(["word", "--polytope", "120cell",
                 "abcdefghijklmnopqrstuvwxyza'", "minimal"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("kspoly: word ") and err.count("\n") == 1


def test_word_minimal_past_25_letters(capsys):
    # 27 letters, restricted nullity 12
    code, out = run(capsys, "word", "--polytope", "120cell",
                    "abdfgilmnqrvwxa'b'c'd'e'g'i'k'n'o'q'r's'", "minimal")
    assert code == 0
    assert out.endswith("not minimal (length 27, bound 16)\n")


def test_word_csv_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["word", "--polytope", "600cell", "a", "symbol",
              "--format", "csv"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("action", ["symbol", "decompose"])
def test_word_empty_exit4(capsys, action):
    code = main(["word", "--polytope", "600cell", "", action])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("kspoly: cannot ")
    assert captured.err.count("\n") == 1


def test_word_decompose_non_nullspace_exit4(capsys):
    code = main(["word", "--polytope", "120cell", "c", "decompose"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "kspoly: word c is not a nullspace element\n"


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


def test_projection_csv(capsys, monkeypatch):
    from kspoly import geometry

    code, text = run(capsys, "geometry", "project", "--polytope", "600cell",
                     "--format", "csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "ray,radius,angle_deg"
    assert len(lines) == 61
    # an angle that rounds to 360 degrees prints as 0: turn the whole
    # projection so that ray 1 lies 1e-13 degrees below 360
    project = geometry.coxeter_projection

    def turned(rs):
        proj = project(rs)
        a0 = proj[0][1] + 1e-13
        return [(r, (a - a0) % 360.0) for r, a in proj]

    monkeypatch.setattr(geometry, "coxeter_projection", turned)
    assert turned(geometry.icosian_600cell())[0][1] == 360.0 - 1e-13
    code, text = run(capsys, "geometry", "project", "--polytope", "600cell",
                     "--format", "csv")
    assert code == 0
    assert text.split("\n")[1] == "1,0.813473,0.000000"


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
    for check in ("construct", "project", "match"):
        with pytest.raises(SystemExit) as exc:
            main(["geometry", check])
        assert exc.value.code == 2
        assert "the following arguments are required: --polytope" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["construct", "--polytope", "600cell", "--data", "x.json"],
    ["project", "--polytope", "600cell", "--data", "x.json"],
    ["rigidity", "--data", "x.json"],
    ["rigidity", "--polytope", "600cell"],
], ids=["construct-data", "project-data", "rigidity-data",
        "rigidity-polytope"])
def test_geometry_refuses_flags_it_ignores(capsys, argv):
    """A geometry check takes only the flags it reads."""
    with pytest.raises(SystemExit) as exc:
        main(["geometry", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in captured.err


def test_geometry_check_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "--polytope", "600cell"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--polytope", "600cell"],
    ["match", "--polytope", "600cell"],
    ["rigidity"],
], ids=lambda argv: argv[0])
def test_geometry_csv_only_for_project(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", *argv, "--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_geometry_match_budget_exit6(capsys, monkeypatch):
    from kspoly import geometry
    monkeypatch.setattr(geometry, "MATCH_BUDGET", 1)
    code = main(["geometry", "match", "--polytope", "600cell"])
    captured = capsys.readouterr()
    assert code == 6
    assert captured.out == ""
    assert captured.err == "kspoly: isomorphism search exceeded 1 nodes\n"


# --------------------------------------------------------------------------
# start-up


def test_cli_imports_neither_dataclasses_nor_inspect():
    """The records are named tuples, so starting the CLI loads neither
    `dataclasses` nor the `inspect` it pulls in; the CLI joins its csv
    rows itself, so it loads no `csv` either.  A fresh interpreter runs
    with -S, so that no site .pth file can load them."""
    probe = ("import kspoly.cli, sys\n"
             "print(sorted({'dataclasses', 'inspect', 'csv', '_csv'}"
             " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(kspoly.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_package_import_loads_no_module():
    """Each public name has one import path, its module: `import kspoly`
    gives the docstring and `__version__` and loads no kspoly module."""
    probe = ("import kspoly, sys\n"
             "print([m for m in sys.modules if m.startswith('kspoly.')])")
    env = dict(os.environ, PYTHONPATH=str(Path(kspoly.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
