"""cli: every command of the README's CLI section, as a user runs them.

Each command runs in a fresh interpreter against the working tree
(`python -m kspoly.cli` with PYTHONPATH=src), one at a time, so each
operation pays interpreter start-up and the package import.  Seven
commands beyond the README's thirteen make the pass cover every word
action and every geometry check on all three polytopes.  The traced run
calls kspoly.cli.main(argv) in-process instead, so that layer spans nest
under cli.main.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys

from checks import (POLYTOPES, ROOT, check_radii, check_table,
                    dataset, exact_cover, expect, is_parity_proof, published,
                    radius_classes)
from harness import Op, Workload, child_env  # puts src/ on sys.path

README_COMMANDS = [
    ["gen-bases", "--polytope", "600cell"],
    ["gen-bases", "--polytope", "gosset", "--format", "csv"],
    ["weights", "--polytope", "120cell", "--odd"],
    ["weights", "--polytope", "gosset", "--odd", "--format", "json"],
    ["word", "--polytope", "120cell", "a b e g k r i'", "symbol"],
    ["word", "--polytope", "120cell", "cdy", "decompose"],
    ["word", "--polytope", "gosset", "e1 e2", "decompose"],
    ["word", "--polytope", "600cell", "acd", "minimal"],
    ["word", "--polytope", "600cell", "a", "verify", "--check-assignment"],
    ["geometry", "construct", "--polytope", "gosset"],
    ["geometry", "project", "--polytope", "600cell", "--format", "csv"],
    ["geometry", "match", "--polytope", "120cell"],
    ["geometry", "rigidity"],
]
COVERAGE_COMMANDS = [
    ["word", "--polytope", "gosset", "b1", "expand", "--format", "json"],
    ["geometry", "construct", "--polytope", "600cell", "--format", "json"],
    ["geometry", "construct", "--polytope", "120cell", "--format", "json"],
    ["geometry", "project", "--polytope", "120cell", "--format", "json"],
    ["geometry", "project", "--polytope", "gosset", "--format", "json"],
    ["geometry", "match", "--polytope", "600cell", "--format", "json"],
    ["geometry", "match", "--polytope", "gosset", "--format", "json"],
]
COMMANDS = README_COMMANDS + COVERAGE_COMMANDS


def _subprocess_call(argv):
    done = subprocess.run([sys.executable, "-m", "kspoly.cli", *argv],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True)
    return done.returncode, done.stdout, done.stderr


def _in_process_call(argv):
    import kspoly.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kspoly.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def setup(seed: int, in_process: bool = False) -> Workload:
    """The commands are fixed, so the seed changes nothing."""
    pub = published()
    call = _in_process_call if in_process else _subprocess_call
    ops = [Op(" ".join(argv), lambda s, a=tuple(argv): call(a),
              _checker(argv, pub)) for argv in COMMANDS]
    return Workload(ops, post_check=lambda: _check_matchings(pub),
                    output_counts=_output_bytes,
                    notes={"commands": len(ops)})


def _output_bytes(outputs: dict) -> dict:
    return {"cli.output_bytes": sum(len(out[1].encode())
                                    for out in outputs.values())}


def _checker(argv, pub):
    name = " ".join(argv)
    polytope = argv[argv.index("--polytope") + 1] if "--polytope" in argv \
        else None
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    check = _CHECKS[argv[1] if argv[0] == "geometry" else argv[0]]

    def run(out):
        code, stdout, stderr = out
        expect(code == 0, f"{name}: exit {code}: {stderr.strip()}")
        check(stdout, polytope=polytope, fmt=fmt, pub=pub, argv=argv)

    return run


def _lines(stdout: str) -> list[str]:
    return stdout.rstrip("\n").split("\n")


def _check_gen_bases(stdout, polytope, fmt, pub, **_):
    geo = pub["geometry"][polytope]
    if fmt == "csv":
        rows = _lines(stdout)[1:]
        bases = [tuple(int(x) for x in row.split(",")[3:]) for row in rows]
    else:
        rows = _lines(stdout)[1:]
        bases = [tuple(int(x) for x in row.split("\t")[3].split())
                 for row in rows]
    expect(len(bases) == geo["bases"], f"{polytope}: {len(bases)} bases")
    check_table(bases, len(bases[0]), geo["rays"], geo["per_ray"])


def _check_weights(stdout, polytope, fmt, pub, **_):
    want = {int(w): int(c) for w, c in pub["odd_counts"][polytope].items()}
    k = pub["nullity"][polytope]
    if fmt == "json":
        doc = json.loads(stdout)
        odd_total = int(doc["odd_total"])
        counts = {int(w): int(c) for w, c in doc["counts"].items()}
        expect(doc["k"] == k, f"{polytope}: k {doc['k']} != {k}")
    else:
        lines = _lines(stdout)
        odd_total = int(re.search(r"odd_total=(\d+)", lines[0]).group(1))
        counts = dict(tuple(int(x) for x in ln.split("\t"))
                      for ln in lines[1:])
    expect(counts == want, f"{polytope}: odd counts differ from published")
    expect(odd_total == sum(want.values()) == 1 << (k - 1),
           f"{polytope}: odd total {odd_total}")


def _subproofs(lines):
    """(symbol, local index set) per printed sub-proof line."""
    out = []
    for ln in lines[1:]:
        sym, local = re.fullmatch(r"\s+(\S.*\S)\s+local ([\d,]+)",
                                  ln).groups()
        out.append((sym, frozenset(int(i) for i in local.split(","))))
    return out


def _check_decompose(stdout, polytope, pub, argv, **_):
    lines = _lines(stdout)
    label = lines[0].rsplit(": ", 1)[1]
    subs = _subproofs(lines)
    whole = frozenset(range(1, 1 + max(max(s) for _, s in subs)))
    direct = exact_cover(whole, [s for _, s in subs if s != whole])
    expect(label == ("direct_sum" if direct else "overlapping"),
           f"{argv[3]}: labelled {label}")
    if argv[3] == "cdy":
        pieces = [s for sym, s in subs if sym == "30_2-15_4"]
        expect(len(pieces) == 3 and exact_cover(whole, pieces),
               "cdy is not a direct sum of three 30_2-15_4 proofs")
    else:
        nine = [frozenset(t) for t in pub["e1e2_nine"]]
        for key in nine:
            expect(("36_2-9_8", key) in subs,
                   f"e1 e2: published proof {sorted(key)} missing")
        expect(not exact_cover(whole, nine),
               "e1 e2: the published nine-basis proofs should overlap")


def _check_word(stdout, polytope, fmt, pub, argv, **_):
    action = argv[4]
    text = argv[3]
    if action == "symbol":
        want = {e["word"]: e["symbol"] for e in pub["proofs"][polytope]}
        expect(stdout.strip() == want[text.replace(" ", "")],
               f"{text}: symbol {stdout.strip()}")
    elif action == "minimal":
        n_gens = len(dataset(polytope)["generators"])
        bound = n_gens - pub["nullity"][polytope] + 1
        is_minimal = text in pub["minimal_600cell"]
        expect(stdout.strip().endswith(
            f"{'minimal' if is_minimal else 'not minimal'} "
            f"(length {len(re.findall('[a-z]', text))}, bound {bound})"),
            f"{text}: minimality report {stdout.strip()}")
    elif action == "verify":
        expect(stdout.strip() == f"word {text}: valid (15 bases, "
                                 "0 offending rays)",
               f"{text}: certificate {stdout.strip()}")
    elif action == "expand":
        doc = json.loads(stdout)
        idx = doc["basis_indices"]
        expect(len(idx) == 15 and idx == list(range(idx[0], idx[0] + 15))
               and idx[0] % 15 == 1, f"{text}: not one 15-basis orbit")
        expect(is_parity_proof([tuple(b) for b in doc["bases"]]),
               f"{text}: expanded bases are not a parity proof")
    else:
        _check_decompose(stdout, polytope=polytope, pub=pub, argv=argv)


def _check_construct(stdout, polytope, fmt, pub, **_):
    geo = pub["geometry"][polytope]
    if fmt == "json":
        doc = json.loads(stdout)
        expect(doc["saturated"] is True and doc["ok"] is True,
               f"{polytope}: construction not saturated")
        got = (doc["rays"], doc["bases"], doc["bases_per_ray"], doc["edges"])
    else:
        m = re.fullmatch(r"\w+: (\d+) rays, (\d+) orthogonal pairs, (\d+) "
                         r"bases, each ray in \[(\d+)\]", stdout.strip())
        expect(m is not None, f"{polytope}: construct output {stdout!r}")
        rays, edges, bases, per_ray = map(int, m.groups())
        got = (rays, bases, [per_ray], edges)
    want = (geo["rays"], geo["bases"], [geo["per_ray"]],
            geo.get("edges", got[3]))
    expect(got == want, f"{polytope}: construction {got} != {want}")


def _check_project(stdout, polytope, fmt, pub, **_):
    if fmt == "csv":
        radii = [float(row.split(",")[1]) for row in _lines(stdout)[1:]]
        rings = radius_classes(radii)
        expect(all(n == 15 for _, n in rings), f"{polytope}: ring sizes")
        radii = [r for r, _ in rings]
    else:
        rings = json.loads(stdout)["pentadecagons"]
        expect(all(p["rays"] == 15 for p in rings), f"{polytope}: ring sizes")
        radii = [p["radius"] for p in rings]
    check_radii(radii, polytope, pub["flagged_radius"])


def _check_match(stdout, polytope, fmt, pub, **_):
    rays = pub["geometry"][polytope]["rays"]
    if fmt == "json":
        doc = json.loads(stdout)
        ok = doc["ok"] is True and doc["mapped_rays"] == rays
    else:
        ok = stdout.strip() == (f"{polytope}: geometric bases match the "
                                f"generator table ({rays} rays mapped)")
    expect(ok, f"{polytope}: match output {stdout.strip()!r}")


def _check_rigidity(stdout, **_):
    lines = _lines(stdout)
    expect(all(ln.startswith("PASS  ") for ln in lines),
           "rigidity: a claim failed")
    expect("PASS  v1 not orthogonal to v6" in lines,
           "rigidity: the non-rigidity claim is missing")


# by subcommand, and by check for geometry
_CHECKS = {
    "gen-bases": _check_gen_bases,
    "weights": _check_weights,
    "word": _check_word,
    "construct": _check_construct,
    "project": _check_project,
    "match": _check_match,
    "rigidity": _check_rigidity,
}


def _check_matchings(pub) -> None:
    """What the CLI's text cannot show: the geometric bases are saturated
    and the match carries every computed basis onto a table basis."""
    from kspoly import datasets, geometry, raysystem

    makers = {"600cell": geometry.icosian_600cell,
              "120cell": geometry.build_120cell_rays,
              "gosset": geometry.e8_rays}
    for P in POLYTOPES:
        table = raysystem.build_basis_table(*datasets.load_polytope(P))
        graph = geometry.orthogonality_graph(makers[P]())
        computed = geometry.enumerate_bases(graph, table.layout.dimension)
        expect(geometry.saturated(graph, computed), f"{P}: not saturated")
        mapping = geometry.match_labeling(computed, table)
        expect(sorted(mapping.values()) ==
               list(range(1, pub["geometry"][P]["rays"] + 1)),
               f"{P}: the match is not a bijection onto the table's rays")
        targets = {frozenset(b) for b in table.bases}
        expect(all(frozenset(mapping[r] for r in b) in targets
                   for b in computed),
               f"{P}: a computed basis maps off the table")
