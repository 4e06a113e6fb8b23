"""Command-line surface: basis tables, proof counting, word reports, and
geometry checks, each a sub-command taking only the flags it reads.  A
command builds a json document, text lines, and csv rows where it offers
csv; `_report` renders the one --format asks for.

Exit codes: 0 success; 2 bad arguments (a format or flag the command does
not take included), word parse error, a KSPOLY_NODE_BUDGET that is not a
non-negative integer, a --data file that is missing, unreadable or not a
valid dataset, or output that --out or stdout cannot take (a missing
directory, a full disk, a closed pipe, for --help too: one line, no
traceback); 3 internal counting inconsistency; 4 word is not an odd
nullspace element where one is required; 5 failed geometric claim; 6 a
search or enumeration ran past its limit (assignment node budget, match
search budget, enumeration size).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from . import contextuality, geometry, gf2, raysystem
from .datasets import DatasetError, expected_counts, load_polytope
from .raysystem import POLYTOPES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_NOT_PROOF = 4
EXIT_GEOMETRY = 5
EXIT_LIMIT = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _report(args, doc: dict, lines: Iterable[str],
            rows: Iterable[Sequence] = ()) -> None:
    """Write doc as json, rows as csv or lines as text to --out or stdout,
    which `main` flushes: only the form --format asks for is built, so
    lines and rows may be lazy.  No csv field (a number, a header or a
    generator letter) holds a comma, a quote or a newline to escape."""
    if args.format == "json":
        text = json.dumps(doc, indent=1) + "\n"
    elif args.format == "csv":
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
    else:
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc.strerror or exc}",
                       EXIT_USAGE)


def _load_table(args):
    """The dataset and its basis table.  A --data file whose orbits break a
    table invariant (duplicate bases, non-uniform ray occurrence) is a bad
    dataset like any other."""
    layout, gens = load_polytope(args.polytope, args.data)
    try:
        return layout, gens, raysystem.build_basis_table(layout, gens)
    except ValueError as exc:
        raise DatasetError(f"{args.data or args.polytope}: {exc}") from exc


# --------------------------------------------------------------------------
# gen-bases and weights


def cmd_gen_bases(args) -> int:
    layout, gens, table = _load_table(args)
    n_bases, d = len(table.bases), layout.dimension
    origin = [(g.label, s) for g in gens for s in range(raysystem.ORBIT)]
    doc = {"polytope": layout.polytope, "dimension": d, "count": n_bases,
           "bases": table.bases,  # json writes tuples as arrays
           "origin": [{"index": i, "generator": lab, "shift": shift}
                      for i, (lab, shift) in enumerate(origin, 1)]}
    lines = chain([f"# {layout.polytope}: {n_bases} bases, "
                   f"{len(gens)} generators x 15 shifts"],
                  (f"{i}\t{lab}\t{shift}\t{' '.join(map(str, b))}"
                   for i, (b, (lab, shift))
                   in enumerate(zip(table.bases, origin), 1)))
    rows = chain([["index", "generator", "shift"]
                  + [f"r{j}" for j in range(1, d + 1)]],
                 ([i, lab, shift, *b] for i, (b, (lab, shift))
                  in enumerate(zip(table.bases, origin), 1)))
    _report(args, doc, lines, rows)
    return EXIT_OK


def cmd_weights(args) -> int:
    layout, gens = load_polytope(args.polytope, args.data)
    pm = raysystem.build_profile_matrix(layout, gens)
    m2 = gf2.profile_matrix_mod2(pm)
    spec = gf2.gf2_nullspace(m2, pm.col_labels)
    try:
        dist = gf2.macwilliams_transform(gf2.dual_weight_distribution(m2),
                                         spec.n)
    except gf2.WeightTransformError as exc:
        raise CliError(f"inconsistent weight transform: {exc}",
                       EXIT_INCONSISTENT)
    if dist.total() != 1 << spec.k:
        raise CliError("weight distribution does not sum to 2^k",
                       EXIT_INCONSISTENT)
    items = [(w, c) for w, c in dist.items() if (not args.odd or w % 2)
             and (args.max_weight is None or w <= args.max_weight)]
    odd_total = gf2.odd_weight_total(dist)
    doc = {"polytope": layout.polytope, "n": spec.n, "k": spec.k,
           "odd_total": str(odd_total),
           "counts": {str(w): str(c) for w, c in items}}
    lines = [f"# {layout.polytope}: n={spec.n} k={spec.k} "
             f"odd_total={odd_total}"] + [f"{w}\t{c}" for w, c in items]
    _report(args, doc, lines, [("weight", "count"), *items])
    return EXIT_OK


# --------------------------------------------------------------------------
# word


def cmd_word(args) -> int:
    layout, gens, table = _load_table(args)
    try:
        word = raysystem.parse_word(args.word)
        unknown = sorted(word.letters - {g.label for g in gens})
        if unknown:
            raise ValueError(f"letters {unknown} not in the "
                             f"{layout.polytope} generator set")
    except ValueError as exc:
        raise CliError(f"bad word: {exc}", EXIT_USAGE)
    doc: dict = {"polytope": layout.polytope,
                 "word": raysystem.render_word(word),
                 "action": args.action}

    if args.action == "verify":
        if word.letters:
            proof = contextuality.proof_from_word(word, table)
            cert = contextuality.verify_parity_proof(proof)
        else:
            cert = contextuality.certificate_for_bases([])
        doc["certificate"] = {
            "valid": cert.valid, "basis_count": cert.basis_count,
            "offending_rays": list(cert.offending_rays),
            "ray_occurrences": {str(r): c for r, c
                                in sorted(cert.ray_occurrences.items())}}
        if args.check_assignment and word.letters:
            try:
                budget = contextuality.resolve_node_budget()
            except ValueError as exc:
                raise CliError(f"bad {contextuality.NODE_BUDGET_ENV}: {exc}",
                               EXIT_USAGE)
            assignment = contextuality.find_ks_assignment(proof.bases(),
                                                          budget)
            doc["assignment_exists"] = assignment is not None
        text_lines = [f"word {doc['word'] or '(empty)'}: "
                      f"{'valid' if cert.valid else 'invalid'} "
                      f"({cert.basis_count} bases, "
                      f"{len(cert.offending_rays)} offending rays)"]
    elif args.action == "expand":
        indices = sorted(raysystem.word_to_bases(word, table))
        doc.update(basis_indices=[i + 1 for i in indices],
                   bases=[list(table.bases[i]) for i in indices])
        text_lines = [f"{i + 1}\t" + " ".join(map(str, table.bases[i]))
                      for i in indices]
    elif args.action == "symbol":
        if not word.letters:
            raise CliError("cannot take the symbol of the empty word",
                           EXIT_NOT_PROOF)
        sym = raysystem.symbol_from_word(word, gens, layout)
        doc["symbol"] = {"ray_terms": [list(t) for t in sym.ray_terms],
                         "basis_count": sym.basis_count,
                         "basis_size": sym.basis_size, "text": str(sym)}
        text_lines = [str(sym)]
    elif args.action == "minimal":
        pm = raysystem.build_profile_matrix(layout, gens)
        try:
            minimal = gf2.is_minimal_word(word, pm)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_NOT_PROOF)
        n, k = len(gens), gf2.gf2_nullspace(gf2.profile_matrix_mod2(pm)).k
        doc.update(minimal=minimal, bound=gf2.minimality_bound(n, k))
        text_lines = [f"word {doc['word']}: "
                      f"{'minimal' if minimal else 'not minimal'} "
                      f"(length {len(word)}, bound {doc['bound']})"]
    else:  # decompose
        if not word.letters:
            raise CliError("cannot decompose the empty word",
                           EXIT_NOT_PROOF)
        # no odd ray iff M w = 0: p's rays occur as often as profiles count p
        proof = contextuality.proof_from_word(word, table)
        if contextuality.verify_parity_proof(proof).offending_rays:
            raise CliError(f"word {doc['word']} is not a nullspace element",
                           EXIT_NOT_PROOF)
        dec = contextuality.incidence_nullspace_proofs(proof)
        proper = [s for s in dec.proofs
                  if s.basis_indices != proof.basis_indices]
        label = contextuality.classify_decomposition(
            proof, proper if proper else [proof])
        doc.update(irreducible=not proper, classification=label,
                   truncated=dec.truncated, sub_proofs=[])
        text_lines = [f"word {doc['word']}: "
                      f"{'irreducible' if not proper else label}"]
        for s in dec.proofs:
            sym = raysystem.ray_basis_symbol(s.bases(), layout)
            local = contextuality.local_indices(proof, s)
            doc["sub_proofs"].append(
                {"local_indices": list(local),
                 "table_indices": [i + 1 for i in sorted(s.basis_indices)],
                 "symbol": str(sym),
                 "is_whole_proof": s.basis_indices == proof.basis_indices})
            text_lines.append(f"  {sym}  local " +
                              ",".join(map(str, local)))
    _report(args, doc, text_lines)
    return EXIT_OK


# --------------------------------------------------------------------------
# geometry


def _build_rayset(polytope: str) -> geometry.RaySet:
    # looked up at each call: a tracer that rebinds them must see the calls
    return {"600cell": geometry.icosian_600cell,
            "120cell": geometry.build_120cell_rays,
            "gosset": geometry.e8_rays}[polytope]()


def cmd_construct(args) -> int:
    rs = _build_rayset(args.polytope)
    rays, _, _, n_bases, per_ray = expected_counts(args.polytope)
    graph = geometry.orthogonality_graph(rs)
    bases = geometry.enumerate_bases(graph, rs.dimension)
    counts = sorted(set(raysystem.ray_occurrences(bases).values()))
    saturated = geometry.saturated(graph, bases)
    ok = (len(rs) == rays and len(bases) == n_bases
          and counts == [per_ray] and saturated)
    doc = {"check": "construct", "polytope": args.polytope, "rays": len(rs),
           "edges": graph.n_edges, "bases": len(bases),
           "bases_per_ray": counts, "saturated": saturated, "ok": ok}
    _report(args, doc, [f"{args.polytope}: {len(rs)} rays, "
                        f"{graph.n_edges} orthogonal pairs, "
                        f"{len(bases)} bases, each ray in {counts}"])
    if not ok:
        raise CliError("construction counts do not match", EXIT_GEOMETRY)
    return EXIT_OK


def cmd_project(args) -> int:
    proj = geometry.coxeter_projection(_build_rayset(args.polytope))
    classes = geometry.pentadecagon_classes(proj)
    # w turns each class, fifteen rays 24 degrees apart, by one ray
    ok = geometry.rotates_by_one_step(proj)
    doc = {"check": "project", "polytope": args.polytope,
           "pentadecagons": [{"radius": round(r, 6), "rays": len(m)}
                             for r, m in classes],
           "ok": ok}
    # an angle just below 360 prints as 0: rounding noise must not decide
    # between the two ends of the range
    rows = chain([("ray", "radius", "angle_deg")],
                 ((i, f"{r:.6f}", f"{round(a, 6) % 360.0:.6f}")
                  for i, (r, a) in enumerate(proj, 1)))
    _report(args, doc, (f"{r:.4f}  {len(m)} rays" for r, m in classes),
            rows)
    if not ok:
        raise CliError("projection classes malformed", EXIT_GEOMETRY)
    return EXIT_OK


def cmd_match(args) -> int:
    _, _, table = _load_table(args)  # a bad --data file fails first
    rs = _build_rayset(args.polytope)
    graph = geometry.orthogonality_graph(rs)
    computed = geometry.enumerate_bases(graph, rs.dimension)
    try:
        mapping = geometry.match_labeling(computed, table)
    except geometry.MatchError as exc:
        raise CliError(f"match failed: {exc}", EXIT_GEOMETRY)
    doc = {"check": "match", "polytope": args.polytope, "ok": True,
           "mapped_rays": len(mapping)}
    _report(args, doc, [f"{args.polytope}: geometric bases match the "
                        f"generator table ({len(mapping)} rays mapped)"])
    return EXIT_OK


def cmd_rigidity(args) -> int:
    claims = geometry.rigidity_demo()
    all_passed = all(c.passed for c in claims)
    doc = {"check": "rigidity",
           "claims": [{"name": c.name, "passed": c.passed,
                       "detail": c.detail} for c in claims],
           "all_passed": all_passed}
    _report(args, doc, [f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
                        for c in claims])
    if not all_passed:
        raise CliError("rigidity demonstration claims failed", EXIT_GEOMETRY)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspoly",
        description="Fifteen-fold symmetric parity proofs of the 600-cell, "
                    "120-cell, and Gosset polytope")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, formats=("text", "json"), polytope=True,
                data=True, **kw):
        p = parent.add_parser(name, **kw)
        if polytope:
            p.add_argument("--polytope", choices=POLYTOPES, required=True)
        p.add_argument("--format", choices=formats, default="text")
        if data:
            p.add_argument("--data", metavar="PATH", help="override the "
                           "embedded dataset with a JSON file")
        p.add_argument("--out", metavar="PATH",
                       help="write output to a file instead of stdout")
        p.set_defaults(func=func)
        return p

    with_csv = ("text", "json", "csv")
    command(sub, "gen-bases", cmd_gen_bases, with_csv,
            help="dump the full basis table")
    p = command(sub, "weights", cmd_weights, with_csv,
                help="exact parity-proof counts by word length")
    p.add_argument("--odd", action="store_true",
                   help="only odd weights (the parity proofs)")
    p.add_argument("--max-weight", type=int)

    p = command(sub, "word", cmd_word,
                help="expand, verify, or analyse a word")
    p.add_argument("word", help="generator letters, e.g. \"a b e g k r i'\"")
    p.add_argument("action",
                   choices=("expand", "symbol", "verify", "minimal",
                            "decompose"))
    p.add_argument("--check-assignment", action="store_true",
                   help="with verify: exhaustively search for a "
                        "noncontextual assignment")

    checks = sub.add_parser(
        "geometry", help="geometric reconstruction checks").add_subparsers(
        dest="check", required=True)
    command(checks, "construct", cmd_construct, data=False)
    command(checks, "project", cmd_project, with_csv, data=False)
    command(checks, "match", cmd_match)
    command(checks, "rigidity", cmd_rigidity, polytope=False, data=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)  # --help exits here
            return args.func(args)
        finally:  # a closed pipe or a full disk fails here, not at exit
            sys.stdout.flush()
    except OSError as exc:  # stdout's: --out and --data report their own
        if sys.stdout is sys.__stdout__:
            # the bytes left in the buffer must not fail again at exit
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        print(f"kspoly: cannot write stdout: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"kspoly: {exc}", file=sys.stderr)
        return exc.code
    except DatasetError as exc:
        print(f"kspoly: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (contextuality.SearchBudgetExceeded,
            gf2.EnumerationLimitError) as exc:
        print(f"kspoly: {exc}", file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
