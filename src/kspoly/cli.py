"""Command-line surface: basis tables, proof counting, word reports, and
geometry checks, with deterministic text/json/csv output.

Exit codes: 0 success; 2 bad arguments, word parse error, a non-integer
KSPOLY_NODE_BUDGET, or a --data file that is missing, unreadable or not a
valid dataset; 3 internal counting inconsistency; 4 word is not an odd
nullspace element where one is required; 5 failed geometric claim; 6 a
search or enumeration ran past its limit (node budget, enumeration size).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _report(doc: dict, text_lines: list[str], args) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=1) + "\n"
    else:
        text = "\n".join(text_lines) + "\n"
    _emit(text, args.out)


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
# gen-bases


def cmd_gen_bases(args) -> int:
    layout, gens, table = _load_table(args)
    if args.format == "json":
        text = json.dumps(raysystem.table_to_json(table), indent=1) + "\n"
    elif args.format == "csv":
        text = raysystem.table_to_csv(table)
    else:
        lines = [f"# {layout.polytope}: {len(table.bases)} bases, "
                 f"{len(gens)} generators x 15 shifts"]
        for i, (b, (lab, shift)) in enumerate(zip(table.bases, table.origin)):
            rays = " ".join(f"{r}" for r in b)
            lines.append(f"{i + 1}\t{lab}\t{shift}\t{rays}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# weights


def _weight_pipeline(layout, gens):
    pm = raysystem.build_profile_matrix(layout, gens)
    m2 = gf2.profile_matrix_mod2(pm)
    spec = gf2.gf2_nullspace(m2, pm.col_labels)
    dual = gf2.dual_weight_distribution(m2)
    dist = gf2.macwilliams_transform(dual, spec.n)
    return pm, spec, dist


def cmd_weights(args) -> int:
    layout, gens = load_polytope(args.polytope, args.data)
    try:
        pm, spec, dist = _weight_pipeline(layout, gens)
    except gf2.WeightTransformError as exc:
        raise CliError(f"inconsistent weight transform: {exc}",
                       EXIT_INCONSISTENT)
    if dist.total() != 1 << spec.k:
        raise CliError("weight distribution does not sum to 2^k",
                       EXIT_INCONSISTENT)
    items = [(w, c) for w, c in dist.items() if not args.odd or w % 2]
    if args.max_weight is not None:
        items = [(w, c) for w, c in items if w <= args.max_weight]
    odd_total = gf2.odd_weight_total(dist)
    if args.format == "json":
        doc = {"polytope": layout.polytope, "n": spec.n, "k": spec.k,
               "odd_total": str(odd_total),
               "counts": {str(w): str(c) for w, c in items}}
        text = json.dumps(doc, indent=1) + "\n"
    elif args.format == "csv":
        lines = ["weight,count"] + [f"{w},{c}" for w, c in items]
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"# {layout.polytope}: n={spec.n} k={spec.k} "
                 f"odd_total={odd_total}"]
        lines += [f"{w}\t{c}" for w, c in items]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# word


def _symbol_json(sym: raysystem.RayBasisSymbol) -> dict:
    return {"ray_terms": [[m, rc] for m, rc in sym.ray_terms],
            "basis_count": sym.basis_count,
            "basis_size": sym.basis_size,
            "text": str(sym)}


def cmd_word(args) -> int:
    layout, gens, table = _load_table(args)
    try:
        word = raysystem.parse_word(args.word, layout.polytope)
        labels = {g.label for g in gens}
        unknown = sorted(word.letters - labels)
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
        doc["certificate"] = contextuality.certificate_to_json(cert)
        if args.check_assignment and word.letters:
            try:
                assignment = contextuality.find_ks_assignment(proof.bases())
            except ValueError as exc:
                raise CliError(f"bad {contextuality.NODE_BUDGET_ENV}: {exc}",
                               EXIT_USAGE)
            doc["assignment_exists"] = assignment is not None
        text_lines = [f"word {doc['word'] or '(empty)'}: "
                      f"{'valid' if cert.valid else 'invalid'} "
                      f"({cert.basis_count} bases, "
                      f"{len(cert.offending_rays)} offending rays)"]
    elif args.action == "expand":
        indices = sorted(raysystem.word_to_bases(word, table))
        doc["basis_indices"] = [i + 1 for i in indices]
        doc["bases"] = [list(table.bases[i]) for i in indices]
        text_lines = [f"{i + 1}\t" + " ".join(map(str, table.bases[i]))
                      for i in indices]
    elif args.action == "symbol":
        sym = raysystem.symbol_from_word(word, gens, layout)
        doc["symbol"] = _symbol_json(sym)
        text_lines = [str(sym)]
    elif args.action == "minimal":
        pm = raysystem.build_profile_matrix(layout, gens)
        try:
            minimal = gf2.is_minimal_word(word, pm)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_NOT_PROOF)
        n, k = len(gens), gf2.nullspace_of_profiles(pm).k
        doc["minimal"] = minimal
        doc["bound"] = gf2.minimality_bound(n, k)
        text_lines = [f"word {doc['word']}: "
                      f"{'minimal' if minimal else 'not minimal'} "
                      f"(length {len(word)}, bound {doc['bound']})"]
    elif args.action == "decompose":
        if not word.letters:
            raise CliError("cannot decompose the empty word",
                           EXIT_NOT_PROOF)
        pm = raysystem.build_profile_matrix(layout, gens)
        vec = gf2.word_to_vector(word, pm.col_labels)
        if not gf2.in_nullspace(gf2.profile_matrix_mod2(pm), vec):
            raise CliError(f"word {doc['word']} is not a nullspace element",
                           EXIT_NOT_PROOF)
        proof = contextuality.proof_from_word(word, table)
        dec = contextuality.incidence_nullspace_proofs(proof)
        proper = [s for s in dec.proofs
                  if s.basis_indices != proof.basis_indices]
        label = contextuality.classify_decomposition(
            proof, proper if proper else [proof])
        doc["irreducible"] = not proper
        doc["classification"] = label
        doc["truncated"] = dec.truncated
        doc["sub_proofs"] = []
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
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown action {args.action}", EXIT_USAGE)
    _report(doc, text_lines, args)
    return EXIT_OK


# --------------------------------------------------------------------------
# geometry


def _build_rayset(polytope: str) -> geometry.RaySet:
    return {"600cell": geometry.icosian_600cell,
            "120cell": geometry.build_120cell_rays,
            "gosset": geometry.e8_rays}[polytope]()


def cmd_geometry(args) -> int:
    doc: dict = {"check": args.check}
    if args.check == "rigidity":
        report = geometry.rigidity_demo()
        doc["claims"] = [{"name": c.name, "passed": c.passed,
                          "detail": c.detail} for c in report.claims]
        doc["all_passed"] = ok = report.all_passed
        text_lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}"
                      for c in report.claims]
        failure = "rigidity demonstration claims failed"
    else:
        doc["polytope"] = args.polytope
        rs = _build_rayset(args.polytope)
    if args.check == "construct":
        rays, _, _, n_bases, per_ray = expected_counts(args.polytope)
        graph = geometry.orthogonality_graph(rs)
        bases = geometry.enumerate_bases(graph, rs.dimension)
        counts = sorted(set(raysystem.ray_occurrences(bases).values()))
        doc.update({"rays": len(rs), "edges": graph.n_edges,
                    "bases": len(bases), "bases_per_ray": counts,
                    "saturated": geometry.saturated(graph, bases)})
        doc["ok"] = ok = (len(rs) == rays and len(bases) == n_bases
                          and counts == [per_ray] and doc["saturated"])
        text_lines = [f"{args.polytope}: {len(rs)} rays, "
                      f"{graph.n_edges} orthogonal pairs, "
                      f"{len(bases)} bases, each ray in {counts}"]
        failure = "construction counts do not match"
    elif args.check == "project":
        proj = geometry.coxeter_projection(rs)
        classes = geometry.pentadecagon_classes(proj)
        doc["pentadecagons"] = [
            {"radius": round(r, 6), "rays": len(m)} for r, _, m in classes]
        doc["ok"] = ok = all(len(m) == 15 for _, _, m in classes)
        text_lines = [f"{r:.4f}  {len(m)} rays" for r, _, m in classes]
        failure = "projection classes malformed"
    elif args.check == "match":
        _, _, table = _load_table(args)
        graph = geometry.orthogonality_graph(rs)
        computed = geometry.enumerate_bases(graph, rs.dimension)
        try:
            mapping = geometry.match_labeling(computed, table)
        except geometry.MatchError as exc:
            raise CliError(f"match failed: {exc}", EXIT_GEOMETRY)
        doc["ok"] = ok = True
        doc["mapped_rays"] = len(mapping)
        text_lines = [f"{args.polytope}: geometric bases match the "
                      f"generator table ({len(mapping)} rays mapped)"]
    if args.check == "project" and args.format == "csv":
        _emit(geometry.projection_to_csv(proj), args.out)
    else:
        _report(doc, text_lines, args)
    if not ok:
        raise CliError(failure, EXIT_GEOMETRY)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kspoly",
        description="Fifteen-fold symmetric parity proofs of the 600-cell, "
                    "120-cell, and Gosset polytope")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, polytope_required=True):
        p.add_argument("--polytope", choices=POLYTOPES,
                       required=polytope_required)
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--data", metavar="PATH", default=None,
                       help="override the embedded dataset with a JSON file")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")

    p = sub.add_parser("gen-bases", help="dump the full basis table")
    add_common(p)
    p.set_defaults(func=cmd_gen_bases)

    p = sub.add_parser("weights",
                       help="exact parity-proof counts by word length")
    add_common(p)
    p.add_argument("--odd", action="store_true",
                   help="only odd weights (the parity proofs)")
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("word", help="expand, verify, or analyse a word")
    add_common(p)
    p.add_argument("word", help="generator letters, e.g. \"a b e g k r i'\"")
    p.add_argument("action",
                   choices=("expand", "symbol", "verify", "minimal",
                            "decompose"))
    p.add_argument("--check-assignment", action="store_true",
                   help="with verify: exhaustively search for a "
                        "noncontextual assignment")
    p.set_defaults(func=cmd_word)

    p = sub.add_parser("geometry", help="geometric reconstruction checks")
    p.add_argument("check",
                   choices=("construct", "project", "match", "rigidity"))
    add_common(p, polytope_required=False)
    p.set_defaults(func=cmd_geometry)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "geometry" and args.check != "rigidity" \
            and not args.polytope:
        parser.error(f"geometry {args.check} requires --polytope")
    try:
        return args.func(args)
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
