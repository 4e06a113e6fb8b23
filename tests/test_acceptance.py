"""Acceptance suite: the headline reproduction targets, one per test.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every expected value here is either a published table
value, a brute-force-oracle value, or an exact combinatorial identity; all
comparisons are exact except the stated float tolerances of criterion 11.
"""

import random
from collections import Counter
from functools import cache

from conftest import NULLSPACE_WORDS_120, PROOFS_120, PROOFS_GOSSET
from kspoly.contextuality import (classify_decomposition, find_ks_assignment,
                                  incidence_nullspace_proofs, local_indices,
                                  proof_from_word, verify_parity_proof)
from kspoly.geometry import (build_120cell_rays, coxeter_projection, e8_rays,
                             enumerate_bases, icosian_600cell,
                             orthogonality_graph,
                             pentadecagon_classes, rigidity_demo,
                             rotates_by_one_step, saturated)
from kspoly.gf2 import (BitMatrix, dual_weight_distribution,
                        enumerate_words, gf2_nullspace, is_minimal_word,
                        macwilliams_transform, minimality_bound,
                        odd_weight_total, profile_matrix_mod2, span)
from kspoly import golden
from kspoly.golden import phi_map
from kspoly.raysystem import (ORBIT, Word, compose_words, parse_word,
                              ray_basis_symbol, render_word, shift_position,
                              symbol_from_word, word_to_bases)


def ok(n: int, message: str) -> None:
    print(f"criterion {n:2d} PASS: {message}")


def test_criterion_01_golden_table(cell600, table4_rows):
    _, _, table, *_ = cell600
    assert len(table.bases) == 75
    for built, printed in zip(table.bases, table4_rows):
        assert set(built) == set(printed)
    ok(1, "600-cell basis table reproduces all 75 published rows exactly")


def test_criterion_02_600cell_word_census(cell600):
    *_x, spec = cell600
    words = {render_word(w).replace(" ", "")
             for w in enumerate_words(spec, 5, "odd")}
    assert words == {"a", "b", "acd", "ace", "ade", "bcd", "bce", "bde"}
    ok(2, "600-cell odd nullspace words are exactly {a,b,acd,ace,ade,"
          "bcd,bce,bde}")


def test_criterion_03_120cell_distribution(cell120, proof_counts_120cell):
    *_x, pm, spec = cell120
    assert (len(pm.row_labels), len(pm.col_labels)) == (20, 45)
    assert spec.k == 30
    dist = macwilliams_transform(
        dual_weight_distribution(profile_matrix_mod2(pm)), 45)
    odd = {w: c for w, c in dist.items() if w % 2}
    assert odd == proof_counts_120cell
    for w, c in ((1, 4), (3, 48), (5, 564), (7, 5116), (9, 42576),
                 (23, 127058600), (39, 1212)):
        assert odd[w] == c
    assert odd_weight_total(dist) == 2 ** 29
    ok(3, "120-cell: M is 20x45, nullity 30, all odd counts match, "
          "total 2^29")


def test_criterion_04_gosset_distribution(gosset, proof_counts_gosset):
    *_x, pm, spec = gosset
    assert (len(pm.row_labels), len(pm.col_labels)) == (8, 135)
    assert spec.k == 131
    dist = macwilliams_transform(
        dual_weight_distribution(profile_matrix_mod2(pm)), 135)
    odd = {w: c for w, c in dist.items() if w % 2}
    assert odd == proof_counts_gosset
    for w, c in ((1, 16), (3, 25812), (5, 21653868), (133, 540)):
        assert odd[w] == c
    assert odd_weight_total(dist) == 2 ** 130
    ok(4, "Gosset: M is 8x135, nullity 131, all odd counts match, "
          "total 2^130")


def test_criterion_05_gosset_single_letters(gosset, gosset_words):
    *_x, spec = gosset
    found = {render_word(w) for w in enumerate_words(spec, 1, "odd")}
    published = {toks[0] for toks in gosset_words if len(toks) == 1}
    assert found == published
    assert len(found) == 16
    ok(5, "Gosset one-letter parity proofs are exactly the published 16")


def test_criterion_06_symbol_pipeline(cell120, gosset, gosset_words):
    layout2, gens2, table2, *_rest2 = cell120
    layoutg, gensg, tableg, *_restg = gosset
    checked = 0
    for toks in gosset_words:
        w = parse_word(" ".join(toks))
        sym = symbol_from_word(w, gensg, layoutg)
        bases = [tableg.bases[i] for i in word_to_bases(w, tableg)]
        assert ray_basis_symbol(bases, layoutg) == sym
        checked += 1
    for text, symbol, *_k in PROOFS_120:
        w = parse_word(text)
        sym = symbol_from_word(w, gens2, layout2)
        assert str(sym) == symbol
        bases = [table2.bases[i] for i in word_to_bases(w, table2)]
        assert ray_basis_symbol(bases, layout2) == sym
        checked += 1
    for text, symbol in PROOFS_GOSSET:
        w = parse_word(text)
        sym = symbol_from_word(w, gensg, layoutg)
        assert str(sym) == symbol
        bases = [tableg.bases[i] for i in word_to_bases(w, tableg)]
        assert ray_basis_symbol(bases, layoutg) == sym
        checked += 1
    eq2 = symbol_from_word(parse_word("abegkri'"), gens2, layout2)
    assert str(eq2) == "150_2 30_4-105_4"
    ok(6, f"profile symbols equal expanded-basis symbols for {checked} "
          "fixture words, including the worked 7-letter example")


def test_criterion_07_minimality(cell600, cell120, gosset, gosset_words):
    *_a, pm600, spec600 = cell600
    *_b, pm120, spec120 = cell120
    *_c, pmg, specg = gosset
    assert minimality_bound(45, 30) == 16
    assert minimality_bound(135, 131) == 5
    minimal600 = {render_word(w) for w in enumerate_words(spec600, 5, "odd")
                  if is_minimal_word(w, pm600)}
    assert minimal600 == {"a", "b"}
    for text, _sym in PROOFS_GOSSET:
        assert is_minimal_word(parse_word(text), pmg), text
    # every word we can build above the bound is non-minimal
    above = 0
    basis_words_120 = [parse_word(t) for t in NULLSPACE_WORDS_120]
    for i, u in enumerate(basis_words_120):
        for v in basis_words_120[i + 1:]:
            w = compose_words(u, v)
            if len(w) % 2 and 16 < len(w) <= 25:
                assert not is_minimal_word(w, pm120), render_word(w)
                above += 1
    basis_words_g = [parse_word(" ".join(t)) for t in gosset_words]
    rng = random.Random(11)
    tries = 0
    while above < 60 and tries < 4000:
        tries += 1
        u, v, t = rng.sample(basis_words_g, 3)
        w = compose_words(compose_words(u, v), t)
        if len(w) % 2 and 5 < len(w) <= 25:
            assert not is_minimal_word(w, pmg), render_word(w)
            above += 1
    assert above >= 40
    ok(7, f"bounds 16/5 reproduced; 600-cell minimal words are a,b; "
          f"published 8-d proofs minimal; {above} above-bound words all "
          "non-minimal")


def test_criterion_08_decomposition_fixtures(cell120, gosset):
    layout2, _, table2, *_r2 = cell120
    # cdy: three disjoint 15-basis sub-proofs, each five-fold symmetric
    p = proof_from_word(parse_word("cdy"), table2)
    dec = incidence_nullspace_proofs(p)
    subs = [s for s in dec.proofs if len(s.basis_indices) == 15]
    assert len(subs) == 3
    union = set()
    basis_index = {frozenset(b): i for i, b in enumerate(table2.bases)}
    for s in subs:
        assert str(ray_basis_symbol(s.bases(), layout2)) == "30_2-15_4"
        assert not union & s.basis_indices
        union |= s.basis_indices
        for bi in s.basis_indices:
            shifted = frozenset(shift_position(r - 1, 3) + 1
                                for r in table2.bases[bi])
            assert basis_index[shifted] in s.basis_indices
    assert union == p.basis_indices
    assert classify_decomposition(p, subs) == "direct_sum"
    # e1e2: the three published 9-basis sub-proofs, the third as stated
    layoutg, _, tableg, *_rg = gosset
    pe = proof_from_word(parse_word("e1 e2"), tableg)
    dece = incidence_nullspace_proofs(pe)
    nine = {local_indices(pe, s): s for s in dece.proofs
            if len(s.basis_indices) == 9}
    third = (1, 4, 6, 9, 11, 14, 17, 22, 27)
    bold = (1, 3, 6, 8, 11, 13, 19, 24, 29)
    italic = (2, 4, 7, 9, 12, 14, 20, 25, 30)
    for key in (bold, italic, third):
        assert key in nine
        assert str(ray_basis_symbol(nine[key].bases(), layoutg)) == "36_2-9_8"
    assert classify_decomposition(
        pe, [nine[bold], nine[italic], nine[third]]) == "overlapping"
    assert min(len(s.basis_indices) for s in dece.proofs) == 9
    # the worked 7-letter proof is irreducible
    p7 = proof_from_word(parse_word("abegkri'"), table2)
    dec7 = incidence_nullspace_proofs(p7)
    assert len(dec7.proofs) == 1
    ok(8, "cdy splits into three disjoint five-fold 30_2-15_4 proofs; "
          "e1e2 contains the three published 36_2-9_8 proofs (third as "
          "stated); the 7-letter proof is irreducible")


# the published 120-cell proofs left out of the search: bdklsxy exceeds the
# default node budget; abegkri', abfghikmnsj' and fghilmsup' fit it (about
# 0.4M-1.3M nodes) but take 10-30 s each.  Every other published proof is
# searched
BUDGET_FAILURES = {"abegkri'", "bdklsxy", "fghilmsup'", "abfghikmnsj'"}


def test_criterion_09_ks_property(cell600, cell120, gosset, gosset_words):
    searched = 0
    fixtures = []
    gosset_texts = [" ".join(t) for t in gosset_words if len(t) == 1]
    gosset_texts += [t for t, _ in PROOFS_GOSSET if t not in gosset_texts]
    for fixture, texts in (
            (cell600, ["a", "b"]),
            (cell120, [t for t, *_ in PROOFS_120
                       if t not in BUDGET_FAILURES]),
            (gosset, gosset_texts)):
        _, _, table, *_rest = fixture
        for text in texts:
            fixtures.append(proof_from_word(parse_word(text), table))
    # include the sub-proofs of cdy and of e1e2
    table2 = cell120[2]
    tableg = gosset[2]
    for word, table in (("cdy", table2), ("e1 e2", tableg)):
        p = proof_from_word(parse_word(word), table)
        for s in incidence_nullspace_proofs(p).proofs:
            if verify_parity_proof(s).valid:
                fixtures.append(s)
    for p in fixtures:
        if not verify_parity_proof(p).valid:
            continue
        assert find_ks_assignment(p.bases()) is None
        searched += 1
    single = [cell600[2].bases[0]]
    assignment = find_ks_assignment(single)
    assert assignment is not None
    assert sum(assignment.values()) == 1
    ok(9, f"no noncontextual assignment exists for any of {searched} "
          "verified proofs (exhaustive search); a single basis is "
          "assignable")


def test_criterion_10_geometry_counts(gosset):
    h4 = icosian_600cell()
    assert len(h4) == 60
    g4 = orthogonality_graph(h4)
    assert g4.n_edges == 450
    bases4 = enumerate_bases(g4, 4)
    occ4 = {}
    for b in bases4:
        for r in b:
            occ4[r] = occ4.get(r, 0) + 1
    assert len(bases4) == 75 and set(occ4.values()) == {5}
    assert saturated(g4, bases4)
    e8 = e8_rays()
    assert len(e8) == 120
    assert all(golden.dot(v, v) == (4, 0) for v in e8.vectors)
    g8 = orthogonality_graph(e8)
    bases8 = enumerate_bases(g8, 8)
    occ8 = {}
    for b in bases8:
        for r in b:
            occ8[r] = occ8.get(r, 0) + 1
    assert len(bases8) == 2025 and set(occ8.values()) == {135}
    assert saturated(g8, bases8)
    images = [phi_map(v) for v in h4.vectors]
    pairs = 0
    for i in range(60):
        for j in range(i + 1, 60):
            pairs += 1
            if golden.dot(h4.vectors[i], h4.vectors[j]) == golden.ZERO:
                assert sum(a * b for a, b in zip(images[i],
                                                 images[j])) == 0
    assert pairs == 1770
    claims = rigidity_demo()
    assert all(c.passed for c in claims)
    assert any(c.name == "v1 not orthogonal to v6" for c in claims)
    ok(10, "icosian 600-cell (60 rays, 450 edges, 75 bases, ray-in-5), "
           "E8 image (240 roots of norm 4, 120 rays, 2025 bases, "
           "ray-in-135), forward orthogonality preserved on all 1770 "
           "pairs, all non-rigidity claims hold")


def test_criterion_11_projection(cell600, gosset):
    h4 = icosian_600cell()
    proj = coxeter_projection(h4)
    classes = pentadecagon_classes(proj)
    want600 = sorted((p.radius for p in cell600[0].pentadecagons),
                     reverse=True)
    assert len(classes) == 4
    assert rotates_by_one_step(proj)
    for (r, members), want in zip(classes, want600):
        assert abs(r - want) < 5e-4
        assert len(members) == 15
        residues = [proj[i][1] % 12.0 for i in members]
        spread = max(residues) - min(residues)
        assert min(spread, 12.0 - spread) < 1e-6
    e8 = e8_rays()
    proj8 = coxeter_projection(e8)
    classes8 = pentadecagon_classes(proj8)
    assert len(classes8) == 8
    wantg = sorted((p.radius for p in gosset[0].pentadecagons), reverse=True)
    flagged = None
    assert rotates_by_one_step(proj8)
    for (r, members), want in zip(classes8, wantg):
        assert len(members) == 15
        residues = [proj8[i][1] % 12.0 for i in members]
        spread = max(residues) - min(residues)
        assert min(spread, 12.0 - spread) < 1e-6
        if abs(want - 0.6723) < 1e-9:
            flagged = r
            continue
        assert abs(r - want) < 5e-4
    assert flagged is not None
    ok(11, f"600-cell radii match to 5e-4, w turns each ring by one "
           f"12-degree step; Gosset "
           f"radii match except the flagged 0.6723 ring, computed as "
           f"{flagged:.4f} (equal to the 600-cell's third ring)")


def test_criterion_12_property_suites(polytopes):
    rng = random.Random(20240831)
    empty = Word(frozenset())
    pair_checks = 0
    for name, (_, gens, *_rest) in polytopes.items():
        labels = [g.label for g in gens]
        for _ in range(1000):
            u = Word(frozenset(rng.sample(labels,
                                          rng.randrange(len(labels)))))
            v = Word(frozenset(rng.sample(labels,
                                          rng.randrange(len(labels)))))
            assert compose_words(u, v) == compose_words(v, u)
            assert compose_words(u, u) == empty
            assert compose_words(u, empty) == u
            pair_checks += 1
    mw_checks = 0
    while mw_checks < 50:
        n_rows = rng.randrange(1, 9)
        n_cols = rng.randrange(1, 21)
        m = BitMatrix(n_cols,
                      tuple(rng.getrandbits(n_cols) for _ in range(n_rows)))
        spec = gf2_nullspace(m)
        dual = dual_weight_distribution(m)
        dist = macwilliams_transform(dual, n_cols)
        assert dist.counts == Counter(
            map(int.bit_count, span(spec.nullspace_basis)))
        assert macwilliams_transform(dist, n_cols).counts == dual.counts
        mw_checks += 1
    ok(12, f"group laws on {pair_checks} random word pairs; MacWilliams "
           f"equals direct enumeration and round-trips exactly on "
           f"{mw_checks} random codes")


@cache
def geometric_census(polytope: str):
    """(n, k) and the weight distribution of the counting matrix mod 2,
    built from the polytope alone, with no table and no ring data.

    The orthogonality graph's d-cliques fall into σ-orbits of fifteen.
    There is one column per orbit and one row per block of fifteen ids;
    each entry is the parity of the count of the orbit's first basis's
    rays in that block.  σ keeps each block, so every basis of an orbit
    gives the same column.
    """
    rs = {"600cell": icosian_600cell, "120cell": build_120cell_rays,
          "gosset": e8_rays}[polytope]()
    firsts, seen = [], set()
    for b in enumerate_bases(orthogonality_graph(rs), rs.dimension):
        if b not in seen:
            firsts.append(b)
            for _ in range(ORBIT):
                seen.add(b)
                b = tuple(sorted(shift_position(v, 1) for v in b))
    m = BitMatrix.from_rows([[sum(v // ORBIT == i for v in b) for b in firsts]
                             for i in range(len(rs) // ORBIT)])
    return (m.n_cols, gf2_nullspace(m).k,
            macwilliams_transform(dual_weight_distribution(m), m.n_cols))


def census_mismatches(polytope: str, published: dict[int, int]) -> set[int]:
    """The odd weights whose geometric proof count is not the published
    one."""
    odd = {w: c for w, c in geometric_census(polytope)[2].items() if w % 2}
    return {w for w in odd.keys() | published.keys()
            if odd.get(w) != published.get(w)}


def test_criterion_13_census_from_geometry(polytopes, proof_counts_120cell,
                                           proof_counts_gosset):
    # the 600-cell's 8 odd words of criterion 2: two of one letter, six of
    # three
    published = {"600cell": {1: 2, 3: 6}, "120cell": proof_counts_120cell,
                 "gosset": proof_counts_gosset}
    for name, counts in published.items():
        *_x, pm, spec = polytopes[name]
        n, k, dist = geometric_census(name)
        assert (n, k) == (spec.n, spec.k)
        assert census_mismatches(name, counts) == set()
        assert dist == macwilliams_transform(
            dual_weight_distribution(profile_matrix_mod2(pm)), spec.n)
    ok(13, "from the rays and bases alone, (n, k) = (5, 4), (45, 30) and "
           "(135, 131), and every published proof count, match the tables")


def test_census_from_geometry_refuses_a_changed_count(proof_counts_120cell,
                                                      proof_counts_gosset):
    """The check of criterion 13 fails, at that weight only, when one
    published count is changed or dropped."""
    for name, counts in (("120cell", proof_counts_120cell),
                         ("gosset", proof_counts_gosset)):
        for w in (1, max(counts)):
            assert census_mismatches(name, {**counts, w: counts[w] + 1}) \
                == {w}
            assert census_mismatches(
                name, {v: c for v, c in counts.items() if v != w}) == {w}
