"""Parity certificates, assignment search, and proof decomposition."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROOFS_120, PROOFS_GOSSET
from kspoly.contextuality import (SearchBudgetExceeded,
                                  certificate_for_bases, certificate_to_json,
                                  classify_decomposition, find_ks_assignment,
                                  incidence_nullspace_proofs, is_irreducible,
                                  local_indices, proof_from_json,
                                  proof_from_word, proof_to_json,
                                  verify_parity_proof)
from kspoly.raysystem import parse_word, ray_basis_symbol, word_to_bases


def word_proof(fixture, text):
    _, _, table, *_ = fixture
    return proof_from_word(parse_word(text), table)


# --------------------------------------------------------------------------
# parity certificates


def test_orbit_a_is_a_proof(cell600):
    layout, *_ = cell600
    p = word_proof(cell600, "a")
    cert = verify_parity_proof(p)
    assert cert.valid
    assert cert.basis_count == 15
    assert set(cert.ray_occurrences.values()) == {2}
    assert cert.offending_rays == ()
    assert str(ray_basis_symbol(p.bases(), layout)) == "30_2-15_4"


def test_orbit_c_is_not_a_proof(cell600):
    p = word_proof(cell600, "c")
    cert = verify_parity_proof(p)
    assert not cert.valid
    assert cert.basis_count == 15
    assert len(cert.ray_occurrences) == 60
    assert set(cert.ray_occurrences.values()) == {1}
    assert len(cert.offending_rays) == 60


def test_empty_basis_set_invalid():
    cert = certificate_for_bases([])
    assert not cert.valid
    assert cert.basis_count == 0
    assert cert.offending_rays == ()


def test_even_word_invalid_but_nothing_offends(gosset):
    cert = verify_parity_proof(word_proof(gosset, "e1 e2"))
    assert not cert.valid
    assert cert.basis_count == 30
    assert cert.offending_rays == ()


def test_all_fixture_words_verify(cell120, gosset):
    for text, *_rest in PROOFS_120:
        assert verify_parity_proof(word_proof(cell120, text)).valid, text
    for text, _ in PROOFS_GOSSET:
        assert verify_parity_proof(word_proof(gosset, text)).valid, text


# --------------------------------------------------------------------------
# assignment search


def test_single_basis_has_assignment(cell600):
    _, _, table, *_ = cell600
    basis = table.bases[0]
    assignment = find_ks_assignment([basis])
    assert assignment is not None
    assert sorted(assignment) == list(basis)
    assert sum(assignment.values()) == 1


def test_two_disjoint_bases_have_assignment(cell600):
    _, _, table, *_ = cell600
    assignment = find_ks_assignment([table.bases[0], table.bases[16]])
    assert assignment is not None
    assert sum(assignment.values()) == 2


def test_proof_a_has_no_assignment(cell600):
    assert find_ks_assignment(word_proof(cell600, "a").bases()) is None


def test_full_600cell_table_has_no_assignment(cell600):
    _, _, table, *_ = cell600
    assert find_ks_assignment(list(table.bases)) is None


def test_search_respects_budget(cell600):
    _, _, table, *_ = cell600
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment(list(table.bases), node_budget=1)


def test_budget_env_var(cell600, monkeypatch):
    _, _, table, *_ = cell600
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "1")
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment(list(table.bases))


def test_empty_instance():
    assert find_ks_assignment([]) == {}


def test_assignment_covers_exactly_examined_rays(cell120):
    _, _, table, *_ = cell120
    bases = [table.bases[0], table.bases[200]]
    assignment = find_ks_assignment(bases)
    assert assignment is not None
    assert set(assignment) == {r for b in bases for r in b}
    for b in bases:
        assert sum(assignment[r] for r in b) == 1


def test_gosset_e1_search_tree_size_is_pinned(gosset):
    """e1 is refuted in exactly 15,163 nodes: one fewer exhausts the
    budget.  Any change to the branching rule or the propagation moves
    this count."""
    bases = word_proof(gosset, "e1").bases()
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment(bases, node_budget=15_162)
    assert find_ks_assignment(bases, node_budget=15_163) is None


def test_branching_rule():
    """Branch on the fewest free rays, lowest index on ties, rays in basis
    order: basis (2, 3) beats (3, 4) on the tie and ray 2 goes first, which
    forces 4.  Branching on the first unsatisfied basis, on the last tied
    one, or on the rays in reverse order would set 0 and 3 instead."""
    assignment = find_ks_assignment([(0, 1, 2), (2, 3), (3, 4)])
    assert assignment == {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}


def test_deep_search_needs_no_recursion():
    """1,200 disjoint bases make a search 1,200 decisions deep, past the
    default recursion limit of a recursive search."""
    bases = [tuple(range(4 * i, 4 * i + 4)) for i in range(1200)]
    assignment = find_ks_assignment(bases)
    assert assignment is not None
    assert sum(assignment.values()) == 1200


def brute_force_assignment_exists(bases) -> bool:
    """Try every 0/1 vector over the rays, one bit per ray."""
    rays = sorted({r for b in bases for r in b})
    masks = [sum(1 << rays.index(r) for r in b) for b in bases]
    return any(all((ones & m).bit_count() == 1 for m in masks)
               for ones in range(1 << len(rays)))


# up to 10 bases over at most 12 rays, each basis 0-5 distinct rays; the
# second draw repeats some of the first
_basis = st.lists(st.integers(0, 11), unique=True, max_size=5).map(tuple)
_instances = st.lists(_basis, min_size=1, max_size=10).flatmap(
    lambda bs: st.lists(st.sampled_from(bs), max_size=10 - len(bs))
    .map(lambda repeats: bs + repeats))


@settings(max_examples=200, deadline=None)
@given(_instances)
def test_search_agrees_with_brute_force(bases):
    assignment = find_ks_assignment(bases, node_budget=10**6)
    assert (assignment is not None) == brute_force_assignment_exists(bases)
    if assignment is not None:
        assert set(assignment) == {r for b in bases for r in b}
        for b in bases:
            assert sum(assignment[r] for r in b) == 1


# --------------------------------------------------------------------------
# decomposition


def test_cdy_decomposes_into_three_shifts(cell120):
    layout, _, table, *_ = cell120
    p = word_proof(cell120, "cdy")
    dec = incidence_nullspace_proofs(p)
    assert not dec.truncated
    assert dec.nullity == 3
    subs = [s for s in dec.proofs if len(s.basis_indices) == 15]
    assert len(subs) == 3
    # the three proofs partition the 45 bases
    union = set()
    for s in subs:
        assert str(ray_basis_symbol(s.bases(), layout)) == "30_2-15_4"
        assert not (union & s.basis_indices)
        union |= s.basis_indices
    assert union == p.basis_indices
    assert classify_decomposition(p, subs) == "direct_sum"
    # Table 9 fonts: bold = shifts {0,3,6,9,12} of c and d, {1,4,7,10,13}
    # of y; italic and plain are its +1 and +2 translates
    locals_ = sorted(local_indices(p, s) for s in subs)
    assert locals_[0] == (1, 4, 7, 10, 13, 16, 19, 22, 25, 28,
                          32, 35, 38, 41, 44)
    assert locals_[1] == (2, 5, 8, 11, 14, 17, 20, 23, 26, 29,
                          33, 36, 39, 42, 45)
    assert locals_[2] == (3, 6, 9, 12, 15, 18, 21, 24, 27, 30,
                          31, 34, 37, 40, 43)


def test_cdy_subproofs_fivefold_symmetric(cell120):
    """Adding three to every ray maps each sub-proof onto itself."""
    layout, _, table, *_ = cell120
    p = word_proof(cell120, "cdy")
    dec = incidence_nullspace_proofs(p)
    basis_index = {frozenset(b): i for i, b in enumerate(table.bases)}
    for s in dec.proofs:
        if len(s.basis_indices) != 15:
            continue
        for bi in s.basis_indices:
            shifted = frozenset(layout.shift_ray(r, 3)
                                for r in table.bases[bi])
            assert basis_index[shifted] in s.basis_indices


def test_every_subproof_verifies(cell120, gosset):
    for fixture, text in ((cell120, "cdy"), (cell120, "abkrf'"),
                          (gosset, "e1 e2")):
        p = word_proof(fixture, text)
        for s in incidence_nullspace_proofs(p).proofs:
            assert verify_parity_proof(s).valid


def test_e1e2_contains_the_three_marked_proofs(gosset):
    layout, _, table, *_ = gosset
    p = word_proof(gosset, "e1 e2")
    dec = incidence_nullspace_proofs(p)
    nine = {local_indices(p, s): s for s in dec.proofs
            if len(s.basis_indices) == 9}
    bold = (1, 3, 6, 8, 11, 13, 19, 24, 29)
    italic = (2, 4, 7, 9, 12, 14, 20, 25, 30)
    third = (1, 4, 6, 9, 11, 14, 17, 22, 27)
    assert bold in nine and italic in nine and third in nine
    for key in (bold, italic, third):
        assert str(ray_basis_symbol(nine[key].bases(), layout)) == "36_2-9_8"
    # bold and italic are disjoint; the third overlaps both and owns
    # three bases of its own
    assert not set(bold) & set(italic)
    assert set(third) & set(bold) == {1, 6, 11}
    assert set(third) & set(italic) == {4, 9, 14}
    assert set(third) - set(bold) - set(italic) == {17, 22, 27}
    assert classify_decomposition(
        p, [nine[bold], nine[italic], nine[third]]) == "overlapping"


def test_gosset_smallest_proofs_have_nine_bases(gosset):
    p = word_proof(gosset, "e1 e2")
    dec = incidence_nullspace_proofs(p)
    assert min(len(s.basis_indices) for s in dec.proofs) == 9


def test_irreducibility_fixtures(cell120, gosset):
    for text, _sym, kind in PROOFS_120:
        p = word_proof(cell120, text)
        assert is_irreducible(p) == (kind == "irreducible"), text
    for text, _sym in PROOFS_GOSSET:
        assert is_irreducible(word_proof(gosset, text)), text


def test_table8_decomposition_structure(cell120):
    layout, _, table, *_ = cell120
    for text, _sym, kind in PROOFS_120:
        if kind == "irreducible":
            continue
        expected_label, pieces, piece_symbol = kind
        p = word_proof(cell120, text)
        dec = incidence_nullspace_proofs(p)
        proper = [s for s in dec.proofs
                  if s.basis_indices != p.basis_indices]
        smallest = min(len(s.basis_indices) for s in proper)
        small = [s for s in proper if len(s.basis_indices) == smallest]
        assert len(small) == pieces, text
        for s in small:
            assert str(ray_basis_symbol(s.bases(), layout)) == piece_symbol
        assert classify_decomposition(p, small) == expected_label, text


def test_classify_trivial_self(cell600):
    p = word_proof(cell600, "a")
    assert classify_decomposition(p, [p]) == "direct_sum"


def test_subproofs_against_brute_force(cell600):
    """The nullspace walk finds exactly the subsets of word a's 15 bases
    that are parity proofs, each once."""
    p = word_proof(cell600, "a")
    order = sorted(p.basis_indices)
    expect = set()
    for mask in range(1, 1 << len(order)):
        subset = [bi for j, bi in enumerate(order) if mask >> j & 1]
        if certificate_for_bases([p.table.bases[bi] for bi in subset]).valid:
            expect.add(frozenset(subset))
    got = [s.basis_indices for s in incidence_nullspace_proofs(p).proofs]
    assert len(got) == len(set(got))
    assert set(got) == expect


def test_decomposition_cap(cell120):
    p = word_proof(cell120, "abkrf'")
    dec = incidence_nullspace_proofs(p, cap=3)
    assert dec.truncated
    assert len(dec.proofs) == 3


# --------------------------------------------------------------------------
# JSON interfaces


def test_proof_json_roundtrip(cell120):
    _, _, table, *_ = cell120
    w = parse_word("cdy")
    p = proof_from_word(w, table)
    doc = proof_to_json(p, w)
    assert doc["polytope"] == "120cell"
    assert doc["word"] == "c d y"
    assert min(doc["basis_indices"]) >= 1
    back = proof_from_json(doc, table)
    assert back.basis_indices == p.basis_indices


def test_proof_json_from_word_only(cell120):
    _, _, table, *_ = cell120
    doc = {"polytope": "120cell", "word": "cdy"}
    p = proof_from_json(doc, table)
    assert p.basis_indices == word_to_bases(parse_word("cdy"), table)


def test_proof_json_wrong_polytope(cell600):
    _, _, table, *_ = cell600
    with pytest.raises(ValueError):
        proof_from_json({"polytope": "gosset", "basis_indices": [1]}, table)


def test_certificate_json(cell600):
    cert = verify_parity_proof(word_proof(cell600, "c"))
    doc = certificate_to_json(cert)
    assert doc["valid"] is False
    assert doc["basis_count"] == 15
    assert len(doc["offending_rays"]) == 60
    json.dumps(doc)  # serialisable
