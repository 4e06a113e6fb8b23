"""Parity certificates, assignment search, and proof decomposition."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import PROOFS_120, PROOFS_GOSSET, word_vector
from kspoly import contextuality
from kspoly.contextuality import (Proof, SearchBudgetExceeded,
                                  certificate_for_bases,
                                  classify_decomposition, find_ks_assignment,
                                  incidence_nullspace_proofs, local_indices,
                                  proof_from_word, verify_parity_proof)
from kspoly.gf2 import in_nullspace, profile_matrix_mod2
from kspoly.raysystem import (ORBIT, Word, parse_word, ray_basis_symbol,
                              ray_index, shift_position, word_to_bases)


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


@pytest.mark.parametrize("name", ["600cell", "120cell", "gosset"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_no_offending_rays_iff_nullspace_word(polytopes, name, data):
    """`word … decompose` tests a word through its parity certificate: a
    ray of pentadecagon p occurs as often as p is counted over the letters'
    profiles, so no ray is odd iff the counting matrix kills the word.
    Half the words drawn are nullspace words, half are shifted off it."""
    _, _, table, pm, spec = polytopes[name]
    labels = pm.col_labels
    v = 0
    for b in data.draw(st.lists(st.sampled_from(spec.nullspace_basis))):
        v ^= b
    if data.draw(st.booleans()):
        v ^= data.draw(st.integers(1, (1 << len(labels)) - 1))
    assume(v)
    word = Word(frozenset(lab for j, lab in enumerate(labels) if v >> j & 1))
    cert = verify_parity_proof(proof_from_word(word, table))
    assert word_vector(word, labels) == v
    assert (not cert.offending_rays) == in_nullspace(profile_matrix_mod2(pm),
                                                     v)


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


def test_negative_budget_is_rejected(monkeypatch):
    """A negative budget is an error, not a search that stops at once,
    whether it is passed or read from KSPOLY_NODE_BUDGET; 0 is allowed."""
    with pytest.raises(ValueError, match="must not be negative"):
        find_ks_assignment([(1, 2)], node_budget=-1)
    monkeypatch.setenv("KSPOLY_NODE_BUDGET", "-1")
    with pytest.raises(ValueError, match="must not be negative"):
        find_ks_assignment([(1, 2)])
    assert find_ks_assignment([], node_budget=0) == {}
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment([(1, 2)], node_budget=0)


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


def doubled(bases):
    """Every ray id doubled: the ray order, and so the plain search tree,
    is kept, but the ids no longer fill whole pentadecagons, so no
    rotation step is found and nothing is cut."""
    return [tuple(2 * r for r in b) for b in bases]


def plain_search(bases, node_budget):
    """find_ks_assignment without symmetric cuts, mapped back to the
    input's ray ids."""
    found = find_ks_assignment(doubled(bases), node_budget)
    return None if found is None else {r // 2: v for r, v in found.items()}


def rotation_step(bases) -> int:
    rays, cols = ray_index(bases)
    return contextuality._rotation_step(
        rays, [sum(1 << p for p in set(b)) for b in cols])


# the local positions, in e1 e2, of a 15-basis sub-proof invariant under
# σ^5 but not under σ
E1E2_SIGMA5 = (1, 2, 3, 6, 7, 8, 11, 12, 13, 18, 20, 23, 25, 28, 30)


def local_bases(fixture, text, positions):
    """The bases at 1-based positions of a word's sorted basis list."""
    p = word_proof(fixture, text)
    order = sorted(p.basis_indices)
    return [p.table.bases[order[j - 1]] for j in positions]


def assert_tree_size(bases, nodes):
    """The search takes exactly `nodes` nodes to refute bases."""
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment(bases, node_budget=nodes - 1)
    assert find_ks_assignment(bases, node_budget=nodes) is None


def test_gosset_e1_search_tree_size_is_pinned(gosset):
    """The plain tree on e1 (ids doubled) is refuted in exactly 15,163
    nodes: one fewer exhausts the budget.  Any change to the branching rule
    or the propagation moves this count."""
    assert_tree_size(doubled(word_proof(gosset, "e1").bases()), 15_163)


def test_gosset_e1_banned_search_tree_size_is_pinned(gosset):
    """e1 itself is invariant under σ: banning the orbit of each refuted
    root child and forbidding the σ-images of each refuted pair of a root
    child and its child cuts the same tree to exactly 2,349 nodes."""
    bases = word_proof(gosset, "e1").bases()
    assert rotation_step(bases) == 1
    assert_tree_size(bases, 2_349)


def test_gosset_sigma5_search_tree_size_is_pinned(gosset):
    """A 15-basis sub-proof of e1 e2 is invariant under σ^5 only: its plain
    tree (ids doubled) takes 17,792 nodes, cut by ⟨σ^5⟩ 8,854."""
    bases = local_bases(gosset, "e1 e2", E1E2_SIGMA5)
    assert certificate_for_bases(bases).valid
    assert rotation_step(bases) == 5
    assert_tree_size(doubled(bases), 17_792)
    assert_tree_size(bases, 8_854)


def search_stats(bases, node_budget=None):
    stats = {}
    found = find_ks_assignment(bases, node_budget, stats)
    return found, stats


def test_search_stats_are_pinned(gosset, cell120):
    """The stats dict reports the pinned trees' node counts, with the
    deepest frame, the σ^k step of the cuts and the rays those banned."""
    e1 = word_proof(gosset, "e1").bases()
    assert search_stats(doubled(e1)) == (None, {
        "nodes": 15_163, "max_depth": 7, "step": 0, "rays_banned": 0})
    assert search_stats(e1) == (None, {
        "nodes": 2_349, "max_depth": 7, "step": 1, "rays_banned": 60})
    sub = local_bases(gosset, "e1 e2", E1E2_SIGMA5)
    stats = search_stats(sub)[1]
    assert (stats["nodes"], stats["step"]) == (8_854, 5)
    found, stats = search_stats(planted(cell120[2], 10, 1))
    assert found is not None
    assert stats == {"nodes": 9, "max_depth": 9, "step": 0,
                     "rays_banned": 0}
    assert search_stats([]) == ({}, {"nodes": 0, "max_depth": 0, "step": 0,
                                     "rays_banned": 0})


def test_budget_error_carries_the_partial_stats(gosset):
    """SearchBudgetExceeded holds the work done up to the budget, also when
    the caller passed no dict, and the caller's dict gets the same."""
    e1 = word_proof(gosset, "e1").bases()
    with pytest.raises(SearchBudgetExceeded) as caught:
        find_ks_assignment(e1, node_budget=100)
    assert caught.value.stats["nodes"] == 100
    assert caught.value.stats["step"] == 1
    stats = {}
    with pytest.raises(SearchBudgetExceeded) as caught:
        find_ks_assignment(e1, 100, stats)
    assert stats == caught.value.stats
    assert 1 < stats["max_depth"] <= 7


def closed_by_parity(bases):
    """bases and one more, holding the rays that occur an odd number of
    times in them (possibly none): every ray then occurs an even number of
    times, so an odd number of bases has no assignment."""
    odd = set()
    for b in bases:
        odd ^= set(b)
    return bases + [sorted(odd)]


# 2-12 random bases (an even number) over up to 16 rays, closed by parity
_refutations = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(0, 15), unique=True, min_size=1, max_size=5),
    min_size=2 * m, max_size=2 * m)).map(closed_by_parity)


@settings(max_examples=100, deadline=None)
@given(_refutations)
def test_uncut_refutation_tree_ignores_ray_order(bases):
    """Without cuts every child of every frame is tried, so reversing each
    basis tuple, which reverses the order of the tries among tied rays,
    leaves the refutation's node count unchanged."""
    plain = doubled(bases)
    found, stats = search_stats(plain)
    assert found is None
    assert search_stats([b[::-1] for b in plain]) == (None, stats)


def planted(table, k, seed):
    """The bases holding exactly one of k random rays, no two of them in
    one basis, drawn as the benchmark's assign workload draws them:
    shuffle the rays, take each that shares no basis with those taken,
    and draw again when fewer than k fit."""
    of_ray = {}
    for i, b in enumerate(table.bases):
        for r in b:
            of_ray.setdefault(r, []).append(i)
    rng, rays = random.Random(seed), sorted(of_ray)
    while True:
        rng.shuffle(rays)
        used, chosen = set(), 0
        for r in rays:
            if used.isdisjoint(of_ray[r]):
                used.update(of_ray[r])
                chosen += 1
                if chosen == k:
                    return [table.bases[i] for i in sorted(used)]


@pytest.mark.parametrize("name, k, nodes, ones", [
    ("cell120", 10, 9, (26, 80, 103, 201, 223, 237, 265, 274, 279, 283)),
    ("gosset", 8, 3, (36, 47, 78, 79, 80, 82, 83, 120))])
def test_planted_search_tree_size_is_pinned(request, name, k, nodes, ones):
    """A satisfiable tree, pinned like the refutations: a seeded planted
    instance (90 bases on the 120-cell, 1,080 on Gosset) takes exactly
    `nodes` nodes to find the same assignment, every ray of the input
    present.  Trying the most-shared ray first finds the planted rays
    themselves, one decision each (Gosset's propagation sets five of
    its eight)."""
    _, _, table, *_ = request.getfixturevalue(name)
    bases = planted(table, k, 1)
    with pytest.raises(SearchBudgetExceeded):
        find_ks_assignment(bases, node_budget=nodes - 1)
    found = find_ks_assignment(bases, node_budget=nodes)
    assert set(found) == {r for b in bases for r in b}
    assert tuple(sorted(r for r, v in found.items() if v)) == ones


def test_bans_keep_the_plain_assignment_on_words(polytopes):
    """Every one-letter word of the three tables and seeded 2-3-letter
    words: the banned search returns what the plain search returns, within
    the plain search's budget.  Words whose plain search exceeds it are
    not compared."""
    rng = random.Random(1)
    compared = found = 0
    for _layout, gens, table, *_ in polytopes.values():
        labels = [g.label for g in gens]
        words = [[letter] for letter in labels]
        words += [rng.sample(labels, rng.choice((2, 3)))
                  for _ in range(10)]
        for letters in words:
            indices = word_to_bases(Word(frozenset(letters)), table)
            bases = [table.bases[i] for i in sorted(indices)]
            try:
                plain = plain_search(bases, 100_000)
            except SearchBudgetExceeded:
                continue
            assert find_ks_assignment(bases, 100_000) == plain, letters
            compared += 1
            found += plain is not None
    assert compared >= 210 and found >= 175


# Z15 orbits of 1-4 random bases over the ray ids of 1-2 pentadecagons
_orbit_instances = st.integers(1, 2).flatmap(lambda blocks: st.lists(
    st.lists(st.integers(1, ORBIT * blocks), unique=True, min_size=1,
             max_size=5), min_size=1, max_size=4))


def rotate(r: int, s: int) -> int:
    return r - (r - 1) % ORBIT + ((r - 1) % ORBIT + s) % ORBIT


@settings(max_examples=100, deadline=None)
@given(_orbit_instances)
def test_bans_keep_the_plain_assignment_on_orbits(generators):
    bases = [tuple(rotate(r, s) for r in g)
             for g in generators for s in range(ORBIT)]
    assert rotation_step(bases) == 1
    assert find_ks_assignment(bases) == plain_search(bases, None)


def invariant_under(bases, s: int) -> bool:
    """Whether rotating every ray by s inside its block maps the set of
    bases onto itself."""
    known = {frozenset(b) for b in bases}
    return {frozenset(rotate(r, s) for r in b) for b in bases} == known


# <σ^k>-orbits of 1-3 random bases over 1-2 pentadecagons, k = 3 or 5,
# plus the Z15 orbit of one basis with a ray in every block, at these
# offsets, so that the rays fill whole blocks
_subgroup_instances = st.tuples(
    st.sampled_from((3, 5)), st.integers(1, 2)).flatmap(
    lambda kb: st.tuples(
        st.just(kb[0]),
        st.lists(st.lists(st.integers(1, ORBIT * kb[1]), unique=True,
                          min_size=1, max_size=5), min_size=1, max_size=3),
        st.lists(st.integers(0, ORBIT - 1), min_size=kb[1],
                 max_size=kb[1])))


@settings(max_examples=100, deadline=None)
@given(_subgroup_instances)
def test_cuts_keep_the_plain_assignment_under_subgroups(instance):
    k, generators, offsets = instance
    spanning = tuple(ORBIT * i + 1 + o for i, o in enumerate(offsets))
    bases = [tuple(rotate(r, s) for r in g)
             for g in generators for s in range(0, ORBIT, k)]
    bases += [tuple(rotate(r, s) for r in spanning) for s in range(ORBIT)]
    assert invariant_under(bases, k)
    assume(not invariant_under(bases, 1))
    assert rotation_step(bases) == k
    assert find_ks_assignment(bases) == plain_search(bases, None)


def test_cuts_keep_the_plain_answer_on_subproofs(cell120, gosset):
    """Every sub-proof of cdy and e1 e2, invariant under σ, σ^5 or
    nothing: the same answer as the plain search."""
    for fixture, text in ((cell120, "cdy"), (gosset, "e1 e2")):
        for s in incidence_nullspace_proofs(word_proof(fixture, text)).proofs:
            bases = s.bases()
            assert find_ks_assignment(bases) == plain_search(bases, None)


def test_rotation_check_rejects(cell120, gosset):
    bases = word_proof(cell120, "cdy").bases()
    assert rotation_step(bases) == 1
    # one basis removed: the rays are unchanged, the orbit is broken
    assert ray_index(bases[1:])[0] == ray_index(bases)[0]
    assert rotation_step(bases[1:]) == 0
    # every id one up: the rays no longer start at a block start
    assert rotation_step([tuple(r + 1 for r in b) for b in bases]) == 0
    # every id one block down: aligned blocks, but the first is -14..0
    assert rotation_step([tuple(r - ORBIT for r in b) for b in bases]) == 0
    # the same for a σ^5-invariant sub-proof with one basis removed
    sub = local_bases(gosset, "e1 e2", E1E2_SIGMA5)
    assert rotation_step(sub) == 5
    assert rotation_step(sub[1:]) == 0
    # doubled ids fill no whole block, so plain_search is plain at every
    # step
    for b in (bases, sub, word_proof(gosset, "e1").bases()):
        assert rotation_step(doubled(b)) == 0


def test_branching_rule():
    """Branch on the fewest free rays, lowest index on ties, rays
    most-shared first, basis order on ties: basis (2, 3) beats (3, 4) on
    the tie, rays 2 and 3 lie in two bases each and ray 2 goes first, which
    forces 4.  Branching on the first unsatisfied basis, on the last tied
    one, or on the tied rays in reverse order would set 0 and 3 instead.
    In (0, 1), ray 1 lies in three bases and ray 0 in one, so 1 goes
    first and satisfies them all; basis order would set 0, 2 and 3."""
    assignment = find_ks_assignment([(0, 1, 2), (2, 3), (3, 4)])
    assert assignment == {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}
    assignment = find_ks_assignment([(0, 1), (1, 2), (1, 3)])
    assert assignment == {0: 0, 1: 1, 2: 0, 3: 0}


def test_deep_search_needs_no_recursion():
    """1,200 disjoint bases make a search 1,200 decisions deep, past the
    default recursion limit of a recursive search."""
    bases = [tuple(range(4 * i, 4 * i + 4)) for i in range(1200)]
    assignment = find_ks_assignment(bases)
    assert assignment is not None
    assert sum(assignment.values()) == 1200


def brute_force_assignment_exists(bases) -> bool:
    """Try every 0/1 vector over the rays, one bit per ray; a basis is the
    set of its rays, so a ray it repeats counts once."""
    rays = sorted({r for b in bases for r in b})
    masks = [sum(1 << rays.index(r) for r in set(b)) for b in bases]
    return any(all((ones & m).bit_count() == 1 for m in masks)
               for ones in range(1 << len(rays)))


# up to 10 bases over at most 12 rays, each basis 0-5 rays, a ray possibly
# repeated; the second draw repeats some of the first bases
_basis = st.lists(st.integers(0, 11), max_size=5).map(tuple)
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
            assert sum(assignment[r] for r in set(b)) == 1


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
            shifted = frozenset(shift_position(r - 1, 3) + 1
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
    """A published proof is irreducible iff its walked decomposition holds
    no proof but itself."""
    for fixture, text, irreducible in (
            *((cell120, text, kind == "irreducible")
              for text, _sym, kind in PROOFS_120),
            *((gosset, text, True) for text, _sym in PROOFS_GOSSET)):
        p = word_proof(fixture, text)
        subs = [s.basis_indices for s in incidence_nullspace_proofs(p).proofs]
        assert (subs == [p.basis_indices]) == irreducible, text


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


def test_classify_needs_no_recursion(gosset):
    """All 2,025 Gosset bases as 2,025 singleton pieces: a cover 2,025
    pieces deep, past the default recursion limit."""
    _, _, table, *_ = gosset
    n = len(table.bases)
    singles = [Proof(table, frozenset({i})) for i in range(n)]
    assert classify_decomposition(Proof(table, frozenset(range(n))),
                                  singles) == "direct_sum"


@st.composite
def _cover_instances(draw):
    """Up to 8 pieces of unequal sizes for a target of up to 12 indices:
    some blocks of a random partition of the target, so that exact covers
    occur, and some random sets, which may overlap it or stick out."""
    n = draw(st.integers(1, 12))
    block = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    parts = sorted({frozenset(i for i in range(n) if block[i] == b)
                    for b in block}, key=sorted)
    kept = draw(st.lists(st.sampled_from(parts), unique=True))
    extra = draw(st.lists(st.frozensets(st.integers(0, 11), min_size=1),
                          max_size=8 - len(kept)))
    return frozenset(range(n)), kept + extra


@settings(max_examples=300, deadline=None)
@given(_cover_instances())
def test_classify_agrees_with_brute_force(instance):
    """direct_sum exactly when some subset of the pieces partitions the
    target, checked over every subset; only the index sets are read, so
    the proofs carry no table."""
    target, pieces = instance
    exact = any(
        sum(len(s) for s in chosen) == len(target)
        and frozenset().union(*chosen) == target
        for mask in range(1 << len(pieces))
        for chosen in [[s for j, s in enumerate(pieces) if mask >> j & 1]])
    got = classify_decomposition(Proof(None, target),
                                 [Proof(None, s) for s in pieces])
    assert got == ("direct_sum" if exact else "overlapping")


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


def test_decomposition_cap(cell120, monkeypatch):
    monkeypatch.setattr(contextuality, "SUBPROOF_CAP", 3)
    p = word_proof(cell120, "abkrf'")
    dec = incidence_nullspace_proofs(p)
    assert dec.truncated
    # the first three odd vectors of the Gray walk over the nullspace
    # basis, of 15, 15 and 45 bases: another basis would walk to others
    assert [local_indices(p, s) for s in dec.proofs] == [
        (3, 8, 13, 18, 23, 28, 32, 37, 42, 49, 54, 59, 61, 66, 71),
        (4, 9, 14, 19, 24, 29, 33, 38, 43, 50, 55, 60, 62, 67, 72),
        (3, 4, 5, 8, 9, 10, 13, 14, 15, 18, 19, 20, 23, 24, 25, 28, 29, 30,
         32, 33, 34, 37, 38, 39, 42, 43, 44, 46, 49, 50, 51, 54, 55, 56, 59,
         60, 61, 62, 63, 66, 67, 68, 71, 72, 73)]
    # the boundary: cdy has nullity 3 and 2^(3-1) = 4 odd nullspace
    # vectors, so a cap of 4 keeps them all and a cap of 3 truncates
    cdy = word_proof(cell120, "cdy")
    for cap, truncated in ((4, False), (3, True)):
        monkeypatch.setattr(contextuality, "SUBPROOF_CAP", cap)
        dec = incidence_nullspace_proofs(cdy)
        assert dec.nullity == 3
        assert dec.truncated is truncated
        assert len(dec.proofs) == min(cap, 4)
