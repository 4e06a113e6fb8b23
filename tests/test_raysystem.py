"""Layouts, wraparound orbits, basis tables, profiles, and symbols."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspoly.raysystem import (Generator, Pentadecagon, PentadecagonLayout,
                              Word, basis_profile, build_basis_table,
                              check_generators, expand_orbit, parse_word,
                              ray_basis_symbol, shift_mask, shift_position,
                              symbol_from_word, word_to_bases)


def gen_of(gens, label):
    return next(g for g in gens if g.label == label)


# --------------------------------------------------------------------------
# layouts


def test_layout_shapes(polytopes):
    expected = {"600cell": (4, 60, 4), "120cell": (20, 300, 4),
                "gosset": (8, 120, 8)}
    for name, (layout, *_rest) in polytopes.items():
        m, n_rays, d = expected[name]
        assert len(layout.pentadecagons) == m
        assert layout.n_rays == n_rays
        assert layout.dimension == d


def test_layout_rejects_gaps():
    with pytest.raises(ValueError):
        PentadecagonLayout("600cell", 4, (
            Pentadecagon("A", 1, 15, 1.0, 0.0),
            Pentadecagon("B", 17, 31, 0.8, 6.0)))


def test_layout_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        PentadecagonLayout("600cell", 4, (
            Pentadecagon("A", 1, 15, 1.0, 0.0),
            Pentadecagon("A", 16, 30, 0.8, 6.0)))


def test_shift_ray_wraps_inside_pentadecagon():
    assert shift_position(14, 1) == 0
    assert shift_position(15, 1) == 16
    assert shift_position(29, 1) == 15
    assert shift_position(4, 11) == 0


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(lambda blocks: st.tuples(
    st.integers(0, (1 << 15 * blocks) - 1), st.just(15 * blocks),
    st.integers(0, 14))))
def test_shift_mask_is_shift_position_on_bitsets(instance):
    """σ^k on a bitset moves each of its positions p to σ^k p."""
    mask, n, k = instance
    moved = {shift_position(p, k) for p in range(n) if mask >> p & 1}
    assert shift_mask(n, k)(mask) == sum(1 << p for p in moved)


# --------------------------------------------------------------------------
# orbits


def test_expand_orbit_shift_one(cell600):
    _, gens, *_ = cell600
    a = gen_of(gens, "a")
    assert expand_orbit(a, 1) == (2, 6, 56, 57)


def test_expand_orbit_wraps(cell600):
    _, gens, *_ = cell600
    a = gen_of(gens, "a")
    assert expand_orbit(a, 11) == (1, 12, 51, 52)


def test_expand_orbit_identity_shift(polytopes):
    for _, gens, *_ in polytopes.values():
        for g in gens[:3]:
            assert expand_orbit(g, 0) == g.rays


def test_orbit_periodicity(cell120):
    _, gens, *_ = cell120
    for g in gens[::7]:
        for s in range(15):
            assert expand_orbit(g, s) == expand_orbit(g, (s + 15) % 15)


def test_expand_orbit_matches_shift_ray(polytopes):
    for _, gens, *_ in polytopes.values():
        for g in gens:
            for s in range(15):
                assert expand_orbit(g, s) == tuple(
                    sorted(shift_position(r - 1, s) + 1 for r in g.rays))


def test_check_generators_rejects_rays_out_of_range(cell600):
    layout = cell600[0]
    for rays in ((0, 1, 2, 3), (1, 2, 3, 61)):
        with pytest.raises(ValueError, match="out of range"):
            check_generators(layout, [Generator("z", rays)])


# --------------------------------------------------------------------------
# basis tables


def test_table_counts(polytopes):
    expected = {"600cell": (75, 5), "120cell": (675, 9),
                "gosset": (2025, 135)}
    for name, (layout, gens, table, *_rest) in polytopes.items():
        n_bases, per_ray = expected[name]
        assert len(table.bases) == n_bases
        assert len(set(table.bases)) == n_bases
        occ = [0] * (layout.n_rays + 1)
        for b in table.bases:
            for r in b:
                occ[r] += 1
        assert set(occ[1:]) == {per_ray}


def test_single_generator_orbit(cell600):
    layout, gens, *_ = cell600
    table = build_basis_table(layout, [gen_of(gens, "a")])
    assert len(table.bases) == 15
    assert len(set(table.bases)) == 15


def test_duplicate_orbit_rejected(cell600):
    layout, gens, *_ = cell600
    a = gen_of(gens, "a")
    shifted = Generator("z", expand_orbit(a, 3))
    with pytest.raises(ValueError, match="duplicate"):
        build_basis_table(layout, [a, shifted])


def test_golden_table4(cell600, table4_rows):
    """The reconstructed 600-cell table equals the printed one, row for
    row as sets, in generator-major shift-minor order."""
    _, _, table, *_ = cell600
    assert len(table.bases) == len(table4_rows) == 75
    for built, printed in zip(table.bases, table4_rows):
        assert set(built) == set(printed)


def test_origin_annotations(polytopes):
    """Basis i is shift i % 15 of generator i // 15, the origin that
    `gen-bases` prints (its columns are pinned by the snapshots)."""
    for _, gens, table, *_ in polytopes.values():
        assert table.bases == tuple(expand_orbit(gens[i // 15], i % 15)
                                    for i in range(len(table.bases)))
    assert polytopes["600cell"][2].orbit_indices("c") == range(30, 45)


# --------------------------------------------------------------------------
# profiles and the counting matrix


def test_profiles_600cell(cell600):
    layout, gens, *_ = cell600
    assert basis_profile(gen_of(gens, "a").rays, layout) == "AADD"
    assert basis_profile(gen_of(gens, "b").rays, layout) == "BBCC"
    assert basis_profile((1, 19, 43, 49), layout) == "ABCD"


def test_profiles_gosset(gosset):
    layout, gens, *_ = gosset
    assert basis_profile(gen_of(gens, "b1").rays, layout) == "AACCHHHH"
    assert basis_profile((1, 4, 35, 37, 112, 114, 116, 118),
                         layout) == "AACCHHHH"


def test_profile_all_same_pentadecagon(cell600):
    layout, *_ = cell600
    assert basis_profile((1, 2, 3, 4), layout) == "AAAA"


def test_profiles_120cell_subscripts(cell120):
    layout, gens, *_ = cell120
    assert basis_profile(gen_of(gens, "a").rays, layout) == "AB1K2L"
    assert basis_profile(gen_of(gens, "j").rays, layout) == "B1B1K1K1"
    assert basis_profile(gen_of(gens, "s'").rays, layout) == "F2F2G2G2"


def test_profile_matrix_shapes(polytopes):
    expected = {"600cell": (4, 5), "120cell": (20, 45), "gosset": (8, 135)}
    for name, (_, _, _, pm, _) in polytopes.items():
        assert (len(pm.row_labels), len(pm.col_labels)) == expected[name]
        d = 8 if name == "gosset" else 4
        assert all(sum(col) == d for col in zip(*pm.entries))


def test_profile_matrix_column_a(cell600):
    *_, pm, _ = cell600
    j = pm.col_labels.index("a")
    assert tuple(row[j] for row in pm.entries) == (2, 0, 0, 2)


# --------------------------------------------------------------------------
# words against tables


def test_word_to_bases_cdy(cell120):
    layout, gens, table, *_ = cell120
    indices = word_to_bases(parse_word("cdy"), table)
    assert len(indices) == 45
    expected = set(table.orbit_indices("c")) | set(
        table.orbit_indices("d")) | set(table.orbit_indices("y"))
    assert indices == frozenset(expected)


def test_word_to_bases_gosset_e1(gosset):
    layout, gens, table, *_ = gosset
    indices = sorted(word_to_bases(parse_word("e1"), table))
    assert len(indices) == 15
    assert table.bases[indices[0]] == (1, 4, 51, 59, 91, 94, 114, 116)


def test_word_to_bases_empty(cell600):
    assert word_to_bases(parse_word(""), cell600[2]) == frozenset()


def test_word_to_bases_unknown_letter(cell600):
    with pytest.raises(KeyError):
        word_to_bases(parse_word("x"), cell600[2])


# --------------------------------------------------------------------------
# ray-basis symbols


def test_symbol_single_basis(cell600):
    layout, _, table, *_ = cell600
    sym = ray_basis_symbol([table.bases[0]], layout)
    assert str(sym) == "4_1-1_4"


def test_symbol_of_orbit_a(cell600):
    layout, gens, table, *_ = cell600
    bases = [table.bases[i] for i in table.orbit_indices("a")]
    assert str(ray_basis_symbol(bases, layout)) == "30_2-15_4"


def test_symbol_equation_example(cell120):
    layout, gens, table, *_ = cell120
    w = parse_word("abegkri'")
    sym = symbol_from_word(w, gens, layout)
    assert str(sym) == "150_2 30_4-105_4"
    bases = [table.bases[i] for i in word_to_bases(w, table)]
    assert ray_basis_symbol(bases, layout) == sym


def test_symbol_single_letter_j(cell120):
    layout, gens, *_ = cell120
    assert str(symbol_from_word(parse_word("j"), gens, layout)) == "30_2-15_4"


def test_symbol_gosset_five_letter(gosset):
    layout, gens, *_ = gosset
    sym = symbol_from_word(parse_word("a1 c1 d1 h1 m1"), gens, layout)
    assert str(sym) == "30_2 60_4 15_8 15_12-75_8"


def test_symbol_empty_rejected(cell600):
    layout, gens, *_ = cell600
    with pytest.raises(ValueError):
        symbol_from_word(parse_word(""), gens, layout)
    with pytest.raises(ValueError):
        ray_basis_symbol([], layout)


def test_symbol_mass_invariant_enforced(polytopes, gosset_words):
    """Both producers build a symbol with the mass of its bases: the sum
    of mult * rays is basis_size * basis_count, for each generator alone,
    for all of a polytope's generators and for Gosset's nullspace words."""
    for name, (layout, gens, table, *_rest) in polytopes.items():
        words = [(g.label,) for g in gens] + [tuple(g.label for g in gens)]
        if name == "gosset":
            words += gosset_words
        for letters in words:
            w = parse_word(" ".join(letters))
            bases = [table.bases[i] for i in word_to_bases(w, table)]
            for s in (symbol_from_word(w, gens, layout),
                      ray_basis_symbol(bases, layout)):
                assert sum(m * r for m, r in s.ray_terms) == (
                    s.basis_size * s.basis_count)


def test_symbol_consistency_everywhere(polytopes, gosset_words):
    """Profile arithmetic equals basis expansion for a spread of words."""
    import random
    rng = random.Random(7)
    for name, (layout, gens, table, *_rest) in polytopes.items():
        labels = [g.label for g in gens]
        words = [frozenset(rng.sample(labels, rng.randrange(1, min(9, len(
            labels) + 1)))) for _ in range(40)]
        if name == "gosset":
            words += [frozenset(w) for w in gosset_words]
        for letters in words:
            w = parse_word(" ".join(sorted(letters)))
            sym = symbol_from_word(w, gens, layout)
            bases = [table.bases[i] for i in word_to_bases(w, table)]
            assert ray_basis_symbol(bases, layout) == sym


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("600cell", "120cell", "gosset")), st.data())
def test_symbol_from_word_property(polytopes, name, data):
    """For any non-empty word, the symbol from generator profiles equals
    the symbol of the bases the word expands to."""
    layout, gens, table, *_rest = polytopes[name]
    w = Word(data.draw(st.frozensets(st.sampled_from(
        [g.label for g in gens]), min_size=1)))
    bases = [table.bases[i] for i in word_to_bases(w, table)]
    assert symbol_from_word(w, gens, layout) == ray_basis_symbol(bases,
                                                                 layout)
