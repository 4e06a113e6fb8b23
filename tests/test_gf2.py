"""GF(2) algebra against brute-force oracles, MacWilliams counting, and
word enumeration/minimality."""

import random

import pytest

from kspoly.gf2 import (BitMatrix, EnumerationLimitError, WeightDistribution,
                        WeightTransformError, _eliminate,
                        dual_weight_distribution,
                        enumerate_code_weights, enumerate_low_weight,
                        enumerate_words, gf2_nullspace, gf2_rank, in_nullspace,
                        is_minimal_word, krawtchouk, macwilliams_transform,
                        minimality_bound, odd_weight_total,
                        profile_matrix_mod2, span)
from kspoly.raysystem import parse_word, render_word


def closure(rows):
    """The row space, by closing {0} under adding each row."""
    out = {0}
    for r in rows:
        out |= {r ^ s for s in out}
    return out


def brute_rank(rows, n_cols):
    """Rank via row-space closure: the span size is 2^rank."""
    size = len(closure(rows))
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def brute_nullspace_vectors(m: BitMatrix):
    return [v for v in range(1 << m.n_cols) if in_nullspace(m, v)]


def random_matrix(rng, max_rows=8, max_cols=20) -> BitMatrix:
    n_rows = rng.randrange(1, max_rows + 1)
    n_cols = rng.randrange(1, max_cols + 1)
    rows = tuple(rng.getrandbits(n_cols) for _ in range(n_rows))
    return BitMatrix(n_rows, n_cols, rows)


# --------------------------------------------------------------------------
# rank and nullspace


def test_rank_against_closure_oracle():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, max_rows=10, max_cols=14)
        assert gf2_rank(m) == brute_rank(m.rows, m.n_cols)
        _, reduced = _eliminate(list(m.rows), m.n_cols)
        walk = list(span(reduced))
        assert len(walk) == len(set(walk))
        assert set(walk) == closure(m.rows)


def test_nullspace_dimensions(polytopes):
    expected = {"600cell": 4, "120cell": 30, "gosset": 131}
    for name, (*_uv, pm, spec) in polytopes.items():
        assert spec.n == pm.shape[1]
        assert spec.k == expected[name]
        assert gf2_rank(profile_matrix_mod2(pm)) + spec.k == spec.n


def test_600cell_nullspace_brute_force(cell600):
    """Pin the 600-cell nullity with the exhaustive 2^5 oracle."""
    *_x, pm, spec = cell600
    m2 = profile_matrix_mod2(pm)
    sols = brute_nullspace_vectors(m2)
    assert len(sols) == 2 ** 4 == 2 ** spec.k
    spanned = {0}
    for b in spec.nullspace_basis:
        spanned |= {b ^ s for s in spanned}
    assert spanned == set(sols)


def test_nullspace_random_matrices():
    rng = random.Random(2)
    # from_rows takes the width from every entry, so a last column that is
    # all zero mod 2 still counts
    even_last = BitMatrix.from_rows([[1, 2], [1, 0]])
    assert even_last.n_cols == 2
    for m in [even_last] + [random_matrix(rng, max_rows=6, max_cols=12)
                            for _ in range(60)]:
        spec = gf2_nullspace(m)
        assert len(brute_nullspace_vectors(m)) == 1 << spec.k
        for v in spec.nullspace_basis:
            assert in_nullspace(m, v)


# --------------------------------------------------------------------------
# weight distributions and MacWilliams


def test_dual_sizes(polytopes):
    expected_rank = {"600cell": 1, "120cell": 15, "gosset": 4}
    for name, (*_v, pm, spec) in polytopes.items():
        dual = dual_weight_distribution(profile_matrix_mod2(pm))
        assert dual.total() == 1 << expected_rank[name]
        assert dual[0] == 1


def test_dual_of_zero_matrix():
    m = BitMatrix(3, 7, (0, 0, 0))
    dual = dual_weight_distribution(m)
    assert dual.counts == {0: 1}
    dist = macwilliams_transform(dual, 7)
    assert dist.total() == 2 ** 7
    assert odd_weight_total(dist) == 2 ** 6


def test_krawtchouk_values():
    # coefficient of x^w in (1-x)^wd (1+x)^(n-wd)
    def by_polynomial(n, w, wd):
        poly = [1]
        for _ in range(wd):
            poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
        for _ in range(n - wd):
            poly = [a + b for a, b in zip(poly + [0], [0] + poly)]
        return poly[w]

    for n in range(0, 9):
        for wd in range(n + 1):
            for w in range(n + 1):
                assert krawtchouk(n, w, wd) == by_polynomial(n, w, wd)


def test_macwilliams_600cell_against_enumeration(cell600):
    *_x, pm, spec = cell600
    m2 = profile_matrix_mod2(pm)
    dist = macwilliams_transform(dual_weight_distribution(m2), spec.n)
    assert dist.counts == enumerate_code_weights(spec).counts
    assert dist.counts == {0: 1, 1: 2, 2: 4, 3: 6, 4: 3}
    assert odd_weight_total(dist) == 8


def test_macwilliams_anchors_120cell(cell120, proof_counts_120cell):
    *_x, pm, spec = cell120
    dist = macwilliams_transform(
        dual_weight_distribution(profile_matrix_mod2(pm)), spec.n)
    odd = {w: c for w, c in dist.items() if w % 2}
    assert odd == proof_counts_120cell
    assert odd[23] == 127058600 and odd[39] == 1212
    assert odd_weight_total(dist) == 2 ** 29


def test_macwilliams_anchors_gosset(gosset, proof_counts_gosset):
    *_x, pm, spec = gosset
    dist = macwilliams_transform(
        dual_weight_distribution(profile_matrix_mod2(pm)), spec.n)
    odd = {w: c for w, c in dist.items() if w % 2}
    assert odd == proof_counts_gosset
    assert odd_weight_total(dist) == 2 ** 130


def test_macwilliams_random_cross_validation():
    """Transform equals direct nullspace enumeration on random codes."""
    rng = random.Random(3)
    done = 0
    while done < 50:
        m = random_matrix(rng, max_rows=8, max_cols=16)
        spec = gf2_nullspace(m)
        dist = macwilliams_transform(dual_weight_distribution(m), m.n_cols)
        assert dist.counts == enumerate_code_weights(spec).counts
        done += 1


def test_double_macwilliams_roundtrip():
    rng = random.Random(4)
    for _ in range(50):
        m = random_matrix(rng, max_rows=6, max_cols=14)
        dual = dual_weight_distribution(m)
        primal = macwilliams_transform(dual, m.n_cols)
        back = macwilliams_transform(primal, m.n_cols)
        assert back.counts == dual.counts


def test_enumerated_histogram_matches_distribution(cell600):
    *_x, pm, spec = cell600
    words = enumerate_low_weight(spec, spec.n, "any")
    hist = {}
    for v in words:
        hist[v.bit_count()] = hist.get(v.bit_count(), 0) + 1
    dist = macwilliams_transform(
        dual_weight_distribution(profile_matrix_mod2(pm)), spec.n)
    assert hist == dist.counts


def test_transform_rejects_bad_dual():
    with pytest.raises(WeightTransformError):
        macwilliams_transform(WeightDistribution({0: 1, 1: 2}), 4)
    with pytest.raises(WeightTransformError):
        macwilliams_transform(WeightDistribution({1: 4}), 4)


def test_dual_rank_limit():
    rng = random.Random(5)
    rows = tuple(rng.getrandbits(40) | (1 << i) for i in range(30))
    m = BitMatrix(30, 40, rows)
    with pytest.raises(EnumerationLimitError):
        dual_weight_distribution(m, rank_limit=26)


# --------------------------------------------------------------------------
# minimality


def test_minimality_bounds():
    assert minimality_bound(45, 30) == 16
    assert minimality_bound(135, 131) == 5
    assert minimality_bound(7, 7) == 1
    with pytest.raises(ValueError):
        minimality_bound(3, 4)


def test_600cell_minimal_words(cell600):
    *_x, pm, _ = cell600
    assert is_minimal_word(parse_word("a"), pm)
    assert is_minimal_word(parse_word("b"), pm)
    for text in ("acd", "ace", "ade", "bcd", "bce", "bde"):
        assert not is_minimal_word(parse_word(text), pm)


def test_minimality_rejects_non_proofs(cell600):
    *_x, pm, _ = cell600
    with pytest.raises(ValueError):
        is_minimal_word(parse_word("ab"), pm)  # even weight
    with pytest.raises(ValueError):
        is_minimal_word(parse_word("c"), pm)  # not in the nullspace


def test_minimality_support_limit(cell120):
    *_x, pm, _ = cell120
    word = parse_word(" ".join(pm.col_labels[:27]))
    with pytest.raises(EnumerationLimitError):
        is_minimal_word(word, pm, support_limit=25)


def test_gosset_table_words_minimal(gosset):
    *_x, pm, _ = gosset
    for text in ("b1", "e1", "a1 c1 e'2", "a1 h1 n5", "c1 h1 i4",
                 "a1 c1 d1 h1 m1", "a1 c1 h1 m8 c'1"):
        assert is_minimal_word(parse_word(text), pm)


# --------------------------------------------------------------------------
# word enumeration


def test_600cell_census(cell600):
    *_x, spec = cell600
    words = enumerate_words(spec, 5, "odd", "600cell")
    assert {render_word(w) for w in words} == {
        "a", "b", "a c d", "a c e", "a d e", "b c d", "b c e", "b d e"}


def test_120cell_length_one(cell120):
    *_x, spec = cell120
    words = enumerate_words(spec, 1, "odd", "120cell")
    assert {render_word(w) for w in words} == {"j", "q", "r'", "s'"}


def test_enumeration_matches_macwilliams_low_weights(cell120,
                                                     proof_counts_120cell):
    *_x, spec = cell120
    words = enumerate_words(spec, 5, "odd")
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len == {1: proof_counts_120cell[1],
                      3: proof_counts_120cell[3],
                      5: proof_counts_120cell[5]}


def test_enumeration_emits_nullspace_members_once(cell120):
    *_x, pm, spec = cell120
    m2 = profile_matrix_mod2(pm)
    vectors = enumerate_low_weight(spec, 3, "any")
    assert len(set(vectors)) == len(vectors)
    for v in vectors:
        assert in_nullspace(m2, v)


def test_enumeration_deterministic_order(cell600):
    *_x, spec = cell600
    a = enumerate_low_weight(spec, 5, "odd")
    b = enumerate_low_weight(spec, 5, "odd")
    assert a == b
    supports = [tuple(i for i in range(spec.n) if v >> i & 1) for v in a]
    assert supports == sorted(supports)


def test_enumeration_even_and_any(cell600):
    *_x, spec = cell600
    evens = enumerate_words(spec, 0, "even")
    assert [render_word(w) for w in evens] == [""]
    everything = enumerate_low_weight(spec, 5, "any")
    assert len(everything) == 16


def test_enumeration_work_budget(gosset):
    *_x, spec = gosset
    with pytest.raises(EnumerationLimitError):
        enumerate_low_weight(spec, 5, "odd", work_budget=1000)


def test_proposition_bound_on_enumerable_words(cell600):
    """No minimal word exceeds n-k+1, checked on a full small census."""
    *_x, pm, spec = cell600
    bound = minimality_bound(spec.n, spec.k)
    for w in enumerate_words(spec, spec.n, "odd"):
        if len(w) > bound:
            assert not is_minimal_word(w, pm)
