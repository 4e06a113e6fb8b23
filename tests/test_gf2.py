"""GF(2) algebra against brute-force oracles, MacWilliams counting, and
word enumeration/minimality."""

import random
from collections import Counter
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kspoly import gf2
from kspoly.gf2 import (BitMatrix, EnumerationLimitError, WeightDistribution,
                        WeightTransformError, _eliminate, _kernel_rows,
                        dual_weight_distribution, enumerate_low_weight,
                        enumerate_words, gf2_nullspace, in_nullspace,
                        is_minimal_word, macwilliams_transform,
                        minimality_bound, odd_weight_total,
                        profile_matrix_mod2, span)
from kspoly.raysystem import Word, parse_word, render_word


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
    return BitMatrix(n_cols, rows)


# --------------------------------------------------------------------------
# rank and nullspace


def test_rank_against_closure_oracle():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, max_rows=10, max_cols=14)
        assert m.n_cols - gf2_nullspace(m).k == brute_rank(m.rows, m.n_cols)
        _, reduced = _eliminate(m.rows)
        walk = list(span(reduced))
        assert len(walk) == len(set(walk))
        assert set(walk) == closure(m.rows)


# tall and sparse, like the ray-by-basis incidence matrices: each row a
# ray, each column a basis, a few ones per row
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n_cols: st.tuples(
    st.just(n_cols),
    st.lists(st.sets(st.integers(0, n_cols - 1), max_size=4),
             min_size=1, max_size=40))))
def test_eliminate_reduced_echelon(shape):
    n_cols, supports = shape
    rows = [sum(1 << j for j in s) for s in supports]
    pivots, reduced = _eliminate(rows)
    assert pivots == sorted(set(pivots))
    assert len(reduced) == len(pivots)
    for col, row in zip(pivots, reduced):
        assert row & -row == 1 << col  # each pivot is its row's lowest bit
        assert sum(r >> col & 1 for r in reduced) == 1
    assert set(span(reduced)) == closure(rows)


def test_nullspace_dimensions(polytopes):
    expected = {"600cell": 4, "120cell": 30, "gosset": 131}
    for name, (*_uv, pm, spec) in polytopes.items():
        assert spec.n == len(pm.col_labels)
        assert spec.k == expected[name]
        m = profile_matrix_mod2(pm)
        assert brute_rank(m.rows, m.n_cols) + spec.k == spec.n


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
    m = BitMatrix(7, (0, 0, 0))
    dual = dual_weight_distribution(m)
    assert dual.counts == {0: 1}
    dist = macwilliams_transform(dual, 7)
    assert dist.total() == 2 ** 7
    assert odd_weight_total(dist) == 2 ** 6


def krawtchouk(n: int, w: int, w_dual: int) -> int:
    """Binary Krawtchouk kernel K_w(w_dual; n) as its alternating sum of
    binomial products."""
    return sum((-1) ** j * comb(w_dual, j) * comb(n - w_dual, w - j)
               for j in range(0, min(w, w_dual) + 1))


def test_krawtchouk_values():
    for n in (*range(0, 9), 45):
        rows = list(_kernel_rows(n))
        assert len(rows) == n + 1
        for wd, row in enumerate(rows):
            assert row == [krawtchouk(n, w, wd) for w in range(n + 1)]


def enumerated_weights(spec):
    """The nullspace code's weights by direct enumeration (exponential)."""
    return Counter(map(int.bit_count, span(spec.nullspace_basis)))


def test_macwilliams_600cell_against_enumeration(cell600):
    *_x, pm, spec = cell600
    m2 = profile_matrix_mod2(pm)
    dist = macwilliams_transform(dual_weight_distribution(m2), spec.n)
    assert dist.counts == enumerated_weights(spec)
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
        assert dist.counts == enumerated_weights(spec)
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
    with pytest.raises(WeightTransformError):  # a weight past the length
        macwilliams_transform(WeightDistribution({0: 1, 5: 1}), 4)


def test_dual_rank_limit():
    rng = random.Random(5)
    rows = tuple(rng.getrandbits(40) | (1 << i) for i in range(30))
    m = BitMatrix(40, rows)
    with pytest.raises(EnumerationLimitError):
        dual_weight_distribution(m)


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


# an odd Gosset nullspace word of 31 letters: its counting matrix
# restricted to those letters has rank 4, so nullity 27
GOSSET_NULLITY_27 = ("a2 a3 b1 c2 d2 d3 d4 d5 d6 d7 d8 e1 e2 f1 f2 f3 f4 f5 "
                     "f6 f7 f8 f9 g1 g2 g3 g4 g5 h2 h3 i1 i2")


def test_minimality_support_limit(gosset, monkeypatch):
    """A restricted nullity past span's limit is answered all the same:
    minimality reads the nullity and walks nothing."""
    *_x, pm, _ = gosset

    def no_walk(basis):
        raise AssertionError("minimality walked a span")

    monkeypatch.setattr(gf2, "span", no_walk)
    assert not is_minimal_word(parse_word(GOSSET_NULLITY_27), pm)


def odd_sub_words_in_nullspace(m: BitMatrix, v: int) -> list[int]:
    """Every odd sub-vector of v in m's nullspace, by walking all of them."""
    support = [1 << i for i in range(m.n_cols) if v >> i & 1]
    found = []
    for mask in range(1, 1 << len(support)):
        if mask.bit_count() % 2:
            u = sum(b for j, b in enumerate(support) if mask >> j & 1)
            if in_nullspace(m, u):
                found.append(u)
    return found


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("600cell", "120cell", "gosset")),
       st.lists(st.integers(0, 130), min_size=1, max_size=3, unique=True))
def test_minimality_is_nullity_one(polytopes, name, picks):
    """On short random odd nullspace words (sums of 1-3 nullspace basis
    words), nullity 1 agrees with the walk over every odd sub-word."""
    *_x, pm, spec = polytopes[name]
    v = 0
    for i in picks:
        v ^= spec.nullspace_basis[i % spec.k]
    assume(v.bit_count() % 2 and v.bit_count() <= 13)
    m = profile_matrix_mod2(pm)
    word = Word(frozenset(lab for i, lab in enumerate(spec.labels)
                          if v >> i & 1))
    assert is_minimal_word(word, pm) == (
        odd_sub_words_in_nullspace(m, v) == [v])


def test_span_limit(monkeypatch):
    monkeypatch.setattr(gf2, "SPAN_LIMIT", 3)
    assert sorted(span([1, 2, 4])) == list(range(8))
    with pytest.raises(EnumerationLimitError):
        next(span([1, 2, 4, 8]))


def test_gosset_table_words_minimal(gosset):
    *_x, pm, _ = gosset
    for text in ("b1", "e1", "a1 c1 e'2", "a1 h1 n5", "c1 h1 i4",
                 "a1 c1 d1 h1 m1", "a1 c1 h1 m8 c'1"):
        assert is_minimal_word(parse_word(text), pm)


# --------------------------------------------------------------------------
# word enumeration


def test_600cell_census(cell600):
    *_x, spec = cell600
    words = enumerate_words(spec, 5, "odd")
    assert {render_word(w) for w in words} == {
        "a", "b", "a c d", "a c e", "a d e", "b c d", "b c e", "b d e"}


def test_120cell_length_one(cell120):
    *_x, spec = cell120
    words = enumerate_words(spec, 1, "odd")
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


def test_enumeration_work_budget(gosset, monkeypatch):
    *_x, spec = gosset
    monkeypatch.setattr(gf2, "ENUMERATION_BUDGET", 1000)
    with pytest.raises(EnumerationLimitError):
        enumerate_low_weight(spec, 5, "odd")


def test_proposition_bound_on_enumerable_words(cell600):
    """No minimal word exceeds n-k+1, checked on a full small census."""
    *_x, pm, spec = cell600
    bound = minimality_bound(spec.n, spec.k)
    for w in enumerate_words(spec, spec.n, "odd"):
        if len(w) > bound:
            assert not is_minimal_word(w, pm)
