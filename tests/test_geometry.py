"""Golden-ring arithmetic, the exact constructions, projections, matching."""

import functools
import hashlib
import itertools
import math
import sys
from decimal import Decimal, localcontext
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspoly import geometry, golden
from kspoly.geometry import (MatchError, OrthoGraph, RaySet,
                             build_120cell_rays, coxeter_projection, e8_rays,
                             enumerate_bases, icosian_600cell, match_labeling,
                             orthogonality_graph, pentadecagon_classes,
                             rigidity_demo,
                             rotates_by_one_step, saturated)
from kspoly.golden import (ALPHA, BETA, ZERO, canonical_sign, gvec, mul,
                           phi_map, sign, value, vec_neg, vec_scale,
                           vec_values)
from kspoly.raysystem import shift_position


@pytest.fixture(scope="module")
def h4():
    return icosian_600cell()


@pytest.fixture(scope="module")
def e8():
    return e8_rays()


@pytest.fixture(scope="module")
def cell120_rays():
    return build_120cell_rays()


# --------------------------------------------------------------------------
# golden ring: elements are (m, n) pairs meaning m + n*a


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def test_ring_laws():
    assert mul(ALPHA, ALPHA) == (1, 1)          # a^2 = 1 + a
    assert mul(ALPHA, BETA) == (-1, 0)          # a(1-a) = -1
    assert BETA == (1 - ALPHA[0], -ALPHA[1])    # b = 1 - a
    g = (3, -2)
    assert mul(g, (1, 0)) == g
    assert mul(g, ZERO) == ZERO
    assert vec_neg((g,)) == (mul((-1, 0), g),)
    assert add(vec_neg((g,))[0], g) == ZERO


def test_ring_commutative_associative():
    xs = [(m, n) for m in (-2, 0, 3) for n in (-1, 0, 2)]
    for a, b, c in itertools.product(xs, repeat=3):
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_value_and_sign():
    assert abs(value(ALPHA) - (1 - math.sqrt(5)) / 2) < 1e-15
    assert sign(ALPHA) == -1
    assert sign(BETA) == 1
    assert sign(ZERO) == 0
    for m in range(-5, 6):
        for n in range(-5, 6):
            v = value((m, n))
            assert sign((m, n)) == (v > 1e-12) - (v < -1e-12)


def test_zero_iff_both_components_zero():
    for m in range(-3, 4):
        for n in range(-3, 4):
            assert (sign((m, n)) == 0) == (m == 0 and n == 0)


def test_canonical_sign():
    v = gvec(0, ALPHA, 1, BETA)
    assert canonical_sign(v)[1] == (0, -1)  # first nonzero made positive
    assert canonical_sign(canonical_sign(v)) == canonical_sign(v)
    assert canonical_sign(gvec(0, 0)) == gvec(0, 0)  # no sign to choose


def test_to_text_examples():
    assert [golden.to_text(x) for x in ((3, 0), (0, 1), (0, -1), (2, -3),
                                        (2, 3))] == ["3", "a", "-a", "2-3a",
                                                     "2+3a"]


def test_dot_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        golden.dot(gvec(1, 0), gvec(1, 0, 0))


def _near_zero(n: int) -> st.SearchStrategy:
    """Pairs (m, n) with m next to -n*a, where m + n*a is smallest."""
    m0 = (math.isqrt(5 * n * n) - abs(n)) // 2
    return st.integers(-2, 2).map(lambda d: ((m0 if n >= 0 else -m0) + d, n))


BIG = 10 ** 12
golden_pairs = st.one_of(
    st.tuples(st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
    st.integers(-BIG, BIG).flatmap(_near_zero))


@settings(max_examples=300)
@given(golden_pairs)
def test_sign_matches_decimal(x):
    with localcontext() as ctx:
        ctx.prec = 50
        exact = Decimal(x[0]) + Decimal(x[1]) * (1 - Decimal(5).sqrt()) / 2
    assert sign(x) == (exact > 0) - (exact < 0)


small_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.lists(small_pairs, min_size=d, max_size=d),
    st.lists(small_pairs, min_size=d, max_size=d))))
def test_dot_matches_float(uv):
    u, v = (tuple(w) for w in uv)
    approx = sum(value(a) * value(b) for a, b in zip(u, v))
    assert math.isclose(value(golden.dot(u, v)), approx,
                        rel_tol=1e-9, abs_tol=1e-9)


def test_phi_map_examples():
    assert phi_map(gvec(0, ALPHA, 1, BETA)) == (0, 0, 1, 1, 0, 1, 0, -1)
    assert phi_map(gvec(0, 0, 0, 0)) == (0,) * 8
    assert phi_map(vec_scale(ALPHA, gvec(2, 0, 0, 0))) == (
        0, 0, 0, 0, 2, 0, 0, 0)


def test_phi_injective_on_rays(h4):
    images = {phi_map(v) for v in h4.vectors}
    assert len(images) == 60


# --------------------------------------------------------------------------
# the icosian 600-cell


def test_600cell_counts(h4):
    assert len(h4) == 60
    assert h4.contains_up_to_sign(gvec(2, 0, 0, 0))
    norms = {golden.dot(v, v) for v in h4.vectors}
    assert norms == {(4, 0)}


def test_600cell_graph(h4):
    g = orthogonality_graph(h4)
    assert g.n_edges == 450
    assert {a.bit_count() for a in g.adjacency} == {15}


def test_600cell_cliques(h4):
    g = orthogonality_graph(h4)
    bases = enumerate_bases(g, 4)
    assert len(bases) == 75
    occ = {}
    for b in bases:
        for r in b:
            occ[r] = occ.get(r, 0) + 1
    assert set(occ.values()) == {5}
    assert saturated(g, bases)


def scale_by_alpha(rs):
    """Coordinatewise multiplication by a: the second, scaled 600-cell."""
    return RaySet(tuple(canonical_sign(vec_scale(ALPHA, v))
                        for v in rs.vectors))


def test_scale_by_alpha(h4):
    h4b = scale_by_alpha(h4)
    assert len(h4b) == 60
    assert h4b.contains_up_to_sign(vec_scale(ALPHA, gvec(2, 0, 0, 0)))
    assert h4b.contains_up_to_sign(gvec(ALPHA, ALPHA, ALPHA, ALPHA))
    assert h4b.contains_up_to_sign(gvec(0, (1, 1), ALPHA, 1))
    # scaling twice scales by a^2 = 1 + a
    twice = scale_by_alpha(h4b)
    expected = {canonical_sign(vec_scale((1, 1), v))
                for v in h4.vectors}
    assert set(twice.vectors) == expected


def test_scaling_preserves_orthogonality(h4):
    h4b = scale_by_alpha(h4)
    ga, gb = orthogonality_graph(h4), orthogonality_graph(h4b)
    assert ga.adjacency != () and ga.n_edges == gb.n_edges


# --------------------------------------------------------------------------
# E8


def test_e8_counts(e8):
    assert len(e8) == 120
    for v in e8.vectors:
        assert golden.dot(v, v) == (4, 0)
        assert all(n == 0 for _, n in v)  # integer entries
    assert e8.contains_up_to_sign(gvec(2, 0, 0, 0, 0, 0, 0, 0))
    assert e8.contains_up_to_sign(gvec(0, 0, 1, 1, 0, 1, 0, -1))
    assert e8.contains_up_to_sign(gvec(0, 0, -1, -1, 0, -1, 0, 1))


def test_e8_inner_products(e8):
    prods = set()
    for i in range(len(e8)):
        for j in range(i, len(e8)):
            prods.add(golden.dot(e8.vectors[i], e8.vectors[j]))
    assert prods == {(-2, 0), (0, 0), (2, 0), (4, 0)}


def test_e8_graph_regular(e8):
    g = orthogonality_graph(e8)
    assert {a.bit_count() for a in g.adjacency} == {63}
    assert g.n_edges == 3780


def test_e8_cliques(e8):
    g = orthogonality_graph(e8)
    bases = enumerate_bases(g, 8)
    assert len(bases) == 2025
    occ = {}
    for b in bases:
        for r in b:
            occ[r] = occ.get(r, 0) + 1
    assert set(occ.values()) == {135}
    assert saturated(g, bases)


def test_forward_orthogonality_preserved(h4):
    """All 1770 ray pairs: 4-d orthogonality implies 8-d orthogonality."""
    images = [phi_map(v) for v in h4.vectors]
    checked = 0
    witnesses = 0
    for i in range(60):
        for j in range(i + 1, 60):
            checked += 1
            dot8 = sum(a * b for a, b in zip(images[i], images[j]))
            if golden.dot(h4.vectors[i], h4.vectors[j]) == ZERO:
                assert dot8 == 0
            elif dot8 == 0:
                witnesses += 1
    assert checked == 1770
    assert witnesses > 0  # the converse fails somewhere


# --------------------------------------------------------------------------
# the 120-cell


def test_120cell_counts(cell120_rays):
    assert len(cell120_rays) == 300
    norms = {golden.dot(v, v) for v in cell120_rays.vectors}
    assert len(norms) == 1


# sha256 of repr(vectors), sorted, for the 300 rays once read from the
# transcribed coordinate file, which the cell-center derivation reproduced
# exactly
RAYS_120CELL_SHA256 = (
    "7cececc182f356208862a243f802d3d6a4f533b2f30ee0ae972a8581537d6509")


def test_120cell_rays_pinned(cell120_rays):
    rays = tuple(sorted(cell120_rays.vectors))
    digest = hashlib.sha256(repr(rays).encode()).hexdigest()
    assert digest == RAYS_120CELL_SHA256


def _plain_cliques(adj, d):
    """The reference walk: every d-clique from its least vertex, over the
    vertices above it, in sorted order."""
    out = []

    def extend(clique, cand):
        if len(clique) == d:
            out.append(tuple(clique))
            return
        while cand and len(clique) + cand.bit_count() >= d:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            extend(clique + [v], cand & adj[v])

    extend([], (1 << len(adj)) - 1)
    return out


NEAR = (2, -2)  # 2 - 2a = 2*phi: 600-cell neighbours at radius 2


def test_120cell_from_ray_cliques(h4, cell120_rays):
    """The 600-cell's rays at +-(2 - 2a) have 300 4-cliques, one per
    antipodal pair of cells; signing each ray 36 degrees from the first
    makes all six products 2 - 2a.  The old derivation, the 600 4-cliques
    of the 120 signed vertices, gives the same 300 centers."""
    cells = enumerate_bases(geometry._graph(h4.vectors, NEAR), 4)
    assert len(cells) == 300
    for r, *others in cells:
        u = h4.vectors[r]
        cell = [u] + [v if golden.dot(u, v) == NEAR else vec_neg(v)
                      for v in (h4.vectors[x] for x in others)]
        assert all(golden.dot(a, b) == NEAR
                   for a, b in itertools.combinations(cell, 2))
    verts = [v for u in h4.vectors for v in (u, vec_neg(u))]
    adj = [0] * len(verts)
    for i, j in itertools.combinations(range(len(verts)), 2):
        if golden.dot(verts[i], verts[j]) == NEAR:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    old = _plain_cliques(adj, 4)
    assert len(old) == 600
    centers = {canonical_sign(tuple(
        (sum(verts[x][t][0] for x in c), sum(verts[x][t][1] for x in c))
        for t in range(4))) for c in old}
    assert centers == set(cell120_rays.vectors)


def test_120cell_structure(cell120_rays):
    g = orthogonality_graph(cell120_rays)
    assert g.n_edges == 4050
    bases = enumerate_bases(g, 4)
    assert len(bases) == 675
    occ = {}
    for b in bases:
        for r in b:
            occ[r] = occ.get(r, 0) + 1
    assert set(occ.values()) == {9}
    assert saturated(g, bases)


# --------------------------------------------------------------------------
# clique enumeration on plain graphs


def test_cliques_edgeless_graph():
    g = OrthoGraph(15, (0,) * 15)
    assert enumerate_bases(g, 4) == []


def test_cliques_of_size_zero_are_refused():
    """With d = 0 the walk would visit every clique and emit none."""
    with pytest.raises(ValueError, match="clique size"):
        enumerate_bases(OrthoGraph(15, (0,) * 15), 0)


def test_single_ray_graph(h4):
    """One ray is no union of w's orbits, so it has no RaySet and so no
    orthogonality graph."""
    with pytest.raises(ValueError, match="orbits of fifteen"):
        RaySet(h4.vectors[:1])


def test_cliques_complete_graph():
    n = 15
    adj = tuple(((1 << n) - 1) ^ (1 << i) for i in range(n))
    g = OrthoGraph(n, adj)
    assert len(enumerate_bases(g, 4)) == math.comb(15, 4)


# --------------------------------------------------------------------------
# the exact Coxeter element, and transport along its orbits


@pytest.fixture(scope="module")
def three(h4, e8, cell120_rays):
    return {"600cell": h4, "120cell": cell120_rays, "gosset": e8}


@functools.cache
def _all_pairs_adjacency(vectors, value=ZERO):
    """The reference: every pair of rays tested with one exact product,
    joined when it is +-value."""
    adj = [0] * len(vectors)
    for i, j in itertools.combinations(range(len(vectors)), 2):
        if golden.dot(vectors[i], vectors[j]) in (value, mul((-1, 0), value)):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return tuple(adj)


def _w_of_floats(v, roots):
    """w applied in floating point: the simple reflections in order,
    s(x) = x - (x.r / 2) r for roots r of squared norm 4."""
    x = vec_values(v)
    for r in map(vec_values, roots):
        k = sum(a * b for a, b in zip(x, r)) / 2
        x = [a - k * b for a, b in zip(x, r)]
    return x


def test_coxeter_permutation_orbits_are_pentadecagons(three):
    """w permutes the rays as the block shift σ: the simple reflections
    carry ray i onto +-ray σ(i), σ has order 15 with every orbit of 15
    rays, and it turns the projection by one step, keeping every radius."""
    for name, rs in three.items():
        roots = geometry._SIMPLE_ROOTS[rs.dimension]
        for i, v in enumerate(rs.vectors):
            image = _w_of_floats(v, roots)
            target = vec_values(rs.vectors[shift_position(i, 1)])
            assert min(max(abs(a - s * b) for a, b in zip(image, target))
                       for s in (1, -1)) < 1e-9, (name, i)
        perm = [shift_position(i, 1) for i in range(len(rs))]
        power = list(range(len(rs)))
        for _ in range(15):
            power = [perm[x] for x in power]
        assert power == list(range(len(rs))), name
        assert rotates_by_one_step(coxeter_projection(rs)), name


def test_rays_numbered_round_w(three):
    """Every RaySet is numbered round w's orbits, as the tables number
    their pentadecagons: each orbit starts at its least ray, and the
    orbits are listed by their first rays."""
    for name, rs in three.items():
        firsts = [rs.vectors[i] for i in range(0, len(rs), 15)]
        assert firsts == sorted(firsts), name
        assert all(rs.vectors[i] > rs.vectors[i - i % 15]
                   for i in range(len(rs)) if i % 15), name


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_rayset_numbering_ignores_input_order(three, data):
    for rs in three.values():
        shuffled = data.draw(st.permutations(rs.vectors))
        assert RaySet(tuple(shuffled)) == rs


# simple-system Gram matrices at root norm 4, by dimension (H4, E8):
# off-diagonal entries are -4*cos(pi/m) for diagram edges with mark m,
# zero for non-edges.  -4*cos(pi/5) = -2*phi = -2 + 2a exactly.
_GRAM_EDGES = {
    4: {(0, 1): (-2, 2), (1, 2): (-2, 0), (2, 3): (-2, 0)},
    8: {(0, 2): (-2, 0), (2, 3): (-2, 0), (3, 4): (-2, 0), (4, 5): (-2, 0),
        (5, 6): (-2, 0), (6, 7): (-2, 0), (1, 3): (-2, 0)},
}


def test_simple_roots_realise_the_diagrams(h4, e8):
    for rs in (h4, e8):
        roots = geometry._SIMPLE_ROOTS[rs.dimension]
        edges = _GRAM_EDGES[rs.dimension]
        assert len(roots) == rs.dimension
        for i, j in itertools.combinations_with_replacement(
                range(len(roots)), 2):
            want = (4, 0) if i == j else edges.get((i, j), ZERO)
            assert golden.dot(roots[i], roots[j]) == want, (i, j)
        assert all(rs.contains_up_to_sign(r) for r in roots)


def test_rotation_check_rejects_a_moved_angle_or_the_identity(h4):
    """σ fails the check on a projection with one angle moved, on one
    where σ acts as the identity (each block's rows equal to its first),
    and on the rays listed sorted, where σ is not w."""
    proj = coxeter_projection(h4)
    assert rotates_by_one_step(proj)
    r, a = proj[7]
    moved = proj[:7] + [(r, a + 0.01)] + proj[8:]
    assert not rotates_by_one_step(moved)
    fixed = [proj[i - i % 15] for i in range(len(proj))]
    assert len(pentadecagon_classes(fixed)) == 4
    assert not rotates_by_one_step(fixed)
    order = sorted(range(len(h4)), key=h4.vectors.__getitem__)
    assert not rotates_by_one_step([proj[i] for i in order])


def test_coxeter_permutation_identity_off_invariant_sets(h4):
    """Sets w does not map onto itself get no permutation, not the
    identity: the one-ray set and the four unit vectors (whose
    reflections leave the golden ring) are refused, and so is a
    reflection that would leave the ring."""
    halves = (gvec(0, 0, 0, 1), gvec(0, 0, 1, 0), gvec(0, 1, 0, 0),
              gvec(1, 0, 0, 0))
    for vectors, match in ((h4.vectors[:1], "orbits of fifteen"),
                           (halves, "golden ring")):
        with pytest.raises(ValueError, match=match):
            RaySet(vectors)
    with pytest.raises(ValueError, match="golden ring"):
        geometry._reflect(gvec(1, 0, 0, 0), gvec(1, 1, 1, 1))


def test_rayset_needs_w_orbits_of_fifteen(h4, monkeypatch):
    """A RaySet refuses what w cannot number in orbits of fifteen: a
    repeated ray, no rays, a dimension with no simple system, and, under
    a simple system whose w is -1, the 600-cell itself."""
    for vectors, match in ((h4.vectors + h4.vectors[:1], "repeated"),
                           ((), "at least one ray"),
                           ((gvec(2, 0, 0),), "dimension 3")):
        with pytest.raises(ValueError, match=match):
            RaySet(vectors)
    minus_one = [gvec(*(2 * (i == j) for j in range(4))) for i in range(4)]
    monkeypatch.setitem(geometry._SIMPLE_ROOTS, 4, minus_one)
    with pytest.raises(ValueError, match="orbits of fifteen"):
        RaySet(h4.vectors)


def test_transported_graph_matches_all_pairs(three, h4):
    for rs in (*three.values(), scale_by_alpha(h4)):
        g = orthogonality_graph(rs)
        assert g.adjacency == _all_pairs_adjacency(rs.vectors), len(rs)


def test_graphs_are_sigma_invariant(three, h4):
    """σ is the one symmetry the graph code assumes: on every graph it
    builds, tested over all pairs, adj(σx) = σ(adj x)."""
    graphs = [(rs.vectors, ZERO) for rs in three.values()]
    for vectors, value in graphs + [(h4.vectors, NEAR)]:
        adj = _all_pairs_adjacency(vectors, value)
        sigma = [shift_position(i, 1) for i in range(len(adj))]
        assert all(adj[sigma[x]] == geometry._permute(adj[x], sigma)
                   for x in range(len(adj))), (len(vectors), value)
        assert geometry._graph(vectors, value).adjacency == adj


def test_transported_cliques_match_identity(three):
    for name, rs in three.items():
        g = orthogonality_graph(rs)
        assert (enumerate_bases(g, rs.dimension)
                == _plain_cliques(g.adjacency, rs.dimension)), name


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_graph_of_any_union_of_blocks_matches_all_pairs(three, data):
    """Any union of blocks of fifteen, kept in id order, is numbered round
    w as its ray set is, so σ is w on its positions; at any inner product
    that occurs among its rays, the transported graph is the all-pairs
    one."""
    rs = data.draw(st.sampled_from(list(three.values())))
    blocks = data.draw(st.sets(st.integers(0, len(rs) // 15 - 1),
                               min_size=1))
    vectors = tuple(v for b in sorted(blocks)
                    for v in rs.vectors[15 * b:15 * b + 15])
    i, j = (data.draw(st.integers(0, len(vectors) - 1)) for _ in range(2))
    value = golden.dot(vectors[i], vectors[j])
    assert (geometry._graph(vectors, value).adjacency
            == _all_pairs_adjacency.__wrapped__(vectors, value))


def _dot_products(monkeypatch, build):
    """The result of build() and the exact products it took."""
    calls = 0
    dot = golden.dot

    def counting(u, v):
        nonlocal calls
        calls += 1
        return dot(u, v)

    monkeypatch.setattr(golden, "dot", counting)
    return build(), calls


def test_120cell_graph_dot_products(cell120_rays, monkeypatch):
    """Transport takes 3,130 of the 44,850 all-pairs products: w is σ on
    the ids, so building the graph applies no reflection."""
    g, calls = _dot_products(monkeypatch,
                             lambda: orthogonality_graph(cell120_rays))
    assert g.n_edges == 4050
    assert calls == 3_130


def test_e8_graph_dot_products(e8, monkeypatch):
    """E8's graph takes 532 of the 7,140 all-pairs products."""
    g, calls = _dot_products(monkeypatch, lambda: orthogonality_graph(e8))
    assert g.n_edges == 3780
    assert calls == 532


def test_120cell_rays_dot_products(monkeypatch):
    """The 120-cell's rays take 2,486 exact products: 240 to number the
    600-cell round w, 146 for its +-(2 - 2a) graph, 900 to sign the 300
    cells, and 1,200 to number the 120-cell."""
    rs, calls = _dot_products(monkeypatch, build_120cell_rays)
    assert len(rs) == 300
    assert calls == 2_486


@st.composite
def invariant_graphs(draw):
    """The union of the σ-orbits of random edges on one or two blocks of
    fifteen, so that σ preserves the graph, and a clique size: at most 5
    on 15 vertices, 3 on 30."""
    n = draw(st.sampled_from((15, 30)))
    adj = [0] * n
    for x, y in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=n // 2)):
        for k in range(15) if x != y else ():
            sx, sy = shift_position(x, k), shift_position(y, k)
            adj[sx] |= 1 << sy
            adj[sy] |= 1 << sx
    d = draw(st.integers(1, 5 if n == 15 else 3))
    return OrthoGraph(n, tuple(adj)), d


@settings(max_examples=200, deadline=None)
@given(invariant_graphs())
def test_transported_cliques_once_each(case):
    g, d = case
    got = enumerate_bases(g, d)
    assert got == sorted(set(got))
    assert got == [c for c in itertools.combinations(range(g.n), d)
                   if all(g.adjacency[x] >> y & 1
                          for x, y in itertools.combinations(c, 2))]


# --------------------------------------------------------------------------
# projection


def test_projection_600cell(h4, cell600):
    layout, *_ = cell600
    proj = coxeter_projection(h4)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 4
    radii = [r for r, _ in classes]
    assert abs(radii[0] - 1.0) < 1e-12
    expected = sorted((p.radius for p in layout.pentadecagons), reverse=True)
    for got, want in zip(radii, expected):
        assert abs(got - want) < 5e-4
    for _r, members in classes:
        assert len(members) == 15
    assert rotates_by_one_step(proj)


def test_projection_gosset(e8, gosset):
    layout, *_ = gosset
    proj = coxeter_projection(e8)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 8
    radii = [r for r, _ in classes]
    table_radii = sorted((p.radius for p in layout.pentadecagons),
                         reverse=True)
    for idx, (got, want) in enumerate(zip(radii, table_radii)):
        if abs(want - 0.6723) < 1e-9:
            # the flagged entry: report the computed value instead of
            # asserting the printed one (it matches the 600-cell's C ring)
            assert abs(got - 0.67282) < 5e-4
            continue
        assert abs(got - want) < 5e-4
    for _r, members in classes:
        assert len(members) == 15
    assert rotates_by_one_step(proj)


def test_projection_120cell(cell120_rays, cell120):
    layout, *_ = cell120
    proj = coxeter_projection(cell120_rays)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 20
    got = sorted((round(r, 4) for r, _ in classes), reverse=True)
    want = sorted((p.radius for p in layout.pentadecagons), reverse=True)
    for g_, w_ in zip(got, want):
        assert abs(g_ - w_) < 5e-4
    for _r, members in classes:
        assert len(members) == 15
    assert rotates_by_one_step(proj)


def test_projection_normalised(h4):
    proj = coxeter_projection(h4)
    assert max(r for r, _ in proj) == 1.0


def test_projection_spacing_tolerance(h4):
    """Angle residues within each ring agree to far below a microdegree."""
    proj = coxeter_projection(h4)
    for _r, members in pentadecagon_classes(proj):
        residue = proj[members[0]][1] % 12.0
        for i in members:
            delta = abs(proj[i][1] % 12.0 - residue)
            assert min(delta, 12.0 - delta) < 1e-6


def test_coxeter_plane_requires_rotation_eigenvalue(h4, monkeypatch):
    """Four mutually orthogonal roots give w = -1: w^30 fixes 2e_0, but w
    has no eigenvalue at angle 2*pi/30 and the cos-weighted sum is 0.  An
    A3 chain has Coxeter number 4, so w^30 = w^2 moves 2e_0 and only the
    exact guard on w's powers catches it."""
    minus_one = [gvec(*(2 * (i == j) for j in range(4))) for i in range(4)]
    a3 = [gvec(2, 0, 0, 0), gvec(-1, 1, 1, 1), gvec(0, -2, 0, 0)]
    for roots in (minus_one, a3):
        monkeypatch.setitem(geometry._SIMPLE_ROOTS, 4, roots)
        with pytest.raises(RuntimeError, match="no eigenvalue"):
            coxeter_projection(h4)


# --------------------------------------------------------------------------
# matching the numbered tables


def test_match_600cell(h4, cell600):
    *_a, table, _pm, _spec = cell600
    computed = enumerate_bases(orthogonality_graph(h4), 4)
    mapping = match_labeling(computed, table)
    assert sorted(mapping) == list(range(60))
    assert sorted(mapping.values()) == list(range(1, 61))


def test_match_gosset(e8, gosset):
    *_a, table, _pm, _spec = gosset
    computed = enumerate_bases(orthogonality_graph(e8), 8)
    mapping = match_labeling(computed, table)
    assert len(mapping) == 120


def test_match_120cell(cell120_rays, cell120):
    *_a, table, _pm, _spec = cell120
    computed = enumerate_bases(orthogonality_graph(cell120_rays), 4)
    mapping = match_labeling(computed, table)
    assert len(mapping) == 300


def test_match_self_identity(cell600):
    *_a, table, _pm, _spec = cell600
    mapping = match_labeling(list(table.bases), table)
    assert mapping == {r: r for r in range(1, 61)}


def test_match_count_mismatch(h4, gosset):
    *_a, table, _pm, _spec = gosset
    computed = enumerate_bases(orthogonality_graph(h4), 4)
    with pytest.raises(MatchError):
        match_labeling(computed, table)


def test_match_is_equivariant(three, polytopes):
    """On all three polytopes the match found turns w into the wraparound
    itself, phi(w x) = σ(phi x), and every computed basis lands on a table
    basis.  j = 1 is only the first unit the search tries: every unit j
    mod 15 admits such a map, so this does not say which power of w the
    wraparound is (ROADMAP item 1)."""
    for name, rs in three.items():
        table = polytopes[name][2]
        computed = enumerate_bases(orthogonality_graph(rs), rs.dimension)
        mapping = match_labeling(computed, table)
        assert all(mapping[shift_position(x, 1)] - 1
                   == shift_position(mapping[x] - 1, 1) for x in mapping), name
        targets = set(table.bases)
        assert all(tuple(sorted(mapping[r] for r in b)) in targets
                   for b in computed), name


def test_match_finds_a_power_of_the_wraparound():
    """In one block of fifteen, no translation carries the translates of
    {0, 1, 3} onto those of {0, 2, 6}; doubling does, and it turns σ into
    σ^2."""
    computed = [tuple(sorted((s + r) % 15 for r in (0, 1, 3)))
                for s in range(15)]
    reference = [tuple(sorted(1 + (s + r) % 15 for r in (0, 2, 6)))
                 for s in range(15)]
    mapping = match_labeling(computed, SimpleNamespace(bases=reference))
    assert all(mapping[shift_position(x, 1)] - 1
               == shift_position(mapping[x] - 1, 2) for x in mapping)


def test_match_finds_the_mirror():
    """The translates of {0, 1, 3} and of its mirror {0, 2, 3} have the same
    co-occurrence graph, so every translation passes the graph checks, but
    none carries bases to bases; x -> -x does, and it turns σ into σ^14."""
    computed = [tuple(sorted((s + r) % 15 for r in (0, 1, 3)))
                for s in range(15)]
    reference = [tuple(sorted(1 + (s + r) % 15 for r in (0, 2, 3)))
                 for s in range(15)]
    mapping = match_labeling(computed, SimpleNamespace(bases=reference))
    assert all(mapping[shift_position(x, 1)] - 1
               == shift_position(mapping[x] - 1, 14) for x in mapping)
    assert ({tuple(sorted(mapping[r] for r in b)) for b in computed}
            == set(reference))


def test_match_places_the_first_block_at_any_offset():
    """σ maps neither side's bases onto bases, so the first block cannot go
    at offset 0: position x of the computed rays goes to position x + 1
    of the table's."""
    computed = [tuple(range(0, 5)), tuple(range(5, 15))]
    reference = [tuple(range(2, 7)), (1, *range(7, 16))]
    mapping = match_labeling(computed, SimpleNamespace(bases=reference))
    assert mapping == {x: 1 + (x + 1) % 15 for x in range(15)}


UNITS = [k for k in range(1, 15) if math.gcd(k, 15) == 1]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_match_finds_an_equivariant_relabelling(data):
    """σ-orbit bases on one or two blocks, relabelled by an equivariant
    bijection (a block permutation, an offset per block and a unit j),
    match the relabelled table, each basis onto a table basis."""
    blocks = data.draw(st.integers(1, 2))
    seeds = data.draw(st.lists(st.sets(st.integers(0, 15 * blocks - 1),
                                       min_size=2, max_size=4),
                               min_size=1, max_size=3))
    perm = data.draw(st.permutations(range(blocks)))
    offsets = data.draw(st.lists(st.integers(0, 14), min_size=blocks,
                                 max_size=blocks))
    j = data.draw(st.sampled_from(UNITS))

    def relabel(x):
        b, t = divmod(x, 15)
        return 1 + 15 * perm[b] + (offsets[b] + j * t) % 15

    computed = sorted({tuple(sorted(shift_position(x, s) for x in seed))
                       for seed in seeds for s in range(15)})
    reference = [tuple(sorted(map(relabel, b))) for b in computed]
    mapping = match_labeling(computed, SimpleNamespace(bases=reference))
    assert ({tuple(sorted(mapping[r] for r in b)) for b in computed}
            == set(reference))


def test_match_of_nothing():
    """No bases on either side: the empty map matches them."""
    assert match_labeling([], SimpleNamespace(bases=[])) == {}


def test_match_ray_count_not_a_multiple_of_15():
    """Bases on 16 rays fall in no blocks of fifteen: no match, and no
    error but MatchError."""
    computed = [tuple(range(s, s + 4)) for s in range(0, 16, 4)]
    reference = [tuple(range(s, s + 4)) for s in range(1, 17, 4)]
    with pytest.raises(MatchError):
        match_labeling(computed, SimpleNamespace(bases=reference))


def test_match_rejects_rays_not_numbered_round_w(h4, cell600):
    """The 600-cell's bases relabelled by the sorted order of the vectors
    are the same hypergraph, but σ on the new ids is not w, so no
    equivariant bijection exists."""
    *_a, table, _pm, _spec = cell600
    order = sorted(range(len(h4)), key=h4.vectors.__getitem__)
    rank = {x: i for i, x in enumerate(order)}
    computed = sorted(tuple(sorted(rank[r] for r in b))
                      for b in enumerate_bases(orthogonality_graph(h4), 4))
    with pytest.raises(MatchError):
        match_labeling(computed, table)


def test_match_needs_no_recursion(cell120_rays, cell120):
    """The 120-cell match places 20 blocks, a search 20 levels deep.  It
    runs under a recursion limit of 50 frames above the caller's."""
    *_a, table, _pm, _spec = cell120
    computed = enumerate_bases(orthogonality_graph(cell120_rays), 4)
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        mapping = match_labeling(computed, table)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(mapping.values()) == list(range(1, 301))


def test_match_rejects_wrong_structure(cell600):
    *_a, table, _pm, _spec = cell600
    # islands of disjoint bases cannot match the connected table
    fake = [tuple(range(4 * i + 1, 4 * i + 5)) for i in range(75)]
    with pytest.raises(MatchError):
        match_labeling(fake, table)


# --------------------------------------------------------------------------
# rigidity demonstration


def test_rigidity_demo_passes():
    claims = rigidity_demo()
    assert all(c.passed for c in claims)
    names = [c.name for c in claims]
    assert "v1 not orthogonal to v6" in names
    assert "v2 not orthogonal to v5" in names

