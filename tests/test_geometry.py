"""Golden-ring arithmetic, the exact constructions, projections, matching."""

import hashlib
import itertools
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kspoly import geometry, golden
from kspoly.geometry import (MatchError, OrthoGraph, RaySet,
                             build_120cell_rays, coxeter_projection,
                             e8_rays, enumerate_bases,
                             grid_slots, icosian_600cell, match_labeling,
                             orthogonality_graph, pentadecagon_classes,
                             projection_to_csv, rayset_to_json,
                             rigidity_demo, saturated, scale_by_alpha)
from kspoly.golden import (ALPHA, BETA, ZERO, canonical_sign, gvec, mul,
                           phi_map, sign, value, vec_neg, vec_scale)


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
    assert {g.degree(i) for i in range(60)} == {15}


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
            prods.add(e8.dot(i, j))
    assert prods == {(-2, 0), (0, 0), (2, 0), (4, 0)}


def test_e8_graph_regular(e8):
    g = orthogonality_graph(e8)
    assert {g.degree(i) for i in range(len(e8))} == {63}
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
            if h4.is_orthogonal(i, j):
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


# sha256 of repr(vectors) for the 300 rays once read from the transcribed
# coordinate file, which the cell-center derivation reproduced exactly
RAYS_120CELL_SHA256 = (
    "7cececc182f356208862a243f802d3d6a4f533b2f30ee0ae972a8581537d6509")


def test_120cell_rays_pinned(cell120_rays):
    digest = hashlib.sha256(repr(cell120_rays.vectors).encode()).hexdigest()
    assert digest == RAYS_120CELL_SHA256


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
    g = OrthoGraph(5, (0,) * 5)
    assert enumerate_bases(g, 4) == []


def test_single_ray_graph(h4):
    one = RaySet("600cell", h4.vectors[:1])
    assert orthogonality_graph(one).n_edges == 0


def test_cliques_complete_graph():
    n = 6
    adj = tuple(((1 << n) - 1) ^ (1 << i) for i in range(n))
    g = OrthoGraph(n, adj)
    assert len(enumerate_bases(g, 4)) == math.comb(6, 4)


# --------------------------------------------------------------------------
# projection


def test_projection_600cell(h4, cell600):
    layout, *_ = cell600
    proj = coxeter_projection(h4)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 4
    radii = [r for r, _, _ in classes]
    assert abs(radii[0] - 1.0) < 1e-12
    expected = sorted((p.radius for p in layout.pentadecagons), reverse=True)
    for got, want in zip(radii, expected):
        assert abs(got - want) < 5e-4
    for _r, _a, members in classes:
        assert len(members) == 15
        assert len(set(grid_slots(proj, members))) == 15


def test_projection_gosset(e8, gosset):
    layout, *_ = gosset
    proj = coxeter_projection(e8)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 8
    radii = [r for r, _, _ in classes]
    table_radii = sorted((p.radius for p in layout.pentadecagons),
                         reverse=True)
    for idx, (got, want) in enumerate(zip(radii, table_radii)):
        if abs(want - 0.6723) < 1e-9:
            # the flagged entry: report the computed value instead of
            # asserting the printed one (it matches the 600-cell's C ring)
            assert abs(got - 0.67282) < 5e-4
            continue
        assert abs(got - want) < 5e-4
    for _r, _a, members in classes:
        assert len(members) == 15
        assert len(set(grid_slots(proj, members))) == 15


def test_projection_120cell(cell120_rays, cell120):
    layout, *_ = cell120
    proj = coxeter_projection(cell120_rays)
    classes = pentadecagon_classes(proj)
    assert len(classes) == 20
    got = sorted((round(r, 4) for r, _, _ in classes), reverse=True)
    want = sorted((p.radius for p in layout.pentadecagons), reverse=True)
    for g_, w_ in zip(got, want):
        assert abs(g_ - w_) < 5e-4
    for _r, _a, members in classes:
        assert len(members) == 15
        assert len(set(grid_slots(proj, members))) == 15


def test_projection_normalised(h4):
    proj = coxeter_projection(h4)
    assert max(r for r, _ in proj) == 1.0


def test_projection_spacing_tolerance(h4):
    """Angle residues within each ring agree to far below a microdegree."""
    proj = coxeter_projection(h4)
    for _r, residue, members in pentadecagon_classes(proj):
        for i in members:
            delta = abs(proj[i][1] % 12.0 - residue)
            assert min(delta, 12.0 - delta) < 1e-6


def test_projection_csv(h4):
    text = projection_to_csv(coxeter_projection(h4))
    lines = text.strip().split("\n")
    assert lines[0] == "ray,radius,angle_deg"
    assert len(lines) == 61
    # an angle that rounds to 360 degrees prints as 0
    assert projection_to_csv([(1.0, 360.0 - 1e-13)]).endswith(
        "1,1.000000,0.000000\n")


def test_coxeter_plane_requires_rotation_eigenvalue(h4, monkeypatch):
    """Four mutually orthogonal roots give w = -1, which has no eigenvalue
    at angle 2*pi/30."""
    monkeypatch.setattr(geometry, "_simple_system",
                        lambda rs: [gvec(*(2 * (i == j) for j in range(4)))
                                    for i in range(4)])
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


def test_match_rejects_wrong_structure(cell600):
    *_a, table, _pm, _spec = cell600
    # islands of disjoint bases cannot match the connected table
    fake = [tuple(range(4 * i + 1, 4 * i + 5)) for i in range(75)]
    with pytest.raises(MatchError):
        match_labeling(fake, table)


# --------------------------------------------------------------------------
# rigidity demonstration


def test_rigidity_demo_passes():
    report = rigidity_demo()
    assert report.all_passed
    names = [c.name for c in report.claims]
    assert "v1 not orthogonal to v6" in names
    assert "v2 not orthogonal to v5" in names


def test_rayset_json(h4, e8):
    doc = rayset_to_json(h4)
    assert doc["kind"] == "golden"
    assert len(doc["rays"]) == 60
    assert all(len(v) == 4 and len(v[0]) == 2 for v in doc["rays"])
    doc8 = rayset_to_json(e8)
    assert doc8["kind"] == "int"
    assert all(len(v) == 8 for v in doc8["rays"])
