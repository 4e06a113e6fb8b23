"""Independent geometric reconstruction of the three ray systems.

The 600-cell is built exactly over the golden ring from three orbit seeds
under the 192-element group of even coordinate permutations and arbitrary
sign changes; doubling it by the a-scaling and applying the coordinate map
(m + n*a) -> (m, n) yields the 240 roots of E8 (Gosset's polytope).  The
120-cell is derived as the 600-cell's cell centers, with no coordinate
file.  Bases are recovered with no reference to the numbered tables, as
d-cliques of the exact orthogonality graph, so the combinatorial tables can
be validated by hypergraph isomorphism.  Only the triacontagonal
(Coxeter-plane) projection uses floating point; every orthogonality
decision is exact.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import golden
from .gf2 import _support
from .golden import (ALPHA, BETA, ZERO, Golden, GoldenVector, canonical_sign,
                     gvec, phi_map, vec_neg, vec_scale, vec_values)
from .raysystem import Basis, BasisTable, ray_index

FloatVector = tuple[float, ...]


@dataclass(frozen=True)
class RaySet:
    """One representative golden vector per antipodal pair of polytope
    vertices, sign-canonical (first nonzero coordinate positive)."""

    polytope: str
    vectors: tuple[GoldenVector, ...]

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])

    def dot(self, i: int, j: int) -> Golden:
        return golden.dot(self.vectors[i], self.vectors[j])

    def is_orthogonal(self, i: int, j: int) -> bool:
        return self.dot(i, j) == ZERO

    def contains_up_to_sign(self, v: GoldenVector) -> bool:
        return canonical_sign(v) in self.vectors


# --------------------------------------------------------------------------
# icosian 600-cell and the E8 image


def signed_permutation_group() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 192 even-permutation/sign-change operations on 4 coordinates."""
    ops = []
    for perm in itertools.permutations(range(4)):
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if perm[i] > perm[j])
        if inversions % 2:
            continue
        for signs in itertools.product((1, -1), repeat=4):
            ops.append((perm, signs))
    assert len(ops) == 192
    return ops


_H4_SEEDS = (
    gvec(2, 0, 0, 0),
    gvec(1, 1, 1, 1),
    gvec(0, ALPHA, 1, BETA),
)
_H4_ORBIT_SIZES = (8, 16, 96)


def icosian_600cell() -> RaySet:
    """The 60 rays of the 600-cell, exactly, on a sphere of radius 2."""
    ops = signed_permutation_group()
    vectors: set[GoldenVector] = set()
    for seed, expect in zip(_H4_SEEDS, _H4_ORBIT_SIZES):
        orbit = {tuple((s * seed[p][0], s * seed[p][1])
                       for p, s in zip(perm, signs)) for perm, signs in ops}
        if len(orbit) != expect:
            raise RuntimeError(f"orbit of {seed} has {len(orbit)} vectors, "
                               f"expected {expect}")
        vectors |= orbit
    if len(vectors) != 120:
        raise RuntimeError(f"expected 120 vertices, got {len(vectors)}")
    rays = sorted({canonical_sign(v) for v in vectors})
    if len(rays) != 60:
        raise RuntimeError("antipodal merge did not yield 60 rays")
    return RaySet("600cell", tuple(rays))


def scale_by_alpha(rs: RaySet) -> RaySet:
    """Coordinatewise multiplication by a (the second, scaled 600-cell)."""
    rays = tuple(canonical_sign(vec_scale(ALPHA, v)) for v in rs.vectors)
    return RaySet(rs.polytope, rays)


def e8_rays() -> RaySet:
    """The 120 rays (240 roots) of E8 as the coordinate-map image of the
    two concentric 600-cells, as golden vectors with integer entries."""
    h4a = icosian_600cell()
    h4b = scale_by_alpha(h4a)
    images = {canonical_sign(gvec(*phi_map(v)))
              for v in h4a.vectors + h4b.vectors}
    if len(images) != 120:
        raise RuntimeError("coordinate map did not give 120 distinct rays")
    for w in images:
        if golden.dot(w, w) != (4, 0):
            raise RuntimeError(f"root {w} has squared norm != 4")
    return RaySet("gosset", tuple(sorted(images)))


# --------------------------------------------------------------------------
# the 120-cell


def build_120cell_rays() -> RaySet:
    """The 300 rays of the 120-cell, derived as cell centers of the 600-cell.

    The 600 tetrahedral cells are the 4-cliques of the nearest-neighbour
    graph (vertex inner product 2*phi = 2 - 2a at radius 2); each center is
    the exact golden sum of its four vertices, which leaves the rays in the
    icosian frame of the 600-cell.
    """
    h4 = icosian_600cell()
    verts = [v for u in h4.vectors for v in (u, vec_neg(u))]
    cells = enumerate_bases(_graph(verts, (2, -2)), 4)
    if len(cells) != 600:
        raise RuntimeError(f"expected 600 cells, found {len(cells)}")
    centers = {canonical_sign(tuple(
        (sum(verts[x][t][0] for x in cell), sum(verts[x][t][1] for x in cell))
        for t in range(4))) for cell in cells}
    if len(centers) != 300:
        raise RuntimeError("cell centers did not merge to 300 rays")
    return RaySet("120cell", tuple(sorted(centers)))


# --------------------------------------------------------------------------
# orthogonality graphs and clique bases


@dataclass(frozen=True)
class OrthoGraph:
    n: int
    adjacency: tuple[int, ...]  # vertex -> neighbor bitset

    @property
    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def edges(self) -> set[tuple[int, int]]:
        return {(i, j) for i, bits in enumerate(self.adjacency)
                for j in _support(bits >> (i + 1) << (i + 1))}

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()


def _graph(vectors: Sequence[GoldenVector], value: Golden) -> OrthoGraph:
    """The graph joining two vectors when their inner product is `value`."""
    adj = [0] * len(vectors)
    for i, u in enumerate(vectors):
        for j in range(i + 1, len(vectors)):
            if golden.dot(u, vectors[j]) == value:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return OrthoGraph(len(vectors), tuple(adj))


def orthogonality_graph(rs: RaySet) -> OrthoGraph:
    return _graph(rs.vectors, ZERO)


def graph_from_bases(bases: Iterable[Basis]
                     ) -> tuple[tuple[int, ...], OrthoGraph]:
    """Co-occurrence graph of a basis list, and the ray id of each vertex
    (the rays that occur, sorted)."""
    rays, cols = ray_index(bases)
    adj = [0] * len(rays)
    for b in cols:
        for x, y in itertools.combinations(b, 2):
            adj[x] |= 1 << y
            adj[y] |= 1 << x
    return rays, OrthoGraph(len(rays), tuple(adj))


def enumerate_bases(g: OrthoGraph, d: int) -> list[tuple[int, ...]]:
    """All d-cliques of the graph, sorted, each exactly once."""
    if d < 1:
        raise ValueError("clique size must be positive")
    out: list[tuple[int, ...]] = []
    adj = g.adjacency

    def extend(clique: list[int], cand: int) -> None:
        if len(clique) == d:
            out.append(tuple(clique))
            return
        # prune: not enough candidates left to finish the clique
        while cand and len(clique) + cand.bit_count() >= d:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            clique.append(v)
            extend(clique, cand & adj[v])
            clique.pop()

    above = [(1 << g.n) - 1 & ~((1 << (v + 1)) - 1) for v in range(g.n)]
    for v in range(g.n):
        extend([v], adj[v] & above[v])
    out.sort()
    return out


def saturated(g: OrthoGraph, bases: Iterable[tuple[int, ...]]) -> bool:
    """Whether every edge of the graph occurs inside some basis."""
    covered = set()
    for b in bases:
        for x, y in itertools.combinations(sorted(b), 2):
            covered.add((x, y))
    return covered == g.edges()


# --------------------------------------------------------------------------
# triacontagonal (Coxeter-plane) projection


# simple-system Gram matrices at root norm 4, by dimension (H4, E8):
# off-diagonal entries are -4*cos(pi/m) for diagram edges with mark m,
# zero for non-edges.  -4*cos(pi/5) = -2*phi = -2 + 2a exactly.
_GRAM_EDGES = {
    4: {(0, 1): (-2, 2), (1, 2): (-2, 0), (2, 3): (-2, 0)},
    8: {(0, 2): (-2, 0), (2, 3): (-2, 0), (3, 4): (-2, 0), (4, 5): (-2, 0),
        (5, 6): (-2, 0), (6, 7): (-2, 0), (1, 3): (-2, 0)},
}
COXETER_NUMBER = 30


def _simple_system(rs: RaySet) -> list[GoldenVector]:
    """Roots realising the polytope's Coxeter diagram, by backtracking.

    Works on the full signed root list with exact inner products; any
    realisation serves, since all Coxeter elements are conjugate.
    """
    rank = rs.dimension
    edges = _GRAM_EDGES[rank]
    roots = [v for u in rs.vectors for v in (u, vec_neg(u))]

    chosen: list[GoldenVector] = []

    def extend() -> bool:
        i = len(chosen)
        if i == rank:
            return True
        for cand in roots:
            if all(golden.dot(cand, chosen[j]) == edges.get((j, i), ZERO)
                   for j in range(i)):
                chosen.append(cand)
                if extend():
                    return True
                chosen.pop()
        return False

    for first in roots:
        if golden.dot(first, first) != (4, 0):
            raise RuntimeError("root of unexpected norm in the ray set")
    if not extend():
        raise RuntimeError("no simple system realises the Coxeter diagram")
    return chosen


def _fdot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def _coxeter_plane(rs: RaySet) -> tuple[FloatVector, FloatVector]:
    """Orthonormal basis of the rotation eigenplane with angle 2*pi/30.

    w is the product of the simple reflections (a Coxeter element).  Its
    eigenvalues e^(+-i theta), theta = 2*pi/h, span one real plane, onto
    which P = (2/h) sum_k cos(k theta) w^k projects (the isotypic
    projector, Serre section 2.6).  The column p of P with the largest norm
    gives the eigenvector u = p - i*(w p - cos(theta) p)/sin(theta), whose
    phase is fixed so that its first largest component is real and negative.
    """
    simple = [vec_values(r) for r in _simple_system(rs)]
    h, dim = COXETER_NUMBER, len(simple[0])
    cos, sin = math.cos(2 * math.pi / h), math.sin(2 * math.pi / h)

    def w(v: list[float]) -> list[float]:
        for r in simple:
            c = 2.0 * _fdot(v, r) / _fdot(r, r)
            v = [a - c * b for a, b in zip(v, r)]
        return v

    def column(j: int) -> list[float]:
        v, col = [float(i == j) for i in range(dim)], [0.0] * dim
        for k in range(h):
            c = 2.0 / h * math.cos(2 * math.pi * k / h)
            col = [a + c * b for a, b in zip(col, v)]
            v = w(v)
        return col

    p = max(map(column, range(dim)), key=lambda col: _fdot(col, col))
    q = [(a - cos * b) / sin for a, b in zip(w(p), p)]  # u = p - i*q
    norm = math.sqrt(_fdot(p, p) + _fdot(q, q))
    # w u = e^(i theta) u holds iff w q = cos(theta) q - sin(theta) p
    if norm < 1e-8 or max(abs(a - cos * c + sin * b)
                          for a, b, c in zip(w(q), p, q)) > 1e-8 * norm:
        raise RuntimeError("no eigenvalue at rotation angle 2*pi/30; "
                           "degenerate spectrum")
    u = [complex(a, -b) / norm for a, b in zip(p, q)]
    sizes = [abs(c) ** 2 for c in u]
    k = next(i for i, s in enumerate(sizes) if s >= max(sizes) - 1e-9)
    u = [c * -u[k].conjugate() / abs(u[k]) for c in u]
    nx = math.sqrt(sum(c.real ** 2 for c in u))
    x = [c.real / nx for c in u]
    yx = _fdot([c.imag for c in u], x)
    y = [c.imag - yx * a for c, a in zip(u, x)]
    ny = math.sqrt(_fdot(y, y))
    if ny < 1e-12:
        raise RuntimeError("degenerate eigenplane")
    return tuple(x), tuple(a / ny for a in y)


def coxeter_projection(rs: RaySet) -> list[tuple[float, float]]:
    """(radius, angle_deg) of each ray representative in the projection
    plane invariant under the order-30 rotation; radii normalised so the
    largest is exactly 1.

    The 120-cell is not a root system, so its rays are projected onto the
    plane of the 600-cell (both share the same symmetry group).
    """
    x, y = _coxeter_plane(icosian_600cell() if rs.polytope == "120cell"
                          else rs)
    out = []
    for v in map(vec_values, rs.vectors):
        px, py = _fdot(v, x), _fdot(v, y)
        out.append((math.hypot(px, py),
                    math.degrees(math.atan2(py, px)) % 360.0))
    rmax = max(r for r, _ in out)
    return [(r / rmax, a) for r, a in out]


def radius_classes(projection: Sequence[tuple[float, float]],
                   tol: float = 1e-6) -> list[tuple[float, list[int]]]:
    """Group ray indices by projection radius (within tol), outermost first."""
    classes: list[tuple[float, list[int]]] = []
    for i, (r, _) in enumerate(projection):
        for rc, members in classes:
            if abs(rc - r) <= tol:
                members.append(i)
                break
        else:
            classes.append((r, [i]))
    return sorted(classes, key=lambda c: -c[0])


def pentadecagon_classes(projection: Sequence[tuple[float, float]],
                         tol: float = 1e-6
                         ) -> list[tuple[float, float, list[int]]]:
    """(radius, angle residue mod 12 deg, members) per projected 15-gon.

    Rays of one pentadecagon share a radius and an angle residue modulo 12
    degrees (the residue is representative-independent: antipodes differ by
    180 = 15 * 12 degrees).  Two pentadecagons may share a radius but then
    differ in residue, so grouping by both separates them.
    """
    out: list[tuple[float, float, list[int]]] = []
    for radius, members in radius_classes(projection, tol):
        groups: list[tuple[float, list[int]]] = []
        for i in members:
            res = projection[i][1] % 12.0
            for gres, g in groups:
                delta = abs(res - gres)
                if min(delta, 12.0 - delta) <= tol:
                    g.append(i)
                    break
            else:
                groups.append((res, [i]))
        for res, g in sorted(groups):
            out.append((radius, res, g))
    return out


def grid_slots(projection: Sequence[tuple[float, float]],
               members: Sequence[int]) -> list[int]:
    """Even 12-degree grid slots (0..28) occupied by the members' rays.

    A pentadecagon's rays sit 24 degrees apart, i.e. on the fifteen even
    slots of the 12-degree grid; an antipodal representative lands on an
    odd slot, 15 steps away, and is folded back.  Fifteen distinct even
    slots certify the equal 24-degree spacing.
    """
    base = projection[members[0]][1] % 12.0
    slots = []
    for i in members:
        step = round((projection[i][1] - base) / 12.0) % 30
        slots.append(step if step % 2 == 0 else (step + 15) % 30)
    return slots


# --------------------------------------------------------------------------
# hypergraph matching against the numbered tables


class MatchError(RuntimeError):
    """No ray bijection maps the computed bases onto the reference table."""


def _refine(adj_a: Sequence[int], adj_b: Sequence[int],
            colors_a: list[int], colors_b: list[int]) -> bool:
    """Joint Weisfeiler-Lehman color refinement; False when the color
    class sizes of the two graphs diverge (no isomorphism possible)."""
    while True:
        sig_ids: dict[tuple, int] = {}

        def signature(adj, colors, i):
            return (colors[i],
                    tuple(sorted(map(colors.__getitem__, _support(adj[i])))))

        new_a, new_b = [], []
        for i in range(len(colors_a)):
            s = signature(adj_a, colors_a, i)
            new_a.append(sig_ids.setdefault(s, len(sig_ids)))
        for i in range(len(colors_b)):
            s = signature(adj_b, colors_b, i)
            if s not in sig_ids:
                return False
            new_b.append(sig_ids[s])
        if Counter(new_a) != Counter(new_b):
            return False
        stable = new_a == colors_a and new_b == colors_b
        colors_a[:], colors_b[:] = new_a, new_b
        if stable:
            return True


def _iso_search(adj_a, adj_b, colors_a, colors_b, budget: list[int]):
    budget[0] -= 1
    if budget[0] < 0:
        raise MatchError("isomorphism search budget exceeded")
    ca, cb = list(colors_a), list(colors_b)
    if not _refine(adj_a, adj_b, ca, cb):
        return None
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(ca):
        classes.setdefault(c, []).append(i)
    multi = [(len(v), c) for c, v in classes.items() if len(v) > 1]
    if not multi:
        pos_b = {c: i for i, c in enumerate(cb)}
        mapping = [pos_b[c] for c in ca]
        for i in range(len(ca)):
            image = sum(1 << mapping[j] for j in _support(adj_a[i]))
            if image != adj_b[mapping[i]]:
                return None
        return mapping
    _, color = min(multi)
    v = classes[color][0]
    next_color = max(ca) + len(ca) + 1
    for u in range(len(cb)):
        if cb[u] != color:
            continue
        ca2, cb2 = list(ca), list(cb)
        ca2[v] = next_color
        cb2[u] = next_color
        found = _iso_search(adj_a, adj_b, ca2, cb2, budget)
        if found is not None:
            return found
    return None


def match_labeling(computed: Sequence[Basis], reference: BasisTable,
                   budget: int = 200_000) -> dict[int, int]:
    """A ray bijection carrying the computed basis hypergraph onto the
    reference table, found by color refinement plus individualization.

    Returns {computed ray id -> reference ray id}; raises MatchError when
    counts differ or no bijection exists within the search budget.
    """
    ref_bases = list(reference.bases)
    if len(computed) != len(ref_bases):
        raise MatchError(f"basis counts differ: {len(computed)} vs "
                         f"{len(ref_bases)}")
    ids_a, ga = graph_from_bases(computed)
    ids_b, gb = graph_from_bases(ref_bases)
    if ga.n != gb.n:
        raise MatchError(f"ray counts differ: {ga.n} vs {gb.n}")
    mapping = _iso_search(ga.adjacency, gb.adjacency,
                          [0] * ga.n, [0] * gb.n, [budget])
    if mapping is None:
        raise MatchError("no ray bijection maps the computed bases onto "
                         "the reference table")
    result = {ids_a[i]: ids_b[mapping[i]] for i in range(ga.n)}
    image = {frozenset(result[r] for r in b) for b in computed}
    if image != {frozenset(b) for b in ref_bases}:
        raise MatchError("graph bijection does not carry bases to bases")
    return result


# --------------------------------------------------------------------------
# the non-rigidity demonstration


@dataclass(frozen=True)
class RigidityClaim:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class RigidityReport:
    claims: tuple[RigidityClaim, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


def rigidity_demo() -> RigidityReport:
    """The six-vector witness that the 600-cell's orthogonality relations
    do not pin it down: the 8-d images of its rays satisfy every 4-d
    orthogonality, plus extra ones with no 4-d counterpart."""
    v = {
        1: gvec(2, 0, 0, 0),
        2: gvec(0, ALPHA, 1, BETA),
        3: gvec(0, 1, BETA, ALPHA),
        4: gvec(0, BETA, ALPHA, 1),
        5: gvec(0, ALPHA, 1, (-1, 1)),  # -BETA
        6: gvec(ALPHA, BETA, 1, 0),
    }
    expected_phi = {
        1: (2, 0, 0, 0, 0, 0, 0, 0),
        2: (0, 0, 1, 1, 0, 1, 0, -1),
        3: (0, 1, 1, 0, 0, 0, -1, 1),
        4: (0, 1, 0, 1, 0, -1, 1, 0),
        5: (0, 0, 1, -1, 0, 1, 0, 1),
        6: (0, 1, 1, 0, 1, -1, 0, 0),
    }
    phi = {i: phi_map(u) for i, u in v.items()}
    h4 = icosian_600cell()
    claims: list[RigidityClaim] = []

    def claim(name: str, ok: bool, detail: str = "") -> None:
        claims.append(RigidityClaim(name, bool(ok), detail))

    for i in sorted(v):
        claim(f"v{i} is a 600-cell ray", h4.contains_up_to_sign(v[i]))
        claim(f"phi(v{i}) matches its stated 8-d image",
              phi[i] == expected_phi[i], f"{phi[i]}")

    def g_orth(i, j):
        return golden.dot(v[i], v[j]) == ZERO

    def e_dot(i, j):
        return sum(a * b for a, b in zip(phi[i], phi[j]))

    for i, j in itertools.combinations((1, 2, 3, 4), 2):
        claim(f"v{i} orthogonal to v{j}", g_orth(i, j))
        claim(f"phi(v{i}) orthogonal to phi(v{j})", e_dot(i, j) == 0)
    for i, j in itertools.combinations((1, 2, 5, 6), 2):
        claim(f"phi(v{i}) orthogonal to phi(v{j})", e_dot(i, j) == 0)
    claim("v1 not orthogonal to v6", not g_orth(1, 6),
          golden.to_text(golden.dot(v[1], v[6])))
    claim("v2 not orthogonal to v5", not g_orth(2, 5),
          golden.to_text(golden.dot(v[2], v[5])))
    return RigidityReport(tuple(claims))


# --------------------------------------------------------------------------
# exports


def rayset_to_json(rs: RaySet) -> dict:
    """Golden rays as [m, n] pairs; rays with integer entries only (E8)
    as plain integer vectors, kind "int"."""
    if all(n == 0 for v in rs.vectors for _, n in v):
        return {"polytope": rs.polytope, "kind": "int",
                "rays": [[m for m, _ in v] for v in rs.vectors]}
    return {"polytope": rs.polytope, "kind": "golden",
            "rays": [[list(c) for c in v] for v in rs.vectors]}


def projection_to_csv(projection: Sequence[tuple[float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ray", "radius", "angle_deg"])
    for i, (r, a) in enumerate(projection):
        # an angle just below 360 prints as 0: rounding noise must not
        # decide between the two ends of the range
        writer.writerow([i + 1, f"{r:.6f}", f"{round(a, 6) % 360.0:.6f}"])
    return buf.getvalue()
