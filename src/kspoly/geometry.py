"""Independent geometric reconstruction of the three ray systems.

The 600-cell is built exactly over the golden ring from three orbit seeds
under the 192-element group of even coordinate permutations and arbitrary
sign changes; doubling it by the a-scaling and applying the coordinate map
(m + n*a) -> (m, n) yields the 240 roots of E8 (Gosset's polytope).  The
120-cell is derived as the 600-cell's cell centers, with no coordinate
file.  Bases are recovered with no reference to the numbered tables, as
d-cliques of the exact orthogonality graph.

The Coxeter element w, the product of the simple reflections, runs once,
exactly, when a RaySet is built: its rays are numbered round w's orbits,
fifteen ids per orbit, the way the tables number their pentadecagons.  So
w is the tables' wraparound σ on the ids of every RaySet, and nothing
downstream computes it: the orthogonality graph is built from one ray per
block of fifteen, each row carried round its block by σ, the clique walk
starts only from one ray per block, and the pentadecagon classes are the
blocks.  A table is then validated by an equivariant match: a ray
bijection that carries bases to bases and turns w into σ.
The triacontagonal (Coxeter-plane) projection applies w only through the
same exact reflections: the plane is spanned by the cos/sin-weighted sums of
w's 30 exact powers of 2e_0.  The only floating point left is those two
sums and two dot products per ray, for the radii, the angles and the check
that σ turns the plane by one step; every orthogonality and class decision
is exact.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

from . import golden
from .gf2 import EnumerationLimitError, _support
from .golden import (ALPHA, BETA, ZERO, Golden, GoldenVector, canonical_sign,
                     gvec, phi_map, vec_neg, vec_scale, vec_values)
from .raysystem import ORBIT, Basis, BasisTable, ray_index, shift_position

FloatVector = tuple[float, ...]


# --------------------------------------------------------------------------
# the Coxeter element w, and ray sets numbered round it


# simple systems at root norm 4, by dimension, whose reflections in order
# multiply to w: the 600-cell's (H4) serves every 4-d set, since the
# 120-cell is no root system and the a-scaled 600-cell's roots are not of
# norm 4, and all three share the 600-cell's symmetry group; E8's is
# Gosset's own.  Any realisation of the Coxeter diagram would do, since all
# Coxeter elements are conjugate; these fix w, and with it the numbering
# of every RaySet, the plane's phase and every projected angle.  (0, -1)
# is -a and (-1, 1) is -b.
_SIMPLE_ROOTS = {
    4: (gvec((0, -1), -1, 0, (-1, 1)), gvec((0, -1), 1, 0, BETA),
        gvec((-1, 1), 0, 1, ALPHA), gvec(0, 0, -2, 0)),
    8: (gvec(0, 0, 0, 0, 0, 0, 0, 2), gvec(0, 0, 0, 0, 0, 0, 2, 0),
        gvec(0, 0, 1, -1, 0, -1, 0, -1), gvec(0, 0, -1, 1, 1, 0, -1, 0),
        gvec(0, 0, 0, 0, -2, 0, 0, 0), gvec(0, -1, 1, 0, 1, 1, 0, 0),
        gvec(0, 2, 0, 0, 0, 0, 0, 0), gvec(1, -1, -1, -1, 0, 0, 0, 0)),
}


def _reflect(v: GoldenVector, root: GoldenVector) -> GoldenVector:
    """The reflection of v in the hyperplane of a root of squared norm 4,
    computed as 2 s(v) = 2v - (v.root) root and halved exactly; ValueError
    when s(v) has an entry outside the golden ring."""
    cm, cn = golden.dot(v, root)
    out = []
    for (m, n), (p, q) in zip(v, root):
        # (v.root) * (p + q a) multiplied out with a^2 = a + 1, inline: the
        # 1,200 reflections of the 120-cell take twice as long through
        # golden.vec_scale
        tm = 2 * m - cm * p - cn * q
        tn = 2 * n - cm * q - cn * p - cn * q
        if tm % 2 or tn % 2:
            raise ValueError("reflection leaves the golden ring")
        out.append((tm // 2, tn // 2))
    return tuple(out)


class RaySet(namedtuple("RaySet", "polytope vectors")):
    """One representative golden vector per antipodal pair of polytope
    vertices, sign-canonical (first nonzero coordinate positive), numbered
    round the orbits of w.

    Building a RaySet numbers its rays as the tables number their
    pentadecagons: the rays sorted, each ray not yet numbered starts an
    orbit, which follows w (the simple reflections of `_SIMPLE_ROOTS` for
    the set's dimension, in order, then `canonical_sign`) for fifteen ids.
    So w is the block shift σ (`shift_position`) on every RaySet's ids, and
    the same rays in any order give the same set.  ValueError when the set
    is empty, repeats a ray, has a dimension with no simple system, or is
    not mapped onto itself by w in orbits of fifteen.
    """

    __slots__ = ()

    def __new__(cls, polytope: str,
                vectors: tuple[GoldenVector, ...]) -> RaySet:
        if not vectors:
            raise ValueError("a ray set needs at least one ray")
        dimension = len(vectors[0])
        simple = _SIMPLE_ROOTS.get(dimension)
        if simple is None:
            raise ValueError(f"no simple system in dimension {dimension}")
        left = set(vectors)
        if len(left) != len(vectors):
            raise ValueError("a ray is repeated")
        numbered: list[GoldenVector] = []
        for v in sorted(left):
            if v not in left:
                continue
            start = len(numbered)
            while v in left:
                left.remove(v)
                numbered.append(v)
                for root in simple:
                    v = _reflect(v, root)
                v = canonical_sign(v)
            if v != numbered[start] or len(numbered) - start != ORBIT:
                raise ValueError("w does not map the rays onto themselves "
                                 "in orbits of fifteen")
        return super().__new__(cls, polytope, tuple(numbered))

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])

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
    rays = {canonical_sign(v) for v in vectors}
    if len(rays) != 60:
        raise RuntimeError("antipodal merge did not yield 60 rays")
    return RaySet("600cell", tuple(rays))


def e8_rays() -> RaySet:
    """The 120 rays (240 roots) of E8 as the coordinate-map image of the
    two concentric 600-cells, as golden vectors with integer entries."""
    h4 = icosian_600cell().vectors
    images = {canonical_sign(gvec(*phi_map(v)))
              for v in h4 + tuple(vec_scale(ALPHA, u) for u in h4)}
    if len(images) != 120:
        raise RuntimeError("coordinate map did not give 120 distinct rays")
    for w in images:
        if golden.dot(w, w) != (4, 0):
            raise RuntimeError(f"root {w} has squared norm != 4")
    return RaySet("gosset", tuple(images))


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
    cells = enumerate_bases(
        _graph(verts, (2, -2), tuple(range(len(verts)))), 4)
    if len(cells) != 600:
        raise RuntimeError(f"expected 600 cells, found {len(cells)}")
    centers = {canonical_sign(tuple(
        (sum(verts[x][t][0] for x in cell), sum(verts[x][t][1] for x in cell))
        for t in range(4))) for cell in cells}
    if len(centers) != 300:
        raise RuntimeError("cell centers did not merge to 300 rays")
    return RaySet("120cell", tuple(centers))


# --------------------------------------------------------------------------
# orthogonality graphs and clique bases


class OrthoGraph(namedtuple("OrthoGraph", "n adjacency symmetry")):
    """A graph on vertices 0..n-1, its adjacency a tuple of neighbour
    bitsets, with a vertex permutation that maps edges to edges
    (`symmetry`, the identity when not given); clique enumeration relies
    on it."""

    __slots__ = ()

    def __new__(cls, n: int, adjacency: tuple[int, ...],
                symmetry: tuple[int, ...] | None = None) -> OrthoGraph:
        if symmetry is None:
            symmetry = tuple(range(n))
        if sorted(symmetry) != list(range(n)):
            raise ValueError("symmetry is not a permutation of the vertices")
        return super().__new__(cls, n, adjacency, symmetry)

    @property
    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


def _permute(mask: int, perm: Sequence[int]) -> int:
    """The image of a vertex bitset under a vertex permutation."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def orbits(perm: Sequence[int]) -> list[list[int]]:
    """The cycles of a permutation of 0..n-1 in order of their least
    element, each starting there and following perm."""
    seen = [False] * len(perm)
    out = []
    for r in range(len(perm)):
        if seen[r]:
            continue
        orbit, x = [r], perm[r]
        while x != r:
            orbit.append(x)
            x = perm[x]
        for x in orbit:
            seen[x] = True
        out.append(orbit)
    return out


def _graph(vectors: Sequence[GoldenVector], value: Golden,
           perm: Sequence[int]) -> OrthoGraph:
    """The graph joining two vectors when their inner product is `value`,
    given a vertex permutation that preserves that relation.

    Exact products are taken only from the least vertex r of each orbit,
    against the vertices whose rows are not yet known; the rows known
    already supply the rest of r's row.  The row then travels round the
    orbit: adj(perm x) = perm(adj x).  Under the identity every orbit is
    one vertex and each pair is tested once.
    """
    n = len(vectors)
    adj = [0] * n
    unknown = (1 << n) - 1  # the vertices whose rows are not yet known
    dot = golden.dot
    for orbit in orbits(perm):
        r = orbit[0]
        u, row, bit = vectors[r], adj[r], 1 << r
        unknown ^= bit
        for j in _support(unknown):
            if dot(u, vectors[j]) == value:
                row |= 1 << j
                adj[j] |= bit
        adj[r] = row
        for x in orbit[1:]:
            unknown ^= 1 << x
            adj[x] = row = _permute(row, perm)
            for y in _support(row & unknown):
                adj[y] |= 1 << x
    return OrthoGraph(n, tuple(adj), tuple(perm))


def orthogonality_graph(rs: RaySet) -> OrthoGraph:
    """The exact orthogonality graph, with w as its symmetry (σ on the
    ids, since every RaySet is numbered round w), built by transport
    along σ's blocks."""
    return _graph(rs.vectors, ZERO,
                  [shift_position(i, 1) for i in range(len(rs))])


def _basis_rows(n: int, bases: Iterable[Sequence[int]]) -> list[int]:
    """Per vertex, the vertices it shares a basis with (itself excluded)."""
    rows = [0] * n
    for b in bases:
        mask = 0
        for x in b:
            mask |= 1 << x
        for x in b:
            rows[x] |= mask
    return [row & ~(1 << x) for x, row in enumerate(rows)]


def graph_from_bases(bases: Iterable[Basis]
                     ) -> tuple[tuple[int, ...], OrthoGraph]:
    """Co-occurrence graph of a basis list, and the ray id of each vertex
    (the rays that occur, sorted)."""
    rays, cols = ray_index(bases)
    return rays, OrthoGraph(len(rays), tuple(_basis_rows(len(rays), cols)))


def enumerate_bases(g: OrthoGraph, d: int) -> list[tuple[int, ...]]:
    """All d-cliques of the graph, sorted, each exactly once.

    The orbits of g.symmetry are taken in order of their least vertex.  A
    clique whose first orbit is O holds some vertex of O, so a power of the
    symmetry carries it onto a clique through O's least vertex r whose
    other vertices lie in O or a later orbit.  Only those are walked, and
    each is carried round r's orbit.  Under the identity this is the plain
    walk from every vertex over the vertices above it.
    """
    if d < 1:
        raise ValueError("clique size must be positive")
    adj, perm = g.adjacency, g.symmetry
    out: list[tuple[int, ...]] = []

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

    rest = (1 << g.n) - 1  # the vertices of this orbit and the later ones
    for orbit in orbits(perm):
        # its least vertex r is the least of rest, so every clique walked
        # is sorted
        r = orbit[0]
        start = len(out)
        extend([r], adj[r] & rest)
        walked = out[start:]
        for _ in orbit[1:]:
            walked = [tuple(perm[v] for v in q) for q in walked]
            out.extend(tuple(sorted(q)) for q in walked)
        for x in orbit:
            rest ^= 1 << x
    # a clique is reached once per vertex it has in its first orbit
    out.sort()
    return [q for i, q in enumerate(out) if not i or q != out[i - 1]]


def saturated(g: OrthoGraph, bases: Iterable[tuple[int, ...]]) -> bool:
    """Whether the bases cover exactly the edges of the graph."""
    return _basis_rows(g.n, bases) == list(g.adjacency)


# --------------------------------------------------------------------------
# the triacontagonal (Coxeter-plane) projection


COXETER_NUMBER = 30
STEP_TOL = 1e-6  # radius, and degrees, of one step of w in the projection


def _fdot(u: Sequence[float], v: Sequence[float]) -> float:
    return sum(a * b for a, b in zip(u, v))


def _coxeter_plane(roots: Sequence[GoldenVector]
                   ) -> tuple[FloatVector, FloatVector]:
    """Orthonormal basis (x, y) of the plane that w turns by 2*pi/30.

    w is the product of the simple reflections (a Coxeter element) and
    v_k = w^k(2e_0), k < 30, are its exact powers of a golden vector.  The
    plane is spanned by the sums p = sum_k cos(k theta) v_k and q = sum_k
    sin(k theta) v_k, theta = 2*pi/30 (Humphreys, Reflection Groups and
    Coxeter Groups, 3.16-3.19).  When v_30 = v_0, p is 15 times the
    isotypic projection of v_0 (Serre section 2.6) and w p = cos(theta) p
    + sin(theta) q, so p - i*q is an eigenvector for e^(i theta) by
    construction; v_30 != v_0 or p = 0 raise RuntimeError.  The two sums
    are the plane's only floating point.  The phase is fixed so that the
    eigenvector x + i*y has its first largest component real and negative.
    """
    h = COXETER_NUMBER
    v0 = v = tuple((2 * (i == 0), 0) for i in range(len(roots[0])))
    p = q = [0.0] * len(v0)
    for k in range(h):
        c, s = math.cos(2 * math.pi * k / h), math.sin(2 * math.pi * k / h)
        values = vec_values(v)
        p = [a + c * b for a, b in zip(p, values)]
        q = [a + s * b for a, b in zip(q, values)]
        for root in roots:
            v = _reflect(v, root)
    norm = math.sqrt(_fdot(p, p))
    if v != v0 or norm < 1e-8:
        raise RuntimeError("no eigenvalue at rotation angle 2*pi/30; "
                           "degenerate spectrum")
    x0, y0 = [a / norm for a in p], [b / norm for b in q]
    sizes = [a * a + b * b for a, b in zip(x0, y0)]
    k = next(i for i, s in enumerate(sizes) if s >= max(sizes) - 1e-9)
    xk, yk = x0[k], y0[k]
    nk = math.hypot(xk, yk)
    return (tuple(-(xk * a + yk * b) / nk for a, b in zip(x0, y0)),
            tuple((xk * b - yk * a) / nk for a, b in zip(x0, y0)))


def coxeter_projection(rs: RaySet) -> list[tuple[float, float]]:
    """(radius, angle_deg) of each ray representative in the Coxeter
    plane, the plane spanned by the cos/sin-weighted sums of w's 30 exact
    powers of 2e_0 (`_coxeter_plane`); radii normalised so the largest is
    exactly 1.

    w is the one that numbers every RaySet, from the same simple system,
    so σ on the ids turns the plane by one step of 2*pi/30.  Each ray costs
    two float dot products, the only floating point besides the plane's
    two sums.
    """
    x, y = _coxeter_plane(_SIMPLE_ROOTS[rs.dimension])
    out = []
    for v in map(vec_values, rs.vectors):
        px, py = _fdot(v, x), _fdot(v, y)
        out.append((math.hypot(px, py),
                    math.degrees(math.atan2(py, px)) % 360.0))
    rmax = max(r for r, _ in out)
    return [(r / rmax, a) for r, a in out]


def pentadecagon_classes(projection: Sequence[tuple[float, float]]
                         ) -> list[tuple[float, list[int]]]:
    """(radius, members) per orbit of w in a RaySet's projection, outermost
    first: the orbits are the blocks of fifteen ids, whose order follows w.

    Membership is exact: a pentadecagon is an orbit of w.  The projection
    gives only the radius, of the block's first ray, and with it the order.
    """
    return sorted(((projection[s][0], list(range(s, s + ORBIT)))
                   for s in range(0, len(projection), ORBIT)),
                  key=lambda c: -c[0])


def rotates_by_one_step(projection: Sequence[tuple[float, float]]) -> bool:
    """Whether w, σ on a RaySet's ids, keeps every ray's projected radius
    and turns every angle by one fixed step of +-12 degrees (360/30), mod
    180 (a ray's two vectors project 180 degrees apart), all within
    STEP_TOL.

    Then each orbit of w holds fifteen rays 24 degrees apart as vectors:
    a regular pentadecagon.
    """
    images = [projection[shift_position(i, 1)]
              for i in range(len(projection))]
    steps = [(b - a) % 180.0 for (_, a), (_, b) in zip(projection, images)]
    step = steps[0]
    return (min(abs(step - 12.0), abs(step - 168.0)) <= STEP_TOL
            and all(abs(s - step) <= STEP_TOL for s in steps)
            and all(abs(r2 - r) <= STEP_TOL
                    for (r, _), (r2, _) in zip(projection, images)))


# --------------------------------------------------------------------------
# equivariant matching against the numbered tables


class MatchError(RuntimeError):
    """No ray bijection maps the computed bases onto the reference table."""


MATCH_BUDGET = 200_000  # the most nodes of one match's search


def _equivariant_search(adj_a: Sequence[int], adj_b: Sequence[int]
                        ) -> list[int] | None:
    """A vertex bijection phi carrying graph a onto graph b, as far as one
    vertex per block checks it, with phi(σx) = σ^j phi(x) for the first
    unit j mod 15 that admits one; None when no j does.

    The vertices fall in blocks of fifteen, and σ (`shift_position`) turns
    each block by one.  Equivariance fixes phi on a block once its first
    vertex is placed: a target block and an offset in it.  The first block
    placed takes offset 0, since σ maps a table's graph onto itself; then
    comes, each time, the block with the most edges to the blocks placed
    (the first such).  A placement checks only its block's first vertex against the
    vertices placed, its own block's included: σ carries that check round
    the block.  The search is an explicit stack of placements, so its
    depth is not bounded by the recursion limit; more than MATCH_BUDGET
    placements raise EnumerationLimitError.
    """
    n = len(adj_a)
    if not n:
        return []
    full = (1 << ORBIT) - 1
    order: list[int] = []  # block starts, in placement order
    placed, left = 0, list(range(0, n, ORBIT))
    while left:
        a0 = max(left, key=lambda s: sum((adj_a[x] & placed).bit_count()
                                         for x in range(s, s + ORBIT)))
        left.remove(a0)
        order.append(a0)
        placed |= full << a0
    targets = [(b0, o) for b0 in range(0, n, ORBIT) for o in range(ORBIT)]
    nodes = 0
    for j in (k for k in range(1, ORBIT) if math.gcd(k, ORBIT) == 1):
        phi = [0] * n  # read only at placed vertices
        # per level: its untried placements, and the vertices of a and of b
        # placed above it
        stack = [(iter(targets[::ORBIT]), 0, 0)]
        while stack:
            tries, pa, pb = stack[-1]
            a0 = order[len(stack) - 1]
            for b0, o in tries:
                if pb >> b0 & 1:
                    continue
                nodes += 1
                if nodes > MATCH_BUDGET:
                    raise EnumerationLimitError(
                        f"isomorphism search exceeded {MATCH_BUDGET} nodes")
                for t in range(ORBIT):
                    phi[a0 + t] = shift_position(b0 + o, j * t)
                pa2, pb2 = pa | full << a0, pb | full << b0
                if _permute(adj_a[a0] & pa2, phi) == adj_b[b0 + o] & pb2:
                    if len(stack) == len(order):
                        return phi
                    stack.append((iter(targets), pa2, pb2))
                    break
            else:
                stack.pop()
    return None


def match_labeling(computed: Sequence[Basis],
                   reference: BasisTable) -> dict[int, int]:
    """A ray bijection phi carrying the computed basis hypergraph onto the
    reference table and the block shift σ of the computed rays onto a
    power of the table's wraparound: phi(σx) = σ^j phi(x).

    Each side's rays (the ones that occur, sorted) are numbered in blocks
    of fifteen.  Every RaySet is numbered round the Coxeter element w, so
    σ is w on its ids, and j = 1 on all three polytopes says that the
    wraparound is w.  The search is `_equivariant_search` on the two
    basis co-occurrence graphs; bases must then map to bases.

    Returns {computed ray id -> reference ray id}; raises MatchError when
    counts differ or no such bijection exists, and EnumerationLimitError
    when the search runs past MATCH_BUDGET nodes.
    """
    ref_bases = list(reference.bases)
    if len(computed) != len(ref_bases):
        raise MatchError(f"basis counts differ: {len(computed)} vs "
                         f"{len(ref_bases)}")
    ids_a, ga = graph_from_bases(computed)
    ids_b, gb = graph_from_bases(ref_bases)
    if ga.n != gb.n:
        raise MatchError(f"ray counts differ: {ga.n} vs {gb.n}")
    mapping = None
    if ga.n % ORBIT == 0:
        mapping = _equivariant_search(ga.adjacency, gb.adjacency)
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


class RigidityClaim(NamedTuple):
    name: str
    passed: bool
    detail: str


class RigidityReport(NamedTuple):
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


def projection_to_csv(projection: Sequence[tuple[float, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ray", "radius", "angle_deg"])
    for i, (r, a) in enumerate(projection):
        # an angle just below 360 prints as 0: rounding noise must not
        # decide between the two ends of the range
        writer.writerow([i + 1, f"{r:.6f}", f"{round(a, 6) % 360.0:.6f}"])
    return buf.getvalue()
