"""Independent geometric reconstruction of the three ray systems.

The 600-cell is built exactly over the golden ring from three orbit seeds
under the 192-element group of even coordinate permutations and arbitrary
sign changes; doubling it by the a-scaling and applying the coordinate map
(m + n*a) -> (m, n) yields the 240 roots of E8 (Gosset's polytope).  The
120-cell is derived as the 600-cell's cell centers, with no coordinate
file: its cells are the 4-cliques of the 600-cell's rays 36 or 144 degrees
apart.  Bases are recovered with no reference to the numbered tables, as
d-cliques of the exact orthogonality graph.

The Coxeter element w, the product of the simple reflections, runs once,
exactly, when a RaySet is built: its rays are numbered round w's orbits,
fifteen ids per orbit, the way the tables number their pentadecagons.  So
w is the tables' wraparound σ on every RaySet's ids, nothing downstream
computes it, and σ is the one symmetry any graph here has: each graph is
built from one ray per block of fifteen, each row carried round its block
by σ, the clique walk starts only from one ray per block, and the
pentadecagon classes are the blocks.  A table is then validated by an
equivariant match: a bijection taking bases to bases and w to some σ^j.
The triacontagonal (Coxeter-plane) projection applies w only through the
same exact reflections: the plane is spanned by the cos/sin-weighted sums of
w's 30 exact powers of 2e_0.  The only floating point left is those two
sums and two dot products per ray, for the radii, the angles and the check
that σ turns the plane by one step; every orthogonality and class decision
is exact.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

from . import golden
from .gf2 import EnumerationLimitError, _support
from .golden import (ALPHA, BETA, ZERO, Golden, GoldenVector, canonical_sign,
                     gvec, phi_map, vec_neg, vec_scale, vec_values)
from .raysystem import (ORBIT, Basis, BasisTable, ray_index, shift_mask,
                        shift_position)

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


class RaySet(namedtuple("RaySet", "vectors")):
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

    def __new__(cls, vectors: tuple[GoldenVector, ...]) -> RaySet:
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
        return super().__new__(cls, tuple(numbered))

    def __len__(self) -> int:
        return len(self.vectors)

    @classmethod
    def _make(cls, fields) -> RaySet:  # namedtuple's would check len()
        return cls(*fields)

    @property
    def dimension(self) -> int:
        return len(self.vectors[0])

    def contains_up_to_sign(self, v: GoldenVector) -> bool:
        return canonical_sign(v) in self.vectors


# --------------------------------------------------------------------------
# icosian 600-cell and the E8 image


_H4_SEEDS = (
    gvec(2, 0, 0, 0),
    gvec(1, 1, 1, 1),
    gvec(0, ALPHA, 1, BETA),
)


def icosian_600cell() -> RaySet:
    """The 60 rays of the 600-cell, exactly, on a sphere of radius 2: the
    orbits of three seeds under the 192 even coordinate permutations with
    arbitrary sign changes."""
    ops = [(perm, signs) for perm in itertools.permutations(range(4))
           if not sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
           for signs in itertools.product((1, -1), repeat=4)]
    rays = {canonical_sign(tuple((s * seed[p][0], s * seed[p][1])
                                 for p, s in zip(perm, signs)))
            for seed in _H4_SEEDS for perm, signs in ops}
    return RaySet(tuple(rays))


def e8_rays() -> RaySet:
    """The 120 rays (240 roots) of E8 as the coordinate-map image of the
    two concentric 600-cells, as golden vectors with integer entries."""
    h4 = icosian_600cell().vectors
    images = {canonical_sign(gvec(*phi_map(v)))
              for v in h4 + tuple(vec_scale(ALPHA, u) for u in h4)}
    return RaySet(tuple(images))


# --------------------------------------------------------------------------
# the 120-cell


def build_120cell_rays() -> RaySet:
    """The 300 rays of the 120-cell, derived as cell centers of the 600-cell.

    Neighbouring vertices have inner product 2*phi = 2 - 2a (36 degrees at
    radius 2), so each 4-clique of the rays at +-(2 - 2a) is one antipodal
    pair of the 600 tetrahedral cells.  The cell through the clique's first
    ray r takes each other ray with the sign that puts it 36 degrees from
    r: two such vertices are at most 72 degrees apart, never 144.  Each
    center, the exact golden sum of the four vertices, stays in the
    icosian frame of the 600-cell.
    """
    h4 = icosian_600cell().vectors
    near = (2, -2)
    centers = set()
    for r, *others in enumerate_bases(_graph(h4, near), 4):
        u = h4[r]
        cell = [u] + [v if golden.dot(u, v) == near else vec_neg(v)
                      for v in (h4[x] for x in others)]
        centers.add(canonical_sign(tuple(
            (sum(v[t][0] for v in cell), sum(v[t][1] for v in cell))
            for t in range(4))))
    return RaySet(tuple(centers))


# --------------------------------------------------------------------------
# orthogonality graphs and clique bases


class OrthoGraph(namedtuple("OrthoGraph", "n adjacency")):
    """A graph on vertices 0..n-1, its adjacency a tuple of neighbour
    bitsets, that the block shift σ (`shift_position`) maps onto itself:
    adj(σx) = σ(adj x).  Every graph built here is on a RaySet's ids,
    where σ is w, so it is; clique enumeration relies on it.  ValueError
    when n is not a multiple of fifteen."""

    __slots__ = ()

    def __new__(cls, n: int, adjacency: tuple[int, ...]) -> OrthoGraph:
        if n % ORBIT:
            raise ValueError(f"{n} vertices do not fall in blocks of fifteen")
        return super().__new__(cls, n, adjacency)

    @property
    def n_edges(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2


def _permute(mask: int, perm: Sequence[int]) -> int:
    """The image of a vertex bitset under a vertex permutation."""
    return sum(1 << perm[x] for x in _support(mask))


def _graph(vectors: Sequence[GoldenVector], value: Golden) -> OrthoGraph:
    """The graph joining two rays of a RaySet when their inner product is
    +-`value`.  σ, which is w on the ids, preserves that relation, since w
    is orthogonal and the rays are sign representatives.

    Exact products are taken only from the first ray r of each block of
    fifteen, against the rays whose rows are not yet known; the rows known
    already supply the rest of r's row.  The row then travels round the
    block: adj(σx) = σ(adj x).
    """
    n = len(vectors)
    sigma = shift_mask(n, 1)
    adj = [0] * n
    unknown = (1 << n) - 1  # the vertices whose rows are not yet known
    dot, values = golden.dot, (value, (-value[0], -value[1]))
    for r in range(0, n, ORBIT):
        u, row, bit = vectors[r], adj[r], 1 << r
        unknown ^= bit
        for j in _support(unknown):
            if dot(u, vectors[j]) in values:
                row |= 1 << j
                adj[j] |= bit
        adj[r] = row
        for x in range(r + 1, r + ORBIT):
            unknown ^= 1 << x
            adj[x] = row = sigma(row)
            for y in _support(row & unknown):
                adj[y] |= 1 << x
    return OrthoGraph(n, tuple(adj))


def orthogonality_graph(rs: RaySet) -> OrthoGraph:
    """The exact orthogonality graph, built by transport along σ's
    blocks."""
    return _graph(rs.vectors, ZERO)


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


def enumerate_bases(g: OrthoGraph, d: int) -> list[tuple[int, ...]]:
    """All d-cliques of the graph, sorted, each exactly once.

    A clique whose first block of fifteen is B holds some vertex of B, so
    a power of σ carries it onto a clique through B's first vertex r whose
    other vertices lie in B or a later block.  Only those are walked, and
    each is carried round r's block by σ.
    """
    if d < 1:
        raise ValueError("clique size must be positive")
    adj, sigma = g.adjacency, [shift_position(i, 1) for i in range(g.n)]
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

    rest = (1 << g.n) - 1  # the vertices of this block and the later ones
    for r in range(0, g.n, ORBIT):
        # r is the least of rest, so every clique walked is sorted
        start = len(out)
        extend([r], adj[r] & rest)
        walked = out[start:]
        for _ in range(ORBIT - 1):
            walked = [tuple(sigma[v] for v in q) for q in walked]
            out.extend(tuple(sorted(q)) for q in walked)
        rest ^= ((1 << ORBIT) - 1) << r
    # a clique is reached once per vertex it has in its first block
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
    σ is w on its ids.  j = 1 is tried first and fits all three polytopes,
    but so does every unit j mod 15: which power of w the wraparound is
    stays open (ROADMAP item 1).  The search is `_equivariant_search` on
    the two basis co-occurrence graphs; bases must then map to bases.

    Returns {computed ray id -> reference ray id}; raises MatchError when
    counts differ or no such bijection exists, and EnumerationLimitError
    when the search runs past MATCH_BUDGET nodes.
    """
    ref_bases = list(reference.bases)
    if len(computed) != len(ref_bases):
        raise MatchError(f"basis counts differ: {len(computed)} vs "
                         f"{len(ref_bases)}")
    ids_a, cols_a = ray_index(computed)
    ids_b, cols_b = ray_index(ref_bases)
    n = len(ids_a)
    if n != len(ids_b):
        raise MatchError(f"ray counts differ: {n} vs {len(ids_b)}")
    mapping = None
    if n % ORBIT == 0:
        mapping = _equivariant_search(_basis_rows(n, cols_a),
                                      _basis_rows(n, cols_b))
    if mapping is None:
        raise MatchError("no ray bijection maps the computed bases onto "
                         "the reference table")
    result = {ids_a[i]: ids_b[mapping[i]] for i in range(n)}
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


def rigidity_demo() -> tuple[RigidityClaim, ...]:
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
    return tuple(claims)
