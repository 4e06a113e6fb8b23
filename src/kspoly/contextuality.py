"""Parity-proof verification, noncontextual-assignment search, and the
decomposition of proofs into smaller embedded proofs.

A parity proof is an odd set of bases in which every participating ray
occurs an even number of times; such a set admits no {0,1} assignment
giving each basis exactly one 1.  Decomposition works on the ray-by-basis
incidence matrix restricted to the proof's bases: every odd-weight vector
of its GF(2) nullspace is an embedded sub-proof.

One backtracking search, find_ks_assignment, decides both exact covers of
a proof's bases: by rays (a noncontextual assignment) and by sub-proofs
(a direct sum).
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Mapping, NamedTuple, Sequence

from .gf2 import (BitMatrix, EnumerationLimitError, _support, gf2_nullspace,
                  span)
from .raysystem import (ORBIT, Basis, BasisTable, Word, ray_index,
                        ray_occurrences, shift_mask, shift_position,
                        word_to_bases)

NODE_BUDGET_ENV = "KSPOLY_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 5_000_000
SUBPROOF_CAP = 10_000  # the most sub-proofs a decomposition returns


class SearchBudgetExceeded(EnumerationLimitError):
    """The backtracking search ran out of its node budget; .stats holds
    the work it did, as find_ks_assignment's stats dict would."""

    def __init__(self, message: str, stats: dict) -> None:
        super().__init__(message)
        self.stats = stats


def resolve_node_budget(node_budget: int | None = None) -> int:
    """node_budget, or KSPOLY_NODE_BUDGET when it is None (or
    DEFAULT_NODE_BUDGET when that is unset); ValueError unless it is a
    non-negative integer."""
    if node_budget is None:
        node_budget = int(os.environ.get(NODE_BUDGET_ENV,
                                         DEFAULT_NODE_BUDGET))
    if node_budget < 0:
        raise ValueError(f"node budget must not be negative, "
                         f"got {node_budget}")
    return node_budget


class Proof(NamedTuple):
    """A selection of bases out of a basis table (0-based indices)."""

    table: BasisTable
    basis_indices: frozenset[int]

    def bases(self) -> list[Basis]:
        bases = self.table.bases
        return [bases[i] for i in sorted(self.basis_indices)]


def proof_from_word(w: Word, table: BasisTable) -> Proof:
    """w's bases as a Proof; the empty word gives the empty selection."""
    return Proof(table, word_to_bases(w, table))


class ParityCertificate(NamedTuple):
    valid: bool
    basis_count: int
    ray_occurrences: Mapping[int, int]
    offending_rays: tuple[int, ...]  # rays occurring an odd number of times


def verify_parity_proof(p: Proof) -> ParityCertificate:
    """Check the defining parity condition basis-count odd, rays all even."""
    return certificate_for_bases(p.bases())


def certificate_for_bases(bases: Sequence[Basis]) -> ParityCertificate:
    """Parity certificate over raw bases (no table needed)."""
    occ = ray_occurrences(bases)
    offending = tuple(sorted(r for r, c in occ.items() if c % 2))
    return ParityCertificate(valid=(len(bases) % 2 == 1 and not offending),
                             basis_count=len(bases),
                             ray_occurrences=occ,
                             offending_rays=offending)


# --------------------------------------------------------------------------
# noncontextual assignment search


def find_ks_assignment(bases: Sequence[Basis],
                       node_budget: int | None = None,
                       stats: dict | None = None
                       ) -> dict[int, int] | None:
    """Exhaustive search for a {0,1} ray assignment with exactly one 1 per
    basis.  Returns such an assignment (every ray of the input, unforced
    rays 0), or None if none exists.

    The search is a deterministic, complete backtracking search.  It
    branches on the unsatisfied basis with the fewest free (not yet 0)
    rays, ties going to the lowest input index, and tries its free rays
    most-shared first: in order of how many input bases hold them, basis
    order on ties.  A node is one such try: the ray is set to 1 and unit
    propagation follows (the rest of a satisfied basis goes to 0; a basis
    left with one free ray sets it to 1).  The search is iterative, so its
    depth is not bounded by the recursion limit; each stack frame keeps
    its own state, so backtracking drops a frame and undoes nothing.  A
    refutation without cuts tries every child of every frame, so its tree
    does not depend on the order of the tries.

    When the rays fill whole pentadecagons (ids 1-15, 16-30, ...) and the
    bases are invariant under σ^k (σ: r -> r+1 inside each; k the first of
    1, 3, 5 that works), ⟨σ^k⟩ maps assignments to assignments.  A subtree
    exhausted under valid cuts means no assignment has r = 1 (r a root
    child) or r = c = 1 (c a child of root child r), so none has σ^jk r = 1
    or σ^jk r = σ^jk c = 1: those rays are banned, those pairs forbidden.
    Cuts only fail nodes and never touch the free counts, so the search
    walks the plain tree minus the cut subtrees and returns its answer.

    Ray ids are non-negative ints, and each is its own bit position: ray r
    is bit r of every bitset, so the bitsets and the per-ray tables are as
    wide as the largest id.  A negative id raises ValueError.

    node_budget caps the nodes; default comes from KSPOLY_NODE_BUDGET, and
    a negative budget raises ValueError.  SearchBudgetExceeded is raised
    on the first node past the budget; its message says how far the search
    got.  A stats dict, when given, gets the work done: `nodes`,
    `max_depth` (the most frames on the stack at once), `step` (the
    k of the cuts, 0 for none) and `rays_banned`.  SearchBudgetExceeded
    carries the same dict, as far as the search got, as its .stats.
    """
    node_budget = resolve_node_budget(node_budget)
    nodes = depth = step = 0
    ban = 0  # rays no assignment sets to 1: orbits of refuted root children

    def work() -> dict:
        """The stats so far, copied into the caller's dict when given."""
        out = {"nodes": nodes, "max_depth": depth, "step": step,
               "rays_banned": ban.bit_count()}
        if stats is not None:
            stats.update(out)
        return out

    if not bases:
        work()
        return {}
    # ray r is bit r; a state is (one, zero, free): the rays set to 1, the
    # rays set to 0, and per basis its free-ray count, or `done` once the
    # basis holds its 1
    rays = set(chain.from_iterable(bases))
    if min(rays, default=0) < 0:
        raise ValueError(f"ray ids must not be negative, got {min(rays)}")
    width = max(rays, default=-1) + 1
    bits = [0] * width  # per ray, 1 << ray
    of_ray: list = [None] * width  # per ray, its bases (None if absent)
    for r in rays:
        bits[r] = 1 << r
        of_ray[r] = []
    masks = []  # per basis, its rays as a bitset
    for bi, b in enumerate(bases):
        m = 0
        for r in b:
            m |= bits[r]
            of_ray[r].append(bi)
        masks.append(m)
    nbr: list[int | None] = [None] * width  # built on first use
    # per basis, its rays most-shared first (the sort is stable), built on
    # first use
    order: list[list[int] | None] = [None] * len(bases)
    free = list(map(len, bases))
    done = max(free) + 1  # above every free count
    step = _rotation_step(sum(bits), masks)
    pair = [0] * width  # per ray, the rays no assignment sets to 1 with it

    def orbit(r: int) -> list[int]:
        """σ^j r for j = 0, step, 2 step, ... below ORBIT."""
        return [shift_position(r - 1, j) + 1 for j in range(0, ORBIT, step)]

    def set_one(r: int, one: int, zero: int,
                free: list[int]) -> tuple[int, int] | None:
        """Set ray r to 1 with unit propagation (free is updated in place);
        the new (one, zero), or None on contradiction."""
        todo = [r]
        while todo:
            r = todo.pop()
            bit = bits[r]
            if one & bit:
                continue
            if (zero | ban) & bit:
                return None
            m = nbr[r]
            if m is None:
                m = 0
                for bi in of_ray[r]:
                    m |= masks[bi]
                m = nbr[r] = m & ~bit
            if one & m or one & pair[r]:
                return None
            one |= bit
            for bi in of_ray[r]:
                free[bi] = done
            new = m & ~zero
            zero |= new
            while new:
                q = new.bit_length() - 1
                new ^= 1 << q
                for bi in of_ray[q]:
                    f = free[bi]
                    if f == done:
                        continue
                    free[bi] = f = f - 1
                    if f == 1:
                        rest = masks[bi] & ~zero
                        if not rest:
                            return None
                        todo.append(rest.bit_length() - 1)
                    elif f == 0:
                        return None
        return one, zero

    def branch(least: int, one: int, zero: int, free: list[int]) -> list:
        """A new frame branching on the first basis with `least` free rays:
        [its rays in try order, the next try, one, zero, free]."""
        bi = free.index(least)
        b = order[bi]
        if b is None:
            b = order[bi] = sorted(bases[bi], key=lambda r: len(of_ray[r]),
                                   reverse=True)
        return [b, 0, one, zero, free]

    stack = [branch(min(free), 0, 0, free)]
    depth = 1
    while stack:
        frame = stack[-1]
        b, i, one, zero, free = frame
        if step and i and len(stack) <= 2:
            # the child b[i - 1] is refuted, at the root or below root
            # child r
            if len(stack) == 1:
                for q in orbit(b[i - 1]):
                    ban |= 1 << q
            else:
                root, root_i = stack[0][:2]
                for q, c in zip(orbit(root[root_i - 1]), orbit(b[i - 1])):
                    pair[q] |= 1 << c
                    pair[c] |= 1 << q
        while i < len(b) and zero >> b[i] & 1:
            i += 1
        if i == len(b):
            stack.pop()
            continue
        frame[1] = i + 1
        if nodes == node_budget:
            root, root_i = stack[0][:2]
            raise SearchBudgetExceeded(
                f"assignment search exceeded {node_budget} nodes "
                f"({root_i - 1} of {len(root)} root branches "
                f"refuted, {ban.bit_count()} rays banned, depth "
                f"{len(stack)})", work())
        nodes += 1
        child = free.copy()
        state = set_one(b[i], one, zero, child)
        if state is None:
            continue
        least = min(child)
        if least == done:
            work()
            return {r: state[0] >> r & 1 for r in sorted(rays)}
        stack.append(branch(least, *state, child))
        if len(stack) > depth:
            depth = len(stack)
    work()
    return None


def _rotation_step(rays: int, masks: list[int]) -> int:
    """The first k of 1, 3, 5 such that the rays (a bitset, bit r for ray
    r) fill whole blocks of ids 1-15, 16-30, ... and σ^k, σ: r -> r+1
    inside each block as expand_orbit shifts, maps every basis mask to a
    basis mask; 0 when there is none."""
    if not rays or rays & 1 or rays.bit_count() % ORBIT:
        return 0
    # bit r - 1 for ray r: block j is bits 15j..15j+14, as shift_mask wants
    rays >>= 1
    n = -(-rays.bit_length() // ORBIT) * ORBIT
    if shift_mask(n, 1)(rays) != rays:  # a block σ does not fill
        return 0
    known = set(masks)
    for k in (1, 3, 5):
        sigma = shift_mask(n, k)
        if all(sigma(m >> 1) << 1 in known for m in known):
            return k
    return 0


# --------------------------------------------------------------------------
# decomposition into embedded sub-proofs


class Decomposition(NamedTuple):
    proofs: tuple[Proof, ...]
    truncated: bool
    nullity: int


def _incidence(p: Proof) -> BitMatrix:
    """The ray-by-basis incidence matrix of p's bases, columns in basis
    index order."""
    rays, cols = ray_index(p.bases())
    rows = [0] * len(rays)
    for col, b in enumerate(cols):
        for r in b:
            rows[r] |= 1 << col
    return BitMatrix(len(cols), tuple(rows))


def incidence_nullspace_proofs(p: Proof) -> Decomposition:
    """Every embedded parity proof among subsets of p's bases.

    Builds the ray-by-basis incidence matrix restricted to p's bases and
    returns each odd-weight nullspace vector as a sub-proof (p itself
    included when p is a parity proof).  Sorted by basis count, then by
    index set; the first SUBPROOF_CAP found are kept, with a truncation
    flag when there are more.  The odd vectors are a coset of the even
    subcode when some basis vector is odd, 2^(nullity - 1) of them, and
    there are none otherwise, so the flag is known before the walk.
    """
    order = sorted(p.basis_indices)
    spec = gf2_nullspace(_incidence(p))
    truncated = (any(v.bit_count() % 2 for v in spec.nullspace_basis)
                 and 2 ** (spec.k - 1) > SUBPROOF_CAP)
    odd = (v for v in span(spec.nullspace_basis) if v.bit_count() % 2)
    subs = [frozenset(order[j] for j in _support(v))
            for v in islice(odd, SUBPROOF_CAP)]
    subs.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return Decomposition(tuple(Proof(p.table, s) for s in subs),
                         truncated, spec.k)


def classify_decomposition(p: Proof, subs: Sequence[Proof]) -> str:
    """"direct_sum" when some subset of subs partitions p's bases exactly,
    "overlapping" otherwise.  A partition is an assignment: number the
    distinct pieces inside p from 0, and each basis of p asks for exactly
    one chosen piece among those holding it (bases held by the same
    pieces ask the same, so they are one constraint).  Only the index sets
    are read; find_ks_assignment's node budget applies, and past it
    SearchBudgetExceeded names this search, with the same .stats."""
    pieces = dict.fromkeys(s.basis_indices for s in subs
                           if s.basis_indices <= p.basis_indices)
    holders: dict[int, list[int]] = {bi: [] for bi in p.basis_indices}
    for j, s in enumerate(pieces):
        for bi in s:
            holders[bi].append(j)
    covers = sorted(set(map(tuple, holders.values())))
    try:
        cover = find_ks_assignment(covers)
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(
            f"sub-proof cover search exceeded {exc.stats['nodes']} nodes "
            f"({len(pieces)} sub-proofs over {len(p.basis_indices)} bases, "
            f"depth {exc.stats['max_depth']})", exc.stats) from None
    return "overlapping" if cover is None else "direct_sum"


def local_indices(p: Proof, sub: Proof) -> tuple[int, ...]:
    """1-based positions of a sub-proof inside p's sorted basis list."""
    pos = {bi: i for i, bi in enumerate(sorted(p.basis_indices), 1)}
    return tuple(sorted(pos[bi] for bi in sub.basis_indices))
