"""Parity-proof verification, noncontextual-assignment search, and the
decomposition of proofs into smaller embedded proofs.

A parity proof is an odd set of bases in which every participating ray
occurs an even number of times; such a set admits no {0,1} assignment
giving each basis exactly one 1.  Decomposition works on the ray-by-basis
incidence matrix restricted to the proof's bases: every odd-weight vector
of its GF(2) nullspace is an embedded sub-proof.
"""

from __future__ import annotations

import os
from collections import namedtuple
from itertools import islice
from typing import Mapping, NamedTuple, Sequence

from .gf2 import BitMatrix, _support, gf2_nullspace, span
from .raysystem import (ORBIT, Basis, BasisTable, Word, ray_index,
                        ray_occurrences, shift_position, word_to_bases)

NODE_BUDGET_ENV = "KSPOLY_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 5_000_000
SUBPROOF_CAP = 10_000  # the most sub-proofs a decomposition returns


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its node budget."""


class Proof(namedtuple("Proof", "table basis_indices")):
    """A selection of bases out of a basis table (0-based indices)."""

    __slots__ = ()

    def __new__(cls, table: BasisTable, basis_indices: frozenset[int]
                ) -> Proof:
        if not basis_indices:
            raise ValueError("a proof needs at least one basis")
        n = len(table.bases)
        if any(not 0 <= i < n for i in basis_indices):
            raise ValueError("basis index out of table range")
        return super().__new__(cls, table, basis_indices)

    def bases(self) -> list[Basis]:
        bases = self.table.bases
        return [bases[i] for i in sorted(self.basis_indices)]


def proof_from_word(w: Word, table: BasisTable) -> Proof:
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
                       node_budget: int | None = None
                       ) -> dict[int, int] | None:
    """Exhaustive search for a {0,1} ray assignment with exactly one 1 per
    basis.  Returns such an assignment (every ray of the input, unforced
    rays 0), or None if none exists.

    The search is a deterministic, complete backtracking search.  It
    branches on the unsatisfied basis with the fewest free (not yet 0)
    rays, ties going to the lowest input index, and tries its free rays in
    basis order.  A node is one such try: the ray is set to 1 and unit
    propagation follows (the rest of a satisfied basis goes to 0; a basis
    left with one free ray sets it to 1).  The search is iterative, so its
    depth is not bounded by the recursion limit; each stack frame keeps
    its own state, so backtracking drops a frame and undoes nothing.

    When the rays fill whole pentadecagons (ids 1-15, 16-30, ...) and the
    bases are invariant under σ^k (σ: r -> r+1 inside each; k the first of
    1, 3, 5 that works), ⟨σ^k⟩ maps assignments to assignments.  A subtree
    exhausted under valid cuts means no assignment has r = 1 (r a root
    child) or r = c = 1 (c a child of root child r), so none has σ^jk r = 1
    or σ^jk r = σ^jk c = 1: those rays are banned, those pairs forbidden.
    Cuts only fail nodes and never touch the free counts, so the search
    walks the plain tree minus the cut subtrees and returns its answer.

    node_budget caps the nodes; default comes from KSPOLY_NODE_BUDGET.
    SearchBudgetExceeded is raised on the first node past the budget; its
    message says how far the search got.
    """
    if node_budget is None:
        node_budget = int(os.environ.get(NODE_BUDGET_ENV,
                                         DEFAULT_NODE_BUDGET))
    if not bases:
        return {}
    # rays are bit positions; a state is (one, zero, free): the rays set to
    # 1, the rays set to 0, and per basis its free-ray count, or `done`
    # once the basis holds its 1
    rays, cols = ray_index(bases)
    masks = [sum(1 << p for p in set(b)) for b in cols]
    of_ray: list[list[int]] = [[] for _ in rays]
    for bi, b in enumerate(cols):
        for p in b:
            of_ray[p].append(bi)
    nbr: list[int | None] = [None] * len(rays)  # built on first use
    done = max(map(len, cols)) + 1  # above every free count
    step = _rotation_step(rays, masks)
    ban = 0  # rays no assignment sets to 1: orbits of refuted root children
    pair = [0] * len(rays)  # per ray, the rays no assignment sets to 1 with it

    def orbit(p: int) -> list[int]:
        """σ^j p for j = 0, step, 2 step, ... below ORBIT."""
        return [shift_position(p, j) for j in range(0, ORBIT, step)]

    def set_one(p: int, one: int, zero: int,
                free: list[int]) -> tuple[int, int] | None:
        """Set ray p to 1 with unit propagation (free is updated in place);
        the new (one, zero), or None on contradiction."""
        todo = [p]
        while todo:
            p = todo.pop()
            bit = 1 << p
            if one & bit:
                continue
            if (zero | ban) & bit:
                return None
            m = nbr[p]
            if m is None:
                m = 0
                for bi in of_ray[p]:
                    m |= masks[bi]
                m = nbr[p] = m & ~bit
            if one & m or one & pair[p]:
                return None
            one |= bit
            for bi in of_ray[p]:
                free[bi] = done
            new = m & ~zero
            zero |= new
            while new:
                low = new & -new
                new ^= low
                for bi in of_ray[low.bit_length() - 1]:
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

    nodes = 0
    free = [len(b) for b in cols]
    stack = [[free.index(min(free)), 0, 0, 0, free]]
    while stack:
        frame = stack[-1]
        bi, i, one, zero, free = frame
        b = cols[bi]
        if step and i and len(stack) <= 2:
            # the child b[i - 1] is refuted, at the root or below root
            # child r
            if len(stack) == 1:
                for q in orbit(b[i - 1]):
                    ban |= 1 << q
            else:
                root_bi, root_i = stack[0][:2]
                r = cols[root_bi][root_i - 1]
                for q, c in zip(orbit(r), orbit(b[i - 1])):
                    pair[q] |= 1 << c
                    pair[c] |= 1 << q
        while i < len(b) and zero >> b[i] & 1:
            i += 1
        if i == len(b):
            stack.pop()
            continue
        frame[1] = i + 1
        nodes += 1
        if nodes > node_budget:
            root_bi, root_i = stack[0][:2]
            raise SearchBudgetExceeded(
                f"assignment search exceeded {node_budget} nodes "
                f"({root_i - 1} of {len(cols[root_bi])} root branches "
                f"refuted, {ban.bit_count()} rays banned, depth "
                f"{len(stack)})")
        child = free.copy()
        state = set_one(b[i], one, zero, child)
        if state is None:
            continue
        least = min(child)
        if least == done:
            return {r: state[0] >> p & 1 for p, r in enumerate(rays)}
        stack.append([child.index(least), 0, *state, child])
    return None


def _rotation_step(rays: tuple[int, ...], masks: list[int]) -> int:
    """The first k of 1, 3, 5 such that the rays fill whole blocks of ids
    1-15, 16-30, ... and σ^k, σ: r -> r+1 inside each block, maps every
    basis mask to a basis mask; 0 when there is none."""
    n = len(rays)
    if not rays or n % ORBIT or rays[0] < 1 or any(
            rays[i] % ORBIT != 1 or rays[i + ORBIT - 1] != rays[i] + ORBIT - 1
            for i in range(0, n, ORBIT)):
        return 0
    known = set(masks)
    for k in (1, 3, 5):
        # σ^k on a mask over ray positions: shift each block up by k, the
        # top k bits of each block wrapping round to its bottom
        top = sum(((1 << k) - 1) << i + ORBIT - k for i in range(0, n, ORBIT))
        if all((m & ~top) << k | (m & top) >> ORBIT - k in known
               for m in masks):
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
    return BitMatrix(len(rows), len(cols), tuple(rows))


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
    "overlapping" otherwise."""
    target = frozenset(p.basis_indices)
    pieces = sorted({s.basis_indices for s in subs
                     if s.basis_indices <= target},
                    key=lambda s: (len(s), tuple(sorted(s))))

    def branches(remaining: frozenset[int], start: int):
        """Each later piece holding the least uncovered basis that fits,
        with what it leaves uncovered."""
        anchor = min(remaining)
        for i in range(start, len(pieces)):
            s = pieces[i]
            if anchor in s and s <= remaining:
                yield remaining - s, i + 1

    # depth-first over partial covers; an explicit stack of branch
    # iterators, so the number of pieces is not bounded by the recursion
    # limit
    stack = [branches(target, 0)]
    while stack:
        for remaining, start in stack[-1]:
            if not remaining:
                return "direct_sum"
            stack.append(branches(remaining, start))
            break
        else:
            stack.pop()
    return "overlapping"


def local_indices(p: Proof, sub: Proof) -> tuple[int, ...]:
    """1-based positions of a sub-proof inside p's sorted basis list."""
    order = sorted(p.basis_indices)
    pos = {bi: i + 1 for i, bi in enumerate(order)}
    return tuple(sorted(pos[bi] for bi in sub.basis_indices))


# --------------------------------------------------------------------------
# JSON


def certificate_to_json(cert: ParityCertificate) -> dict:
    return {"valid": cert.valid,
            "basis_count": cert.basis_count,
            "offending_rays": list(cert.offending_rays),
            "ray_occurrences": {str(r): c for r, c
                                in sorted(cert.ray_occurrences.items())}}
