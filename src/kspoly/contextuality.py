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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .gf2 import (BitMatrix, EnumerationLimitError, _support,
                  gf2_nullspace, span)
from .raysystem import (Basis, BasisTable, Word, parse_word, ray_index,
                        ray_occurrences, render_word, word_to_bases)

NODE_BUDGET_ENV = "KSPOLY_NODE_BUDGET"
DEFAULT_NODE_BUDGET = 5_000_000


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its node budget."""


@dataclass(frozen=True)
class Proof:
    """A selection of bases out of a basis table (0-based indices)."""

    table: BasisTable
    basis_indices: frozenset[int]

    def __post_init__(self) -> None:
        if not self.basis_indices:
            raise ValueError("a proof needs at least one basis")
        n = len(self.table.bases)
        if any(not 0 <= i < n for i in self.basis_indices):
            raise ValueError("basis index out of table range")

    def bases(self) -> list[Basis]:
        return [self.table.bases[i] for i in sorted(self.basis_indices)]


def proof_from_word(w: Word, table: BasisTable) -> Proof:
    return Proof(table, word_to_bases(w, table))


@dataclass(frozen=True)
class ParityCertificate:
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

    node_budget caps the nodes; default comes from KSPOLY_NODE_BUDGET.
    SearchBudgetExceeded is raised on the first node past the budget.
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
            if zero & bit:
                return None
            m = nbr[p]
            if m is None:
                m = 0
                for bi in of_ray[p]:
                    m |= masks[bi]
                m = nbr[p] = m & ~bit
            if one & m:
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
        while i < len(b) and zero >> b[i] & 1:
            i += 1
        if i == len(b):
            stack.pop()
            continue
        frame[1] = i + 1
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(
                f"assignment search exceeded {node_budget} nodes")
        child = free.copy()
        state = set_one(b[i], one, zero, child)
        if state is None:
            continue
        least = min(child)
        if least == done:
            return {r: state[0] >> p & 1 for p, r in enumerate(rays)}
        stack.append([child.index(least), 0, *state, child])
    return None


# --------------------------------------------------------------------------
# decomposition into embedded sub-proofs


@dataclass(frozen=True)
class Decomposition:
    proofs: tuple[Proof, ...]
    truncated: bool
    nullity: int


def incidence_nullspace_proofs(p: Proof, cap: int = 10_000,
                               nullity_limit: int = 25) -> Decomposition:
    """Every embedded parity proof among subsets of p's bases.

    Builds the ray-by-basis incidence matrix restricted to p's bases and
    returns each odd-weight nullspace vector as a sub-proof (p itself
    included when p is a parity proof).  Sorted by basis count, then by
    index set; capped at `cap` sub-proofs with a truncation flag.
    """
    order = sorted(p.basis_indices)
    rays, cols = ray_index(p.table.bases[i] for i in order)
    rows = [0] * len(rays)
    for col, b in enumerate(cols):
        for r in b:
            rows[r] |= 1 << col
    spec = gf2_nullspace(BitMatrix(len(rows), len(order), tuple(rows)))
    if spec.k > nullity_limit:
        raise EnumerationLimitError(
            f"incidence nullity {spec.k} exceeds the enumeration limit "
            f"{nullity_limit}")
    subs: list[frozenset[int]] = []
    truncated = False
    for v in span(spec.nullspace_basis):
        if v.bit_count() % 2 == 0:
            continue
        members = frozenset(order[j] for j in _support(v))
        subs.append(members)
        if len(subs) > cap:
            truncated = True
            subs.pop()
            break
    subs.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return Decomposition(tuple(Proof(p.table, s) for s in subs),
                         truncated, spec.k)


def is_irreducible(p: Proof) -> bool:
    """True iff p contains no embedded parity proof other than itself."""
    dec = incidence_nullspace_proofs(p)
    return (not dec.truncated and len(dec.proofs) == 1
            and dec.proofs[0].basis_indices == p.basis_indices)


def classify_decomposition(p: Proof, subs: Sequence[Proof]) -> str:
    """"direct_sum" when some subset of subs partitions p's bases exactly,
    "overlapping" otherwise."""
    target = frozenset(p.basis_indices)
    pieces = sorted({s.basis_indices for s in subs
                     if s.basis_indices <= target},
                    key=lambda s: (len(s), tuple(sorted(s))))

    def cover(remaining: frozenset[int], start: int) -> bool:
        if not remaining:
            return True
        anchor = min(remaining)
        for i in range(start, len(pieces)):
            s = pieces[i]
            if anchor in s and s <= remaining:
                if cover(remaining - s, i + 1):
                    return True
        return False

    return "direct_sum" if cover(target, 0) else "overlapping"


def local_indices(p: Proof, sub: Proof) -> tuple[int, ...]:
    """1-based positions of a sub-proof inside p's sorted basis list."""
    order = sorted(p.basis_indices)
    pos = {bi: i + 1 for i, bi in enumerate(order)}
    return tuple(sorted(pos[bi] for bi in sub.basis_indices))


# --------------------------------------------------------------------------
# JSON interfaces (1-based indices externally)


def proof_to_json(p: Proof, word: Word | None = None) -> dict:
    doc = {"polytope": p.table.layout.polytope,
           "basis_indices": [i + 1 for i in sorted(p.basis_indices)]}
    if word is not None:
        doc["word"] = render_word(word)
    return doc


def proof_from_json(doc: dict, table: BasisTable) -> Proof:
    if doc["polytope"] != table.layout.polytope:
        raise ValueError(f"proof file is for {doc['polytope']}, "
                         f"table is {table.layout.polytope}")
    if "basis_indices" in doc and doc["basis_indices"]:
        indices = frozenset(int(i) - 1 for i in doc["basis_indices"])
    elif "word" in doc:
        indices = word_to_bases(parse_word(doc["word"]), table)
    else:
        raise ValueError("proof file carries neither indices nor a word")
    return Proof(table, indices)


def certificate_to_json(cert: ParityCertificate) -> dict:
    return {"valid": cert.valid,
            "basis_count": cert.basis_count,
            "offending_rays": list(cert.offending_rays),
            "ray_occurrences": {str(r): c for r, c
                                in sorted(cert.ray_occurrences.items())}}
