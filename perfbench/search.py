"""refute and assign: the noncontextual-assignment search, in-process.

The two workloads use find_ks_assignment in opposite ways.  refute runs it
on every published parity proof and on the embedded sub-proofs of cdy and
e1 e2: small inputs, deep trees, no assignment.  assign runs it on seeded
planted instances over the full basis tables: large inputs, shallow trees,
an assignment by construction.  A change that prunes the tree harder (root
probing, symmetry) helps the first and costs the second; a cheaper step per
node helps the second most.  Timing them as separate workloads lets a gain
on one that costs the other show.
"""

from __future__ import annotations

import random

from checks import (POLYTOPES, check_assignment, expect, is_parity_proof,
                    published)
from harness import Op, Workload  # also puts src/ on sys.path
from kspoly import contextuality, datasets, raysystem

# The node budget of the five proofs the search cannot refute within any
# practical budget (published.json "budget_failures").  Each runs out of it
# on every pass and counts as a failed operation.  Every other refute input
# runs under the program's default budget; the costliest of them today,
# a1 c1 e'2, needs 55,448 nodes.
EXHAUSTION_BUDGET = 30_000

# Planted instances per pass: (planted rays, instances) by polytope.  A ray
# lies in 5, 9 or 135 bases and no two planted rays share one, so an
# instance holds exactly (planted rays x bases per ray) bases: 15-45 on the
# 600-cell, 45-270 on the 120-cell and 135-1,080 on Gosset's polytope.
# Instance cost varies with the draw (coefficient of variation about 0.4 at
# 10 rays on the 120-cell, 0.5 on Gosset, 1 at 30 rays on the 120-cell), so
# a pass holds many instances to keep its figures steady from seed to seed:
# the 120-cell instances at 10 rays make up the middle of the latency
# distribution, and the Gosset instances its upper tenth and most of the
# pass time.  The 120-cell at 20-25 planted rays is left out: its cost
# varies too much from draw to draw (coefficient of variation up to 2.5).
PLANTED = {"600cell": [(3, 20), (6, 20), (9, 20)],
           "120cell": [(5, 30), (10, 900), (15, 30), (30, 30)],
           "gosset": [(k, 60) for k in range(1, 9)]}


def _tables() -> dict:
    return {P: raysystem.build_basis_table(*datasets.load_polytope(P))
            for P in POLYTOPES}


def _spread(ops: list[Op], rng: random.Random) -> list[Op]:
    """The operations in a random order.  Grouped by kind, they would run
    back to back, and one slow moment of a shared machine would slow every
    operation of a kind at once; spread out, each meets its own moment."""
    ops = list(ops)
    rng.shuffle(ops)
    return ops


def setup_refute(seed: int) -> Workload:
    """The published proofs are fixed inputs; the seed only orders them."""
    pub = published()
    tables = _tables()
    named = set(pub["budget_failures"])
    inputs = []
    for P in POLYTOPES:
        for entry in pub["proofs"][P]:
            word = raysystem.parse_word(entry["word"])
            proof = contextuality.proof_from_word(word, tables[P])
            inputs.append((f"{P}:{entry['word']}", proof.bases(),
                           entry["word"] in named))
    for P, text in (("120cell", "cdy"), ("gosset", "e1 e2")):
        whole = contextuality.proof_from_word(raysystem.parse_word(text),
                                              tables[P])
        subs = contextuality.incidence_nullspace_proofs(whole).proofs
        for i, sub in enumerate(s for s in subs
                                if s.basis_indices != whole.basis_indices):
            inputs.append((f"{P}:{text}:sub{i}", sub.bases(), False))
    ops = []
    for name, bases, named_fault in inputs:
        expect(is_parity_proof(bases), f"{name}: input is not a parity proof")
        budget = EXHAUSTION_BUDGET if named_fault else None
        ops.append(Op(name, lambda s, b=bases, n=budget:
                      contextuality.find_ks_assignment(b, n),
                      _refuted(name), may_exhaust=named_fault))
    return Workload(_spread(ops, random.Random(seed)),
                    notes={"exhaustion_budget": EXHAUSTION_BUDGET,
                           "inputs": len(ops),
                           "bases": sorted(len(b) for _, b, _ in inputs)})


def _refuted(name: str):
    def check(out) -> None:
        # the input was checked to be a parity proof, which proves that no
        # assignment exists, so None is the only right answer
        expect(out is None, f"{name}: assignment returned for a parity proof")
    return check


def planted_instance(table, of_ray: dict, k: int,
                     rng: random.Random) -> list[tuple[int, ...]]:
    """Bases holding exactly one of k random rays, no two in one basis."""
    rays = sorted(of_ray)
    while True:
        rng.shuffle(rays)
        used: set[int] = set()
        chosen = 0
        for r in rays:
            if used.isdisjoint(of_ray[r]):
                used.update(of_ray[r])
                chosen += 1
                if chosen == k:
                    return [table.bases[i] for i in sorted(used)]
        # a maximal set smaller than k: draw again


def setup_assign(seed: int) -> Workload:
    rng = random.Random(seed)
    tables = _tables()
    ops = []
    sizes = []
    for P in POLYTOPES:
        table = tables[P]
        of_ray: dict[int, list[int]] = {}
        for i, b in enumerate(table.bases):
            for r in b:
                of_ray.setdefault(r, []).append(i)
        for k, repeats in PLANTED[P]:
            for rep in range(repeats):
                bases = planted_instance(table, of_ray, k, rng)
                sizes.append(len(bases))
                ops.append(Op(f"{P}:planted{k}:{rep}",
                              lambda s, b=bases:
                              contextuality.find_ks_assignment(b),
                              lambda out, b=bases: check_assignment(b, out)))
    return Workload(_spread(ops, rng), notes={"instances": len(ops),
                                              "bases": sorted(sizes)})
