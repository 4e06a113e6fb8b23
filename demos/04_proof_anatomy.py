#!/usr/bin/env python3
"""Verifying proofs, refuting assignments, and finding embedded proofs.

A parity proof is an odd set of bases in which every ray occurs an even
number of times; no {0,1} assignment can then give each basis exactly one
ray valued 1 (an even total would have to be odd).  The exhaustive search
below confirms that directly.  Restricting the ray-by-basis incidence
matrix to a proof's bases and taking its GF(2) nullspace exposes every
smaller proof hiding inside.
"""

from kspoly.datasets import load_polytope
from kspoly.contextuality import (classify_decomposition, find_ks_assignment,
                                  incidence_nullspace_proofs, local_indices,
                                  proof_from_word, verify_parity_proof)
from kspoly.raysystem import build_basis_table, parse_word, ray_basis_symbol

layout, gens = load_polytope("120cell")
table = build_basis_table(layout, gens)

print("verification and the impossibility of a noncontextual assignment:")
for text in ("j", "cdy"):
    p = proof_from_word(parse_word(text), table)
    cert = verify_parity_proof(p)
    assignment = find_ks_assignment(p.bases())
    print(f"  {text}: {cert.basis_count} bases, valid={cert.valid}, "
          f"assignment found: {assignment is not None}")
single = [table.bases[0]]
print(f"  a single basis, for contrast: assignment found: "
      f"{find_ks_assignment(single) is not None}")

print()
print("cdy is reducible: its 45 bases split into three smaller proofs")
p = proof_from_word(parse_word("cdy"), table)
dec = incidence_nullspace_proofs(p)
subs = [s for s in dec.proofs if len(s.basis_indices) == 15]
for s in subs:
    print(f"  {ray_basis_symbol(s.bases(), layout)}  "
          f"bases {','.join(map(str, local_indices(p, s)))}")
print(f"  disjoint partition: "
      f"{classify_decomposition(p, subs) == 'direct_sum'}")

print()
print("the 8-d word e1e2 is not itself a proof (30 bases is even), but")
print("nine-basis proofs - the smallest in this polytope - live inside:")
layout8, gens8 = load_polytope("gosset")
table8 = build_basis_table(layout8, gens8)
pe = proof_from_word(parse_word("e1 e2"), table8)
dece = incidence_nullspace_proofs(pe)
nine = [s for s in dece.proofs if len(s.basis_indices) == 9]
print(f"  {len(nine)} nine-basis proofs, e.g.:")
for s in nine[:3]:
    print(f"  {ray_basis_symbol(s.bases(), layout8)}  "
          f"bases {','.join(map(str, local_indices(pe, s)))}")
marked = [s for s in nine if local_indices(pe, s) in (
    (1, 3, 6, 8, 11, 13, 19, 24, 29), (2, 4, 7, 9, 12, 14, 20, 25, 30),
    (1, 4, 6, 9, 11, 14, 17, 22, 27))]
print(f"  the three published ones overlap: "
      f"{classify_decomposition(pe, marked) == 'overlapping'}")
