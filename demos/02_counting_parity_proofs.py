#!/usr/bin/env python3
"""Exact census of the fifteen-fold symmetric parity proofs.

The pentadecagon-by-generator counting matrix M, taken mod 2, defines a
binary linear code: its odd-weight nullspace vectors are exactly the
symmetric parity proofs.  The code is far too large to enumerate (2^131
codewords for the 8-d polytope), but its dual is tiny, so the MacWilliams
identities give the full length-by-length census exactly.
"""

from kspoly.datasets import load_polytope
from kspoly.gf2 import (dual_weight_distribution, enumerate_words,
                        gf2_nullspace, macwilliams_transform,
                        odd_weight_total, profile_matrix_mod2)
from kspoly.raysystem import build_profile_matrix, render_word

for name in ("600cell", "120cell", "gosset"):
    layout, gens = load_polytope(name)
    pm = build_profile_matrix(layout, gens)
    m2 = profile_matrix_mod2(pm)
    spec = gf2_nullspace(m2, pm.col_labels)
    dual = dual_weight_distribution(m2)
    dist = macwilliams_transform(dual, spec.n)
    total = odd_weight_total(dist)
    print(f"{name}: M is {len(pm.row_labels)}x{len(pm.col_labels)}, "
          f"nullity {spec.k}, dual size {dual.total()}")
    print(f"  parity proofs: {total} (= 2^{total.bit_length() - 1})")
    odd = [(w, c) for w, c in dist.items() if w % 2]
    shown = odd if len(odd) <= 6 else odd[:5] + [("...", "...")] + odd[-1:]
    for w, c in shown:
        print(f"    length {w:>3}: {c}")
    print()

print("the smallest proofs, by direct low-weight enumeration:")
layout, gens = load_polytope("600cell")
pm = build_profile_matrix(layout, gens)
spec = gf2_nullspace(profile_matrix_mod2(pm), pm.col_labels)
words = enumerate_words(spec, 5, "odd")
print("  600cell, all odd words:",
      ", ".join(render_word(w) or "(empty)" for w in words))
layout, gens = load_polytope("gosset")
pm = build_profile_matrix(layout, gens)
spec = gf2_nullspace(profile_matrix_mod2(pm), pm.col_labels)
ones = enumerate_words(spec, 1, "odd")
print(f"  gosset, the {len(ones)} one-letter proofs:",
      ", ".join(render_word(w) for w in ones))
