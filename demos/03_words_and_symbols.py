#!/usr/bin/env python3
"""The word algebra and ray-basis symbols.

Words (sets of generator letters) compose by symmetric difference and form
a group in which every element is its own inverse.  The punchline: a word
determines all the characteristics of its parity proof from the generator
profiles alone, with no need to expand any bases.
"""

from kspoly.datasets import load_polytope
from kspoly.raysystem import (build_basis_table, compose_words, parse_word,
                              ray_basis_symbol, render_word, symbol_from_word,
                              word_to_bases)

layout, gens = load_polytope("120cell")
table = build_basis_table(layout, gens)

print("composing nullspace words keeps us in the nullspace:")
u = parse_word("abdekr")
v = parse_word("dgji'")
w = compose_words(u, v)
print(f"  {render_word(u)}  o  {render_word(v)}  =  {render_word(w)}")
w = compose_words(w, parse_word("j"))
print(f"  ... o j = {render_word(w)}   (odd length: a parity proof)")

print()
print("its symbol, from profiles alone:")
sym = symbol_from_word(w, gens, layout)
print(f"  {render_word(w)}  ->  {sym}")
bases = [table.bases[i] for i in word_to_bases(w, table)]
check = ray_basis_symbol(bases, layout)
print(f"  expanding all {len(bases)} bases and counting rays gives {check}"
      f"  (equal: {check == sym})")

print()
print("a few more, for the 8-dimensional polytope:")
layout8, gens8 = load_polytope("gosset")
for text in ("b1", "e1", "a1 c1 e'2", "c1 h1 i4", "a1 c1 d1 h1 m1"):
    word = parse_word(text)
    print(f"  {render_word(word):16s} -> "
          f"{symbol_from_word(word, gens8, layout8)}")
