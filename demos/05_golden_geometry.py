#!/usr/bin/env python3
"""Rebuilding the ray systems from scratch, exactly.

Nothing here touches the numbered tables: the 600-cell comes from three
orbit seeds over the golden ring, E8 from the coordinate map applied to two
concentric 600-cells, and the 120-cell from the 600-cell's cell centers.
Each ray set is numbered round the orbits of the Coxeter element w,
fifteen ids per orbit, the way the tables number their pentadecagons, so
w is the wraparound σ on its ids.  Bases are recovered as cliques of
exact orthogonality graphs, and the rings are w's orbits, with radii from
the projection onto the Coxeter plane.  The bases are finally matched
ray-for-ray against the generator tables by an equivariant match: a
bijection that carries bases to bases and turns w into the tables'
wraparound σ.
"""

from kspoly.datasets import load_polytope
from kspoly.geometry import (build_120cell_rays, coxeter_projection,
                             e8_rays, enumerate_bases,
                             icosian_600cell, match_labeling,
                             orthogonality_graph, pentadecagon_classes,
                             rigidity_demo)
from kspoly.raysystem import build_basis_table, shift_position

builders = {"600cell": (icosian_600cell, 4),
            "120cell": (build_120cell_rays, 4),
            "gosset": (e8_rays, 8)}

for name, (build, d) in builders.items():
    rs = build()
    graph = orthogonality_graph(rs)
    bases = enumerate_bases(graph, d)
    # the rings are the orbits of w, the blocks of fifteen ids; the
    # projection gives their radii
    rings = pentadecagon_classes(coxeter_projection(rs))
    radii = ", ".join(f"{r:.4f}" for r, _ in rings)
    print(f"{name}: {len(rs)} rays, {graph.n_edges} orthogonal pairs, "
          f"{len(bases)} bases of {d}")
    print(f"  projection rings ({len(rings)} pentadecagons): {radii}")
    layout, gens = load_polytope(name)
    table = build_basis_table(layout, gens)
    mapping = match_labeling(bases, table)
    turns = all(mapping[shift_position(x, 1)] - 1
                == shift_position(mapping[x] - 1, 1) for x in mapping)
    print(f"  equivariant match against the generator table: "
          f"{len(mapping)} rays mapped, w carried onto the wraparound: "
          f"{turns}")
    print()

print("why the orthogonality relations do not pin the 600-cell down:")
claims = rigidity_demo()
for claim in claims:
    if "not orthogonal" in claim.name or "phi(v5)" in claim.name \
            or "phi(v6)" in claim.name:
        mark = "ok" if claim.passed else "FAILED"
        print(f"  [{mark}] {claim.name}")
print(f"  all {len(claims)} claims pass: {all(c.passed for c in claims)}")
print("  the 8-d images satisfy every 4-d orthogonality plus extra ones,")
print("  so no unitary can relate the two sets: the 600-cell is not rigid.")
