#!/usr/bin/env python3
"""Ray numbering and basis tables.

Each polytope's rays are numbered around concentric pentadecagons, and its
bases fall into orbits of fifteen: one representative basis (a "generator")
plus fourteen wraparound shifts.  This script rebuilds all three basis
tables from the embedded generator data and shows the wraparound rule in
action.
"""

from kspoly.datasets import load_polytope
from kspoly.raysystem import (basis_profile, build_basis_table, expand_orbit,
                              ray_basis_symbol)

for name in ("600cell", "120cell", "gosset"):
    layout, gens = load_polytope(name)
    table = build_basis_table(layout, gens)
    occ = {}
    for b in table.bases:
        for r in b:
            occ[r] = occ.get(r, 0) + 1
    per_ray = sorted(set(occ.values()))
    print(f"{name}: {layout.n_rays} rays on {len(layout.pentadecagons)} "
          f"pentadecagons, {len(gens)} generators -> {len(table.bases)} "
          f"bases, each ray in {per_ray}")

print()
print("wraparound: the orbit of the first 600-cell generator")
layout, gens = load_polytope("600cell")
a = gens[0]
print(f"  generator {a.label} = {a.rays}  (profile "
      f"{basis_profile(a.rays, layout)})")
for shift in (1, 2, 11, 14):
    print(f"  shift {shift:2d} -> {expand_orbit(a, shift)}")

print()
print("an orbit is already a parity proof when its profile is even:")
orbit = [expand_orbit(a, s) for s in range(15)]
print(f"  the fifteen bases of '{a.label}' have symbol "
      f"{ray_basis_symbol(orbit, layout)}: thirty rays, each twice, "
      "over an odd number of bases")
