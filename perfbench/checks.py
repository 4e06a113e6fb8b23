"""Independent checks of the program's outputs.

Everything here is computed by the benchmark itself from published values
(published.json) or from properties any correct output must have.  Nothing
compares against a saved copy of the program's own output.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "kspoly" / "data"
POLYTOPES = ("600cell", "120cell", "gosset")


class Wrong(Exception):
    """An output of the program failed an independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Wrong(message)


def published() -> dict:
    return json.loads((HERE / "published.json").read_text())


def dataset(polytope: str) -> dict:
    """The raw dataset file, read without the program."""
    return json.loads((DATA / f"{polytope}.json").read_text())


def occurrences(bases) -> Counter:
    return Counter(r for b in bases for r in b)


def is_parity_proof(bases) -> bool:
    """Odd number of bases and every ray even: no {0,1} assignment with
    exactly one 1 per basis exists, since summing over the bases counts
    each ray's value an even number of times but must give an odd total."""
    return len(bases) % 2 == 1 and all(c % 2 == 0 for c in
                                       occurrences(bases).values())


def symbol_text(bases, dimension: int) -> str:
    """Ray-basis symbol such as '150_2 30_4-105_4', counted directly."""
    by_mult = Counter(occurrences(bases).values())
    left = " ".join(f"{rays}_{mult}" for mult, rays in sorted(by_mult.items()))
    return f"{left}-{len(bases)}_{dimension}"


def check_assignment(bases, assignment) -> None:
    expect(assignment is not None, "satisfiable instance reported as "
                                   "having no assignment")
    expect(set(assignment.values()) <= {0, 1}, "assignment values not 0/1")
    for b in bases:
        expect(sum(assignment.get(r, 0) for r in b) == 1,
               f"basis {b} does not hold exactly one 1")


def check_table(bases, dimension: int, n_rays: int, per_ray: int) -> None:
    expect(len(set(map(frozenset, bases))) == len(bases), "duplicate bases")
    expect(all(len(set(b)) == dimension for b in bases),
           "basis of the wrong size")
    occ = occurrences(bases)
    expect(set(occ) == set(range(1, n_rays + 1)), "rays not 1..n")
    expect(set(occ.values()) == {per_ray},
           f"ray occurrence {sorted(set(occ.values()))} != {per_ray}")


def check_radii(radii, polytope: str, flagged: float) -> None:
    """Projected ring radii against the dataset's published radii."""
    want = sorted((p["radius"] for p in dataset(polytope)["pentadecagons"]),
                  reverse=True)
    got = sorted(radii, reverse=True)
    expect(len(got) == len(want), f"{polytope}: {len(got)} rings, "
                                  f"expected {len(want)}")
    for r, w in zip(got, want):
        if abs(w - flagged) < 1e-9:
            continue
        expect(abs(r - w) < 5e-4, f"{polytope}: ring radius {r} vs {w}")


def radius_classes(radii, tol: float = 1e-6) -> list[tuple[float, int]]:
    """(radius, ray count) per projected ring of one radius."""
    classes: list[list] = []
    for r in sorted(radii, reverse=True):
        if classes and abs(classes[-1][0] - r) <= tol:
            classes[-1][1] += 1
        else:
            classes.append([r, 1])
    return [(r, n) for r, n in classes]


def gf2_rows(entries) -> list[int]:
    """Rows of an integer matrix reduced mod 2 and packed into ints."""
    return [sum(1 << j for j, v in enumerate(row) if v % 2) for row in entries]


def in_kernel(rows: list[int], v: int) -> bool:
    return all((row & v).bit_count() % 2 == 0 for row in rows)


def direct_odd_counts(rows: list[int], n: int) -> dict[int, int]:
    """Odd-weight kernel vectors counted by brute force over all 2^n."""
    out: Counter = Counter()
    for v in range(1 << n):
        w = v.bit_count()
        if w % 2 and in_kernel(rows, v):
            out[w] += 1
    return dict(out)


def exact_cover(target: frozenset, pieces) -> bool:
    """Whether some of the pieces partition target exactly."""
    if not target:
        return True
    anchor = min(target)
    return any(exact_cover(target - p, pieces)
               for p in pieces if anchor in p and p <= target)
