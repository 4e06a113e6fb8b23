"""Ray numbering, generator orbits, basis tables, and the word algebra.

The rays of each polytope are numbered around concentric pentadecagons
(15-gons), fifteen consecutive ids per pentadecagon.  A generator is a
representative basis; shifting every ray cyclically inside its pentadecagon
("wraparound") produces an orbit of fifteen bases, and the union of all
orbits is the polytope's basis table.  Sets of generator letters ("words")
compose by symmetric difference and, when they hit every pentadecagon an
even number of times, describe fifteen-fold symmetric parity proofs whose
ray-basis symbol can be read off the generator profiles alone.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

POLYTOPES = ("600cell", "120cell", "gosset")
ORBIT = 15  # bases per generator = rays per pentadecagon

Basis = tuple[int, ...]


# --------------------------------------------------------------------------
# layouts


@dataclass(frozen=True)
class Pentadecagon:
    """One ring of fifteen rays: id range [lo, hi] at a radius/start angle."""

    label: str
    lo: int
    hi: int
    radius: float
    angle_deg: float


@dataclass(frozen=True)
class PentadecagonLayout:
    """The ray-numbering scheme of one polytope."""

    polytope: str
    dimension: int
    pentadecagons: tuple[Pentadecagon, ...]

    def __post_init__(self) -> None:
        if self.polytope not in POLYTOPES:
            raise ValueError(f"unknown polytope {self.polytope!r}")
        if not self.pentadecagons:
            raise ValueError("a layout needs at least one pentadecagon")
        labels = [p.label for p in self.pentadecagons]
        if len(set(labels)) != len(labels):
            raise ValueError("pentadecagon labels are not unique")
        expect_lo = 1
        for p in self.pentadecagons:
            if p.lo != expect_lo or p.hi != p.lo + ORBIT - 1:
                raise ValueError(f"pentadecagon {p.label} does not span "
                                 f"15 consecutive ids starting at {expect_lo}")
            expect_lo = p.hi + 1

    @property
    def n_rays(self) -> int:
        return self.pentadecagons[-1].hi

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.pentadecagons)

    def pentadecagon_of(self, ray: int) -> Pentadecagon:
        if not 1 <= ray <= self.n_rays:
            raise ValueError(f"ray {ray} out of range 1..{self.n_rays}")
        return self.pentadecagons[(ray - 1) // ORBIT]

    def shift_ray(self, ray: int, shift: int) -> int:
        """Cyclic shift of a ray inside its own pentadecagon (wraparound)."""
        p = self.pentadecagon_of(ray)
        return p.lo + (ray - p.lo + shift) % ORBIT


# --------------------------------------------------------------------------
# generators and basis tables


@dataclass(frozen=True)
class Generator:
    """A representative basis: a letter label plus d sorted ray ids."""

    label: str
    rays: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.rays) != sorted(set(self.rays)):
            raise ValueError(f"generator {self.label}: rays must be "
                             "strictly increasing and distinct")
        parse_letter(self.label)


def check_generators(layout: PentadecagonLayout,
                     generators: Sequence[Generator]) -> None:
    if not generators:
        raise ValueError("generator list is empty")
    labels = [g.label for g in generators]
    if len(set(labels)) != len(labels):
        raise ValueError("generator labels are not unique")
    for g in generators:
        if len(g.rays) != layout.dimension:
            raise ValueError(f"generator {g.label}: expected "
                             f"{layout.dimension} rays, got {len(g.rays)}")
        for r in g.rays:
            layout.pentadecagon_of(r)


def expand_orbit(gen: Generator, layout: PentadecagonLayout,
                 shift: int) -> Basis:
    """Shift every ray of the generator by `shift` with wraparound."""
    if not 0 <= shift <= ORBIT - 1:
        raise ValueError(f"shift {shift} outside 0..14")
    return tuple(sorted(layout.shift_ray(r, shift) for r in gen.rays))


@dataclass(frozen=True)
class BasisTable:
    """All bases of a polytope in generator-major, shift-minor order."""

    layout: PentadecagonLayout
    generators: tuple[Generator, ...]
    bases: tuple[Basis, ...]
    origin: tuple[tuple[str, int], ...]  # (generator label, shift) per basis

    def orbit_indices(self, label: str) -> range:
        """Table indices of the fifteen bases generated by one letter."""
        for i, g in enumerate(self.generators):
            if g.label == label:
                return range(ORBIT * i, ORBIT * (i + 1))
        raise KeyError(f"unknown generator letter {label!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)


def build_basis_table(layout: PentadecagonLayout,
                      generators: Sequence[Generator]) -> BasisTable:
    """Expand every generator orbit and verify the global invariants."""
    check_generators(layout, generators)
    bases: list[Basis] = []
    origin: list[tuple[str, int]] = []
    for g in generators:
        for s in range(ORBIT):
            bases.append(expand_orbit(g, layout, s))
            origin.append((g.label, s))
    if len(set(bases)) != len(bases):
        raise ValueError("duplicate basis across generator orbits")
    # uniform over the rays that occur (partial generator sets leave the
    # other pentadecagons untouched; a full set covers every ray)
    counts = set(ray_occurrences(bases).values())
    if len(counts) != 1:
        raise ValueError(f"non-uniform ray occurrence: {sorted(counts)}")
    return BasisTable(layout, tuple(generators), tuple(bases), tuple(origin))


def ray_occurrences(bases: Iterable[Basis]) -> Counter[int]:
    """How many of the given bases contain each ray."""
    return Counter(chain.from_iterable(bases))


def ray_index(bases: Iterable[Basis]
              ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The rays that occur, sorted, and each basis as the positions of its
    rays in that order."""
    bases = list(bases)
    rays = tuple(sorted(set(chain.from_iterable(bases))))
    pos = {r: i for i, r in enumerate(rays)}
    return rays, [tuple(pos[r] for r in b) for b in bases]


def basis_profile(basis: Iterable[int], layout: PentadecagonLayout) -> str:
    """Pentadecagon label of each ray, concatenated in layout order."""
    labels = sorted(((r - 1) // ORBIT, layout.pentadecagon_of(r).label)
                    for r in basis)
    return "".join(lab for _, lab in labels)


@dataclass(frozen=True)
class ProfileMatrix:
    """Pentadecagon-by-generator occurrence counts (the counting matrix)."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]  # rows

    def __post_init__(self) -> None:
        d = sum(row[0] for row in self.entries)
        for j in range(len(self.col_labels)):
            if sum(row[j] for row in self.entries) != d:
                raise ValueError("profile-matrix columns do not all sum "
                                 "to the basis size")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def column_of(self, label: str) -> tuple[int, ...]:
        return self.column(self.col_labels.index(label))


def build_profile_matrix(layout: PentadecagonLayout,
                         generators: Sequence[Generator]) -> ProfileMatrix:
    check_generators(layout, generators)
    rows = []
    for p in layout.pentadecagons:
        rows.append(tuple(sum(1 for r in g.rays if p.lo <= r <= p.hi)
                          for g in generators))
    return ProfileMatrix(layout.labels,
                         tuple(g.label for g in generators), tuple(rows))


# --------------------------------------------------------------------------
# words

_LETTER_RE = re.compile(r"([a-z])([']?)(\d*)\Z")
_SCAN_RE = re.compile(r"\s*([a-z])([']?)(?:_?(\d+))?")


def parse_letter(token: str) -> tuple[int, str, int]:
    """Sort key of a letter token: unprimed before primed, then by index."""
    m = _LETTER_RE.match(token)
    if not m:
        raise ValueError(f"malformed generator letter {token!r}")
    return (1 if m.group(2) else 0, m.group(1), int(m.group(3) or 0))


@dataclass(frozen=True)
class Word:
    """A set of distinct generator letters, optionally tagged by polytope."""

    letters: frozenset[str]
    polytope: str | None = None

    def __post_init__(self) -> None:
        for tok in self.letters:
            parse_letter(tok)
        if self.polytope is not None and self.polytope not in POLYTOPES:
            raise ValueError(f"unknown polytope {self.polytope!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return render_word(self)


def parse_word(text: str, polytope: str | None = None) -> Word:
    """Parse space-separated or concatenated letter tokens.

    Accepts both the compact form ("abegkri'") and the indexed form
    ("a1 c1 d1 h1 m1", with "e'2" and "e'_2" equivalent).  Unicode primes
    are normalised to ASCII.
    """
    text = text.replace("′", "'")
    letters: list[str] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _SCAN_RE.match(text, pos)
        if not m:
            raise ValueError(f"malformed word at {text[pos:]!r}")
        letters.append(m.group(1) + ("'" if m.group(2) else "")
                       + (m.group(3) or ""))
        pos = m.end()
    if len(set(letters)) != len(letters):
        raise ValueError(f"duplicate letter in word {text!r}")
    return Word(frozenset(letters), polytope)


def render_word(w: Word) -> str:
    """Canonical text: letters sorted, space separated."""
    return " ".join(sorted(w.letters, key=parse_letter))


def compose_words(u: Word, v: Word) -> Word:
    """Symmetric difference of the letter sets (the group law)."""
    if u.polytope and v.polytope and u.polytope != v.polytope:
        raise ValueError(f"cannot compose words of different polytopes "
                         f"({u.polytope} vs {v.polytope})")
    return Word(u.letters ^ v.letters, u.polytope or v.polytope)


EMPTY_WORD = Word(frozenset())


def word_to_bases(w: Word, table: BasisTable) -> frozenset[int]:
    """Union of the fifteen-basis orbits of the word's letters (indices)."""
    out: set[int] = set()
    for tok in w.letters:
        out.update(table.orbit_indices(tok))
    return frozenset(out)


# --------------------------------------------------------------------------
# ray-basis symbols


@dataclass(frozen=True)
class RayBasisSymbol:
    """Occurrence census of a basis set: e.g. 150_2 30_4-105_4.

    ray_terms lists (multiplicity, ray_count) sorted by multiplicity; the
    right-hand term is the basis count subscripted by the basis size.
    """

    ray_terms: tuple[tuple[int, int], ...]
    basis_count: int
    basis_size: int

    def __post_init__(self) -> None:
        if self.basis_count <= 0:
            raise ValueError("symbol needs a positive basis count")
        mass = sum(mult * rays for mult, rays in self.ray_terms)
        if mass != self.basis_size * self.basis_count:
            raise ValueError(f"symbol mass {mass} != "
                             f"{self.basis_size}*{self.basis_count}")
        if list(self.ray_terms) != sorted(self.ray_terms):
            raise ValueError("ray terms must be sorted by multiplicity")
        if any(rays <= 0 or mult <= 0 for mult, rays in self.ray_terms):
            raise ValueError("ray terms must be positive")

    def __str__(self) -> str:
        left = " ".join(f"{rays}_{mult}" for mult, rays in self.ray_terms)
        return f"{left}-{self.basis_count}_{self.basis_size}"


def parse_symbol(text: str) -> RayBasisSymbol:
    """Inverse of str(RayBasisSymbol), e.g. '150_2 30_4-105_4'."""
    left, right = text.rsplit("-", 1)
    count, size = (int(x) for x in right.split("_"))
    terms = []
    for part in left.split():
        rays, mult = (int(x) for x in part.split("_"))
        terms.append((mult, rays))
    return RayBasisSymbol(tuple(sorted(terms)), count, size)


def ray_basis_symbol(bases: Iterable[Basis],
                     layout: PentadecagonLayout) -> RayBasisSymbol:
    """Group rays by how many of the given bases contain them."""
    bases = list(bases)
    if not bases:
        raise ValueError("symbol of an empty basis set is undefined")
    by_mult = Counter(ray_occurrences(bases).values())
    return RayBasisSymbol(tuple(sorted(by_mult.items())), len(bases),
                          layout.dimension)


def symbol_from_word(w: Word, generators: Sequence[Generator],
                     layout: PentadecagonLayout) -> RayBasisSymbol:
    """Ray-basis symbol computed from generator profiles alone.

    Never expands any orbit: each ray of pentadecagon p occurs, over the
    word's bases, exactly as often as p occurs across the letters' profiles,
    so a pentadecagon counted t times contributes fifteen rays of
    multiplicity t.
    """
    if not w.letters:
        raise ValueError("symbol of the empty word is undefined")
    by_label = {g.label: g for g in generators}
    totals = {p.label: 0 for p in layout.pentadecagons}
    for tok in sorted(w.letters, key=parse_letter):
        if tok not in by_label:
            raise KeyError(f"unknown generator letter {tok!r}")
        for r in by_label[tok].rays:
            totals[layout.pentadecagon_of(r).label] += 1
    by_mult: dict[int, int] = {}
    for t in totals.values():
        if t:
            by_mult[t] = by_mult.get(t, 0) + ORBIT
    return RayBasisSymbol(tuple(sorted(by_mult.items())),
                          ORBIT * len(w.letters), layout.dimension)


# --------------------------------------------------------------------------
# exports


def table_to_json(table: BasisTable) -> dict:
    """Table dump: an array of ray arrays plus 1-based origin annotations."""
    return {
        "polytope": table.layout.polytope,
        "dimension": table.layout.dimension,
        "count": len(table.bases),
        "bases": [list(b) for b in table.bases],
        "origin": [
            {"index": i + 1, "generator": lab, "shift": shift}
            for i, (lab, shift) in enumerate(table.origin)
        ],
    }


def table_to_csv(table: BasisTable) -> str:
    """One basis per row: index, generator, shift, then the d rays."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = table.layout.dimension
    writer.writerow(["index", "generator", "shift"]
                    + [f"r{i + 1}" for i in range(d)])
    for i, (b, (lab, shift)) in enumerate(zip(table.bases, table.origin)):
        writer.writerow([i + 1, lab, shift, *b])
    return buf.getvalue()
