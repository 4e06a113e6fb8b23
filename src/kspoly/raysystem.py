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

import re
from collections import Counter, namedtuple
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

POLYTOPES = ("600cell", "120cell", "gosset")
ORBIT = 15  # bases per generator = rays per pentadecagon

Basis = tuple[int, ...]


# --------------------------------------------------------------------------
# layouts


class Pentadecagon(NamedTuple):
    """One ring of fifteen rays: id range [lo, hi] at a radius/start angle."""

    label: str
    lo: int
    hi: int
    radius: float
    angle_deg: float


class PentadecagonLayout(namedtuple("PentadecagonLayout",
                                    "polytope dimension pentadecagons")):
    """The ray-numbering scheme of one polytope."""

    __slots__ = ()

    def __new__(cls, polytope: str, dimension: int,
                pentadecagons: tuple[Pentadecagon, ...]
                ) -> PentadecagonLayout:
        if polytope not in POLYTOPES:
            raise ValueError(f"unknown polytope {polytope!r}")
        if not pentadecagons:
            raise ValueError("a layout needs at least one pentadecagon")
        labels = [p.label for p in pentadecagons]
        if len(set(labels)) != len(labels):
            raise ValueError("pentadecagon labels are not unique")
        expect_lo = 1
        for p in pentadecagons:
            if p.lo != expect_lo or p.hi != p.lo + ORBIT - 1:
                raise ValueError(f"pentadecagon {p.label} does not span "
                                 f"15 consecutive ids starting at {expect_lo}")
            expect_lo = p.hi + 1
        return super().__new__(cls, polytope, dimension, pentadecagons)

    @property
    def n_rays(self) -> int:
        return self.pentadecagons[-1].hi

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.pentadecagons)


# --------------------------------------------------------------------------
# generators and basis tables


class Generator(namedtuple("Generator", "label rays")):
    """A representative basis: a letter label plus d sorted ray ids."""

    __slots__ = ()

    def __new__(cls, label: str, rays: tuple[int, ...]) -> Generator:
        if list(rays) != sorted(set(rays)):
            raise ValueError(f"generator {label}: rays must be "
                             "strictly increasing and distinct")
        parse_letter(label)
        return super().__new__(cls, label, rays)


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
            if not 1 <= r <= layout.n_rays:
                raise ValueError(f"ray {r} out of range 1..{layout.n_rays}")


def shift_position(p: int, k: int) -> int:
    """σ^k on a 0-based ray position, σ the wraparound: p moves k steps
    round its block of fifteen positions (0-14, 15-29, ...)."""
    return p - p % ORBIT + (p + k) % ORBIT


def shift_mask(n: int, k: int) -> Callable[[int], int]:
    """σ^k on bitsets of n positions, n a multiple of fifteen: each block's
    bits move k up, the top k wrapping round to the block's bottom."""
    top = sum(((1 << k) - 1) << i + ORBIT - k for i in range(0, n, ORBIT))
    return lambda m: (m & ~top) << k | (m & top) >> ORBIT - k


def expand_orbit(gen: Generator, shift: int) -> Basis:
    """Shift every ray of the generator by `shift` (0..14) with wraparound.

    A layout numbers its pentadecagons in blocks of fifteen ids from 1, so
    ray r shifts inside the block starting at r - (r - 1) % 15.  The
    generator is trusted to be one that `check_generators` has passed.
    """
    return tuple(sorted(r - (r - 1) % ORBIT + (r - 1 + shift) % ORBIT
                        for r in gen.rays))


class BasisTable(NamedTuple):
    """All bases of a polytope in generator-major, shift-minor order."""

    layout: PentadecagonLayout
    generators: tuple[Generator, ...]
    bases: tuple[Basis, ...]

    def orbit_indices(self, label: str) -> range:
        """Table indices of the fifteen bases generated by one letter."""
        for i, g in enumerate(self.generators):
            if g.label == label:
                return range(ORBIT * i, ORBIT * (i + 1))
        raise KeyError(f"unknown generator letter {label!r}")


def build_basis_table(layout: PentadecagonLayout,
                      generators: Sequence[Generator]) -> BasisTable:
    """Expand every generator orbit and verify the global invariants."""
    bases = [expand_orbit(g, s)
             for g in generators for s in range(ORBIT)]
    if len(set(bases)) != len(bases):
        raise ValueError("duplicate basis across generator orbits")
    # uniform over the rays that occur (partial generator sets leave the
    # other pentadecagons untouched; a full set covers every ray)
    counts = set(ray_occurrences(bases).values())
    if len(counts) != 1:
        raise ValueError(f"non-uniform ray occurrence: {sorted(counts)}")
    return BasisTable(layout, tuple(generators), tuple(bases))


def ray_occurrences(bases: Iterable[Basis]) -> Counter[int]:
    """How many of the given bases contain each ray."""
    return Counter(chain.from_iterable(bases))


def ray_index(bases: Iterable[Basis]
              ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The rays that occur, sorted, and each basis as the positions of its
    rays in that order.  Only the incidence matrix of a decomposition and
    the hypergraph match use it: the assignment search takes ray ids as
    its bit positions."""
    bases = list(bases)
    rays = tuple(sorted(set(chain.from_iterable(bases))))
    pos = {r: i for i, r in enumerate(rays)}.__getitem__
    return rays, [tuple(map(pos, b)) for b in bases]


def basis_profile(basis: Iterable[int], layout: PentadecagonLayout) -> str:
    """Pentadecagon label of each ray, concatenated in layout order."""
    return "".join(layout.pentadecagons[(r - 1) // ORBIT].label
                   for r in sorted(basis))


class ProfileMatrix(NamedTuple):
    """Pentadecagon-by-generator occurrence counts (the counting matrix):
    row and column labels, and the entries as a tuple of rows."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]


def build_profile_matrix(layout: PentadecagonLayout,
                         generators: Sequence[Generator]) -> ProfileMatrix:
    """Each generator's rays per ring, ray r in ring (r - 1) // 15."""
    rows = [[0] * len(generators) for _ in layout.pentadecagons]
    for j, g in enumerate(generators):
        for r in g.rays:
            rows[(r - 1) // ORBIT][j] += 1
    return ProfileMatrix(layout.labels, tuple(g.label for g in generators),
                         tuple(map(tuple, rows)))


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


class Word(namedtuple("Word", "letters")):
    """A set of distinct generator letters."""

    __slots__ = ()

    def __new__(cls, letters: frozenset[str]) -> Word:
        for tok in letters:
            parse_letter(tok)
        return super().__new__(cls, letters)

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def _make(cls, fields) -> Word:  # namedtuple's would check len()
        return cls(*fields)

    def __str__(self) -> str:
        return render_word(self)


def parse_word(text: str) -> Word:
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
    return Word(frozenset(letters))


def render_word(w: Word) -> str:
    """Canonical text: letters sorted, space separated."""
    return " ".join(sorted(w.letters, key=parse_letter))


def compose_words(u: Word, v: Word) -> Word:
    """Symmetric difference of the letter sets (the group law)."""
    return Word(u.letters ^ v.letters)


EMPTY_WORD = Word(frozenset())


def word_to_bases(w: Word, table: BasisTable) -> frozenset[int]:
    """Union of the fifteen-basis orbits of the word's letters (indices)."""
    out: set[int] = set()
    for tok in w.letters:
        out.update(table.orbit_indices(tok))
    return frozenset(out)


# --------------------------------------------------------------------------
# ray-basis symbols


class RayBasisSymbol(NamedTuple):
    """Occurrence census of a basis set: e.g. 150_2 30_4-105_4.

    ray_terms lists (multiplicity, ray_count) sorted by multiplicity; the
    right-hand term is the basis count subscripted by the basis size.
    """

    ray_terms: tuple[tuple[int, int], ...]
    basis_count: int
    basis_size: int

    def __str__(self) -> str:
        left = " ".join(f"{rays}_{mult}" for mult, rays in self.ray_terms)
        return f"{left}-{self.basis_count}_{self.basis_size}"


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
    totals = [0] * len(layout.pentadecagons)
    for tok in sorted(w.letters, key=parse_letter):
        for r in by_label[tok].rays:
            totals[(r - 1) // ORBIT] += 1
    by_mult: dict[int, int] = {}
    for t in totals:
        if t:
            by_mult[t] = by_mult.get(t, 0) + ORBIT
    return RayBasisSymbol(tuple(sorted(by_mult.items())),
                          ORBIT * len(w.letters), layout.dimension)
