"""GF(2) bit-matrix algebra, weight enumerators, and proof-word enumeration.

Rows are Python ints used as bit vectors (bit j = column j), so everything
is exact; weight counts are big integers throughout (they reach ~1.9e38 for
the 135-column code), and no floating point appears anywhere in this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, combinations
from math import comb
from operator import sub
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

from .raysystem import ProfileMatrix, Word, parse_letter

Parity = Literal["odd", "even", "any"]


class EnumerationLimitError(RuntimeError):
    """A search or an exact enumeration would exceed its work limit."""


# the most basis vectors span() walks, so at most 2^25 vectors
SPAN_LIMIT = 25
# the most candidate combinations enumerate_low_weight inspects
ENUMERATION_BUDGET = 2_000_000


class WeightTransformError(ArithmeticError):
    """The transform produced a non-integral or negative count."""


# --------------------------------------------------------------------------
# bit matrices


class BitMatrix(NamedTuple):
    n_cols: int
    rows: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "BitMatrix":
        packed = []
        width = 0
        for row in rows:
            bits = 0
            for j, v in enumerate(row):
                if v % 2:
                    bits |= 1 << j
                width = max(width, j + 1)
            packed.append(bits)
        return cls(width, tuple(packed))


def profile_matrix_mod2(pm: ProfileMatrix) -> BitMatrix:
    return BitMatrix.from_rows(pm.entries)


def _eliminate(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Echelon form; returns (pivot columns, pivot rows), pivots ascending.

    Each row is reduced by the pivot rows found so far, keyed by their
    lowest set bit, until it is zero or brings a new lowest bit.  A pivot
    row's lowest bit is its pivot; its other bits may lie in any column
    above, later pivot columns included (no back-substitution).
    """
    by_low: dict[int, int] = {}
    for r in rows:
        while r:
            low = r & -r
            if low not in by_low:
                by_low[low] = r
                break
            r ^= by_low[low]
    lows = sorted(by_low)
    return ([low.bit_length() - 1 for low in lows],
            [by_low[low] for low in lows])


class CodeSpec(NamedTuple):
    """A binary linear code given by a basis of the nullspace {X: MX=0}."""

    n: int
    k: int
    nullspace_basis: tuple[int, ...]
    labels: tuple[str, ...] | None = None


def gf2_nullspace(m: BitMatrix,
                  labels: tuple[str, ...] | None = None) -> CodeSpec:
    """Nullspace basis, one vector per free (non-pivot) column.

    The vector of free column f is the one solution that meets the free
    columns in f alone, solved against the echelon rows highest pivot
    first: a row has no bit below its pivot, so its pivot bit is the
    parity of the row against the bits already set.  A sum of t basis
    vectors thus weighs >= t (used for pruning in low-weight enumeration).
    """
    pivots, rows = _eliminate(m.rows)
    pivot_set = set(pivots)
    descending = list(zip(pivots, rows))[::-1]
    basis = []
    for free in range(m.n_cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for col, row in descending:
            if (row & v).bit_count() & 1:
                v |= 1 << col
        basis.append(v)
    spec = CodeSpec(m.n_cols, len(basis), tuple(basis), labels)
    for v in spec.nullspace_basis:
        assert in_nullspace(m, v)
    return spec


def in_nullspace(m: BitMatrix, v: int) -> bool:
    """Whether M v = 0: every row meets v in an even number of bits."""
    return not any((row & v).bit_count() % 2 for row in m.rows)


# --------------------------------------------------------------------------
# weight distributions


class WeightDistribution(NamedTuple):
    """Exact codeword counts per Hamming weight (zero weights omitted)."""

    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())

    def __getitem__(self, w: int) -> int:
        return self.counts.get(w, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def odd_weight_total(dist: WeightDistribution) -> int:
    return sum(c for w, c in dist.counts.items() if w % 2)


def span(basis: Sequence[int]) -> Iterator[int]:
    """Every subset sum of the basis, 0 first, in Gray-code order: each
    step flips one basis vector.  For an independent basis this is every
    vector of the span, once.  Raises EnumerationLimitError, before the
    first vector, when the basis has more than SPAN_LIMIT vectors."""
    if len(basis) > SPAN_LIMIT:
        raise EnumerationLimitError(
            f"a span of dimension {len(basis)} exceeds the enumeration "
            f"limit {SPAN_LIMIT}")
    v = 0
    yield v
    for i in range(1, 1 << len(basis)):
        v ^= basis[(i & -i).bit_length() - 1]
        yield v


def dual_weight_distribution(m: BitMatrix) -> WeightDistribution:
    """Exact weights of the row-space code (dimension = rank of M mod 2)."""
    _, rows = _eliminate(m.rows)
    return WeightDistribution(Counter(map(int.bit_count, span(rows))))


def _kernel_rows(n: int) -> Iterator[list[int]]:
    """The binary Krawtchouk kernel K_w(w'; n), w = 0..n, one row per dual
    weight w' = 0..n: the coefficients of (1 - z)^w' (1 + z)^(n - w')."""
    row = [comb(n, w) for w in range(n + 1)]
    yield row
    for _ in range(n):
        # times (1 - z), then divided by (1 + z): q_w = p_w - q_(w-1)
        row = list(accumulate(map(sub, row, [0, *row]), lambda q, p: p - q))
        yield row


def macwilliams_transform(dual: WeightDistribution,
                          n: int) -> WeightDistribution:
    """Weight distribution of a code from its dual's, exactly.

    A_w = (1/|D|) * sum_{w'} D[w'] * K_w(w'; n).  Raises if any output is
    negative or not an integer, which signals an inconsistent input.
    """
    size = dual.total()
    if size <= 0 or size & (size - 1):
        raise WeightTransformError(f"dual size {size} is not a power of two")
    top = max(dual.counts)
    if top > n:
        raise WeightTransformError(f"dual weight {top} exceeds the length {n}")
    sums = [0] * (n + 1)
    for wd, row in zip(range(top + 1), _kernel_rows(n)):
        if c := dual[wd]:
            sums = [s + c * k for s, k in zip(sums, row)]
    out: dict[int, int] = {}
    for w, s in enumerate(sums):
        if s < 0 or s % size:
            raise WeightTransformError(
                f"weight {w}: transform value {s} not divisible by {size}")
        if s:
            out[w] = s // size
    return WeightDistribution(out)


def minimality_bound(n: int, k: int) -> int:
    """Largest weight a minimal codeword of an (n, k) code can have."""
    if k > n:
        raise ValueError("k exceeds n")
    return n - k + 1


# --------------------------------------------------------------------------
# word enumeration and minimality


def _parity_ok(weight: int, parity: Parity) -> bool:
    if parity == "odd":
        return weight % 2 == 1
    if parity == "even":
        return weight % 2 == 0
    return True


def enumerate_low_weight(spec: CodeSpec, max_weight: int,
                         parity: Parity = "any") -> list[int]:
    """All codewords of weight <= max_weight, as bit vectors, support-sorted.

    Complete because every basis vector contributes a private free-column
    bit: a combination of t basis vectors weighs at least t, so only
    subsets of size <= max_weight need inspection.
    """
    work = sum(comb(spec.k, t) for t in range(0, max_weight + 1))
    if work > ENUMERATION_BUDGET:
        raise EnumerationLimitError(
            f"{work} candidate combinations exceed the work budget "
            f"{ENUMERATION_BUDGET}")
    basis = spec.nullspace_basis
    found: list[int] = []
    for t in range(0, max_weight + 1):
        for combo in combinations(range(spec.k), t):
            v = 0
            for i in combo:
                v ^= basis[i]
            w = v.bit_count()
            if w <= max_weight and _parity_ok(w, parity):
                found.append(v)
    found.sort(key=_support)
    return found


def _support(v: int) -> tuple[int, ...]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return tuple(out)


def enumerate_words(spec: CodeSpec, max_weight: int,
                    parity: Parity = "odd") -> list[Word]:
    """Low-weight codewords rendered as generator words.

    Deterministic: ordered lexicographically by support under the canonical
    letter order (the column order of the profile matrix).
    """
    if spec.labels is None:
        raise ValueError("code spec carries no generator labels")
    return [Word(frozenset(spec.labels[i] for i in _support(v)))
            for v in enumerate_low_weight(spec, max_weight, parity)]


def is_minimal_word(w: Word, pm: ProfileMatrix) -> bool:
    """Whether no odd sub-word of w is itself a nullspace word.

    The all-ones vector lies in the nullspace of the counting matrix
    restricted to w's letters, so that nullspace's odd vectors are
    all-ones plus its even subcode, of dimension nullity - 1: w is minimal
    iff the restricted nullity is 1.  Nothing is enumerated.
    """
    letters = sorted(w.letters, key=parse_letter)
    if len(letters) % 2 == 0:
        raise ValueError("minimality is defined for odd-weight words")
    cols = [pm.col_labels.index(tok) for tok in letters]
    restricted = BitMatrix.from_rows(
        [[row[j] for j in cols] for row in pm.entries])
    all_ones = (1 << len(cols)) - 1
    if not in_nullspace(restricted, all_ones):
        raise ValueError(f"word {w} is not a nullspace element")
    return gf2_nullspace(restricted).k == 1
