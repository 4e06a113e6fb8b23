"""GF(2) bit-matrix algebra, weight enumerators, and proof-word enumeration.

Rows are Python ints used as bit vectors (bit j = column j), so everything
is exact; weight counts are big integers throughout (they reach ~1.9e38 for
the 135-column code), and no floating point appears anywhere in this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Literal, Sequence

from .raysystem import ProfileMatrix, Word, parse_letter

Parity = Literal["odd", "even", "any"]


class EnumerationLimitError(RuntimeError):
    """An exact enumeration would exceed the configured work budget."""


class WeightTransformError(ArithmeticError):
    """The transform produced a non-integral or negative count."""


# --------------------------------------------------------------------------
# bit matrices


@dataclass(frozen=True)
class BitMatrix:
    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n_rows:
            raise ValueError("row count mismatch")
        if any(r < 0 or r >> self.n_cols for r in self.rows):
            raise ValueError("row has bits outside the column range")

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
        return cls(len(packed), width, tuple(packed))


def profile_matrix_mod2(pm: ProfileMatrix) -> BitMatrix:
    return BitMatrix.from_rows(pm.entries)


def _eliminate(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced echelon form; returns (pivot columns, reduced pivot rows)."""
    pivots: list[int] = []
    reduced: list[int] = []
    work = list(rows)
    for col in range(n_cols):
        pivot_row = None
        for i, r in enumerate(work):
            if (r >> col) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        pivot = work.pop(pivot_row)
        work = [r ^ pivot if (r >> col) & 1 else r for r in work]
        reduced = [r ^ pivot if (r >> col) & 1 else r for r in reduced]
        pivots.append(col)
        reduced.append(pivot)
    return pivots, reduced


def gf2_rank(m: BitMatrix) -> int:
    pivots, _ = _eliminate(list(m.rows), m.n_cols)
    return len(pivots)


@dataclass(frozen=True)
class CodeSpec:
    """A binary linear code given by a basis of the nullspace {X: MX=0}."""

    n: int
    k: int
    nullspace_basis: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.k != len(self.nullspace_basis):
            raise ValueError("k != number of basis vectors")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length != n")


def gf2_nullspace(m: BitMatrix,
                  labels: tuple[str, ...] | None = None) -> CodeSpec:
    """Nullspace basis via free columns of the reduced echelon form.

    Each basis vector owns one free column where every other basis vector
    is zero, so a sum of t basis vectors has weight >= t (used for pruning
    in low-weight enumeration).
    """
    pivots, reduced = _eliminate(list(m.rows), m.n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.n_cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for col, row in zip(pivots, reduced):
            if (row >> free) & 1:
                v |= 1 << col
        basis.append(v)
    spec = CodeSpec(m.n_cols, len(basis), tuple(basis), labels)
    for v in spec.nullspace_basis:
        assert _apply(m, v) == 0
    return spec


def _apply(m: BitMatrix, v: int) -> int:
    out = 0
    for i, row in enumerate(m.rows):
        if (row & v).bit_count() % 2:
            out |= 1 << i
    return out


def in_nullspace(m: BitMatrix, v: int) -> bool:
    return _apply(m, v) == 0


def nullspace_of_profiles(pm: ProfileMatrix) -> CodeSpec:
    return gf2_nullspace(profile_matrix_mod2(pm), pm.col_labels)


# --------------------------------------------------------------------------
# weight distributions


@dataclass(frozen=True)
class WeightDistribution:
    """Exact codeword counts per Hamming weight (zero weights omitted)."""

    counts: dict[int, int]

    def __post_init__(self) -> None:
        if any(w < 0 or c < 0 for w, c in self.counts.items()):
            raise ValueError("negative weight or count")

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
    vector of the span, once."""
    v = 0
    yield v
    for i in range(1, 1 << len(basis)):
        v ^= basis[(i & -i).bit_length() - 1]
        yield v


def _span_weights(basis: list[int], extra_budget: int = 1 << 27) -> dict[int, int]:
    """Weights of all 2^len(basis) subset sums."""
    k = len(basis)
    if 1 << k > extra_budget:
        raise EnumerationLimitError(f"2^{k} codewords is beyond the "
                                    "enumeration budget")
    return Counter(map(int.bit_count, span(basis)))


def dual_weight_distribution(m: BitMatrix,
                             rank_limit: int = 26) -> WeightDistribution:
    """Exact weights of the row-space code (dimension = rank of M mod 2)."""
    _, reduced = _eliminate(list(m.rows), m.n_cols)
    if len(reduced) > rank_limit:
        raise EnumerationLimitError(
            f"rank {len(reduced)} exceeds the dual enumeration limit "
            f"{rank_limit}")
    return WeightDistribution(_span_weights(reduced))


def enumerate_code_weights(spec: CodeSpec) -> WeightDistribution:
    """Direct enumeration of the nullspace code (oracle-grade, exponential)."""
    return WeightDistribution(_span_weights(list(spec.nullspace_basis)))


def krawtchouk(n: int, w: int, w_dual: int) -> int:
    """Binary Krawtchouk kernel K_w(w_dual; n), exact."""
    return sum((-1) ** j * comb(w_dual, j) * comb(n - w_dual, w - j)
               for j in range(0, min(w, w_dual) + 1))


def macwilliams_transform(dual: WeightDistribution,
                          n: int) -> WeightDistribution:
    """Weight distribution of a code from its dual's, exactly.

    A_w = (1/|D|) * sum_{w'} D[w'] * K_w(w'; n).  Raises if any output is
    negative or not an integer, which signals an inconsistent input.
    """
    size = dual.total()
    if size <= 0 or size & (size - 1):
        raise WeightTransformError(f"dual size {size} is not a power of two")
    out: dict[int, int] = {}
    items = dual.items()
    for w in range(n + 1):
        s = sum(c * krawtchouk(n, w, wd) for wd, c in items)
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
                         parity: Parity = "any",
                         work_budget: int = 2_000_000,
                         cap: int | None = None) -> list[int]:
    """All codewords of weight <= max_weight, as bit vectors, support-sorted.

    Complete because every basis vector contributes a private free-column
    bit: a combination of t basis vectors weighs at least t, so only
    subsets of size <= max_weight need inspection.
    """
    if max_weight > spec.n:
        raise ValueError("max_weight exceeds the code length")
    work = sum(comb(spec.k, t) for t in range(0, max_weight + 1))
    if work > work_budget:
        raise EnumerationLimitError(
            f"{work} candidate combinations exceed the work budget "
            f"{work_budget}")
    found: list[int] = []
    for t in range(0, max_weight + 1):
        for combo in combinations(range(spec.k), t):
            v = 0
            for i in combo:
                v ^= spec.nullspace_basis[i]
            w = v.bit_count()
            if w <= max_weight and _parity_ok(w, parity):
                found.append(v)
                if cap is not None and len(found) > cap:
                    raise EnumerationLimitError(
                        f"more than {cap} codewords emitted")
    found.sort(key=_support)
    return found


def _support(v: int) -> tuple[int, ...]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return tuple(out)


def vector_to_word(v: int, labels: tuple[str, ...],
                   polytope: str | None = None) -> Word:
    return Word(frozenset(labels[i] for i in _support(v)), polytope)


def word_to_vector(w: Word, labels: tuple[str, ...]) -> int:
    v = 0
    for tok in w.letters:
        v |= 1 << labels.index(tok)
    return v


def enumerate_words(spec: CodeSpec, max_weight: int,
                    parity: Parity = "odd",
                    polytope: str | None = None,
                    work_budget: int = 2_000_000,
                    cap: int | None = None) -> list[Word]:
    """Low-weight codewords rendered as generator words.

    Deterministic: ordered lexicographically by support under the canonical
    letter order (the column order of the profile matrix).
    """
    if spec.labels is None:
        raise ValueError("code spec carries no generator labels")
    vectors = enumerate_low_weight(spec, max_weight, parity,
                                   work_budget, cap)
    return [vector_to_word(v, spec.labels, polytope) for v in vectors]


def is_minimal_word(w: Word, pm: ProfileMatrix,
                    support_limit: int = 25) -> bool:
    """Whether no odd sub-word of w is itself a nullspace word.

    Restricts the counting matrix to the word's letters, enumerates the
    restricted nullspace exactly, and checks that the all-ones vector is
    its only odd-weight element.
    """
    letters = sorted(w.letters, key=parse_letter)
    if len(letters) % 2 == 0:
        raise ValueError("minimality is defined for odd-weight words")
    if len(letters) > support_limit:
        raise EnumerationLimitError(
            f"support {len(letters)} exceeds the exact-search limit "
            f"{support_limit}")
    cols = [pm.col_labels.index(tok) for tok in letters]
    restricted = BitMatrix.from_rows(
        [[row[j] for j in cols] for row in pm.entries])
    all_ones = (1 << len(cols)) - 1
    if not in_nullspace(restricted, all_ones):
        raise ValueError(f"word {w} is not a nullspace element")
    sub = gf2_nullspace(restricted)
    return all(v == all_ones for v in span(sub.nullspace_basis)
               if v.bit_count() % 2)
