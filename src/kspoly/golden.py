"""Exact arithmetic in the golden ring Z[a] with a = (1 - sqrt 5)/2.

An element m + n*a is the plain integer pair (m, n), and a golden vector
is a tuple of such pairs; the defining relation is a^2 = a + 1.  The
companion constant b = 1 - a = (1 + sqrt 5)/2 is the golden ratio, and
a*b = -1.  Orthogonality decisions are exact: m + n*a = 0 iff m = n = 0,
since a is irrational.  Integer vectors (the E8 roots) are golden vectors
with every n = 0.
"""

from __future__ import annotations

import math

_SQRT5 = math.sqrt(5.0)

Golden = tuple[int, int]
GoldenVector = tuple[Golden, ...]

ZERO: Golden = (0, 0)
ALPHA: Golden = (0, 1)         # (1 - sqrt 5)/2
BETA: Golden = (1, -1)         # 1 - ALPHA = golden ratio


def mul(x: Golden, y: Golden) -> Golden:
    """(m1 + n1 a)(m2 + n2 a) with a^2 = a + 1."""
    (m1, n1), (m2, n2) = x, y
    return (m1 * m2 + n1 * n2, m1 * n2 + n1 * m2 + n1 * n2)


def sign(x: Golden) -> int:
    """Exact sign of m + n*(1 - sqrt 5)/2, computed over the integers."""
    # 2*value = a - b*sqrt5 with a = 2m + n, b = n
    a, b = 2 * x[0] + x[1], x[1]
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa != sb:
        return sa or -sb
    # same signs: compare |a| with |b|*sqrt5 by their squares
    return sa * ((a * a > 5 * b * b) - (a * a < 5 * b * b))


def value(x: Golden) -> float:
    return x[0] + x[1] * (1.0 - _SQRT5) / 2.0


def to_text(x: Golden) -> str:
    """Compact text form: 3, a, -a, 2-3a."""
    m, n = x
    if n == 0:
        return str(m)
    a_part = "a" if n == 1 else "-a" if n == -1 else f"{n}a"
    if m == 0:
        return a_part
    return f"{m}{'+' if n > 0 else ''}{a_part}"


def gvec(*coords: int | Golden) -> GoldenVector:
    """A golden vector from integers and (m, n) pairs."""
    return tuple(c if isinstance(c, tuple) else (c, 0) for c in coords)


def dot(u: GoldenVector, v: GoldenVector) -> Golden:
    """Inner product: the two integer bilinear forms sum(mm' + nn') and
    sum(mn' + nm' + nn')."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    m = n = 0
    for (m1, n1), (m2, n2) in zip(u, v):
        m += m1 * m2 + n1 * n2
        n += m1 * n2 + n1 * m2 + n1 * n2
    return m, n


def vec_scale(s: Golden, v: GoldenVector) -> GoldenVector:
    return tuple(mul(s, c) for c in v)


def vec_neg(v: GoldenVector) -> GoldenVector:
    return tuple((-m, -n) for m, n in v)


def vec_values(v: GoldenVector) -> tuple[float, ...]:
    return tuple(value(c) for c in v)


def canonical_sign(v: GoldenVector) -> GoldenVector:
    """Flip sign so the first nonzero coordinate is positive."""
    for c in v:
        s = sign(c)
        if s > 0:
            return v
        if s < 0:
            return vec_neg(v)
    return v


def phi_map(v: GoldenVector) -> tuple[int, ...]:
    """(m_i + n_i a)_i  ->  (m_1..m_d, n_1..n_d), doubling the dimension."""
    return tuple(m for m, _ in v) + tuple(n for _, n in v)
