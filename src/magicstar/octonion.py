"""Octonion arithmetic over exact rationals.

The table is Cayley-Dickson doubling (Baez, "The Octonions", 2002):
x * y = (p r - conj(s) q,  s p + q conj(r)) for pairs x = (p, q), y = (r, s)
from the half-size algebra.  With conj(e_k) = -e_k for k != 0, e_a e_b =
+-e_(a ^ b); the sign in dimension 2h (halves split at h) is 1 at h = 0, else

    a, b < h:   sign(a, b, h/2)
    a < h <= b: sign(b-h, a, h/2)
    b < h <= a: sign(a-h, b, h/2), negated if b != 0
    a, b >= h:  -sign(b-h, a-h, h/2), negated if b != h

Basis: e0 = 1, (e1, e2, e3) = (i, j, k), e4 = (0, 1), e5 = (0, i),
e6 = (0, j), e7 = (0, k).  Derived unit products include e1 e2 = e3,
e1 e4 = e5, e2 e4 = e6, e3 e4 = e7.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence, Tuple

from .linalg import MonomialMatrix

Octonion = Tuple[Q, Q, Q, Q, Q, Q, Q, Q]


def _sign(a: int, b: int, h: int) -> int:
    if h == 0:
        return 1
    if a < h and b < h:
        return _sign(a, b, h // 2)
    if a < h:
        return _sign(b - h, a, h // 2)
    if b < h:
        return _sign(a - h, b, h // 2) * (-1 if b else 1)
    return -_sign(b - h, a - h, h // 2) * (-1 if b != h else 1)


MUL_SIGN = [[_sign(a, b, 4) for b in range(8)] for a in range(8)]


def oct_from(coords: Sequence) -> Octonion:
    if len(coords) != 8:
        raise ValueError("an octonion needs eight coordinates")
    return tuple(Q(c) for c in coords)


def oct_mul(x: Octonion, y: Octonion) -> Octonion:
    """The product; int coordinates give int coordinates."""
    out = [0] * 8
    for a in range(8):
        xa = x[a]
        if not xa:
            continue
        row_s = MUL_SIGN[a]
        for b in range(8):
            yb = y[b]
            if yb:
                out[a ^ b] += row_s[b] * xa * yb
    return tuple(out)


def oct_conj(x: Octonion) -> Octonion:
    return (x[0],) + tuple(-a for a in x[1:])


def oct_re(x: Octonion) -> Q:
    return x[0]


def oct_norm(x: Octonion) -> Q:
    """Quadratic norm n(x) = x conj(x), a nonnegative rational."""
    return sum(a * a for a in x)


def left_mult_matrix(i: int) -> MonomialMatrix:
    """Left multiplication by the unit e_i as a signed permutation."""
    return MonomialMatrix(8, tuple(i ^ b for b in range(8)), tuple(MUL_SIGN[i]))
