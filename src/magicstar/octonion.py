"""Octonion arithmetic over exact rationals.

The octonions are a twisted group algebra of Z_2^3 (Albuquerque and Majid,
"Quasialgebra structure of the octonions", J. Algebra, 1999): e_a e_b =
(-1)^f(a, b) e_(a ^ b), with a_i the bits of a and

    f(a, b) = sum_{i <= j} a_i b_j + a_0 a_1 b_2 + a_0 b_1 a_2 + b_0 a_1 a_2  (mod 2).

f is linear in b, so left multiplication by e_a is the Pauli string
X^a Z^z(a), z = (0, 7, 6, 5, 4, 1, 3, 2), on the bits of the basis index.
Derived unit products include e1 e2 = -e3, e1 e4 = -e5, e2 e4 = -e6,
e3 e4 = -e7.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence, Tuple

Octonion = Tuple[Q, Q, Q, Q, Q, Q, Q, Q]


def _sign(a: int, b: int) -> int:
    """(-1)^f(a, b)."""
    x = [a >> i & 1 for i in range(3)]
    y = [b >> i & 1 for i in range(3)]
    f = sum(x[i] * y[j] for j in range(3) for i in range(j + 1))
    f += x[0] * x[1] * y[2] + x[0] * y[1] * x[2] + y[0] * x[1] * x[2]
    return -1 if f & 1 else 1


MUL_SIGN = [[_sign(a, b) for b in range(8)] for a in range(8)]


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


def left_mult_label(i: int) -> Tuple[int, int, int]:
    """Left multiplication by the unit e_i as the Pauli label (1, i, z(i)):
    bit k of z(i) is set where e_i e_(2^k) carries the sign -1."""
    return (1, i, sum(1 << k for k in range(3) if MUL_SIGN[i][1 << k] == -1))
