"""Octonion arithmetic over exact rationals.

The multiplication table is generated by Cayley-Dickson doubling from the
quaternions: with x = (a, b) and y = (c, d) pairs of quaternions,

    x * y = (a c - conj(d) b,  d a + b conj(c))

Basis: e0 = 1, (e1, e2, e3) = (i, j, k), e4 = (0, 1), e5 = (0, i),
e6 = (0, j), e7 = (0, k).  Derived unit products include e1 e2 = e3,
e1 e4 = e5, e2 e4 = e6, e3 e4 = e7.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence, Tuple

from .linalg import MonomialMatrix

Octonion = Tuple[Q, Q, Q, Q, Q, Q, Q, Q]


def _quaternion_table():
    # index, sign tables for 1, i, j, k
    idx = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    sgn = [
        [1, 1, 1, 1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [1, 1, -1, -1],
    ]
    return idx, sgn


def _build_octonion_table():
    qi, qs = _quaternion_table()

    def qmul(u, v):
        out = [0] * 4
        for a in range(4):
            if not u[a]:
                continue
            for b in range(4):
                if v[b]:
                    out[qi[a][b]] += qs[a][b] * u[a] * v[b]
        return out

    def qconj(u):
        return [u[0], -u[1], -u[2], -u[3]]

    def omul(x, y):
        a, b = x[:4], x[4:]
        c, d = y[:4], y[4:]
        first = [p - q for p, q in zip(qmul(a, c), qmul(qconj(d), b))]
        second = [p + q for p, q in zip(qmul(d, a), qmul(b, qconj(c)))]
        return first + second

    idx = [[0] * 8 for _ in range(8)]
    sgn = [[0] * 8 for _ in range(8)]
    for a in range(8):
        ea = [0] * 8
        ea[a] = 1
        for b in range(8):
            eb = [0] * 8
            eb[b] = 1
            prod = omul(ea, eb)
            nz = [k for k, v in enumerate(prod) if v]
            assert len(nz) == 1 and prod[nz[0]] in (1, -1)
            idx[a][b] = nz[0]
            sgn[a][b] = prod[nz[0]]
    return idx, sgn


MUL_INDEX, MUL_SIGN = _build_octonion_table()


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
        row_i = MUL_INDEX[a]
        row_s = MUL_SIGN[a]
        for b in range(8):
            yb = y[b]
            if yb:
                out[row_i[b]] += row_s[b] * xa * yb
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
    rows = [MUL_INDEX[i][b] for b in range(8)]
    signs = [MUL_SIGN[i][b] for b in range(8)]
    return MonomialMatrix(8, tuple(rows), tuple(signs))
