"""Plain nested-list reference for ``magicstar.linalg`` that only the tests
use: the entry grid of a monomial, the schoolbook product, the Kronecker
product and matrix-vector apply on grids, dot products, the 3x3
determinant, and a kernel basis read off a ``RowReducer``'s pivots.  It
shares no code with the monomial kernels it checks.
"""

from fractions import Fraction as Q
from operator import mul


def grid(m):
    """Rows of int entries of a MonomialMatrix."""
    out = [[0] * m.dim for _ in range(m.dim)]
    for c, (r, s) in enumerate(zip(m.rows, m.signs)):
        out[r][c] = s
    return out


def dot(u, v):
    return sum(map(mul, u, v))


def apply(a, v):
    """Matrix-vector product on a grid; zero entries add nothing."""
    return [sum(x * y for x, y in zip(row, v) if x) for row in a]


def matmul(a, b):
    """Schoolbook product of two grids."""
    out = [[0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    out[i][j] += x * y
    return out


def kron(a, b):
    """Kronecker product of two grids, a-index major."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def kernel(red):
    """Basis of {x : rows fed to ``red`` give 0}, one vector per free column."""
    pivot_cols = {col for col, _, _, _ in red.pivots}
    basis = []
    for free in range(red.ncols):
        if free not in pivot_cols:
            v = [Q(0)] * red.ncols
            v[free] = Q(1)
            for col, row, _, _ in red.pivots:
                v[col] = -row[free]
            basis.append(v)
    return basis
