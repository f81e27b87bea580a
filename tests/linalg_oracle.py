"""Plain nested-list reference for ``magicstar.linalg`` that only the tests
use: the entry grid of a monomial, the schoolbook product, the Kronecker
product and matrix-vector apply on grids, dot products, the column loops
``monomial_apply`` and ``monomial_bilinear`` over a monomial's own storage
(the reference kernels of ``ep_oracle`` and ``clifford_oracle``), the
signed-permutation algebra (``identity``, ``transpose``, ``neg``,
``is_diagonal``, ``mat_mul``, ``mat_prod``, ``monomial_kron``), the Pauli
string s X^a Z^b built column by column (``pauli_string``) and the gather
over a whole matrix (``matrix_reader``), the 3x3 determinant, a kernel
basis read off a ``RowReducer``'s pivots, ``add_rational_row``, which feeds
a ``RowReducer`` a row of rationals as int numerators over their lcm, and
``FractionReducer``, the reduced row echelon form over Fractions that the
fraction-free ``RowReducer`` is checked against.  It shares no code with
the kernels it checks; ``MonomialMatrix`` is taken as the matrix type only.
"""

from fractions import Fraction as Q
from math import lcm
from operator import itemgetter, mul

from magicstar.linalg import MonomialMatrix


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


def monomial_apply(m, v, acc=None, weight=1):
    """Add ``weight * (m v)`` into ``acc`` (a fresh zero vector when None)
    column by column and return it; zero entries of ``v`` are skipped."""
    if acc is None:
        acc = [0] * m.dim
    for r, s, x in zip(m.rows, m.signs, v):
        if x:
            acc[r] += s * weight * x
    return acc


def monomial_bilinear(m, u, v):
    """``u^T m v`` column by column; a term with a zero factor is skipped."""
    total = 0
    for r, s, x in zip(m.rows, m.signs, v):
        if x and u[r]:
            total += s * u[r] * x
    return total


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


def identity(n):
    return MonomialMatrix(n, tuple(range(n)), (1,) * n)


def transpose(m):
    inverse = sorted(range(m.dim), key=m.rows.__getitem__)
    return MonomialMatrix(m.dim, tuple(inverse), tuple(m.signs[r] for r in inverse))


def neg(m):
    return MonomialMatrix(m.dim, m.rows, tuple(-s for s in m.signs))


def is_diagonal(m):
    return m.rows == tuple(range(m.dim))


def mat_mul(a, b):
    """Product of two signed permutations of one dimension, column by column."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    rows = tuple(a.rows[r] for r in b.rows)
    signs = tuple(a.signs[r] * s for r, s in zip(b.rows, b.signs))
    return MonomialMatrix(a.dim, rows, signs)


def mat_prod(ms):
    """Left-to-right product of a nonempty matrix list."""
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def monomial_kron(a, b):
    """Kronecker product of two signed permutations, a-index major."""
    n = b.dim
    rows = tuple(ra * n + rb for ra in a.rows for rb in b.rows)
    signs = tuple(sa * sb for sa in a.signs for sb in b.signs)
    return MonomialMatrix(a.dim * n, rows, signs)


def pauli_string(dim, label):
    """s X^a Z^b for the label (s, a, b), column by column: column c holds
    s (-1)^popcount(c & b) at row c ^ a."""
    s, a, b = label
    return MonomialMatrix(
        dim,
        tuple(c ^ a for c in range(dim)),
        tuple(s * (-1) ** bin(c & b).count("1") for c in range(dim)),
    )


def matrix_reader(m, cols, index, pos=None, flip=1):
    """_signed(v) -> flip * (m^T v) at ``cols`` for a signed permutation m:
    v[m.rows[c]], with v indexed through ``pos`` when given, read from the
    negated half where flip * m.signs[c] is -1."""
    n = m.dim if pos is None else len(pos)
    return itemgetter(*(
        index[(m.rows[c] if pos is None else pos[m.rows[c]]) + (n if m.signs[c] != flip else 0)]
        for c in cols
    ))


def det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def kernel(red):
    """Basis of {x : rows fed to ``red`` give 0}, one vector per free column:
    the free column at 1, the other free columns at 0, and the pivot
    columns by back-substitution over ``red.pivots`` (column, row, ...), a
    row echelon form sorted by column."""
    pivot_cols = {col for col, _, _, _ in red.pivots}
    basis = []
    for free in range(red.ncols):
        if free not in pivot_cols:
            v = [Q(0)] * red.ncols
            v[free] = Q(1)
            for col, row, _, _ in reversed(red.pivots):
                v[col] = -sum((row[j] * v[j] for j in range(col + 1, red.ncols)), Q(0)) / row[col]
            basis.append(v)
    return basis


def add_rational_row(red, coeffs, rhs):
    """``red.add_row`` on the equation ``coeffs . x = rhs`` of rationals,
    lifted to int numerators over the lcm of their denominators."""
    xs = [Q(x) for x in (*coeffs, rhs)]
    den = lcm(*(x.denominator for x in xs))
    nums = [x.numerator * (den // x.denominator) for x in xs]
    return red.add_row(nums[:-1], nums[-1], den)


class FractionReducer:
    """Incremental reduced row echelon form over Fractions with row
    provenance: every fed row is converted to Fractions, each pivot row is
    normalized to lead 1 and back-substituted into the others."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = []
        self.nrows = 0

    def add_row(self, coeffs, rhs):
        """Add one equation; a certificate dict {row: coeff} if it exposes
        infeasibility, else None."""
        row = [Q(x) for x in coeffs]
        r = Q(rhs)
        prov = {self.nrows: Q(1)}
        self.nrows += 1
        for col, prow, prhs, pprov in self.pivots:
            f = row[col]
            if f:
                for j in range(col, self.ncols):
                    row[j] -= f * prow[j]
                r -= f * prhs
                for k, v in pprov.items():
                    prov[k] = prov.get(k, Q(0)) - f * v
        lead = next((j for j in range(self.ncols) if row[j]), None)
        if lead is None:
            if r != 0:
                return {k: v for k, v in prov.items() if v}
            return None
        inv = Q(1) / row[lead]
        row = [x * inv for x in row]
        r *= inv
        prov = {k: v * inv for k, v in prov.items()}
        for idx, (col, prow, prhs, pprov) in enumerate(self.pivots):
            f = prow[lead]
            if f:
                for j in range(self.ncols):
                    prow[j] -= f * row[j]
                prhs -= f * r
                for k, v in prov.items():
                    pprov[k] = pprov.get(k, Q(0)) - f * v
                self.pivots[idx] = (col, prow, prhs, pprov)
        self.pivots.append((lead, row, r, prov))
        self.pivots.sort(key=lambda t: t[0])
        return None

    def rank(self):
        return len(self.pivots)

    def solution(self):
        """Particular solution with free variables set to zero."""
        x = [Q(0)] * self.ncols
        for col, row, rhs, _ in self.pivots:
            x[col] = rhs - sum(row[j] * x[j] for j in range(col + 1, self.ncols) if row[j])
        return x
