"""Exact rational scalars and the two matrix kinds used everywhere else.

All arithmetic is exact: over `fractions.Fraction` (arbitrary precision,
canonical form), or over Python-int numerators that share one positive
denominator (see :func:`lift`), so nothing here ever rounds.  Two matrix
representations:

* ``DenseMatrix`` -- row-major grid of rationals, used for Cartan matrices,
  small solves and serialization.
* ``MonomialMatrix`` -- a signed permutation (exactly one entry, +1 or -1,
  per row and per column).  Gamma matrices live here; products and Kronecker
  products of monomials stay monomial and cost O(dim).  Its ``apply``
  (gather-accumulate) and ``bilinear`` are the one implementation of
  vector arithmetic over that storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union


Vector = List[Q]


def rat_str(x: Q) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def rat_parse(s: str) -> Q:
    """Inverse of :func:`rat_str`."""
    return Q(s)


def lift(xs: Sequence) -> Tuple[List[int], int]:
    """Int numerators of the rationals ``xs`` over one shared positive
    denominator, the lcm of theirs: ``xs[i] == nums[i] / den``."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DenseMatrix:
    rows: int
    cols: int
    data: Tuple[Tuple[Q, ...], ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ValueError("entry grid does not match rows x cols")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "DenseMatrix":
        data = tuple(tuple(Q(x) for x in row) for row in rows)
        return DenseMatrix(len(data), len(data[0]), data)

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        return DenseMatrix.from_rows(
            [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> Q:
        return self.data[i][j]

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix.from_rows(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum(self.data[i][j] * v[j] for j in range(self.cols)) for i in range(self.rows)]

    def to_json(self) -> list:
        return [[rat_str(x) for x in row] for row in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __mul__(self, other):
        return mat_mul(self, other)


# ---------------------------------------------------------------------------
# monomial (signed permutation) matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialMatrix:
    """Signed permutation: column c holds ``signs[c]`` at row ``rows[c]``."""

    dim: int
    rows: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if len(self.rows) != self.dim or len(self.signs) != self.dim:
            raise ValueError("column map does not cover every column")
        if sorted(self.rows) != list(range(self.dim)):
            raise ValueError("row indices must form a permutation")
        if not set(self.signs) <= {1, -1}:
            raise ValueError("monomial entries restricted to +1/-1")

    @staticmethod
    def identity(n: int) -> "MonomialMatrix":
        return MonomialMatrix(n, tuple(range(n)), (1,) * n)

    def entry(self, i: int, j: int) -> int:
        return self.signs[j] if self.rows[j] == i else 0

    def transpose(self) -> "MonomialMatrix":
        inverse = sorted(range(self.dim), key=self.rows.__getitem__)
        return MonomialMatrix(self.dim, tuple(inverse), _gather(self.signs, inverse))

    def neg(self) -> "MonomialMatrix":
        return MonomialMatrix(self.dim, self.rows, tuple(-s for s in self.signs))

    def is_diagonal(self) -> bool:
        return self.rows == tuple(range(self.dim))

    def apply(self, v: Sequence, acc: Optional[list] = None, weight=1) -> list:
        """Add ``weight * (M v)`` into ``acc`` in place and return it, in O(dim).

        ``acc`` None starts from a fresh zero vector.  Zero entries of ``v``
        are skipped.
        """
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        if acc is None:
            acc = [0] * self.dim
        for r, s, x in zip(self.rows, self.signs, v):
            if x:
                acc[r] += s * weight * x
        return acc

    def bilinear(self, u: Sequence, v: Sequence):
        """``u^T M v`` in O(dim); a term with a zero factor is skipped."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("dimension mismatch")
        total = 0
        for r, s, x in zip(self.rows, self.signs, v):
            if x:
                y = u[r]
                if y:
                    total += s * y * x
        return total

    def to_dense(self) -> DenseMatrix:
        grid = [[Q(0)] * self.dim for _ in range(self.dim)]
        for c in range(self.dim):
            grid[self.rows[c]][c] = Q(self.signs[c])
        return DenseMatrix.from_rows(grid)

    def to_json(self) -> dict:
        return {"dim": self.dim, "cols": [[r, s] for r, s in zip(self.rows, self.signs)]}

    def __mul__(self, other):
        return mat_mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialMatrix)
            and self.dim == other.dim
            and self.rows == other.rows
            and self.signs == other.signs
        )


Matrix = Union[DenseMatrix, MonomialMatrix]


def _gather(seq: Sequence, idx: Sequence[int]) -> tuple:
    """``seq[i]`` for each ``i`` in ``idx``, as a tuple."""
    if len(idx) == 1:
        return (seq[idx[0]],)
    return itemgetter(*idx)(seq)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; a monomial pair stays monomial and costs O(dim)."""
    if isinstance(a, MonomialMatrix) and isinstance(b, MonomialMatrix):
        if a.dim != b.dim:
            raise ValueError("dimension mismatch")
        signs = tuple(map(mul, _gather(a.signs, b.rows), b.signs))
        return MonomialMatrix(a.dim, _gather(a.rows, b.rows), signs)
    if isinstance(a, MonomialMatrix):
        a = a.to_dense()
    if isinstance(b, MonomialMatrix):
        b = b.to_dense()
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    bt = b.transpose()
    data = [
        [dot(arow, bcol) for bcol in bt.data]
        for arow in a.data
    ]
    return DenseMatrix.from_rows(data)


def mat_prod(ms: Sequence[Matrix]) -> Matrix:
    """Left-to-right product of a nonempty matrix list."""
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, a-index major; monomial inputs give monomial output."""
    if isinstance(a, MonomialMatrix) and isinstance(b, MonomialMatrix):
        n = b.dim
        rows = tuple(ra * n + rb for ra in a.rows for rb in b.rows)
        signs = tuple(sa * sb for sa in a.signs for sb in b.signs)
        return MonomialMatrix(a.dim * n, rows, signs)
    ad = a.to_dense() if isinstance(a, MonomialMatrix) else a
    bd = b.to_dense() if isinstance(b, MonomialMatrix) else b
    data = []
    for ia in range(ad.rows):
        for ib in range(bd.rows):
            row = []
            for ja in range(ad.cols):
                for jb in range(bd.cols):
                    row.append(ad.data[ia][ja] * bd.data[ib][jb])
            data.append(row)
    return DenseMatrix.from_rows(data)


# ---------------------------------------------------------------------------
# exact linear solving
# ---------------------------------------------------------------------------

@dataclass
class LinearSolve:
    """Outcome of an exact solve: a solution plus nullspace, or a certificate.

    When ``status == "infeasible"``, ``certificate`` is a vector y over the
    input rows with y^T A = 0 and y^T b != 0.
    """

    status: str
    particular: Optional[Vector]
    nullspace: List[Vector]
    certificate: Optional[Vector]


class RowReducer:
    """Incremental exact RREF with row provenance.

    Rows are fed one at a time; the reducer keeps pivot rows only, each with
    the combination of original rows that produced it.  Feeding a row that
    reduces to 0 = nonzero immediately yields an infeasibility certificate.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: List[Tuple[int, List[Q], Q, dict]] = []
        self.nrows = 0

    def add_row(self, coeffs: Sequence, rhs) -> Optional[dict]:
        """Add one equation; returns a certificate dict {row_tag: coeff} if it
        exposes infeasibility, else None."""
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
        # back-substitute into existing pivots to keep reduced form
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

    def rank(self) -> int:
        return len(self.pivots)

    def solution(self) -> Vector:
        """Particular solution with free variables set to zero."""
        x = [Q(0)] * self.ncols
        for col, row, rhs, _ in self.pivots:
            x[col] = rhs - sum(row[j] * x[j] for j in range(col + 1, self.ncols) if row[j])
        return x

    def nullspace(self) -> List[Vector]:
        pivot_cols = {col for col, _, _, _ in self.pivots}
        basis = []
        for free in range(self.ncols):
            if free in pivot_cols:
                continue
            v = [Q(0)] * self.ncols
            v[free] = Q(1)
            for col, row, _, _ in self.pivots:
                v[col] = -row[free]
            basis.append(v)
        return basis


def solve_linear(A: Union[DenseMatrix, Sequence[Sequence]], b: Sequence) -> LinearSolve:
    """Exact Gaussian elimination over the rationals.

    Returns one solution plus a basis of the homogeneous space, or an exact
    proof of infeasibility (a left row combination giving 0 = nonzero).
    """
    rows = A.data if isinstance(A, DenseMatrix) else [list(r) for r in A]
    if len(rows) != len(b):
        raise ValueError("A must have rows = length(b)")
    ncols = len(rows[0]) if rows else 0
    red = RowReducer(ncols)
    for i, row in enumerate(rows):
        cert = red.add_row(row, b[i])
        if cert is not None:
            y = [Q(0)] * len(rows)
            for k, v in cert.items():
                y[k] = v
            # remaining rows never entered the combination
            return LinearSolve("infeasible", None, [], y)
    return LinearSolve("solved", red.solution(), red.nullspace(), None)
