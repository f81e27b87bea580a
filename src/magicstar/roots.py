"""Root systems of the simple Lie algebras in the hexagram story.

Roots are generated as the closure of the simple roots under all simple
reflections, with exact rational coordinates in the standard orthonormal
models (the E family lives inside the 8-dimensional even/half-integer
lattice model).  Output ordering is lexicographic so every downstream
artifact is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Tuple

from .linalg import DenseMatrix, dot

Vector = Tuple[Q, ...]

_VALID = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "G": lambda r: r == 2,
    "F": lambda r: r == 4,
    "E": lambda r: r in (6, 7, 8),
}


@dataclass(frozen=True)
class AlgebraLabel:
    family: str
    rank: int

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        if fam not in _VALID or not _VALID[fam](self.rank):
            raise ValueError("not a supported simple type: %s%d" % (fam, self.rank))

    @staticmethod
    def parse(text: str) -> "AlgebraLabel":
        text = text.strip()
        if len(text) < 2:
            raise ValueError("label too short: %r" % text)
        return AlgebraLabel(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return "%s%d" % (self.family, self.rank)


def _simple_roots(label: AlgebraLabel) -> List[Vector]:
    fam, r = label.family, label.rank

    def unit(n: int, i: int, c=Q(1)) -> List[Q]:
        v = [Q(0)] * n
        v[i] = c
        return v

    if fam == "A":
        n = r + 1
        out = []
        for i in range(r):
            v = [Q(0)] * n
            v[i], v[i + 1] = Q(1), Q(-1)
            out.append(v)
        return [tuple(v) for v in out]
    if fam == "B":
        out = []
        for i in range(r - 1):
            v = [Q(0)] * r
            v[i], v[i + 1] = Q(1), Q(-1)
            out.append(v)
        out.append(unit(r, r - 1))
        return [tuple(v) for v in out]
    if fam == "D":
        out = []
        for i in range(r - 1):
            v = [Q(0)] * r
            v[i], v[i + 1] = Q(1), Q(-1)
            out.append(v)
        v = [Q(0)] * r
        v[r - 2], v[r - 1] = Q(1), Q(1)
        out.append(v)
        return [tuple(v) for v in out]
    if fam == "G":
        return [
            (Q(1), Q(-1), Q(0)),
            (Q(-2), Q(1), Q(1)),
        ]
    if fam == "F":
        return [
            (Q(0), Q(1), Q(-1), Q(0)),
            (Q(0), Q(0), Q(1), Q(-1)),
            (Q(0), Q(0), Q(0), Q(1)),
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
    # E family, Bourbaki numbering inside the 8-dimensional model
    e8 = [
        (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
        (Q(1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
        (Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)),
        (Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0)),
        (Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0), Q(0)),
        (Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0), Q(0)),
        (Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0), Q(0)),
        (Q(0), Q(0), Q(0), Q(0), Q(0), Q(-1), Q(1), Q(0)),
    ]
    return e8[:r]


@dataclass(frozen=True)
class RootSystem:
    label: AlgebraLabel
    rank: int
    simple_roots: Tuple[Vector, ...]
    roots: Tuple[Vector, ...]
    # integer caches: roots scaled by 2 keep all coordinates integral
    scaled: Tuple[Tuple[int, ...], ...] = field(repr=False)
    index: Dict[Vector, int] = field(repr=False)

    def norm2_scaled(self, i: int) -> int:
        """4*(r_i, r_i) as an integer."""
        s = self.scaled[i]
        return sum(x * x for x in s)

    def dot_scaled(self, i: int, j: int) -> int:
        """4*(r_i, r_j) as an integer."""
        return sum(a * b for a, b in zip(self.scaled[i], self.scaled[j]))

    def pairing_by_index(self, i: int, j: int) -> int:
        """2(r_i, r_j)/(r_j, r_j), exact integer."""
        num = 2 * self.dot_scaled(i, j)
        den = self.norm2_scaled(j)
        q, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("pairing is not integral; not a root system")
        return q


def cartan_matrix(label: AlgebraLabel) -> DenseMatrix:
    """Integer Cartan matrix a_ij = 2(s_i, s_j)/(s_j, s_j), diagonal 2."""
    simple = _simple_roots(label)
    n = len(simple)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            num = 2 * dot(simple[i], simple[j])
            den = dot(simple[j], simple[j])
            row.append(num / den)
        rows.append(row)
    m = DenseMatrix.from_rows(rows)
    for i in range(n):
        if m.at(i, i) != 2:
            raise AssertionError("Cartan diagonal must be 2")
        for j in range(n):
            if m.at(i, j).denominator != 1:
                raise AssertionError("Cartan entries must be integers")
    return m


@lru_cache(maxsize=None)
def generate_roots(label: AlgebraLabel) -> RootSystem:
    """Close the simple roots under all simple reflections."""
    simple = _simple_roots(label)
    norms = [dot(a, a) for a in simple]
    seen = set(tuple(s) for s in simple)
    queue = list(seen)
    while queue:
        beta = queue.pop()
        for alpha, n2 in zip(simple, norms):
            c = 2 * dot(beta, alpha) / n2
            refl = tuple(b - c * a for b, a in zip(beta, alpha))
            if refl not in seen:
                seen.add(refl)
                queue.append(refl)
    roots = tuple(sorted(seen))
    scaled = tuple(tuple(int(2 * x) for x in r) for r in roots)
    if any(2 * x != int(2 * x) for r in roots for x in r):
        raise AssertionError("coordinates must be integer or half-integer")
    index = {r: i for i, r in enumerate(roots)}
    return RootSystem(
        label=label,
        rank=label.rank,
        simple_roots=tuple(tuple(s) for s in simple),
        roots=roots,
        scaled=scaled,
        index=index,
    )


def coroot_pairing(rs: RootSystem, gamma: Vector, alpha: Vector) -> int:
    """2(gamma, alpha)/(alpha, alpha); rejects vectors outside the root set."""
    gi = rs.index.get(tuple(gamma))
    ai = rs.index.get(tuple(alpha))
    if gi is None or ai is None:
        raise ValueError("inputs must be roots of the system")
    return rs.pairing_by_index(gi, ai)


EXPECTED_COUNTS = {
    "A2": 6, "G2": 12, "B3": 18, "D4": 24,
    "F4": 48, "E6": 72, "E7": 126, "E8": 240,
}
