"""Root systems of the simple Lie algebras in the hexagram story.

Roots are generated as the closure of the simple roots under all simple
reflections, with exact rational coordinates in the standard orthonormal
models (the E family lives inside the 8-dimensional even/half-integer
lattice model).  Doubled, every coordinate is an integer: the closure and
the coroot pairing table run on those integers.  Output ordering is
lexicographic so every downstream artifact is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul
from typing import Dict, List, Tuple

from .linalg import int_text, lane_sums

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
        # int() would also take "1_0", "+3", " 8" and non-ASCII digits
        if not (text[1:].isascii() and text[1:].isdigit()):
            raise ValueError("rank is not decimal digits: %s" % ascii(text))
        return AlgebraLabel(text[0].upper(), int(int_text(text[1:])))

    def __str__(self) -> str:
        return "%s%d" % (self.family, self.rank)


# Number of roots per family, from the rank.
_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "G": lambda r: 12,
    "F": lambda r: 48,
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
}

# Root systems with more roots are refused: A44 (1,980 roots) closes in
# about half a second, and the closure's cost grows faster than the count.
MAX_ROOTS = 2000


def root_count(label: AlgebraLabel) -> int:
    """Number of roots of ``label``, from the label alone.  A system with
    more than ``MAX_ROOTS`` roots is refused before any root exists."""
    count = _ROOT_COUNTS[label.family](label.rank)
    if count > MAX_ROOTS:
        raise ValueError("%s has %d roots, over the limit of %d" % (label, count, MAX_ROOTS))
    return count


def _simple_roots(label: AlgebraLabel) -> List[Vector]:
    fam, r = label.family, label.rank
    if fam in ("A", "B", "D"):
        # the chain e_i - e_(i+1), then the family's last root
        n = r + (fam == "A")
        out = [[Q(0)] * n for _ in range(r)]
        for i in range(n - 1):
            out[i][i], out[i][i + 1] = Q(1), Q(-1)
        if fam == "B":
            out[-1][r - 1] = Q(1)
        elif fam == "D":
            out[-1][r - 2] = out[-1][r - 1] = Q(1)
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
    # the roots doubled, in the same order: every coordinate an integer
    scaled: Tuple[Tuple[int, ...], ...] = field(repr=False)
    index: Dict[Vector, int] = field(repr=False)

    @cached_property
    def pairings(self) -> Tuple[Tuple[int, ...], ...]:
        """pairings[j][i] = 2(r_i, r_j)/(r_j, r_j), exact integers.

        Built once per system as one ``lane_sums`` over the coordinate
        vectors of the doubled roots s (one entry per root): column j takes
        the coefficients 2 s_j, so its entry i is 2(s_i, s_j), at most
        2 max (s, s) by Cauchy-Schwarz, and exact at any size.  A pairing
        that is not integral raises ArithmeticError, as no root system has
        one.
        """
        scaled = self.scaled
        norms = [sum(map(mul, s, s)) for s in scaled]
        doubled = ([2 * c for c in s] for s in scaled)
        cols = []
        for col, nj in zip(lane_sums([(doubled, zip(*scaled), None)], 2 * max(norms)), norms):
            if any(x % nj for x in islice(col, len(scaled))):
                raise ArithmeticError("pairing is not integral; not a root system")
            cols.append(tuple(x // nj for x in islice(col, len(scaled))))
        return tuple(cols)


@lru_cache(maxsize=None)
def generate_roots(label: AlgebraLabel) -> RootSystem:
    """Close the simple roots under all simple reflections.

    The closure runs on the doubled coordinates, which are integers in every
    model; doubling keeps the lexicographic order, so sorting the integer
    tuples sorts the roots.
    """
    root_count(label)
    simple = _simple_roots(label)
    if any((2 * x).denominator != 1 for s in simple for x in s):
        raise AssertionError("coordinates must be integer or half-integer")
    simple2 = [tuple(int(2 * x) for x in s) for s in simple]
    norms = [sum(map(mul, a, a)) for a in simple2]
    seen = set(simple2)
    queue = list(seen)
    while queue:
        beta = queue.pop()
        for alpha, n2 in zip(simple2, norms):
            c, rem = divmod(2 * sum(map(mul, beta, alpha)), n2)
            if rem:
                raise ArithmeticError("pairing is not integral; not a root system")
            if c:
                refl = tuple(b - c * a for b, a in zip(beta, alpha))
                if refl not in seen:
                    seen.add(refl)
                    queue.append(refl)
    scaled = tuple(sorted(seen))
    roots = tuple(tuple(Q(x, 2) for x in s) for s in scaled)
    return RootSystem(
        label=label,
        rank=label.rank,
        simple_roots=tuple(tuple(s) for s in simple),
        roots=roots,
        scaled=scaled,
        index={r: i for i, r in enumerate(roots)},
    )
