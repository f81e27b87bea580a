"""Reference code for ``magicstar.roots`` that only the tests use.

``cartan_matrix`` builds the Cartan matrix of a label from its simple roots
as nested lists of exact rationals, ``coroot_pairing`` reads one entry of a
root system's pairing table by root vector, ``hand_built`` makes a
``RootSystem`` from doubled coordinates without the closure, and
``EXPECTED_COUNTS`` holds the textbook root counts.
"""

from fractions import Fraction as Q

from linalg_oracle import dot
from magicstar.roots import AlgebraLabel, RootSystem, Vector, _simple_roots

EXPECTED_COUNTS = {
    "A2": 6, "G2": 12, "B3": 18, "D4": 24,
    "F4": 48, "E6": 72, "E7": 126, "E8": 240,
}


def cartan_matrix(label: AlgebraLabel) -> list:
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
    for i in range(n):
        if rows[i][i] != 2:
            raise AssertionError("Cartan diagonal must be 2")
        if any(x.denominator != 1 for x in rows[i]):
            raise AssertionError("Cartan entries must be integers")
    return rows


def coroot_pairing(rs: RootSystem, gamma: Vector, alpha: Vector) -> int:
    """2(gamma, alpha)/(alpha, alpha); rejects vectors outside the root set."""
    gi = rs.index.get(tuple(gamma))
    ai = rs.index.get(tuple(alpha))
    if gi is None or ai is None:
        raise ValueError("inputs must be roots of the system")
    return rs.pairings[ai][gi]


def hand_built(scaled) -> RootSystem:
    """A ``RootSystem`` whose roots are ``scaled`` halved, taken as given:
    no closure and no check, so the pairing table's refusals can be hit."""
    roots = tuple(tuple(Q(x, 2) for x in s) for s in scaled)
    return RootSystem(
        label=AlgebraLabel.parse("G2"),
        rank=2,
        simple_roots=roots,
        roots=roots,
        scaled=scaled,
        index={r: i for i, r in enumerate(roots)},
    )
