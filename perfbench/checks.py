"""Result checkers that do not reuse the code under test.

Each checker returns a list of failure messages; an empty list means the
result is correct.  ``Checks`` counts every check attempted and failed, so
that a run can report ``failed`` over ``attempted``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# Criterion 02: host -> (center size, size of each of the six tips); the
# hexagon always holds the six a2 roots.
BUCKETS = {
    "G2": (0, 1),
    "F4": (6, 6),
    "E6": (12, 9),
    "E7": (30, 15),
    "E8": (72, 27),
}
ROOT_COUNTS = {"G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def expect_none(self, failures: Sequence[str], label: str) -> bool:
        """One check whose outcome is a checker's failure list."""
        return self.expect(not failures, "%s: %s" % (label, "; ".join(failures[:3])))

    @property
    def failed(self) -> int:
        return len(self.failures)


def certificate_failures(rows, certificate, unknowns: int) -> List[str]:
    """Recompute y^T A and y^T b from the reported rows.

    ``rows`` is a list of (reference, coefficients, rhs); ``certificate`` a
    list of (reference, y) pairs.  A valid certificate has y^T A = 0 in every
    unknown column and y^T b != 0.
    """
    if not certificate:
        return ["no certificate"]
    by_ref = {}
    for ref, coeffs, rhs in rows:
        if len(coeffs) != unknowns:
            return ["row %r has %d coefficients, expected %d" % (ref, len(coeffs), unknowns)]
        by_ref[ref] = (coeffs, rhs)
    out = []
    missing = [ref for ref, _ in certificate if ref not in by_ref]
    if missing:
        return ["certificate references unknown rows %r" % (missing[:3],)]
    for j in range(unknowns):
        total = sum((Fraction(y) * Fraction(by_ref[ref][0][j]) for ref, y in certificate), Fraction(0))
        if total != 0:
            out.append("y^T A is %s in column %d" % (total, j))
    if sum((Fraction(y) * Fraction(by_ref[ref][1]) for ref, y in certificate), Fraction(0)) == 0:
        out.append("y^T b is 0")
    return out


def bucket_failures(host: str, counts: Dict) -> List[str]:
    center, tip = BUCKETS[host]
    out = []
    if counts.get("center") != center:
        out.append("%s center %r, expected %d" % (host, counts.get("center"), center))
    if counts.get("hexagon") != 6:
        out.append("%s hexagon %r, expected 6" % (host, counts.get("hexagon")))
    if counts.get("tips") != [tip] * 6:
        out.append("%s tips %r, expected six of %d" % (host, counts.get("tips"), tip))
    return out


def mod8_failures(symmetries: Dict[Tuple[int, int], Dict[int, object]]) -> List[str]:
    """Conjugation symmetries must agree between (p, q) and (p + 8, q)."""
    out = []
    for (p, q), syms in sorted(symmetries.items()):
        big = symmetries.get((p + 8, q))
        if big is not None and big != syms:
            out.append("(%d,%d) bilinears %r differ from (%d,%d) %r" % (p, q, syms, p + 8, q, big))
    return out


def anticommutation_failures(gammas, metric, pairs) -> List[str]:
    """g_i g_j + g_j g_i = 2 eta_ij on the given index pairs, from the
    (rows, signs) column maps alone: column c of g is signs[c] e_rows[c]."""
    out = []
    for i, j in pairs:
        ri, si = gammas[i].rows, gammas[i].signs
        rj, sj = gammas[j].rows, gammas[j].signs
        for c in range(len(ri)):
            # (g_i g_j) e_c = sj[c] si[rj[c]] e_{ri[rj[c]]}
            a_row, a_sign = ri[rj[c]], si[rj[c]] * sj[c]
            b_row, b_sign = rj[ri[c]], sj[ri[c]] * si[c]
            if i == j:
                if a_row != c or a_sign != metric[i]:
                    out.append("gamma_%d squares wrongly at column %d" % (i, c))
                    break
            elif a_row != b_row or a_sign != -b_sign:
                out.append("gamma_%d, gamma_%d fail to anticommute at column %d" % (i, j, c))
                break
    return out


def det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
