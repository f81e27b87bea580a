"""Reference hexagram scan for ``magicstar.star`` that only the tests use.

This is the code that the integer pairing table replaced: roots closed
under simple reflections in exact rationals, a pairing table of nested
lists built from the doubled rational roots, every ordered root pair
scanned with a Counter of zipped weight tuples, and the projection's center
closure by rational reflections.  It shares only the simple-root data and
the weight constants with the production code.
"""

from collections import Counter
from typing import Dict, List, Tuple

from linalg_oracle import dot
from magicstar.roots import AlgebraLabel, _simple_roots
from magicstar.star import CENTER, HEX_WEIGHTS, LEGAL, TIP_WEIGHTS


def generate_roots(label: AlgebraLabel) -> Tuple[tuple, ...]:
    """Sorted roots: the simple roots closed under all simple reflections."""
    simple = _simple_roots(label)
    norms = [dot(a, a) for a in simple]
    seen = set(simple)
    queue = list(seen)
    while queue:
        beta = queue.pop()
        for alpha, n2 in zip(simple, norms):
            c = 2 * dot(beta, alpha) / n2
            refl = tuple(b - c * a for b, a in zip(beta, alpha))
            if refl not in seen:
                seen.add(refl)
                queue.append(refl)
    return tuple(sorted(seen))


def pairing_columns(roots) -> List[List[int]]:
    """cols[j][i] = coroot pairing 2(r_i, r_j)/(r_j, r_j) of root i against
    root j, on the doubled coordinates, checked to be an integer."""
    doubled = []
    for r in roots:
        d = tuple(2 * x for x in r)
        assert all(x.denominator == 1 for x in d)
        doubled.append(tuple(int(x) for x in d))
    cols = []
    for sj in doubled:
        nj = sum(x * x for x in sj)
        col = []
        for si in doubled:
            q, rem = divmod(2 * sum(a * b for a, b in zip(si, sj)), nj)
            if rem:
                raise ArithmeticError("pairing is not integral")
            col.append(q)
        cols.append(col)
    return cols


def valid_counter(counter: Counter) -> bool:
    if not set(counter) <= LEGAL:
        return False
    if any(counter.get(h, 0) != 1 for h in HEX_WEIGHTS):
        return False
    tips = [counter.get(t, 0) for t in TIP_WEIGHTS]
    return len(set(tips)) == 1


def scan(roots, cols):
    """Every ordered pair of equal-length roots at 120 degrees whose chart
    validates: (first pair, number validated, set of (center, sorted tips))."""
    norms = [dot(r, r) for r in roots]
    first = None
    validated = 0
    counts = set()
    n = len(roots)
    for i in range(n):
        for j in range(n):
            if i == j or norms[i] != norms[j]:
                continue
            if cols[i][j] != -1 or cols[j][i] != -1:
                continue
            counter = Counter(zip(cols[i], cols[j]))
            if valid_counter(counter):
                validated += 1
                counts.add((counter.get(CENTER, 0),
                            tuple(sorted(counter.get(t, 0) for t in TIP_WEIGHTS))))
                if first is None:
                    first = (i, j)
    return first, validated, counts


def a2_roots(roots, alpha, beta) -> Tuple[tuple, ...]:
    rootset = set(roots)
    six = []
    for ca, cb in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)):
        v = tuple(ca * a + cb * b for a, b in zip(alpha, beta))
        if v not in rootset:
            raise AssertionError("a2 combination escaped the root set")
        six.append(v)
    return tuple(six)


def project(roots, cols, i, j) -> Dict[Tuple[int, int], Tuple[tuple, ...]]:
    """Roots bucketed by weight against (roots[i], roots[j]), in root order,
    after the same checks as the production projection, with rational
    reflections for the center closure."""
    a2set = set(a2_roots(roots, roots[i], roots[j]))
    index = {r: k for k, r in enumerate(roots)}
    buckets: Dict[Tuple[int, int], list] = {}
    for root, w in zip(roots, zip(cols[i], cols[j])):
        if root in a2set:
            assert w in HEX_WEIGHTS
        else:
            assert w == CENTER or w in TIP_WEIGHTS
        buckets.setdefault(w, []).append(root)
    assert len({len(buckets.get(t, ())) for t in TIP_WEIGHTS}) == 1
    center = buckets.get(CENTER, [])
    cset = set(center)
    for g in center:
        for a in center:
            c = cols[index[a]][index[g]]
            assert tuple(x - c * y for x, y in zip(g, a)) in cset
    return {w: tuple(lst) for w, lst in buckets.items()}
