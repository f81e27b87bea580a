"""Hexagram ("Magic Star") projection of a root system onto an a2 plane.

Pick two equal-length roots at 120 degrees, project every root to its pair
of coroot pairings against them, and bucket: the six a2 roots form the
hexagon, weight (0,0) is the center, and the six outer weights are the tips.
A candidate pair is accepted only if the whole chart comes out legal, so the
selection needs no case analysis for the two root lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .linalg import rat_str
from .roots import AlgebraLabel, RootSystem, Vector

Weight = Tuple[int, int]

HEX_WEIGHTS = ((2, -1), (-2, 1), (-1, 2), (1, -2), (1, 1), (-1, -1))
TIP_WEIGHTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
CENTER: Weight = (0, 0)
LEGAL = frozenset(HEX_WEIGHTS) | frozenset(TIP_WEIGHTS) | {CENTER}

STAR_HOSTS = {"G2", "F4", "E6", "E7", "E8", "D4"}


class MagicStarError(ValueError):
    pass


@dataclass(frozen=True)
class A2Choice:
    alpha: Vector
    beta: Vector
    a2_roots: Tuple[Vector, ...]
    candidates_validated: int
    # (center, sorted tip sizes) of every candidate that validated
    validated_counts: FrozenSet[Tuple[int, Tuple[int, ...]]]


@dataclass(frozen=True)
class MagicStarChart:
    host: AlgebraLabel
    choice: A2Choice
    buckets: Dict[Weight, Tuple[Vector, ...]]

    def bucket_label(self, w: Weight) -> str:
        if w == CENTER:
            return "center"
        if w in HEX_WEIGHTS:
            return "hexagon"
        return "tip(%d,%d)" % w


# Chart bytes of the legal weights (see find_a2): hexagon, tips, center.
_COUNTED = bytes(7 * a + b + 24 for a, b in HEX_WEIGHTS + TIP_WEIGHTS + (CENTER,))


def require_host(label: AlgebraLabel) -> None:
    """Refuse a label outside ``STAR_HOSTS``, from the label alone."""
    if str(label) not in STAR_HOSTS:
        raise MagicStarError("host %s has no hexagram projection" % label)


def find_a2(rs: RootSystem) -> A2Choice:
    """Scan root pairs with both coroot pairings -1 (equal length, 120
    degrees); keep the first ordered pair whose projection buckets are legal
    with six equal tips.

    Column j is an int lo[j] with one byte per root g: b + 3, for g's
    pairing b against root j.  Pairings outside [-3, 3] are refused first,
    so every byte of lo[j] is at most 6, every byte of 7 lo[i] is 7(a + 3),
    and every byte of 7 lo[i] + lo[j] is 7a + b + 24 in [0, 48]: one to one
    in (a, b), with no carry into the next byte.  A candidate's chart is
    then one add, one ``to_bytes`` and one ``bytes.count`` per legal weight,
    and it is legal when those counts cover every root.

    LEGAL, HEX_WEIGHTS and TIP_WEIGHTS are invariant under (a, b) -> (b, a),
    so (i, j) validates exactly when (j, i) does: the scan visits i < j,
    counts each valid pair twice, and its first valid pair is the first
    ordered one.  The number of ordered candidates that validate, and the
    count multisets they give, are recorded on the result.
    """
    require_host(rs.label)
    cols = rs.pairings
    if min(map(min, cols)) < -3 or max(map(max, cols)) > 3:
        raise MagicStarError("pairing outside [-3, 3] in %s" % rs.label)
    n = len(cols)
    lo = [int.from_bytes(bytes(x + 3 for x in col), "little") for col in cols]
    validated = 0
    counts = set()
    first: Optional[bytes] = None
    for i in range(n):
        coli, hi = cols[i], 7 * lo[i]
        for j in range(i + 1, n):
            if coli[j] != -1 or cols[j][i] != -1:
                continue
            chart = (hi + lo[j]).to_bytes(n, "little")
            c = list(map(chart.count, _COUNTED))
            tips = c[6:12]
            if sum(c) == n and c[:6] == [1] * 6 and tips.count(tips[0]) == 6:
                validated += 2
                counts.add((c[12], tuple(tips)))
                if first is None:
                    first = chart
    if first is None:
        raise MagicStarError("no valid a2 pair found in %s" % rs.label)
    # each hexagon weight holds one root: alpha, -alpha, beta, -beta,
    # alpha + beta and -alpha - beta, in the order of HEX_WEIGHTS
    six = tuple(rs.roots[first.index(b)] for b in _COUNTED[:6])
    return A2Choice(six[0], six[2], six, validated, frozenset(counts))


def project(rs: RootSystem, choice: A2Choice) -> MagicStarChart:
    """Bucket every root by its weight pair against (alpha, beta)."""
    cols = rs.pairings
    a2 = {rs.index[r] for r in choice.a2_roots}
    buckets: Dict[Weight, List[int]] = {}
    for g, w in enumerate(zip(cols[rs.index[choice.alpha]], cols[rs.index[choice.beta]])):
        if g in a2:
            if w not in HEX_WEIGHTS:
                raise MagicStarError("a2 root fell outside the hexagon")
        elif w != CENTER and w not in TIP_WEIGHTS:
            raise MagicStarError("weight %r outside the legal set" % (w,))
        buckets.setdefault(w, []).append(g)
    tips = [len(buckets.get(t, ())) for t in TIP_WEIGHTS]
    if len(set(tips)) != 1:
        raise MagicStarError("tips are not balanced")
    # center roots must close among themselves under reflection
    center = buckets.get(CENTER, [])
    scaled = rs.scaled
    cset = {scaled[g] for g in center}
    for g in center:
        sg = scaled[g]
        for a in center:
            c = cols[a][g]
            if tuple(x - c * y for x, y in zip(sg, scaled[a])) not in cset:
                raise MagicStarError("center bucket is not a closed subsystem")
    frozen = {w: tuple(rs.roots[g] for g in idx) for w, idx in buckets.items()}
    return MagicStarChart(rs.label, choice, frozen)


def chart_counts(chart: MagicStarChart) -> dict:
    """Exact cardinalities: center, hexagon total, and the six tip sizes."""
    center = len(chart.buckets.get(CENTER, ()))
    hexagon = sum(len(chart.buckets.get(h, ())) for h in HEX_WEIGHTS)
    tips = [len(chart.buckets.get(t, ())) for t in sorted(TIP_WEIGHTS)]
    return {"center": center, "hexagon": hexagon, "tips": tips}


def emit_chart(chart: MagicStarChart, format: str) -> str:
    if format == "csv":
        return _emit_csv(chart)
    if format == "svg":
        return _emit_svg(chart)
    raise ValueError("format must be csv or svg")


def _emit_csv(chart: MagicStarChart) -> str:
    lines = []
    for w in sorted(chart.buckets):
        for root in chart.buckets[w]:
            coords = ",".join(rat_str(x) for x in root)
            lines.append("%s;%d;%d;%s" % (coords, w[0], w[1], chart.bucket_label(w)))
    return "\n".join(lines) + "\n"


# Drawing plane: simple a2 roots at 120 degrees, fundamental weights dual to
# their coroots; a weight (a, b) sits at a*w1 + b*w2.
_SQRT3 = 3 ** 0.5
_W1 = (0.5, _SQRT3 / 6.0)
_W2 = (0.0, _SQRT3 / 3.0)


def _fmt(x: float) -> str:
    return "%.12g" % x


def _emit_svg(chart: MagicStarChart) -> str:
    scale = 220.0
    cx = cy = 300.0

    def pos(w: Weight) -> Tuple[float, float]:
        x = w[0] * _W1[0] + w[1] * _W2[0]
        y = w[0] * _W1[1] + w[1] * _W2[1]
        return (cx + scale * x, cy - scale * y)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 600 600" '
        'width="600" height="600">',
        '<rect width="600" height="600" fill="white"/>',
    ]
    tri1 = [(1, 0), (-1, 1), (0, -1)]
    tri2 = [(-1, 0), (1, -1), (0, 1)]
    for tri in (tri1, tri2):
        pts = " ".join("%s,%s" % (_fmt(x), _fmt(y)) for x, y in (pos(w) for w in tri))
        parts.append(
            '<polygon points="%s" fill="none" stroke="#cccccc" stroke-width="1"/>' % pts
        )
    for w in sorted(chart.buckets):
        x, y = pos(w)
        mult = len(chart.buckets[w])
        parts.append(
            '<circle cx="%s" cy="%s" r="6" fill="black"/>' % (_fmt(x), _fmt(y))
        )
        parts.append(
            '<text x="%s" y="%s" font-size="14" text-anchor="middle">%d</text>'
            % (_fmt(x), _fmt(y - 10.0), mult)
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
