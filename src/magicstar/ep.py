"""Graded spinor extensions of orthogonal algebras, four families deep.

Each family pairs an orthogonal algebra with (anti)chiral spinor generators
and realizes the bracket through conjugation-matrix bilinears:

* ``der``    so(9+8n)    plus a Majorana spinor block;
* ``str0``   so(9+8n,1)  plus a grading scalar and two chiral halves at
               grades -1/+1;
* ``conf``   so(10+8n,2) plus a three-dimensional sl2 sector and two copies
               of one chiral half at grades -1/+1 (five-graded);
* ``qconf``  so(12+8n,4) plus one chiral half.

At n = 0 these close into the exceptional Lie algebras of dimensions 52,
78, 133 and 248.  For n >= 1 the spinor-sector jacobiator cannot be zeroed
by any choice of bracket coefficients, and ``jacobi_infeasibility`` returns
an exact linear-algebra certificate of that fact.

An element holds int numerators over one shared denominator, each block one
list over its fixed basis: so over ``EPSpace.pairs``, a scalar as one
entry, a spinor as its full-length column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction as Q
from functools import cached_property
from math import lcm, prod
from operator import add, itemgetter, mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .clifford import (
    CliffordRep,
    Signature,
    _prod,
    _rep_log2,
    build_rep,
    chiral_indices,
    chirality,
    conjugation,
    rep_dim,
)
from .linalg import RowReducer, _reader, _sign, _signed, lane_sums, rat_str

class EPError(ValueError):
    pass


def _so_dim(m: int) -> int:
    return m * (m - 1) // 2


@dataclass(frozen=True)
class _Level:
    """The one description of a family; the bracket table, the pinned
    channels, the coefficient tags, the dimension and the grades derive
    from it.

    ``blocks`` are the components beside ``so`` as (name, grade, support):
    support "full", "plus" or "minus" for a spinor (the primed polarization
    swaps plus and minus), None for a scalar.  ``channels`` are the
    coefficient-carrying bilinears as (bx, by, name, target), in the order
    in which rescaling pins them.  The description states only the
    algebra: ``make_ep`` checks what each channel needs of the conjugation.
    """

    offset: Tuple[int, int]  # the signature is (p + 8n, q)
    blocks: Tuple[Tuple[str, int, Optional[str]], ...]
    channels: Tuple[Tuple[str, str, str, str], ...]
    extended: Optional[Callable[[str, int], List[Tuple[int, int]]]] = None

    def signature(self, n: int) -> Signature:
        if n < 0:
            raise EPError("n must be non-negative")
        return Signature(self.offset[0] + 8 * n, self.offset[1])

    def components(self, n: int) -> List[Tuple[int, int]]:
        """(grade, dimension) of so and of each block; builds nothing, so it
        answers past the size limit too."""
        sig = self.signature(n)
        log2 = _rep_log2(sig)
        out = [(0, _so_dim(sig.total))]
        for _, grade, support in self.blocks:
            out.append((grade, 1 if support is None else 1 << (log2 - (support != "full"))))
        return out

    @cached_property
    def table(self) -> dict:
        """Ordered-block channel table: (bx, by) -> [(channel, target, kernel)].

        Channel ``None`` marks a structural entry (coefficient identically 1,
        never in the coefficient systems): so-so, so-spinor, and D-X with
        factor grade(X).  A channel's kernel follows from the kinds of its
        blocks and target.
        """
        kind = {"so": "so"}
        t = {("so", "so"): [(None, "so", _k_commutator)]}
        for name, grade, support in self.blocks:
            kind[name] = "scalar" if support is None else "spinor"
            if support is not None:
                t[("so", name)] = [(None, name, _k_act)]
            if grade:
                t[("D", name)] = [(None, name, _k_grade)]
        for bx, by, name, target in self.channels:
            kernel = _CHANNEL_KERNELS[kind[bx], kind[by], kind[target]]
            t.setdefault((bx, by), []).append((name, target, kernel))
        return t

    @cached_property
    def rescaled(self) -> Tuple[str, ...]:
        """Blocks with a free scale: all but so and D ([D, X] = grade(X) X)."""
        return tuple(name for name, _, _ in self.blocks if name != "D")

    @cached_property
    def weights(self) -> Dict[str, Tuple[int, ...]]:
        """Each channel's rescaling weight e_bx + e_by - e_target."""
        return {
            name: tuple((b == bx) + (b == by) - (b == target) for b in self.rescaled)
            for bx, by, name, target in self.channels
        }

    @cached_property
    def pinned(self) -> Tuple[str, ...]:
        """In channel order, each channel whose weight is independent of the
        weights before it; rescaling sets these to 1."""
        red = RowReducer(len(self.rescaled))
        out = []
        for name, w in self.weights.items():
            rank = red.rank()
            red.add_row(w, 0)
            if red.rank() > rank:
                out.append(name)
        return tuple(out)

    @cached_property
    def unknowns(self) -> Tuple[str, ...]:
        return tuple(name for name in self.weights if name not in self.pinned)

    def tags(self, inputs: Sequence[str]) -> Tuple[tuple, ...]:
        """Unknown-channel combinations along every nested bracket
        [[b1, b2], b3] over the input blocks, sorted by (length, names)."""
        def products(a, b):
            for name, target, _ in self.table.get((a, b)) or self.table.get((b, a)) or ():
                yield target, ((name,) if name in self.unknowns else ())

        found = set()
        for b1 in inputs:
            for b2 in inputs:
                for mid, t1 in products(b1, b2):
                    for b3 in inputs:
                        found.update(tuple(sorted(t1 + t2)) for _, t2 in products(mid, b3))
        found.discard(())
        return tuple(sorted(found, key=lambda tag: (len(tag), tag)))


def _canonical(level: str, n: int) -> List[Tuple[int, int]]:
    by_grade: Dict[int, int] = {}
    for grade, d in _describe(level).components(n):
        by_grade[grade] = by_grade.get(grade, 0) + d
    return sorted(by_grade.items())


def _qconf_extended(level: str, n: int) -> List[Tuple[int, int]]:
    """qconf branched through so(11+8n,3): vectors at grades -2/+2, spinors
    at -1/+1, a quarter of the representation each."""
    sig = _describe(level).signature(n)
    v, s = sig.total - 2, 1 << (_rep_log2(sig) - 2)
    return [(-2, v), (-1, s), (0, _so_dim(v) + 1), (1, s), (2, v)]


_LEVELS = {
    "der": _Level(
        (9, 0), (("psi", 0, "full"),),
        channels=(("psi", "psi", "pair_so", "so"),),
    ),
    "str0": _Level(
        (9, 1),
        (("D", 0, None), ("psi_p", 1, "plus"), ("psi_m", -1, "minus")),
        channels=(("psi_p", "psi_m", "pair_so", "so"), ("psi_p", "psi_m", "pair_R", "D")),
    ),
    # five-graded already: the extended view is the canonical one
    "conf": _Level(
        (10, 2),
        (("D", 0, None), ("K_p", 2, None), ("K_m", -2, None),
         ("psi_p", 1, "plus"), ("psi_m", -1, "plus")),
        channels=(
            ("psi_p", "psi_p", "apex_up", "K_p"),
            ("K_p", "psi_m", "transfer_up", "psi_p"),
            ("K_m", "psi_p", "transfer_down", "psi_m"),
            ("psi_m", "psi_m", "apex_down", "K_m"),
            ("K_p", "K_m", "k_pair", "D"),
            ("psi_p", "psi_m", "pair_so", "so"),
            ("psi_p", "psi_m", "pair_R", "D"),
        ),
        extended=_canonical,
    ),
    "qconf": _Level(
        (12, 4), (("psi", 0, "plus"),),
        channels=(("psi", "psi", "pair_so", "so"),), extended=_qconf_extended,
    ),
}

LEVELS = tuple(_LEVELS)


def _describe(level: str) -> _Level:
    try:
        return _LEVELS[level]
    except KeyError:
        raise EPError("unknown level %r" % level) from None


def signature_for(level: str, n: int) -> Signature:
    """The orthogonal signature of the family; refuses one whose spinor
    representation would exceed the size limit of ``clifford.rep_dim``."""
    sig = _describe(level).signature(n)
    rep_dim(sig)
    return sig


def dimension(level: str, n: int) -> int:
    """Total dimension of the graded space."""
    return sum(d for _, d in _describe(level).components(n))


def grade_profiles(level: str, n: int) -> Dict[str, List[Tuple[int, int]]]:
    """(grade, component dimension) lists by grading view: "canonical" for
    every level, and "extended" for the levels that define it."""
    out = {"canonical": _canonical(level, n)}
    extended = _describe(level).extended
    if extended is not None:
        out["extended"] = extended(level, n)
    return out


@dataclass
class BracketCoeffs:
    """Rational coefficient per bilinear channel; some pinned by rescaling."""

    values: Dict[str, Q]
    normalized: Tuple[str, ...]


def default_coeffs(level: str) -> BracketCoeffs:
    desc = _describe(level)
    return BracketCoeffs({name: Q(1) for name in desc.weights}, desc.pinned)


class _Gathers(NamedTuple):
    """Per gamma a, for a spinor on ``support``, which every gamma maps onto
    its image (the other chiral half, or everything): ``out[a]`` reads
    gamma_a v on the image from a full column; ``back[a]`` reads gamma_a r
    on ``support`` from r on the image; ``lower`` reads C^T v on
    ``support`` from a full column.  Each reads from ``_signed`` of its
    input, and gamma_a^T is eta_a gamma_a (``verify_relations`` proved
    gamma_a^2 = eta_a).  ``expand`` spreads a vector on ``support``, then
    one 0, over a column, and ``on_support`` reads a column on
    ``support``."""

    support: Tuple[int, ...]
    expand: Callable[[list], tuple]
    out: Tuple[Callable[[list], tuple], ...]
    back: Tuple[Callable[[list], tuple], ...]
    lower: Callable[[list], tuple]
    on_support: Callable[[list], tuple]


def _gathers(rep: CliffordRep, conj: Tuple[int, int, int], support, image) -> _Gathers:
    pos = {c: k for k, c in enumerate(support)}
    index = list(range(2 * rep.dim))
    on_image = {c: k for k, c in enumerate(image)}
    signed = tuple(zip(rep.labels, rep.metric))
    return _Gathers(
        support,
        itemgetter(*(pos.get(c, len(support)) for c in range(rep.dim))),
        tuple(_reader(g, image, index, None, eta) for g, eta in signed),
        tuple(_reader(g, support, index, on_image, eta) for g, eta in signed),
        _reader(conj, support, index),
        itemgetter(*support),
    )


@dataclass
class EPSpace:
    level: str
    n: int
    polarization: str
    rep: CliffordRep
    conj: Callable[[list], tuple] = field(repr=False)  # C^T v from _signed(v)
    pairs: Tuple[Tuple[int, int], ...]
    coeffs: BracketCoeffs
    grades: Dict[str, int]
    gathers: Dict[str, _Gathers] = field(repr=False)
    table: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return dimension(self.level, self.n)

    @property
    def spinor_support(self) -> Dict[str, Tuple[int, ...]]:
        return {name: g.support for name, g in self.gathers.items()}

    def spinor_blocks(self) -> Tuple[str, ...]:
        return tuple(self.gathers)


class EPElement:
    """Integer numerators per graded block over one shared positive ``den``.
    Every block is one list over its fixed basis: so over ``EPSpace.pairs``,
    a scalar as one entry, a spinor as its full-length column.  An entry's
    value is numerator / den.  The blocks are stored as given: every entry
    must be an int and ``den`` a positive int (``linalg.lift`` puts
    rationals into this form).
    """

    __slots__ = ("blocks", "den")

    def __init__(self, blocks: Dict[str, list], den: int = 1):
        self.blocks = blocks
        self.den = den

    def is_zero(self) -> bool:
        return not any(map(any, self.blocks.values()))

    def numerators(self):
        """Nonzero components as ((block, index), int numerator) pairs, in
        block and index order."""
        for name, val in sorted(self.blocks.items()):
            for k, v in enumerate(val):
                if v:
                    yield (name, k), v


def _times(val: list, c: int) -> list:
    """Block ``val`` with every numerator multiplied by ``c``; ``val`` itself
    when ``c`` is 1."""
    return val if c == 1 else [c * v for v in val]


def ep_add(a: EPElement, b: EPElement) -> EPElement:
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    out = {}
    for name in a.blocks.keys() | b.blocks.keys():
        av, bv = a.blocks.get(name), b.blocks.get(name)
        if bv is None:
            out[name] = _times(av, fa)
        elif av is None:
            out[name] = _times(bv, fb)
        else:
            out[name] = [fa * x + fb * y for x, y in zip(av, bv)]
    return EPElement(out, den)


# ---------------------------------------------------------------------------
# kernels: each takes the terms (c, u, v, held) of one channel, u and v two
# blocks of int numerators named by ``key`` and c an int, and returns
# ``(value, den_factor)``: int numerators of the sum over the terms of c
# times the product's value, times ``den_factor``.  Spinor kernels gather
# through the m single gammas, and every sum of vectors is one
# ``lane_sums`` over all the terms, under the one bound it names.  A
# term's ``held`` is None or, while one ``_tagged_jacobiator`` runs, the
# list in which ``lane_sums`` keeps the one set of packs it makes of that
# term's v: the so action's gamma_b psi, the pair form's right operand per
# image entry.  Packs live nowhere else.
# ---------------------------------------------------------------------------

def _k_commutator(space: EPSpace, key, terms):
    """Sum over the terms of c [x, y], x and y lists over the pairs: the
    upper triangle of M - M^T, M the sum of c X eta Y for the
    antisymmetric matrices X, Y; row i of M is the sum over the terms and
    k of c (X eta)[i][k] Y[k], at most the sum over the terms of
    m max(1, |c| max |x|) max |y|."""
    metric = space.rep.metric
    m = len(metric)

    def term(c, x, y):
        xe = [[0] * m for _ in metric]
        ym = [[0] * m for _ in metric]
        for (a, b), v, w in zip(space.pairs, _times(x, c), y):
            xe[a][b], xe[b][a] = v * metric[b], -v * metric[a]
            ym[a][b], ym[b][a] = w, -w
        return xe, ym, None

    # max(1, ...): a zero c x still packs y
    bound = sum(m * max(1, abs(c) * max(map(abs, x))) * max(map(abs, y)) for c, x, y, _ in terms)
    rows = list(lane_sums((term(c, x, y) for c, x, y, _ in terms), bound))
    return [rows[i][j] - rows[j][i] for i, j in space.pairs], 1


def _k_act(space: EPSpace, key, terms):
    """The orthogonal action on spinor columns, summed over the terms: c
    times sum over a < b of x_ab gamma_a gamma_b psi, over 2, as sum over
    a of gamma_a (sum over the terms and b of c x_ab gamma_b psi); a row's
    entries are at most the sum over the terms of |c| sum |x| max |psi|.
    Only the rows a and gammas b of a nonzero x_ab are read, a term whose
    c x is zero reads nothing, and each row is unpacked and gathered back
    once, whatever the number of terms."""
    g = space.gathers[key[1]]
    m = len(g.out)
    live, bound = [], 0
    for c, x, psi, held in terms:
        if not (c and any(x)):
            continue
        coeffs = [[0] * m for _ in range(m - 1)]  # no pair starts at the last gamma
        for (a, b), v in zip(space.pairs, _times(x, c)):
            coeffs[a][b] = v
        live.append((coeffs, psi, held))
        bound += abs(c) * sum(map(abs, x)) * max(map(abs, psi))
    if not live:
        return [0] * space.rep.dim, 2
    rows = [a for a in range(m - 1) if any(any(coeffs[a]) for coeffs, _, _ in live)]

    def term(coeffs, psi, held):
        # the gammas b that a nonzero x_ab reaches; with packs held, every
        # b >= 1 (no pair ends at gamma_0), so that each call reads the
        # same vectors; None at a row the term does not reach
        cols = range(1, m) if held is not None else [b for b, col in enumerate(zip(*coeffs)) if any(col)]

        def vectors():  # lazy: lane_sums gathers only when ``held`` has no packs
            signed = _signed(psi)
            for b in cols:
                yield g.out[b](signed)

        return [list(map(coeffs[a].__getitem__, cols)) if any(coeffs[a]) else None for a in rows], vectors(), held

    sums = lane_sums((term(*t) for t in live), bound)
    acc = [0] * len(g.support)
    for a, r in zip(rows, sums):
        acc = list(map(add, acc, g.back[a](r)))
    return list(g.expand(acc + [0])), 2


def _k_grade(space: EPSpace, key, terms):
    grade = space.grades[key[1]]
    return _combine((c * grade * d[0], val) for c, d, val, _ in terms), 1


def _k_pair_so(space: EPSpace, key, terms):
    """Sum over the terms of c psi^T (eta_a eta_b C gamma_a gamma_b) phi,
    per pair a < b, = c eta_b (gamma_a C^T psi) . (gamma_b phi) on the
    image of phi's support: row a sums, over the terms and image entries
    k, (gamma_a C^T c psi)[k] times the vector ((gamma_b phi)[k])_b, each
    entry at most the sum over the terms of |image| max(1, |c| max |psi|)
    max(1, max |phi|)."""
    g = space.gathers[key[1]]

    def term(c, psi, phi, held):
        lowered = _signed(space.conj(_signed(_times(psi, c))))

        def entries():  # lazy, as in _k_act
            signed = _signed(phi)
            yield from zip(*(f(signed) for f in g.out))

        # no pair starts at the last gamma
        return (f(lowered) for f in g.out[:-1]), entries(), held

    # max(1, ...): a zero operand still packs or multiplies the other
    bound = sum(
        len(g.support) * max(1, abs(c) * max(map(abs, psi))) * max(1, max(map(abs, phi)))
        for c, psi, phi, _ in terms
    )
    rows = lane_sums((term(*t) for t in terms), bound)
    metric = space.rep.metric
    # row a, then b > a: the order of ``space.pairs``
    return [metric[b] * r[b] for a, r in enumerate(rows) for b in range(a + 1, len(metric))], 1


def _k_pair_scalar(space: EPSpace, key, terms):
    """Sum over the terms of c psi^T C phi, read over phi's support only."""
    g = space.gathers[key[1]]
    return [sum(c * sum(map(mul, g.lower(_signed(psi)), g.on_support(phi))) for c, psi, phi, _ in terms)], 1


def _combine(pairs) -> list:
    """Sum over (a, v) of a v, for int a and lists v of one length."""
    acc = None
    for a, v in pairs:
        v = _times(v, a)
        acc = v if acc is None else list(map(add, acc, v))
    return acc


# a coefficient channel's kernel, by the kinds of (bx, by, target)
_CHANNEL_KERNELS = {
    ("spinor", "spinor", "so"): _k_pair_so,
    ("spinor", "spinor", "scalar"): _k_pair_scalar,
    ("scalar", "spinor", "spinor"): lambda space, key, terms: (
        _combine((c * k[0], psi) for c, k, psi, _ in terms), 1),
    ("scalar", "scalar", "scalar"): lambda space, key, terms: (
        [sum(c * a[0] * b[0] for c, a, b, _ in terms)], 1),
}


def make_ep(
    level: str,
    n: int,
    coeffs: Optional[BracketCoeffs] = None,
    polarization: str = "unprimed",
) -> EPSpace:
    """Build the representation data for one family from its description,
    checking on labels what each channel needs of C = X^a Z^b.  C maps c to
    c ^ a, so it swaps the halves of the chirality Z^z exactly when
    popcount(a & z) is odd, which must hold exactly when a channel's spinor
    blocks sit on different halves.  A channel with one block on both sides
    must be antisymmetric: C itself for a scalar target, C gamma_a gamma_b
    for so.  One pair decides all, as C gamma C^-1 = gamma^T gives
    (C gamma_a gamma_b)^T = -sigma C gamma_a gamma_b, sigma = C^T C^-1."""
    desc = _describe(level)
    sig = signature_for(level, n)
    if polarization not in ("unprimed", "primed"):
        raise EPError("polarization must be unprimed or primed")
    supports = {name: s for name, _, s in desc.blocks}
    chiral = not {"plus", "minus"}.isdisjoint(supports.values())
    if polarization == "primed" and not chiral:
        raise EPError("level %s has no chiral split to polarize" % level)
    rep = build_rep(sig)
    C = conjugation(rep, +1)
    total = sig.total
    pairs = tuple((a, b) for a in range(total) for b in range(a + 1, total))

    # support -> (the support, its image under every gamma)
    halves = {"full": (tuple(range(rep.dim)),) * 2}
    if chiral:
        plus, minus = map(tuple, chiral_indices(rep))
        if polarization == "primed":
            plus, minus = minus, plus
        halves.update(plus=(plus, minus), minus=(minus, plus))
        swaps = _sign(C.C[1] & chirality(rep)[2]) == -1
    for bx, by, _, target in desc.channels:
        sides = {supports[bx], supports[by]}
        if sides <= {"plus", "minus"} and (len(sides) == 2) != swaps:
            raise AssertionError("conjugation chirality behavior does not match the level")
        form = _prod((C.C,) + rep.labels[:2]) if target == "so" else C.C
        if bx == by and _sign(form[1] & form[2]) != -1:
            raise AssertionError("conjugation symmetry does not match the level")
    built = {s: _gathers(rep, C.C, *halves[s]) for s in set(supports.values()) - {None}}

    space = EPSpace(
        level=level,
        n=n,
        polarization=polarization,
        rep=rep,
        conj=_reader(C.C, halves["full"][0], list(range(2 * rep.dim))),
        pairs=pairs,
        coeffs=coeffs or default_coeffs(level),
        grades={"so": 0, **{name: grade for name, grade, _ in desc.blocks}},
        gathers={name: built[s] for name, s in supports.items() if s is not None},
        table=desc.table,
    )
    counted = len(pairs) + sum(len(halves[s][0]) if s else 1 for s in supports.values())
    if counted != space.dim:
        raise AssertionError("component bookkeeping disagrees with the dimension formula")
    return space


# ---------------------------------------------------------------------------
# bracket, jacobiator
# ---------------------------------------------------------------------------

def _bracket_terms(space: EPSpace, x: EPElement, y: EPElement, unknowns, holding, groups: dict, tag=()):
    """Add the terms of [x, y] to ``groups``, by (tag, key, channel): the
    tag is ``tag`` and the channel's tag together, sorted, and a term
    (num, den, u, v, held) is num/den times the channel's kernel on blocks
    u, v.  Tags name non-pinned channels.  ``holding`` maps id(block) to
    (block, {key: held}) for the blocks whose packs a jacobiator keeps; a
    term whose v is one of them gets the ``held`` list of its key (a key
    has at most one kernel that packs)."""
    values = space.coeffs.values
    den = x.den * y.den
    for bx, xv in x.blocks.items():
        for by, yv in y.blocks.items():
            # the table lists each block pair once; the reversed order is
            # the same kernel with the arguments swapped and the sign flipped
            for key, (u, v), sign in (((bx, by), (xv, yv), 1), ((by, bx), (yv, xv), -1)):
                entry = space.table.get(key)
                if entry is None:
                    continue
                kept = holding.get(id(v)) if holding else None
                held = None if kept is None else kept[1].setdefault(key, [])
                for channel in entry:
                    t, coeff = _tag_for(channel[0], unknowns, values)
                    c = sign * coeff  # int or Fraction
                    groups.setdefault((tuple(sorted(tag + t)), key, channel), []).append(
                        (c.numerator, den * c.denominator, u, v, held))
                break


def _sum_groups(space: EPSpace, groups: dict) -> Dict[tuple, EPElement]:
    """Each group's terms through its kernel in one call, over the lcm of
    their denominators, added by tag; tags that sum to zero are left out."""
    out: Dict[tuple, EPElement] = {}
    for (tag, key, (_, target, kernel)), terms in groups.items():
        den = lcm(*(d for _, d, _, _, _ in terms))
        value, den_factor = kernel(space, key, [(num * (den // d), u, v, held) for num, d, u, v, held in terms])
        el = EPElement({target: value}, den * den_factor)
        out[tag] = ep_add(out[tag], el) if tag in out else el
    return {tag: el for tag, el in out.items() if not el.is_zero()}


def _tagged_bracket(space: EPSpace, x: EPElement, y: EPElement, unknowns, holding=None) -> List[Tuple[tuple, EPElement]]:
    """Bracket split by coefficient channel: the nonzero parts, by tag."""
    groups: dict = {}
    _bracket_terms(space, x, y, unknowns, holding, groups)
    return list(_sum_groups(space, groups).items())


def _tag_for(name, unknowns, values):
    if name is None:
        return (), 1
    if unknowns is not None and name in unknowns:
        return (name,), 1
    # pinned, or numeric mode (no unknowns): fold the coefficient in
    return (), values[name]


def bracket(space: EPSpace, x: EPElement, y: EPElement) -> EPElement:
    """Bilinear antisymmetric grade-additive product."""
    return dict(_tagged_bracket(space, x, y, None)).get((), EPElement({}))


def jacobiator(space: EPSpace, x: EPElement, y: EPElement, z: EPElement) -> EPElement:
    """[[x,y],z] + [[y,z],x] + [[z,x],y], exactly: the untagged entry of
    ``_tagged_jacobiator`` in numeric mode."""
    return _tagged_jacobiator(space, x, y, z, None).get((), EPElement({}))


def _tagged_jacobiator(space: EPSpace, x, y, z, unknowns) -> Dict[tuple, EPElement]:
    # Each inner bracket [a, b] is summed on its own; then the terms of
    # every outer bracket [[a, b], c] of the three go into one set of
    # groups, by final tag, so each kernel runs once per tag and channel.
    # Packs are held for this call only.  Where another operand carries a
    # nonzero so part, a spinor block is acted on by that part and again by
    # the so part of the other two operands' bracket, and as a pair form's
    # right operand it is paired at both levels too; such a block keeps the
    # packs its kernels make.  A spinor-only triple, as at n >= 1, keeps none.
    triple = (x, y, z)
    acting = [any(el.blocks.get("so", ())) for el in triple]
    holding = {
        id(val): (val, {})
        for i, el in enumerate(triple) if any(acting[:i] + acting[i + 1:])
        for name, val in el.blocks.items() if name in space.gathers
    }
    groups: dict = {}
    for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
        for t1, e1 in _tagged_bracket(space, a, b, unknowns, holding):
            _bracket_terms(space, e1, c, unknowns, holding, groups, t1)
    return _sum_groups(space, groups)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def random_spinor_element(space: EPSpace, rng: random.Random, lo=-9, hi=9) -> EPElement:
    blocks = {}
    for name in space.spinor_blocks():
        col = [0] * space.rep.dim
        for i in space.spinor_support[name]:
            col[i] = rng.randint(lo, hi)
        blocks[name] = col
    return EPElement(blocks)


def random_element(space: EPSpace, rng: random.Random) -> EPElement:
    blocks = dict(random_spinor_element(space, rng, -4, 4).blocks)
    blocks["so"] = [rng.randint(-2, 2) for _ in space.pairs]
    for name in space.grades:
        if name != "so" and name not in space.spinor_support:
            blocks[name] = [rng.randint(-3, 3)]
    return EPElement(blocks)


def element_to_json(space: EPSpace, el: EPElement) -> dict:
    den = el.den

    def value(v):
        return rat_str(v if den == 1 else Q(v, den))

    out = {}
    for name, val in sorted(el.blocks.items()):
        if name == "so":
            out[name] = {"%d,%d" % k: value(v) for k, v in zip(space.pairs, val) if v}
        elif name in space.gathers:
            out[name] = [value(v) for v in val]
        else:
            out[name] = value(val[0])
    return out


# ---------------------------------------------------------------------------
# calibration and the violation certificate
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    level: str
    n: int
    coeffs: BracketCoeffs
    rows: int
    verified_triples: int
    seed: int


@dataclass
class InfeasibilityReport:
    level: str
    n: int
    samples: int
    seed: int
    status: str  # "violated" or "satisfiable"
    certificate: Optional[List[Tuple[Tuple[int, tuple], Q]]]
    assignment: Optional[Dict[str, Q]]
    witness_index: Optional[int]
    witness: Optional[dict]
    unknowns: Tuple[tuple, ...]
    triples_evaluated: int
    rows: List[Tuple[Tuple[int, tuple], List[Q], Q]] = field(default_factory=list, repr=False)


class _System:
    """Rows of jacobiator components, linear over channel-coefficient tags:
    int numerators over one denominator per triple.  It counts the fed
    rows and keeps the reference of each row that became a pivot, the only
    rows a certificate can name; ``keep_rows`` also keeps every fed row."""

    def __init__(self, tags: Sequence[tuple], keep_rows: bool = False):
        self.tags = list(tags)
        self.col = {t: i for i, t in enumerate(self.tags)}
        self.red = RowReducer(len(self.tags))
        self.count = 0
        self.pivot_refs: Dict[int, Tuple[int, tuple]] = {}
        # (reference, coefficient numerators, rhs numerator, denominator)
        self.rows: Optional[List[Tuple[Tuple[int, tuple], List[int], int, int]]] = [] if keep_rows else None
        self.certificate = None

    def feed(self, triple_idx: int, tagged: Dict[tuple, EPElement]):
        den = lcm(*(el.den for el in tagged.values()))
        comps: Dict[tuple, Dict[tuple, int]] = {}
        for tag, el in tagged.items():
            if tag and tag not in self.col:
                raise AssertionError("unexpected coefficient tag %r" % (tag,))
            scale = den // el.den
            for key, val in el.numerators():
                comps.setdefault(key, {})[tag] = val * scale
        for key in sorted(comps):
            coeffs = [0] * len(self.tags)
            rhs = 0
            for tag, val in comps[key].items():
                if tag == ():
                    rhs = -val
                else:
                    coeffs[self.col[tag]] = val
            ref = (triple_idx, key)
            if self.rows is not None:
                self.rows.append((ref, coeffs, rhs, den))
            if self.certificate is None:
                rank = self.red.rank()
                cert = self.red.add_row(coeffs, rhs, den)
                if cert is not None:
                    refs = {**self.pivot_refs, self.count: ref}
                    self.certificate = [(refs[i], c) for i, c in sorted(cert.items())]
                elif self.red.rank() > rank:
                    self.pivot_refs[self.count] = ref
            self.count += 1


def _feed(space: EPSpace, tags: Sequence[tuple], draw, count: int, rng: random.Random, keep_rows: bool = False):
    """Feed the tagged jacobiators of up to ``count`` triples, each drawn as
    three ``draw(space, rng)``, into one ``_System(tags, keep_rows)``; stop
    at the first certificate.  Returns the system, the last triple and the
    number of triples used.  With no tags every coefficient is folded in,
    so a certificate there means some jacobiator is nonzero."""
    system = _System(tags, keep_rows)
    unknowns = frozenset(name for tag in tags for name in tag)
    for used in range(1, count + 1):
        triple = tuple(draw(space, rng) for _ in range(3))
        system.feed(used - 1, _tagged_jacobiator(space, *triple, unknowns))
        if system.certificate is not None:
            break
    return system, triple, used


# seeded triples that solve the calibration, and fresh ones that re-verify it
_SOLVE_TRIPLES, _VERIFY_TRIPLES = 24, 12


def calibrate(level: str, n: int = 0, seed: int = 7) -> CalibrationReport:
    """Solve the channel coefficients that make the jacobiator vanish at n=0.

    The rescaling-pinned channels are held at 1; the rest are solved from
    the tagged jacobiators of 24 seeded random triples and re-verified, with
    every coefficient folded in, on 12 fresh ones from the same generator.
    Fails loudly when no solution exists, when freedom extends beyond
    rescaling, or when a re-verified jacobiator is nonzero.
    """
    if n != 0:
        raise EPError("calibrate requires n = 0; jacobi_infeasibility certifies n >= 1")
    space = make_ep(level, n)
    desc = _describe(level)
    tags = desc.tags(tuple(space.grades))
    rng = random.Random(seed)
    system, _, _ = _feed(space, tags, random_element, _SOLVE_TRIPLES, rng)
    if system.certificate is not None:
        raise EPError("no coefficient assignment closes level %s at n=0: construction bug" % level)
    if system.red.rank() < len(tags):
        raise EPError(
            "calibration underdetermined beyond rescaling: nullspace dimension %d"
            % (len(tags) - system.red.rank())
        )
    sol = system.red.solution()
    values = dict(default_coeffs(level).values)
    values.update((tag[0], sol[col]) for tag, col in system.col.items() if len(tag) == 1)
    for tag, col in system.col.items():
        if sol[col] != prod(values[name] for name in tag):
            raise EPError("coefficient products are inconsistent; construction bug")
    coeffs = BracketCoeffs(values, desc.pinned)
    # the rep is deterministic, so only the coefficients change
    check, _, _ = _feed(replace(space, coeffs=coeffs), (), random_element, _VERIFY_TRIPLES, rng)
    if check.certificate is not None:
        raise EPError("calibrated coefficients fail re-verification")
    return CalibrationReport(
        level=level,
        n=n,
        coeffs=coeffs,
        rows=system.count,
        verified_triples=_VERIFY_TRIPLES,
        seed=seed,
    )


def jacobi_infeasibility(
    level: str,
    n: int,
    samples: int = 50,
    seed: int = 7,
    polarization: str = "unprimed",
) -> InfeasibilityReport:
    """Certify that no coefficient assignment zeroes the sampled jacobiators.

    Channel coefficients are the unknowns (rescaling-pinned ones held at 1);
    each of at most ``samples`` spinor triples contributes exact linear
    constraints until the first certificate, a row combination proving
    0 = nonzero; if the system is instead satisfiable, the assignment is
    reported prominently.  The rows are over Q, so the certificate holds
    over C too, and any assignment with nonzero pinned channels rescales
    over C to them at 1 (their weights are independent, ``_Level.pinned``):
    no sign pattern closes.  Where every channel is pinned the system has no
    columns: the certificate is the first nonzero jacobiator, and its
    triple, the last one drawn, is the witness.
    """
    if n < 1:
        raise EPError("jacobi_infeasibility requires n >= 1")
    if samples < 1:
        raise EPError("samples must be at least 1")
    space = make_ep(level, n, polarization=polarization)
    desc = _describe(level)
    tags = desc.tags(space.spinor_blocks())
    system, triple, used = _feed(space, tags, random_spinor_element, samples, random.Random(seed), keep_rows=True)
    violated = system.certificate is not None
    witness = violated and not desc.unknowns
    return InfeasibilityReport(
        level=level,
        n=n,
        samples=samples,
        seed=seed,
        status="violated" if violated else "satisfiable",
        certificate=system.certificate,
        assignment=None if violated else {
            repr(tag): val for tag, val in zip(system.tags, system.red.solution())
        },
        witness_index=used - 1 if witness else None,
        witness={k: element_to_json(space, el) for k, el in zip("xyz", triple)} if witness else None,
        unknowns=tuple(tags),
        triples_evaluated=used,
        rows=[
            (ref, [Q(c, den) for c in coeffs], Q(rhs, den))
            for ref, coeffs, rhs, den in system.rows
        ],
    )
