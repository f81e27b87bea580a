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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction as Q
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .clifford import (
    BilinearForm,
    CliffordRep,
    Signature,
    build_rep,
    chiral_indices,
    conjugation,
    rep_dim,
)
from .linalg import MonomialMatrix, RowReducer, mat_mul, rat_str

LEVELS = ("der", "str0", "conf", "qconf")

# the division-algebra parameter each level corresponds to
LEVEL_Q = {"der": 1, "str0": 2, "conf": 4, "qconf": 8}


class EPError(ValueError):
    pass


def _so_dim(m: int) -> int:
    return m * (m - 1) // 2


def signature_for(level: str, n: int) -> Signature:
    """The orthogonal signature of the family; refuses one whose spinor
    representation would exceed the size limit of ``clifford.rep_dim``."""
    if n < 0:
        raise EPError("n must be non-negative")
    if level == "der":
        sig = Signature(9 + 8 * n, 0)
    elif level == "str0":
        sig = Signature(9 + 8 * n, 1)
    elif level == "conf":
        sig = Signature(10 + 8 * n, 2)
    elif level == "qconf":
        sig = Signature(12 + 8 * n, 4)
    else:
        raise EPError("unknown level %r" % level)
    rep_dim(sig)
    return sig


def dimension(level: str, n: int) -> int:
    """Total dimension of the graded space."""
    if n < 0:
        raise EPError("n must be non-negative")
    if level == "der":
        return _so_dim(9 + 8 * n) + 2 ** (4 + 4 * n)
    if level == "str0":
        return _so_dim(10 + 8 * n) + 1 + 2 * 2 ** (4 + 4 * n)
    if level == "conf":
        return _so_dim(12 + 8 * n) + 3 + 2 * 2 ** (5 + 4 * n)
    if level == "qconf":
        return _so_dim(16 + 8 * n) + 2 ** (7 + 4 * n)
    raise EPError("unknown level %r" % level)


def grade_profile(level: str, n: int, variant: str = "canonical") -> List[Tuple[int, int]]:
    """List of (grade, component dimension) for the chosen grading view."""
    if variant not in ("canonical", "extended"):
        raise EPError("variant must be canonical or extended")
    if level not in LEVELS:
        raise EPError("unknown level %r" % level)
    if variant == "extended" and level in ("der", "str0"):
        raise EPError("extended grading is defined for conf and qconf only")
    w = 2 ** (4 + 4 * n)
    if level == "der":
        return [(0, dimension(level, n))]
    if level == "str0":
        return [(-1, w), (0, _so_dim(10 + 8 * n) + 1), (1, w)]
    if level == "conf":
        s = 2 ** (5 + 4 * n)
        return [(-2, 1), (-1, s), (0, _so_dim(12 + 8 * n) + 1), (1, s), (2, 1)]
    if variant == "canonical":
        return [(0, dimension(level, n))]
    # qconf, extended: branch through so(11+8n,3)
    v = 14 + 8 * n
    s = 2 ** (6 + 4 * n)
    return [(-2, v), (-1, s), (0, _so_dim(14 + 8 * n) + 1), (1, s), (2, v)]


@dataclass
class BracketCoeffs:
    """Rational coefficient per bilinear channel; some pinned by rescaling."""

    values: Dict[str, Q]
    normalized: Tuple[str, ...]

    def get(self, name: str) -> Q:
        return self.values[name]


# channel names that carry coefficients, per level, with the rescaling-pinned
# subset listed second
_CHANNELS = {
    "der": (("pair_so",), ("pair_so",)),
    "str0": (("pair_so", "pair_R"), ("pair_so",)),
    "conf": (
        ("apex_up", "apex_down", "transfer_up", "transfer_down", "k_pair", "pair_so", "pair_R"),
        ("apex_up", "transfer_up", "transfer_down"),
    ),
    "qconf": (("pair_so",), ("pair_so",)),
}

# tags (non-normalized channel combinations) that may appear in jacobiators
_CALIBRATE_TAGS = {
    "der": (),
    "str0": (("pair_R",),),
    "conf": (
        ("apex_down",),
        ("k_pair",),
        ("pair_R",),
        ("pair_so",),
        ("apex_down", "k_pair"),
    ),
    "qconf": (),
}

_SPINOR_TAGS = {
    "der": (),
    "str0": (("pair_R",),),
    "conf": (("apex_down",), ("pair_R",), ("pair_so",)),
    "qconf": (),
}


def default_coeffs(level: str) -> BracketCoeffs:
    channels, normalized = _CHANNELS[level]
    return BracketCoeffs({name: Q(1) for name in channels}, normalized)


@dataclass
class EPSpace:
    level: str
    n: int
    polarization: str
    rep: CliffordRep
    C: BilinearForm
    pairs: Tuple[Tuple[int, int], ...]
    pair_index: Dict[Tuple[int, int], int]
    pair_forms: Tuple[MonomialMatrix, ...]
    pair_actions: Tuple[MonomialMatrix, ...]
    coeffs: BracketCoeffs
    grades: Dict[str, int]
    spinor_support: Dict[str, Tuple[int, ...]]
    table: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return dimension(self.level, self.n)

    def spinor_blocks(self) -> Tuple[str, ...]:
        return tuple(b for b in self.grades if b.startswith("psi"))


class EPElement:
    """Integer numerators per graded block over one shared positive ``den``:
    an antisymmetric pair-dict for the orthogonal part, ints for scalars,
    full-length columns for spinors.  An entry's value is numerator / den.

    Fraction entries are folded into ``den`` (the lcm of their
    denominators), so every stored numerator is an int.
    """

    __slots__ = ("blocks", "den")

    def __init__(self, blocks: Optional[dict] = None, den: int = 1):
        blocks = blocks or {}
        dens = [v.denominator for v in _entries(blocks) if isinstance(v, Q)]
        if dens:
            m = lcm(*dens)
            blocks = {name: _map(val, lambda v: int(v * m)) for name, val in blocks.items()}
            den *= m
        self.blocks = blocks
        self.den = den

    def is_zero(self) -> bool:
        for name, val in self.blocks.items():
            if name == "so":
                if any(v for v in val.values()):
                    return False
            elif isinstance(val, list):
                if any(val):
                    return False
            elif val:
                return False
        return True

    def items(self):
        """Nonzero components as ((block, key), value) pairs; a value is an
        int when ``den`` is 1 and a canonical Fraction otherwise."""
        den = self.den
        for name, val in sorted(self.blocks.items()):
            if name == "so":
                entries = ((key, val[key]) for key in sorted(val))
            elif isinstance(val, list):
                entries = enumerate(val)
            else:
                entries = ((None, val),)
            for key, v in entries:
                if v:
                    yield (name, key), (v if den == 1 else Q(v, den))


def _integral(blocks: dict, den: int) -> EPElement:
    """Wrap blocks whose entries are already int numerators over ``den``."""
    el = EPElement.__new__(EPElement)
    el.blocks = blocks
    el.den = den
    return el


def _entries(blocks: dict):
    for val in blocks.values():
        if isinstance(val, dict):
            yield from val.values()
        elif isinstance(val, list):
            yield from val
        else:
            yield val


def _map(val, f):
    if isinstance(val, dict):
        return {k: f(v) for k, v in val.items()}
    if isinstance(val, list):
        return [f(v) for v in val]
    return f(val)


def _times(val, c: int):
    """Block ``val`` with every numerator multiplied by ``c``; ``val`` itself
    when ``c`` is 1."""
    if c == 1:
        return val
    if isinstance(val, dict):
        return {k: c * v for k, v in val.items()}
    if isinstance(val, list):
        return [c * v for v in val]
    return c * val


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
        elif isinstance(av, dict):
            merged = dict(_times(av, fa))
            for k, v in _times(bv, fb).items():
                merged[k] = merged.get(k, 0) + v
            out[name] = {k: v for k, v in merged.items() if v}
        elif isinstance(av, list):
            out[name] = [x + y for x, y in zip(_times(av, fa), _times(bv, fb))]
        else:
            out[name] = fa * av + fb * bv
    return _integral(out, den)


def ep_scale(a: EPElement, c) -> EPElement:
    if not c:
        return EPElement({})
    c = Q(c)
    return _integral(
        {name: _times(val, c.numerator) for name, val in a.blocks.items()},
        a.den * c.denominator,
    )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _canon_pair(i: int, j: int):
    if i == j:
        return None
    return ((i, j), 1) if i < j else ((j, i), -1)


def _so_commutator(metric, x: dict, y: dict) -> dict:
    """[x, y] of two pair-dicts.  Only pairs that share an index contribute,
    so y is indexed by its endpoints.  A pair of y that shares both indices
    with one of x is reached twice but contributes nothing."""
    ends: dict = {}
    for key in y:
        for e in key:
            ends.setdefault(e, []).append(key)
    out: dict = {}
    for (a, b), xv in x.items():
        for (c, d) in ends.get(a, []) + ends.get(b, []):
            v = xv * y[(c, d)]
            if not v:
                continue
            for (i, j, s) in (
                (a, d, metric[b] if b == c else 0),
                (b, d, -metric[a] if a == c else 0),
                (a, c, -metric[b] if b == d else 0),
                (b, c, metric[a] if a == d else 0),
            ):
                if not s:
                    continue
                cp = _canon_pair(i, j)
                if cp is None:
                    continue
                key, flip = cp
                out[key] = out.get(key, 0) + s * flip * v
    return {k: v for k, v in out.items() if v}


def _act_so(space: EPSpace, x: dict, psi: list) -> list:
    """Twice the orthogonal action on a spinor column: the sum of the
    two-gamma products, whose factor 1/2 the caller puts in the denominator."""
    acc = [0] * space.rep.dim
    for key, v in x.items():
        space.pair_actions[space.pair_index[key]].apply(psi, acc, v)
    return acc


def _pair_so(space: EPSpace, psi: list, phi: list) -> dict:
    out = {}
    for key, m in zip(space.pairs, space.pair_forms):
        s = m.bilinear(psi, phi)
        if s:
            out[key] = s
    return out


def _build_table(level: str) -> dict:
    """Ordered-block channel table: (bx, by) -> [(channel or None, kernel)].

    ``None`` marks a structural channel (its coefficient is identically 1
    and it never enters the coefficient systems).  A kernel maps two blocks
    of int numerators to ``(contribution, den_factor)``: int numerators
    whose value is the product's value times ``den_factor``.
    """
    t = {}

    def k_soso(space, x, y):
        return {"so": _so_commutator(space.rep.metric, x, y)}, 1

    def k_sopsi(block):
        def k(space, x, psi):
            return {block: _act_so(space, x, psi)}, 2
        return k

    def k_grade(block, g):
        def k(space, dval, xval):
            return {block: _times(xval, g * dval)}, 1
        return k

    def k_pairso(bx, by):
        def k(space, psi, phi):
            return {"so": _pair_so(space, psi, phi)}, 1
        return k

    def k_pairscalar(target):
        def k(space, psi, phi):
            return {target: space.C.C.bilinear(psi, phi)}, 1
        return k

    def k_transfer(target):
        def k(space, kval, psi):
            return {target: [kval * v for v in psi]}, 1
        return k

    def k_kk(space, a, b):
        return {"D": a * b}, 1

    t[("so", "so")] = [(None, k_soso)]
    if level in ("der", "qconf"):
        t[("so", "psi")] = [(None, k_sopsi("psi"))]
        t[("psi", "psi")] = [("pair_so", k_pairso("psi", "psi"))]
        return t
    t[("so", "psi_p")] = [(None, k_sopsi("psi_p"))]
    t[("so", "psi_m")] = [(None, k_sopsi("psi_m"))]
    t[("D", "psi_p")] = [(None, k_grade("psi_p", 1))]
    t[("D", "psi_m")] = [(None, k_grade("psi_m", -1))]
    t[("psi_p", "psi_m")] = [
        ("pair_so", k_pairso("psi_p", "psi_m")),
        ("pair_R", k_pairscalar("D")),
    ]
    if level == "conf":
        t[("D", "K_p")] = [(None, k_grade("K_p", 2))]
        t[("D", "K_m")] = [(None, k_grade("K_m", -2))]
        t[("K_p", "K_m")] = [("k_pair", k_kk)]
        t[("K_p", "psi_m")] = [("transfer_up", k_transfer("psi_p"))]
        t[("K_m", "psi_p")] = [("transfer_down", k_transfer("psi_m"))]
        t[("psi_p", "psi_p")] = [("apex_up", k_pairscalar("K_p"))]
        t[("psi_m", "psi_m")] = [("apex_down", k_pairscalar("K_m"))]
    return t


def make_ep(
    level: str,
    n: int,
    coeffs: Optional[BracketCoeffs] = None,
    polarization: str = "unprimed",
) -> EPSpace:
    """Build the representation data and channel tables for one family."""
    sig = signature_for(level, n)
    if polarization not in ("unprimed", "primed"):
        raise EPError("polarization must be unprimed or primed")
    rep = build_rep(sig)
    C = conjugation(rep, +1)
    total = sig.total
    pairs = tuple((a, b) for a in range(total) for b in range(a + 1, total))
    pair_index = {key: i for i, key in enumerate(pairs)}
    metric = rep.metric
    forms = []
    actions = []
    for (a, b) in pairs:
        prod = mat_mul(rep.gammas[a], rep.gammas[b])
        actions.append(prod)
        raised = mat_mul(C.C, prod)
        if metric[a] * metric[b] == -1:
            raised = raised.neg()
        forms.append(raised)

    grades: Dict[str, int] = {"so": 0}
    support: Dict[str, Tuple[int, ...]] = {}
    full = tuple(range(rep.dim))
    if level == "der":
        grades["psi"] = 0
        support["psi"] = full
        expect_sym, expect_swap = 1, None
    elif level == "qconf":
        grades["psi"] = 0
        plus, minus = chiral_indices(rep)
        support["psi"] = tuple(plus if polarization == "unprimed" else minus)
        expect_sym, expect_swap = 1, False
    elif level == "str0":
        grades.update({"D": 0, "psi_p": 1, "psi_m": -1})
        plus, minus = chiral_indices(rep)
        if polarization == "unprimed":
            support["psi_p"], support["psi_m"] = tuple(plus), tuple(minus)
        else:
            support["psi_p"], support["psi_m"] = tuple(minus), tuple(plus)
        expect_sym, expect_swap = 1, True
    else:  # conf
        grades.update({"D": 0, "K_p": 2, "K_m": -2, "psi_p": 1, "psi_m": -1})
        plus, minus = chiral_indices(rep)
        block = tuple(plus if polarization == "unprimed" else minus)
        support["psi_p"] = support["psi_m"] = block
        expect_sym, expect_swap = -1, False

    if C.symmetry != expect_sym:
        raise AssertionError("conjugation symmetry does not match the level")
    if expect_swap is not None:
        omega = _volume_diag(rep)
        swaps = all(omega[C.C.rows[c]] == -omega[c] for c in range(rep.dim))
        if swaps != expect_swap:
            raise AssertionError("conjugation chirality behavior does not match the level")

    space = EPSpace(
        level=level,
        n=n,
        polarization=polarization,
        rep=rep,
        C=C,
        pairs=pairs,
        pair_index=pair_index,
        pair_forms=tuple(forms),
        pair_actions=tuple(actions),
        coeffs=coeffs or default_coeffs(level),
        grades=grades,
        spinor_support=support,
        table=_build_table(level),
    )
    counted = len(pairs) + sum(1 for b in grades if b in ("D", "K_p", "K_m"))
    counted += sum(len(support[b]) for b in space.spinor_blocks())
    if counted != space.dim:
        raise AssertionError("component bookkeeping disagrees with the dimension formula")
    return space


def _volume_diag(rep: CliffordRep) -> List[int]:
    from .clifford import chirality

    omega = chirality(rep)
    if not omega.is_diagonal():
        raise AssertionError("chirality is not diagonal")
    return list(omega.signs)


# ---------------------------------------------------------------------------
# bracket, jacobiator
# ---------------------------------------------------------------------------

def _tagged_bracket(space: EPSpace, x: EPElement, y: EPElement, unknowns) -> List[Tuple[tuple, EPElement]]:
    """Bracket split by coefficient channel; tags name non-pinned channels."""
    parts: Dict[tuple, EPElement] = {}
    values = space.coeffs.values
    den = x.den * y.den
    for bx, xv in x.blocks.items():
        for by, yv in y.blocks.items():
            # the table lists each block pair once; the reversed order is
            # the same kernel with the arguments swapped and the sign flipped
            for key, args, sign in (((bx, by), (xv, yv), 1), ((by, bx), (yv, xv), -1)):
                entry = space.table.get(key)
                if entry is None:
                    continue
                for name, kernel in entry:
                    contrib, den_factor = kernel(space, *args)
                    tag, coeff = _tag_for(name, unknowns, values)
                    c = sign * coeff  # int or Fraction
                    el = _integral(
                        {k: _times(v, c.numerator) for k, v in contrib.items()},
                        den * den_factor * c.denominator,
                    )
                    parts[tag] = ep_add(parts[tag], el) if tag in parts else el
                break
    return [(tag, el) for tag, el in parts.items() if not el.is_zero()]


def _tag_for(name, unknowns, values):
    if name is None:
        return (), 1
    if unknowns is None:
        # numeric mode: fold the coefficient in
        return (), values[name]
    if name in unknowns:
        return (name,), 1
    return (), values[name]


def bracket(space: EPSpace, x: EPElement, y: EPElement) -> EPElement:
    """Bilinear antisymmetric grade-additive product."""
    out = EPElement({})
    for _, el in _tagged_bracket(space, x, y, None):
        out = ep_add(out, el)
    return out


def jacobiator(space: EPSpace, x: EPElement, y: EPElement, z: EPElement) -> EPElement:
    """[[x,y],z] + [[y,z],x] + [[z,x],y], exactly."""
    out = EPElement({})
    for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
        out = ep_add(out, bracket(space, bracket(space, a, b), c))
    return out


def _tagged_jacobiator(space: EPSpace, x, y, z, unknowns) -> Dict[tuple, EPElement]:
    totals: Dict[tuple, EPElement] = {}
    for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
        for t1, e1 in _tagged_bracket(space, a, b, unknowns):
            for t2, e2 in _tagged_bracket(space, e1, c, unknowns):
                tag = tuple(sorted(t1 + t2))
                cur = totals.setdefault(tag, EPElement({}))
                totals[tag] = ep_add(cur, e2)
    return {t: e for t, e in totals.items() if not e.is_zero()}


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
    so = {}
    for key in space.pairs:
        v = rng.randint(-2, 2)
        if v:
            so[key] = v
    blocks["so"] = so
    for name in space.grades:
        if name in ("D", "K_p", "K_m"):
            blocks[name] = rng.randint(-3, 3)
    return EPElement(blocks)


def basis_spinor(space: EPSpace, block: str, k: int) -> EPElement:
    col = [0] * space.rep.dim
    col[space.spinor_support[block][k]] = 1
    return EPElement({block: col})


def element_to_json(space: EPSpace, el: EPElement) -> dict:
    def value(v):
        return rat_str(Q(v, el.den))

    out = {}
    for name, val in sorted(el.blocks.items()):
        if name == "so":
            out[name] = {"%d,%d" % k: value(v) for k, v in sorted(val.items()) if v}
        elif isinstance(val, list):
            out[name] = [value(v) for v in val]
        else:
            out[name] = value(val)
    return out


# ---------------------------------------------------------------------------
# calibration and the violation certificate
# ---------------------------------------------------------------------------

@dataclass
class CalibrationReport:
    level: str
    n: int
    coeffs: BracketCoeffs
    residual_freedom: int
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
    """Rows of jacobiator components, linear over channel-coefficient tags."""

    def __init__(self, tags: Sequence[tuple]):
        self.tags = list(tags)
        self.col = {t: i for i, t in enumerate(self.tags)}
        self.red = RowReducer(len(self.tags))
        self.rows: List[Tuple[Tuple[int, tuple], List[Q], Q]] = []
        self.certificate = None

    def feed(self, triple_idx: int, tagged: Dict[tuple, EPElement]):
        comps: Dict[tuple, Dict[tuple, Q]] = {}
        for tag, el in tagged.items():
            if tag and tag not in self.col:
                raise AssertionError("unexpected coefficient tag %r" % (tag,))
            for key, val in el.items():
                comps.setdefault(key, {})[tag] = Q(val)
        for key in sorted(comps):
            byTag = comps[key]
            coeffs = [Q(0)] * len(self.tags)
            rhs = Q(0)
            for tag, val in byTag.items():
                if tag == ():
                    rhs -= val
                else:
                    coeffs[self.col[tag]] = val
            self.rows.append(((triple_idx, key), coeffs, rhs))
            if self.certificate is None:
                cert = self.red.add_row(coeffs, rhs)
                if cert is not None:
                    self.certificate = [
                        (self.rows[i][0], c) for i, c in sorted(cert.items())
                    ]


def calibrate(level: str, n: int = 0, seed: int = 7, triples: int = 24) -> CalibrationReport:
    """Solve the channel coefficients that make the jacobiator vanish at n=0.

    The rescaling-pinned channels are held at 1; the rest are solved from a
    spanning set of seeded random triples and re-verified on fresh ones.
    Fails loudly when no solution exists or freedom extends beyond rescaling.
    """
    space = make_ep(level, n)
    unknown_names = tuple(
        c for c in _CHANNELS[level][0] if c not in _CHANNELS[level][1]
    )
    tags = _CALIBRATE_TAGS[level]
    rng = random.Random(seed)
    system = _System(tags)
    for t_idx in range(triples):
        x = random_element(space, rng)
        y = random_element(space, rng)
        z = random_element(space, rng)
        tagged = _tagged_jacobiator(space, x, y, z, frozenset(unknown_names))
        system.feed(t_idx, tagged)
        if system.certificate is not None:
            raise EPError(
                "no coefficient assignment closes level %s at n=%d: construction bug"
                % (level, n)
            )
    if system.red.rank() < len(tags):
        raise EPError(
            "calibration underdetermined beyond rescaling: nullspace dimension %d"
            % (len(tags) - system.red.rank())
        )
    sol = system.red.solution()
    values = {name: Q(1) for name in _CHANNELS[level][0]}
    for tag, col in system.col.items():
        if len(tag) == 1:
            values[tag[0]] = sol[col]
    for tag, col in system.col.items():
        if len(tag) > 1:
            prod = Q(1)
            for name in tag:
                prod *= values[name]
            if sol[col] != prod:
                raise EPError("coefficient products are inconsistent; construction bug")
    coeffs = BracketCoeffs(values, _CHANNELS[level][1])
    # independent re-verification on fresh random triples; the rep is
    # deterministic, so only the coefficients change
    space2 = replace(space, coeffs=coeffs)
    verify = 12
    for _ in range(verify):
        x = random_element(space2, rng)
        y = random_element(space2, rng)
        z = random_element(space2, rng)
        if not jacobiator(space2, x, y, z).is_zero():
            raise EPError("calibrated coefficients fail re-verification")
    return CalibrationReport(
        level=level,
        n=n,
        coeffs=coeffs,
        residual_freedom=0,
        rows=len(system.rows),
        verified_triples=verify,
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
    each sampled spinor triple contributes exact linear constraints.  The
    returned certificate is a row combination proving 0 = nonzero; if the
    system is instead satisfiable, the assignment is reported prominently.
    """
    if n < 1:
        raise EPError("jacobi_infeasibility requires n >= 1")
    if samples < 1:
        raise EPError("samples must be at least 1")
    space = make_ep(level, n, polarization=polarization)
    unknown_names = tuple(
        c for c in _CHANNELS[level][0] if c not in _CHANNELS[level][1]
    )
    tags = _SPINOR_TAGS[level]
    rng = random.Random(seed)
    system = _System(tags)
    witness_index = None
    witness = None
    for t_idx in range(samples):
        x = random_spinor_element(space, rng)
        y = random_spinor_element(space, rng)
        z = random_spinor_element(space, rng)
        tagged = _tagged_jacobiator(space, x, y, z, frozenset(unknown_names))
        if witness_index is None and not unknown_names:
            nonzero = any(not el.is_zero() for el in tagged.values())
            if nonzero:
                witness_index = t_idx
                witness = {
                    "x": element_to_json(space, x),
                    "y": element_to_json(space, y),
                    "z": element_to_json(space, z),
                }
        if system.certificate is None:
            system.feed(t_idx, tagged)
        # decided: later triples change neither the certificate nor the
        # witness, which is only sought when every channel is pinned
        if system.certificate is not None and (unknown_names or witness is not None):
            break
    triples_evaluated = t_idx + 1
    if system.certificate is not None:
        return InfeasibilityReport(
            level=level,
            n=n,
            samples=samples,
            seed=seed,
            status="violated",
            certificate=system.certificate,
            assignment=None,
            witness_index=witness_index,
            witness=witness,
            unknowns=tuple(tags),
            triples_evaluated=triples_evaluated,
            rows=system.rows,
        )
    sol = system.red.solution()
    assignment = {repr(tag): val for tag, val in zip(system.tags, sol)}
    return InfeasibilityReport(
        level=level,
        n=n,
        samples=samples,
        seed=seed,
        status="satisfiable",
        certificate=None,
        assignment=assignment,
        witness_index=None,
        witness=None,
        unknowns=tuple(tags),
        triples_evaluated=triples_evaluated,
        rows=system.rows,
    )


def find_basis_witness(space: EPSpace, limit: int = 4096) -> Optional[Tuple[int, int, int]]:
    """Search basis-spinor triples for a nonzero jacobiator, in fixed order."""
    block = space.spinor_blocks()[0]
    width = len(space.spinor_support[block])
    count = 0
    for a in range(width):
        for b in range(a + 1, width):
            for c in range(b + 1, width):
                x = basis_spinor(space, block, a)
                y = basis_spinor(space, block, b)
                z = basis_spinor(space, block, c)
                if not jacobiator(space, x, y, z).is_zero():
                    return (a, b, c)
                count += 1
                if count >= limit:
                    return None
    return None
