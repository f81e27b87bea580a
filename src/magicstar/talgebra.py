"""Generalized rank-3 Hermitian matrix spaces with one vector and one
spinor block, their cubic norm, rank classification and black-string
entropy.

An element packs three diagonal rationals, a vector of length q+8n and a
spinor block of fund_q columns.  The cubic norm is evaluated through the
lightcone vector

    V = (v, (r1-r2)/2, (r1+r2)/2)

of the orthogonal space with one time direction, contracted against
spinor bilinears built from the time gamma.  The overall scale is anchored
by N(diag) = r1 r2 r3; the spinor-term sign is anchored by equality with
the octonionic 3x3 determinant at q = 8, n = 0 (see calibrate_embedding).
The spinor block is read on its carrier only, through ``linalg._reader``
gathers over Pauli labels, with no gamma matrix built: the plus half where
the spinor is chiral (q = 4, 8), the whole spinor otherwise.  The q = 8
gammas are labels too, Kronecker products of octonion left multiplications.

At n = 0 the dimensions 6, 9, 15, 27 for q = 1, 2, 4, 8 are those of the
rank-3 Jordan algebras over R, C, H and O.  At q = 1 the element
(r1/2, r2/2, 4 r3, v = (-a1/2), psi = ((a2 + a3, a2 - a3))) has the norm
det [[r1, a1, a2], [a1, r2, a3], [a2, a3, r3]]; the octonionic oracle
below is wired at q = 8.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction as Q
from functools import cached_property
from operator import mul
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .clifford import (
    CliffordRep,
    Label,
    Signature,
    _I,
    _X,
    _XZ,
    _Z,
    _kron,
    _mul,
    _prod,
    build_rep,
    chiral_indices,
    rep_dim,
    verify_relations,
)
from .linalg import _reader, _sign, _signed, lift, rat_parse
from .octonion import (
    Octonion,
    left_mult_label,
    oct_conj,
    oct_from,
    oct_mul,
    oct_norm,
    oct_re,
)

_FUND = {1: 1, 2: 2, 4: 2, 8: 1}

# the "basis" of a q = 8 element file with nonzero psi: ``octonion.MUL_SIGN``
OCTONION_BASIS = "albuquerque-majid"


class TAlgebraError(ValueError):
    pass


def _check_label(q: int, n: int) -> None:
    if q not in (1, 2, 4, 8):
        raise TAlgebraError("q must be one of 1, 2, 4, 8")
    if n < 0:
        raise TAlgebraError("n must be non-negative")


def spinor_width(q: int, n: int) -> int:
    _check_label(q, n)
    return 2 ** ((q + 1) // 2 + 4 * n)


def total_dimension(q: int, n: int) -> int:
    _check_label(q, n)
    return q + 3 + 8 * n + _FUND[q] * spinor_width(q, n)


@dataclass(frozen=True)
class TSpace:
    q: int
    n: int
    vector_dim: int
    width: int
    fund: int
    rep: CliffordRep
    norm_forms: Tuple[Label, ...]  # time-gamma times gamma_nu, all symmetric
    support: Tuple[int, ...]  # coordinates of the spinor carrier

    @cached_property
    def form_readers(self) -> Tuple[Callable[[list], tuple], ...]:
        """Per norm form M, the reader of M psi on the carrier support from
        ``_signed(psi)`` on it (M is symmetric), built once per space;
        ``dataclasses.replace`` makes a new space, whose readers are built
        afresh."""
        return tuple(_carrier_reader(self, m) for m in self.norm_forms)

    @property
    def dimension(self) -> int:
        return total_dimension(self.q, self.n)

    @property
    def vdim_full(self) -> int:
        """Length of the lightcone vector (q+8n spatial + two cone slots)."""
        return self.vector_dim + 2


def _model_gammas() -> List[Label]:
    """Labels of the gammas of the ten-dimensional space on two octonion
    pairs.

    Coordinates: (u, w) in the first sixteen slots, (u', w') in the rest
    (Baez, "The Octonions", 2002).  Every generator exchanges the two
    pairs; the octonion directions act by left multiplications L_a, the
    cone pair by diagonal signs:

        e_0 = X x X x L_0,  e_a = X x (-XZ) x L_a  (a = 1..7),
        z = X x Z x 1_8,    t = XZ x 1_16.
    """
    gammas = [
        _kron(_X, _kron(_X if a == 0 else (-1, 1, 1), left_mult_label(a), 3), 4)
        for a in range(8)
    ]
    return gammas + [_kron(_X, _kron(_Z, _I, 3), 4), _kron(_XZ, _I, 4)]


def _octonionic_rep(n: int) -> CliffordRep:
    """The q=8 representation on octonion pairs, tensor-extended for n > 0.

    Keeping the octonionic block structure makes the determinant
    identification an exact signed-permutation map; a generic construction
    intertwines with it only up to an irrational scale.  Every L_a is a
    Pauli string (see ``octonion``), so the model is built on labels.
    """
    base = _model_gammas()  # [e0..e7, z, t]
    k = 4 * n  # Cl(8n, 0) acts on 2^(4n) coordinates
    extra = build_rep(Signature(8 * n, 0)).labels if n else ()
    omega = _prod(base)
    gammas = [_kron(g, _I, k) for g in base[:8]] + [_kron(omega, d, k) for d in extra]
    gammas += [_kron(g, _I, k) for g in base[8:]]
    p = 9 + 8 * n
    rep = CliffordRep(Signature(p, 1), 32 << k, tuple(gammas), (1,) * p + (-1,))
    verify_relations(rep)
    return rep


def make_space(q: int, n: int) -> TSpace:
    """Build the orthogonal representation and cache the norm bilinears."""
    _check_label(q, n)
    sig = Signature(q + 1 + 8 * n, 1)
    rep_dim(sig)  # the q = 8 model is built from its own labels, not by build_rep
    if q == 8:
        rep = _octonionic_rep(n)
    else:
        rep = build_rep(sig)
    time = rep.labels[-1]
    # (s X^a Z^b)^T = (-1)^popcount(a & b) s X^a Z^b
    forms = tuple(_mul(time, g) for g in rep.labels)
    if any(_sign(a & b) == -1 for _, a, b in forms):
        raise AssertionError("norm bilinear is not symmetric")
    width = spinor_width(q, n)
    fund = _FUND[q]
    support = tuple(chiral_indices(rep)[0]) if q in (4, 8) else tuple(range(rep.dim))
    if len(support) != fund * width:
        raise AssertionError("spinor carrier does not match the width formula")
    return TSpace(
        q=q,
        n=n,
        vector_dim=q + 8 * n,
        width=width,
        fund=fund,
        rep=rep,
        norm_forms=forms,
        support=support,
    )


@dataclass
class TElement:
    r1: Q
    r2: Q
    r3: Q
    v: List[Q]
    psi: List[List[Q]]  # fund columns of the spinor width

    @staticmethod
    def zero(space: TSpace) -> "TElement":
        return TElement(
            Q(0), Q(0), Q(0),
            [Q(0)] * space.vector_dim,
            [[Q(0)] * space.width for _ in range(space.fund)],
        )

    def coords(self) -> List[Q]:
        out = [self.r1, self.r2, self.r3] + list(self.v)
        for col in self.psi:
            out.extend(col)
        return out

    @staticmethod
    def from_json(space: TSpace, data: dict) -> "TElement":
        if not isinstance(data, dict):
            raise TAlgebraError("element must be a JSON object")
        q, n = data.get("q"), data.get("n")
        if type(q) is not int or type(n) is not int:
            raise TAlgebraError("element labels q and n must be JSON integers")
        if (q, n) != (space.q, space.n):
            raise TAlgebraError("element labeled for a different space")
        r, v, psi = data.get("r"), data.get("v"), data.get("psi")
        if not (isinstance(r, list) and isinstance(v, list) and isinstance(psi, list)
                and all(isinstance(col, list) for col in psi)):
            raise TAlgebraError("element needs list blocks r, v and psi (a list of columns)")
        try:
            r = [rat_parse(x) for x in r]
            v = [rat_parse(x) for x in v]
            psi = [[rat_parse(x) for x in col] for col in psi]
        except ValueError as exc:
            raise TAlgebraError("malformed element entry: %s" % exc) from None
        if len(r) != 3:
            raise TAlgebraError("r block needs three entries")
        if q == 8 and any(map(any, psi)) and data.get("basis") != OCTONION_BASIS:
            raise TAlgebraError(
                'a q = 8 element with nonzero psi needs "basis": "%s", the octonion '
                "sign table it is written in" % OCTONION_BASIS
            )
        el = TElement(r[0], r[1], r[2], v, psi)
        _check_shape(space, el)
        return el


def _check_shape(space: TSpace, el: TElement) -> None:
    if len(el.v) != space.vector_dim:
        raise TAlgebraError("vector block has the wrong length")
    if len(el.psi) != space.fund or any(len(c) != space.width for c in el.psi):
        raise TAlgebraError("spinor block has the wrong shape")


def lightcone_map(r1, r2) -> Tuple[Q, Q]:
    """(r1, r2) -> (x_plus, x_minus) with r1 = x+ + x-, r2 = x+ - x-."""
    r1, r2 = Q(r1), Q(r2)
    return ((r1 + r2) / 2, (r1 - r2) / 2)


def lightcone_inverse(x_plus, x_minus) -> Tuple[Q, Q]:
    x_plus, x_minus = Q(x_plus), Q(x_minus)
    return (x_plus + x_minus, x_plus - x_minus)


def _vector_coords(space: TSpace, el: TElement) -> List[Q]:
    x_plus, x_minus = lightcone_map(el.r1, el.r2)
    return list(el.v) + [x_minus, x_plus]


def _carrier_reader(space: TSpace, m: Label, flip: int = 1) -> Callable[[list], tuple]:
    """_signed(psi) -> flip * (m^T psi) on the carrier support, for psi on
    it; the Pauli string m must map the support into itself."""
    support = space.support
    pos = {c: k for k, c in enumerate(support)}
    if not all(c ^ m[1] in pos for c in support):
        raise AssertionError("gamma product leaks outside the spinor carrier")
    return _reader(m, support, list(range(2 * len(support))), pos, flip)


class _Lifted(NamedTuple):
    """What the norm and its gradient share, computed once per element."""

    moved: List[tuple]        # per norm form M: M psi, over den
    den: int
    bil: List[int]            # B_nu = psi^T (gamma_time gamma_nu) psi, over den^2
    vec: List[int]            # lightcone vector, numerators over vden
    vden: int


def _lift_element(space: TSpace, el: TElement) -> _Lifted:
    _check_shape(space, el)
    psi, den = lift([x for col in el.psi for x in col])
    signed = _signed(psi)
    moved = [read(signed) for read in space.form_readers]
    bil = [sum(map(mul, psi, mv)) for mv in moved]
    vec, vden = lift(_vector_coords(space, el))
    return _Lifted(moved, den, bil, vec, vden)


def _norm(el: TElement, lf: _Lifted) -> Q:
    vv = sum(x * x for x in el.v)
    n = el.r3 * (el.r1 * el.r2 - vv)
    if any(lf.bil):
        n += Q(sum(b * w for b, w in zip(lf.bil, lf.vec)), lf.den * lf.den * lf.vden)
    return n


def _gradient(el: TElement, lf: _Lifted) -> List[Q]:
    bden = lf.den * lf.den
    b_minus, b_plus = lf.bil[-2], lf.bil[-1]
    g_r1 = el.r2 * el.r3 + Q(b_minus + b_plus, 2 * bden)
    g_r2 = el.r1 * el.r3 + Q(b_plus - b_minus, 2 * bden)
    g_r3 = el.r1 * el.r2 - sum(x * x for x in el.v)
    g_v = [-2 * el.r3 * x + Q(b, bden) for x, b in zip(el.v, lf.bil)]
    # spinor part: 2 * sum_nu V^nu (M_nu psi)
    sden = lf.den * lf.vden
    g_psi = [Q(2 * sum(map(mul, lf.vec, entry)), sden) for entry in zip(*lf.moved)]
    return [g_r1, g_r2, g_r3] + g_v + g_psi


def cubic_norm(space: TSpace, el: TElement) -> Q:
    """Degree-3 invariant, normalized so the diagonal gives r1 r2 r3."""
    return _norm(el, _lift_element(space, el))


def norm_gradient(space: TSpace, el: TElement) -> List[Q]:
    """Exact gradient in the coordinate order (r1, r2, r3, v, psi)."""
    return _gradient(el, _lift_element(space, el))


def norm_and_rank(space: TSpace, el: TElement) -> Tuple[Q, int]:
    """Cubic norm N and rank from one lift of the element.  The gradient is
    computed only when N = 0: by Euler's identity grad . x = 3N, a nonzero
    norm has a nonzero gradient, hence rank 3."""
    lf = _lift_element(space, el)
    norm = _norm(el, lf)
    if norm:
        return norm, 3
    if not any(el.coords()):
        return norm, 0
    if not any(_gradient(el, lf)):
        return norm, 1
    return norm, 2


def rank(space: TSpace, el: TElement) -> int:
    """0 for zero, 1 when the gradient vanishes, 2 when only the norm does."""
    return norm_and_rank(space, el)[1]


def entropy(space: TSpace, el: TElement) -> Tuple[float, Q]:
    """Black-string entropy pi * sqrt(|N|), with the exact |N| alongside."""
    return entropy_of_norm(cubic_norm(space, el))


def entropy_of_norm(n: Q) -> Tuple[float, Q]:
    """``entropy`` from an already computed cubic norm N.  An |N| past the
    float range is refused: its entropy has no float value."""
    a = abs(n)
    try:
        return (math.pi * math.sqrt(a.numerator / a.denominator), a)
    except OverflowError:
        raise TAlgebraError("|N| is too large for a float entropy") from None


def so_generator_pairs(space: TSpace):
    d = space.vdim_full
    return [(a, b) for a in range(d) for b in range(a + 1, d)]


def infinitesimal_rotation(space: TSpace, el: TElement, pair: Tuple[int, int]) -> List[Q]:
    """Coordinate delta of the generator M_ab, a != b, acting as dV = M V,
    dPsi = S Psi with S = gamma_a gamma_b / 2.

    Returned in the same flat order as ``TElement.coords``; r3 is inert.
    """
    a, b = pair
    if a == b:
        raise TAlgebraError("a generator pair needs two different indices")
    metric = space.rep.metric
    vec = _vector_coords(space, el)
    dvec = [Q(0)] * len(vec)
    dvec[a] = metric[b] * vec[b]
    dvec[b] = -metric[a] * vec[a]
    # pull the two cone slots back to (r1, r2)
    d_xminus, d_xplus = dvec[-2], dvec[-1]
    d_r1, d_r2 = lightcone_inverse(d_xplus, d_xminus)
    dv = dvec[: space.vector_dim]
    # gamma_a gamma_b psi through the transpose, which is
    # -eta_a eta_b gamma_a gamma_b: verify_relations proved gamma^T = eta gamma
    prod = _mul(space.rep.labels[a], space.rep.labels[b])
    read = _carrier_reader(space, prod, -metric[a] * metric[b])
    psi, den = lift([x for col in el.psi for x in col])
    dpsi = [Q(t, 2 * den) for t in read(_signed(psi))]
    return [d_r1, d_r2, Q(0)] + dv + dpsi


# ---------------------------------------------------------------------------
# rank-3 octonionic Hermitian matrices: the independent determinant oracle
# ---------------------------------------------------------------------------

@dataclass
class OctonionHermitian3:
    """Entries per the layout [[r1, A1, conj(A2)], [conj(A1), r2, A3],
    [A2, conj(A3), r3]]."""

    r1: Q
    r2: Q
    r3: Q
    a1: Octonion
    a2: Octonion
    a3: Octonion

    def coords(self) -> List[Q]:
        return [self.r1, self.r2, self.r3] + list(self.a1) + list(self.a2) + list(self.a3)

    @staticmethod
    def from_coords(c: Sequence) -> "OctonionHermitian3":
        c = [Q(x) for x in c]
        return OctonionHermitian3(
            c[0], c[1], c[2],
            oct_from(c[3:11]), oct_from(c[11:19]), oct_from(c[19:27]),
        )


def jordan_determinant(j: OctonionHermitian3) -> Q:
    """r1 r2 r3 - r1 n(A3) - r2 n(A2) - r3 n(A1) + 2 Re((A1 A3) A2).

    The trilinear arrangement is fixed so the all-real restriction equals
    the classical symmetric 3x3 determinant.  The octonion product runs on
    int numerators over one shared denominator.
    """
    nums, den = lift(j.a1 + j.a2 + j.a3)
    a1, a2, a3 = nums[:8], nums[8:16], nums[16:]
    tri = Q(oct_re(oct_mul(oct_mul(a1, a3), a2)), den ** 3)
    return (
        j.r1 * j.r2 * j.r3
        - j.r1 * oct_norm(j.a3)
        - j.r2 * oct_norm(j.a2)
        - j.r3 * oct_norm(j.a1)
        + 2 * tri
    )


# ---------------------------------------------------------------------------
# the embedding of the octonionic matrices into the q=8, n=0 space
# ---------------------------------------------------------------------------

@dataclass
class Calibration:
    """Stored linear identification between matrix coordinates and the
    q=8, n=0 space: which octonion pair of the model carries (A2, A3), in
    which order, with which conjugations and signs, and whether A1 enters
    the vector block conjugated.  The spinor block is the model itself, so
    the identification is a signed permutation of coordinates."""

    v_conj: bool
    u_slot: Tuple[str, bool, int]  # (letter, conjugate, sign)
    w_slot: Tuple[str, bool, int]
    block: str                     # "low" (u,w) or "high" (u',w') model half
    candidates_validated: int


def _slot_octonion(j: OctonionHermitian3, slot: Tuple[str, bool, int]) -> Octonion:
    letter, conj, sign = slot
    x = j.a2 if letter == "A2" else j.a3
    if conj:
        x = oct_conj(x)
    if sign < 0:
        x = tuple(-t for t in x)
    return x


def _model_column(j: OctonionHermitian3, cal_block: str, u_slot, w_slot) -> List[Q]:
    col = [Q(0)] * 32
    base = 0 if cal_block == "low" else 16
    u = _slot_octonion(j, u_slot)
    w = _slot_octonion(j, w_slot)
    for i in range(8):
        col[base + i] = u[i]
        col[base + 8 + i] = w[i]
    return col


def embed_jordan(space: TSpace, j: OctonionHermitian3, cal: Calibration) -> TElement:
    """Apply the stored identification; diagonal entries map identically."""
    if space.q != 8 or space.n != 0:
        raise TAlgebraError("the determinant oracle is wired at q=8, n=0 only")
    el = TElement.zero(space)
    el.r1, el.r2, el.r3 = j.r1, j.r2, j.r3
    a1 = oct_conj(j.a1) if cal.v_conj else j.a1
    el.v = list(a1)
    col = _model_column(j, cal.block, cal.u_slot, cal.w_slot)
    support = space.support
    sset = set(support)
    if any(col[i] for i in range(32) if i not in sset):
        raise TAlgebraError("embedding landed outside the spinor carrier")
    el.psi = [[Q(col[i]) for i in support]]
    return el


def _random_hermitian(rng: random.Random, lo=-4, hi=4) -> OctonionHermitian3:
    return OctonionHermitian3.from_coords([rng.randint(lo, hi) for _ in range(27)])


def calibrate_embedding(space: TSpace) -> Calibration:
    """Search the finite family of slot assignments between the octonionic
    matrix coordinates and the spinor carrier, keeping the one that makes
    the cubic norm equal the determinant exactly.

    The q=8, n=0 representation is the octonionic model (``_model_gammas``),
    so a model column is a representation column as it stands.  The
    freedom left is which model half carries the pair, which off-diagonal
    entry feeds which slot, and conjugation/sign choices; a candidate on
    the half outside the chiral carrier fails ``embed_jordan``'s carrier
    check.  A candidate passes on 4 screening matrices, then on 48
    verification matrices, all drawn at seed 7.  Failure of every candidate
    is a hard error: it would falsify the stored conventions.
    """
    if space.q != 8 or space.n != 0:
        raise TAlgebraError("calibration is defined for q=8, n=0")
    rng = random.Random(7)
    screens = [_random_hermitian(rng) for _ in range(4)]
    verifies = [_random_hermitian(rng, -6, 6) for _ in range(48)]
    validated = 0
    winner = None
    choices = itertools.product(
        ("high", "low"), (("A2", "A3"), ("A3", "A2")),
        (True, False), (True, False), (1, -1), (1, -1), (False, True),
    )
    for block, (u_letter, w_letter), u_conj, w_conj, u_sign, w_sign, v_conj in choices:
        cal = Calibration(
            v_conj=v_conj,
            u_slot=(u_letter, u_conj, u_sign),
            w_slot=(w_letter, w_conj, w_sign),
            block=block,
            candidates_validated=0,
        )
        if _embedding_matches(space, cal, screens) and _embedding_matches(space, cal, verifies):
            validated += 1
            if winner is None:
                winner = cal
    if winner is None:
        raise TAlgebraError(
            "no slot assignment reproduces the determinant: conventions falsified"
        )
    return replace(winner, candidates_validated=validated)


def _embedding_matches(space: TSpace, cal: Calibration, samples) -> bool:
    for j in samples:
        try:
            el = embed_jordan(space, j, cal)
        except TAlgebraError:
            return False
        if cubic_norm(space, el) != jordan_determinant(j):
            return False
    return True
