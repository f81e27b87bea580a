"""Real monomial gamma-matrix representations in arbitrary signature.

Every gamma is a Pauli string s X^a Z^b on the bits of the basis index, and
a ``CliffordRep`` holds it as its label (s, a, b): a product is
(s1 s2 (-1)^popcount(b1 & a2), a1 ^ a2, b1 ^ b2), and a Kronecker product
with a factor on k bits is (s1 s2, a1 << k | a2, b1 << k | b2).
Generators come from small bases by three moves on labels:

* doubling (p,q) -> (p+1,q+1): old gammas tensor Z, plus the fresh
  1 x X and 1 x XZ;
* flipping a block of four same-sign generators through their 4-volume,
  which moves the signature by (+-4, -+4);
* in odd total dimension, adjoining the volume element of a parent: of
  Cl(p-1, q), p-q = 0 mod 8, as a plus generator, or for p = 0 of
  Cl(0, q-1), p-q = 2 mod 8, as a minus generator.

Bases cover the real matrix types (p-q = 0,1,2 mod 8) and the quaternionic
type 4 and 6 mod 8 (quaternion left-multiplications are Pauli strings).
Classes 3, 5 and 7 mod 8 are refused by name.  Classes 3 and 7 are complex
matrix algebras; class 7 would adjoin the volume element of a p-q = 0
parent as a minus generator, but that element squares to +1.

The relations, the chirality and the conjugations run on the labels:
O(m^2) for m gammas.  A gamma becomes a signed permutation only when
``CliffordRep.gammas`` is read (``pauli_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import List, Sequence, Tuple

from .linalg import MonomialMatrix, _sign

Label = Tuple[int, int, int]  # (s, a, b) of s X^a Z^b


class CliffordConstructionError(ValueError):
    pass


class CliffordNoBilinearError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError("signature needs p >= 0, q >= 0, p + q >= 1")

    @property
    def total(self) -> int:
        return self.p + self.q

    def __str__(self) -> str:
        return "(%d,%d)" % (self.p, self.q)


@dataclass(frozen=True)
class CliffordRep:
    sig: Signature
    dim: int
    labels: Tuple[Label, ...]  # (s, a, b) of each gamma s X^a Z^b
    metric: Tuple[int, ...]  # the square of each gamma: p of +1, q of -1

    def __post_init__(self):
        dim = self.dim
        if dim < 1 or dim & (dim - 1) or not all(
            s in (1, -1) and 0 <= a < dim and 0 <= b < dim for s, a, b in self.labels
        ):
            raise AssertionError("a gamma does not act on the representation space")
        sig = self.sig
        if len(self.labels) != sig.total or sorted(self.metric) != [-1] * sig.q + [1] * sig.p:
            raise AssertionError("the gammas and their metric do not fit signature %s" % sig)

    @cached_property
    def gammas(self) -> Tuple[MonomialMatrix, ...]:
        """Each gamma as a signed permutation, built on first use."""
        return tuple(pauli_matrix(self.dim, label) for label in self.labels)


@dataclass(frozen=True)
class BilinearForm:
    C: Label
    symmetry: int
    transpose_sign: int


@dataclass(frozen=True)
class RealityClass:
    name: str
    chiral: bool


# Pauli labels of the generators, and the quaternion left multiplications
# L_I, L_J, L_K on the basis (1, i, j, k)
_I, _X, _Z, _XZ = (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)
_L_I, _L_J, _L_K = (1, 1, 1), (1, 2, 3), (1, 3, 2)


def _mul(l1: Label, l2: Label) -> Label:
    """Label of the product (s1 X^a1 Z^b1)(s2 X^a2 Z^b2): moving Z^b1 past
    X^a2 costs (-1)^popcount(b1 & a2)."""
    s1, a1, b1 = l1
    s2, a2, b2 = l2
    return (s1 * s2 * _sign(b1 & a2), a1 ^ a2, b1 ^ b2)


def _kron(l1: Label, l2: Label, k: int) -> Label:
    """Label of the Kronecker product of l1 with l2 on k bits, l1 index major."""
    s1, a1, b1 = l1
    s2, a2, b2 = l2
    return (s1 * s2, a1 << k | a2, b1 << k | b2)


def _prod(labels: Sequence[Label]) -> Label:
    """Label of the left-to-right product of a nonempty label list."""
    return reduce(_mul, labels)


def _base(d0: int) -> Tuple[Tuple[int, int], int, List[Label], List[Label]]:
    """Base signature, dimension and (plus, minus) labels of a class."""
    if d0 == 0:
        return (1, 1), 2, [_X], [_XZ]
    if d0 == 2:
        return (2, 0), 2, [_X, _Z], []
    if d0 == 6:
        return (0, 2), 4, [], [_L_I, _L_J]
    if d0 == 4:
        # X x 1_4, then XZ x L for L = L_I, L_J, L_K
        return (4, 0), 8, [_kron(_X, _I, 2)] + [_kron(_XZ, m, 2) for m in (_L_I, _L_J, _L_K)], []
    raise AssertionError("no base for difference class %d" % d0)


def _flip(block: List[Label]) -> List[Label]:
    """Four same-sign generators times their 4-volume: the square of each
    changes sign, and anticommutation with the rest is kept."""
    vol = _prod(block)
    return [_mul(vol, g) for g in block]


# The largest representation any command builds (qconf at n = 1, Cl(20,4)).
MAX_REP_DIM = 4096


def _rep_log2(sig: Signature) -> int:
    """log2 of the dimension of the representation ``build_rep`` gives
    ``sig``: floor((p+q)/2), plus one for the quaternionic classes
    p-q = 4, 6 mod 8.  No size limit."""
    return sig.total // 2 + (1 if (sig.p - sig.q) % 8 in (4, 6) else 0)


def rep_dim(sig: Signature) -> int:
    """Dimension of the representation ``build_rep`` gives ``sig``, from the
    signature alone.  A signature over ``MAX_REP_DIM`` is refused through
    its exponent, before any large number or matrix exists."""
    log2 = _rep_log2(sig)
    if log2 >= MAX_REP_DIM.bit_length():
        raise CliffordConstructionError(
            "Cl%s needs a representation of dimension 2^%d, over the limit of %d"
            % (sig, log2, MAX_REP_DIM)
        )
    return 1 << log2


def build_rep(sig: Signature) -> CliffordRep:
    """Construct monomial gammas for the signature, or refuse by obstruction
    or by size.  The relations of the result are verified."""
    dim, plus, minus = _route(sig)
    rep = CliffordRep(sig, dim, tuple(plus + minus), (1,) * sig.p + (-1,) * sig.q)
    verify_relations(rep)
    return rep


def _route(sig: Signature) -> Tuple[int, List[Label], List[Label]]:
    """Dimension and the (plus, minus) generator labels for ``sig``."""
    p, q = sig.p, sig.q
    d = (p - q) % 8
    if d in (3, 5, 7):
        raise CliffordConstructionError(
            "Cl%s has p-q = %d mod 8: its minimal representation is "
            "intrinsically complex, no real monomial construction" % (sig, d)
        )
    rep_dim(sig)
    if (p, q) == (1, 0):
        return 1, [_I], []
    if d == 1:
        # adjoin the volume element of a parent of even total dimension:
        # Cl(p-1, q) has p-q = 0 mod 8 and a volume element squaring to +1;
        # Cl(0, q-1) has p-q = 2 mod 8 and one squaring to -1
        dim, plus, minus = _route(Signature(p - 1, q) if p else Signature(0, q - 1))
        vol = _prod(plus + minus)
        return (dim, plus + [vol], minus) if p else (dim, plus, minus + [vol])

    # even total dimension: double (p, q) -> (p+1, q+1), with the old
    # generators tensor Z and the fresh 1 x X and 1 x XZ, then flip
    # blocks of four through their 4-volume, (p, q) -> (p +- 4, q -+ 4)
    (bp, bq), dim, plus, minus = _base(d)
    for _ in range((p + q - bp - bq) // 2):
        plus = [_kron(g, _Z, 1) for g in plus] + [_X]
        minus = [_kron(g, _Z, 1) for g in minus] + [_XZ]
        dim *= 2
    flips = (p - q - (bp - bq)) // 8
    for _ in range(flips):
        plus, minus = plus + _flip(minus[-4:]), minus[:-4]
    for _ in range(-flips):
        plus, minus = plus[:-4], minus + _flip(plus[-4:])
    if len(plus) != p or len(minus) != q:
        raise AssertionError("route planner produced the wrong signature")
    return dim, plus, minus


def pauli_matrix(dim: int, label: Label) -> MonomialMatrix:
    """s X^a Z^b on ``dim`` = 2^k as a signed permutation: column c holds
    s (-1)^popcount(c & b) at row c ^ a."""
    s, a, b = label
    signs = [s]
    while len(signs) < dim:
        bit = len(signs)
        signs = signs + ([-x for x in signs] if b & bit else signs)
    return MonomialMatrix(dim, tuple(map(a.__xor__, range(dim))), tuple(signs))


def verify_relations(rep: CliffordRep) -> None:
    """Exact check of g_i^2 = metric_i and of anticommutation for every pair.

    On labels, (s X^a Z^b)^2 = (-1)^popcount(a & b), and two gammas
    anticommute when popcount(a_i & b_j) + popcount(b_i & a_j) is odd.
    """
    labels = rep.labels
    for i, (_, ai, bi) in enumerate(labels):
        if _sign(ai & bi) != rep.metric[i]:
            raise AssertionError("gamma_%d squares to the wrong value" % i)
        for j in range(i + 1, len(labels)):
            _, aj, bj = labels[j]
            if _sign((ai & bj) ^ (bi & aj)) != -1:
                raise AssertionError("gamma_%d and gamma_%d fail to anticommute" % (i, j))


def chirality(rep: CliffordRep) -> Label:
    """Label of the product of all gammas, sign-normalized when diagonal;
    defined in even dimension."""
    if rep.sig.total % 2 == 1:
        raise ValueError("chirality needs an even total dimension")
    s, a, b = _prod(rep.labels)
    return (1 if a == 0 else s, a, b)


def chiral_indices(rep: CliffordRep) -> Tuple[List[int], List[int]]:
    """Index sets of the two chiral halves, when they exist over the reals:
    read off the chirality's label, whose square is (-1)^popcount(a & b)
    and whose diagonal entry c is (-1)^popcount(c & b) when a = 0."""
    _, a, b = chirality(rep)
    if _sign(a & b) == -1:
        raise ValueError(
            "chirality squares to -1 in signature %s; no real chiral split" % rep.sig
        )
    if a:
        raise ValueError("chirality operator is not diagonal in this basis")
    plus = [c for c in range(rep.dim) if _sign(c & b) == 1]
    minus = [c for c in range(rep.dim) if _sign(c & b) == -1]
    return plus, minus


def conjugation(rep: CliffordRep, transpose_sign: int) -> BilinearForm:
    """Find C with C g C^-1 = transpose_sign * g^T for every generator.

    Because the gammas are orthogonal signed permutations, plus generators
    are symmetric and minus generators antisymmetric, so C must commute or
    anticommute uniformly with each class; candidates are products of
    neither block, the minus block, the plus block, or both, tried in that
    order and signed so that C[0][0] is not -1.  They are composed and
    tested on the Pauli labels of the gammas, and C is returned as its
    label (1, a_C, b_C): C = X^a_C Z^b_C intertwines
    g = s X^a Z^b exactly when (-1)^popcount(a_C & b + b_C & a + a & b) =
    transpose_sign, and C^T = (-1)^popcount(a_C & b_C) C.
    """
    if transpose_sign not in (1, -1):
        raise ValueError("transpose_sign must be +1 or -1")
    labels = rep.labels
    p, n = rep.sig.p, rep.sig.total
    t = transpose_sign
    for subset in ((), range(p, n), range(p), range(n)):
        _, ac, bc = _prod([_I] + [labels[i] for i in subset])
        if all(_sign((ac & b) ^ (bc & a) ^ (a & b)) == t for _, a, b in labels):
            return BilinearForm((1, ac, bc), _sign(ac & bc), t)
    raise CliffordNoBilinearError(
        "no conjugation with transpose sign %+d exists in signature %s" % (t, rep.sig)
    )


_REALITY = {
    0: ("Majorana-Weyl", True),
    1: ("Majorana", False),
    2: ("Majorana", False),
    3: ("Dirac", False),
    4: ("symplectic-Majorana", False),
    5: ("symplectic-Majorana", False),
    6: ("symplectic-Majorana", False),
    7: ("Dirac", False),
}


def reality_class(sig: Signature) -> RealityClass:
    """Minimal-spinor reality type, a function of (p - q) mod 8 only."""
    name, chiral = _REALITY[(sig.p - sig.q) % 8]
    return RealityClass(name, chiral)
