"""Reference code for ``magicstar.clifford`` that only the tests use.

``construct`` builds the gammas as whole signed permutations, by Kronecker
products and matrix products, where the production code computes on Pauli
labels and materializes a gamma only on demand.  ``gammas`` materializes a
rep's labels through ``linalg_oracle.pauli_string``, column by column.
``verify_relations`` and ``conjugation`` are the column-loop relation check
and the candidate-product conjugation that the label-based production code
is compared against: they multiply those whole signed permutations and
compare every column.  ``antisym_gamma`` and ``fierz_residual`` are the
antisymmetrized gamma products and the cubic spinor contraction of the
Fierz tests.
"""

from fractions import Fraction as Q
from functools import lru_cache
from typing import List, Optional, Sequence

from magicstar.clifford import (
    BilinearForm,
    CliffordNoBilinearError,
    CliffordRep,
    Signature,
)
from linalg_oracle import (
    identity,
    is_diagonal,
    mat_mul,
    mat_prod,
    monomial_apply,
    monomial_bilinear,
    monomial_kron,
    neg,
    pauli_string,
    transpose,
)
from magicstar.linalg import MonomialMatrix


SIGMA1 = MonomialMatrix(2, (1, 0), (1, 1))
SIGMA3 = MonomialMatrix(2, (0, 1), (1, -1))
EPS = MonomialMatrix(2, (1, 0), (1, -1))
# quaternion left-multiplications on the basis (1, i, j, k)
L_I = MonomialMatrix(4, (1, 0, 3, 2), (1, -1, 1, -1))
L_J = MonomialMatrix(4, (2, 3, 0, 1), (1, -1, -1, 1))
L_K = MonomialMatrix(4, (3, 2, 1, 0), (1, 1, -1, -1))


def gammas(rep: CliffordRep) -> List[MonomialMatrix]:
    """The rep's gammas, each label materialized column by column."""
    return [pauli_string(rep.dim, label) for label in rep.labels]


def _base(d0: int):
    """Base signature and (plus, minus) generator lists for a difference class."""
    if d0 == 0:
        return (1, 1), [SIGMA1], [EPS]
    if d0 == 2:
        return (2, 0), [SIGMA1, SIGMA3], []
    if d0 == 6:
        return (0, 2), [], [L_I, L_J]
    i4 = identity(4)
    return (4, 0), [monomial_kron(SIGMA1, i4)] + [monomial_kron(EPS, m) for m in (L_I, L_J, L_K)], []


@lru_cache(maxsize=None)
def _doubled(d0: int, steps: int):
    """The base of class ``d0`` doubled ``steps`` times, as (plus, minus)."""
    if steps == 0:
        _, plus, minus = _base(d0)
        return plus, minus
    plus, minus = _doubled(d0, steps - 1)
    ident = identity((plus or minus)[0].dim)
    plus = [monomial_kron(g, SIGMA3) for g in plus] + [monomial_kron(ident, SIGMA1)]
    minus = [monomial_kron(g, SIGMA3) for g in minus] + [monomial_kron(ident, EPS)]
    return plus, minus


def construct(sig: Signature) -> List[MonomialMatrix]:
    """The gammas of a signature of class 0, 1, 2, 4 or 6 mod 8 within the
    size limit: doubling by Kronecker products, flips through the 4-volume
    and the odd-route volume element as matrix products.  Class 1 with
    p = 0 is left out.  Doubled bases are cached across calls."""
    p, q = sig.p, sig.q
    d = (p - q) % 8
    if (p, q) == (1, 0):
        return [identity(1)]
    if d == 1:
        parent = construct(Signature(p - 1, q))
        return parent[: p - 1] + [mat_prod(parent)] + parent[p - 1:]
    (bp, bq), _, _ = _base(d)
    plus, minus = _doubled(d, (p + q - bp - bq) // 2)
    flips = (p - q - (bp - bq)) // 8
    for _ in range(abs(flips)):
        block = (minus if flips > 0 else plus)[-4:]
        vol = mat_prod(block)
        flipped = [mat_mul(vol, g) for g in block]
        if flips > 0:
            plus, minus = plus + flipped, minus[:-4]
        else:
            plus, minus = plus[:-4], minus + flipped
    return plus + minus


def verify_relations(rep: CliffordRep) -> None:
    """Exact anticommutator check for every generator pair, column by column."""
    n = rep.sig.total
    dim = rep.dim
    gs = gammas(rep)
    for i in range(n):
        gi = gs[i]
        sq = mat_mul(gi, gi)
        if not (is_diagonal(sq) and all(s == rep.metric[i] for s in sq.signs)):
            raise AssertionError("gamma_%d squares to the wrong value" % i)
        ri, si = gi.rows, gi.signs
        for j in range(i + 1, n):
            rj, sj = gs[j].rows, gs[j].signs
            for c in range(dim):
                if ri[rj[c]] != rj[ri[c]] or si[rj[c]] * sj[c] != -sj[ri[c]] * si[c]:
                    raise AssertionError("gamma_%d and gamma_%d fail to anticommute" % (i, j))


def _is_intertwiner(gs: List[MonomialMatrix], c: MonomialMatrix, t: int) -> bool:
    for g in gs:
        lhs = mat_mul(c, g)
        rhs = mat_mul(transpose(g), c)
        if t == -1:
            rhs = neg(rhs)
        if lhs != rhs:
            return False
    return True


def conjugation(rep: CliffordRep, transpose_sign: int) -> BilinearForm:
    """C with C g C^-1 = transpose_sign * g^T, from the same candidate
    subsets as the production code, multiplied out and checked as matrices;
    C is returned as a matrix."""
    p, q = rep.sig.p, rep.sig.q
    gs = gammas(rep)
    t = transpose_sign
    candidates = []
    if (p == 0 or t == 1) and (q == 0 or t == -1):
        candidates.append(())
    if q > 0 and t == (-1) ** q:
        candidates.append(tuple(range(p, p + q)))
    if p > 0 and t == (-1) ** (p - 1):
        candidates.append(tuple(range(p)))
    if (q == 0 or p == 0) and p + q > 0 and (
        (q == 0 and t == (-1) ** (p + q - 1)) or (p == 0 and -t == (-1) ** (p + q - 1))
    ):
        candidates.append(tuple(range(p + q)))
    for subset in candidates:
        mats = [gs[i] for i in subset]
        c = mat_prod(mats) if mats else identity(rep.dim)
        if c.signs[0] == -1:
            c = neg(c)
        if _is_intertwiner(gs, c, t):
            ct = transpose(c)
            if ct == c:
                sym = 1
            elif ct == neg(c):
                sym = -1
            else:
                raise AssertionError("conjugation candidate is neither symmetric nor antisymmetric")
            return BilinearForm(c, sym, t)
    raise CliffordNoBilinearError(
        "no conjugation with transpose sign %+d exists in signature %s" % (t, rep.sig)
    )


def _index_tuples(n: int, k: int):
    if k == 0:
        yield ()
        return
    idx = list(range(k))
    while True:
        yield tuple(idx)
        for pos in reversed(range(k)):
            if idx[pos] != pos + n - k:
                break
        else:
            return
        idx[pos] += 1
        for p2 in range(pos + 1, k):
            idx[p2] = idx[p2 - 1] + 1


def antisym_gamma(rep: CliffordRep, k: int) -> List[MonomialMatrix]:
    """Antisymmetrized k-fold gamma products, lexicographic in the indices.

    For distinct monomial generators the alternating sum collapses to the
    plain ordered product, so each output is again monomial.
    """
    if not 0 <= k <= rep.sig.total:
        raise ValueError("k out of range")
    out = []
    gs = gammas(rep)
    for idx in _index_tuples(rep.sig.total, k):
        if not idx:
            out.append(identity(rep.dim))
        else:
            out.append(mat_prod([gs[i] for i in idx]))
    return out


def antisym_gamma_indexed(rep: CliffordRep, k: int):
    return list(zip(_index_tuples(rep.sig.total, k), antisym_gamma(rep, k)))


def fierz_residual(
    rep: CliffordRep,
    C: BilinearForm,
    k: int,
    psi: Sequence,
    block: Optional[Sequence[int]] = None,
) -> list:
    """Cubic contraction sum over gamma^(k) psi * (psi^T C gamma_(k) psi).

    Indices are raised with the diagonal metric; C is the label of a
    ``clifford.conjugation``.  ``block`` optionally embeds a chiral-length
    column at the given coordinate support.
    """
    if block is not None:
        full = [Q(0)] * rep.dim
        if len(psi) != len(block):
            raise ValueError("column does not match the chirality block")
        for pos, val in zip(block, psi):
            full[pos] = val
        psi = full
    if len(psi) != rep.dim:
        raise ValueError("spinor column has length %d, expected %d" % (len(psi), rep.dim))
    out = [Q(0)] * rep.dim
    c_mat = pauli_string(rep.dim, C.C)
    for idx, gm in antisym_gamma_indexed(rep, k):
        raise_sign = 1
        for mu in idx:
            raise_sign *= rep.metric[mu]
        w = monomial_apply(gm, psi)
        s = monomial_bilinear(c_mat, psi, w)
        if s:
            coeff = raise_sign * s
            for i in range(rep.dim):
                if w[i]:
                    out[i] += coeff * w[i]
    return out
