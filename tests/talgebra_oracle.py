"""Reference code for ``magicstar.talgebra`` that only the tests use.

``intertwiner`` solves S a_mu = b_mu S for two monomial representations by
orbit propagation over the matrix entries; on the q = 8, n = 0 space it
shows that the octonionic model's commutant is the scalars.  ``eta`` is
the vector-module bilinear of the norm's quadratic part.  The remaining
helpers build diagonal elements, unit octonions and the JSON form of an
element, which at q = 8 names its octonion basis.
"""

from fractions import Fraction as Q
from typing import Sequence, Tuple

from clifford_oracle import gammas
from linalg_oracle import mat_mul
from magicstar.clifford import CliffordRep
from magicstar.linalg import MonomialMatrix, rat_str
from magicstar.octonion import Octonion, oct_from
from magicstar.talgebra import OctonionHermitian3, TElement, TSpace


def intertwiner(rep_a: CliffordRep, rep_b: CliffordRep) -> Tuple[MonomialMatrix, int]:
    """Solve S a_mu = b_mu S by orbit propagation over the matrix entries.

    Positions of S fall into orbits under the joint row permutations; a
    consistent orbit fixes S on it up to scale.  Returns the solution on
    the first consistent orbit (which must be a signed permutation) and
    the number of consistent orbits, the dimension of the monomial
    solution space.
    """
    dim = rep_a.dim
    if rep_b.dim != dim or rep_a.sig != rep_b.sig:
        raise ValueError("representations are not compatible")
    gens = list(zip(gammas(rep_b), gammas(rep_a)))
    orbits = []
    visited = set()
    for seed in ((r, c) for r in range(dim) for c in range(dim)):
        if seed in visited:
            continue
        values = {seed: 1}
        stack = [seed]
        consistent = True
        while stack:
            (r, c) = stack.pop()
            val = values[(r, c)]
            for gb, ga in gens:
                # S[gb.rows[r], ga.rows[c]] * gb.signs[r] ... from S a = b S
                nr, nc = gb.rows[r], ga.rows[c]
                nval = val * gb.signs[r] * ga.signs[c]
                if (nr, nc) in values:
                    if values[(nr, nc)] != nval:
                        consistent = False
                else:
                    values[(nr, nc)] = nval
                    stack.append((nr, nc))
        visited.update(values)
        if consistent:
            orbits.append(values)
    if not orbits:
        raise ValueError("no intertwiner exists")
    rows = [-1] * dim
    signs = [1] * dim
    for (r, c), s in orbits[0].items():
        if rows[c] != -1:
            raise ValueError("intertwiner is not monomial")
        rows[c] = r
        signs[c] = s
    s_mat = MonomialMatrix(dim, tuple(rows), tuple(signs))
    for gb, ga in gens:
        if mat_mul(s_mat, ga) != mat_mul(gb, s_mat):
            raise AssertionError("intertwiner fails the defining relation")
    return s_mat, len(orbits)


def eta(space: TSpace, a: Sequence, b: Sequence) -> Q:
    """Invariant bilinear of the vector module, scaled so that the norm's
    quadratic part is r3 * eta(V, V) / 2 with eta(V, V) = 2 r1 r2 - 2|v|^2."""
    if len(a) != space.vdim_full or len(b) != space.vdim_full:
        raise ValueError("vectors must carry the two cone slots")
    out = Q(0)
    for g, x, y in zip(space.rep.metric, a, b):
        out -= 2 * g * x * y
    return out


def diagonal(space: TSpace, r1, r2, r3) -> TElement:
    el = TElement.zero(space)
    el.r1, el.r2, el.r3 = Q(r1), Q(r2), Q(r3)
    return el


def hermitian_diagonal(r1, r2, r3) -> OctonionHermitian3:
    zero = oct_from([0] * 8)
    return OctonionHermitian3(Q(r1), Q(r2), Q(r3), zero, zero, zero)


def oct_unit(i: int) -> Octonion:
    v = [Q(0)] * 8
    v[i] = Q(1)
    return tuple(v)


def element_to_json(space: TSpace, el: TElement) -> dict:
    """The form ``TElement.from_json`` reads, with the octonion basis named
    at q = 8."""
    data = {
        "q": space.q,
        "n": space.n,
        "r": [rat_str(el.r1), rat_str(el.r2), rat_str(el.r3)],
        "v": [rat_str(x) for x in el.v],
        "psi": [[rat_str(x) for x in col] for col in el.psi],
    }
    if space.q == 8:
        data["basis"] = "albuquerque-majid"
    return data
