"""Reference kernels for ``magicstar.ep``, kept as the oracle that the
property tests compare the production kernels against.

They materialise one signed permutation per generator pair: the action
gamma_a gamma_b and the form +-C gamma_a gamma_b, each gamma and C built
from its label by ``linalg_oracle.pauli_string``, and they index the
commutator by the endpoints of its second operand.  Their so operands
and results are pair-dicts {(a, b): v}, the nonzero entries only; each
returns ``(value, den_factor)`` like the kernel it mirrors.  ``gathers``
builds the spinor readers from transposed gammas and the products
C gamma_a through ``linalg_oracle.matrix_reader``, and ``fold`` turns
blocks with Fraction entries into int numerators over one den, the
element constructor's input.  ``so_list`` and ``so_dict`` convert an so
block between the pair-dict and the list over ``space.pairs``;
``legacy_blocks`` gives an element's blocks in the earlier shapes (so a
pair-dict, a scalar a bare int), and ``values`` its nonzero entries as
values.  ``tagged_jacobiator`` sums the nested tagged brackets with no
packs held, each kernel packing its operands afresh.  ``swaps_halves`` scans every basis index for where C sends it,
the reference for ``make_ep``'s label parity.  ``basis_spinor``,
``ep_scale`` and ``LEVEL_Q`` (each level's division-algebra parameter) are
test helpers.
"""

from fractions import Fraction as Q
from math import lcm

from clifford_oracle import gammas
from linalg_oracle import (
    mat_mul,
    matrix_reader,
    monomial_apply,
    monomial_bilinear,
    neg,
    pauli_string,
    transpose,
)
from magicstar.clifford import conjugation
from magicstar.ep import EPElement, _tagged_bracket, _times, ep_add, jacobiator


def conjugation_matrix(space):
    """C of the space as a signed permutation."""
    return pauli_string(space.rep.dim, conjugation(space.rep, 1).C)


def swaps_halves(space) -> set:
    """Over every basis index c, whether the matrix of C sends c across the
    chiral halves (into or out of the first spinor block's support); one
    value means C treats every index alike."""
    half = set(space.spinor_support[space.spinor_blocks()[0]])
    rows = conjugation_matrix(space).rows
    return {(rows[c] in half) != (c in half) for c in range(space.rep.dim)}


def pair_actions(space) -> dict:
    """(a, b) -> gamma_a gamma_b."""
    g = gammas(space.rep)
    return {(a, b): mat_mul(g[a], g[b]) for a, b in space.pairs}


def pair_forms(space) -> dict:
    """(a, b) -> C gamma_a gamma_b, negated when eta_a eta_b = -1."""
    metric = space.rep.metric
    c = conjugation_matrix(space)
    out = {}
    for (a, b), action in pair_actions(space).items():
        form = mat_mul(c, action)
        out[(a, b)] = neg(form) if metric[a] * metric[b] == -1 else form
    return out


def gathers(space, block: str):
    """(out, raised, back) readers of the spinor block, each from ``_signed``
    of its input: out[a] reads gamma_a v and raised[a] (C gamma_a)^T v on
    the image of the block's support, from the transposed gammas and the
    products C gamma_a; back[a] reads gamma_a r on the support from r on
    the image."""
    dim = space.rep.dim
    support = space.spinor_support[block]
    on_support = set(support)
    image = tuple(c for c in range(dim) if c not in on_support) or support
    on_image = {c: k for k, c in enumerate(image)}
    index = list(range(2 * dim))
    g = gammas(space.rep)
    c = conjugation_matrix(space)
    transposed = [transpose(m) for m in g]
    raised = [mat_mul(c, m) for m in g]
    return (
        [matrix_reader(t, image, index) for t in transposed],
        [matrix_reader(m, image, index) for m in raised],
        [matrix_reader(t, support, index, on_image) for t in transposed],
    )


def fold(blocks: dict, den: int = 1):
    """(blocks, den) with every Fraction entry folded into ``den``, scanning
    each entry with ``isinstance``."""
    dens = [v.denominator for val in blocks.values() for v in val if isinstance(v, Q)]
    if not dens:
        return blocks, den
    m = lcm(*dens)
    return {name: [int(v * m) for v in val] for name, val in blocks.items()}, den * m


def so_list(space, x: dict) -> list:
    """The pair-dict ``x`` as a list over ``space.pairs``."""
    return [x.get(key, 0) for key in space.pairs]


def so_dict(space, x: list) -> dict:
    """The list ``x`` over ``space.pairs`` as a pair-dict of its nonzero
    entries."""
    return {key: v for key, v in zip(space.pairs, x) if v}


def legacy_blocks(space, el: EPElement) -> dict:
    """The blocks of ``el`` in the earlier shapes: so as a pair-dict of its
    nonzero entries, a scalar as a bare int, a spinor as its column."""
    out = {}
    for name, val in el.blocks.items():
        if name == "so":
            out[name] = so_dict(space, val)
        elif name in space.gathers:
            out[name] = val
        else:
            (out[name],) = val
    return out


def values(el: EPElement):
    """Nonzero components as ((block, index), value) pairs; a value is an
    int when ``den`` is 1 and a canonical Fraction otherwise."""
    den = el.den
    return ((key, v if den == 1 else Q(v, den)) for key, v in el.numerators())


def act(space, actions: dict, x: dict, psi: list):
    acc = [0] * space.rep.dim
    for key, v in x.items():
        monomial_apply(actions[key], psi, acc, v)
    return acc, 2


def pair_so(space, forms: dict, psi: list, phi: list):
    out = {}
    for key in space.pairs:
        s = monomial_bilinear(forms[key], psi, phi)
        if s:
            out[key] = s
    return out, 1


def _canon_pair(i: int, j: int):
    if i == j:
        return None
    return ((i, j), 1) if i < j else ((j, i), -1)


def commutator(space, x: dict, y: dict):
    """[x, y] of two pair-dicts.  Only pairs that share an index contribute,
    so y is indexed by its endpoints.  A pair of y that shares both indices
    with one of x is reached twice but contributes nothing."""
    metric = space.rep.metric
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
    return {k: v for k, v in out.items() if v}, 1


def tagged_jacobiator(space, x, y, z, unknowns) -> dict:
    """``ep._tagged_jacobiator`` without held packs: the cyclic sum of the
    nested tagged brackets, by tag, each bracket called on its own."""
    totals = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for t1, e1 in _tagged_bracket(space, a, b, unknowns):
            for t2, e2 in _tagged_bracket(space, e1, c, unknowns):
                tag = tuple(sorted(t1 + t2))
                totals[tag] = ep_add(totals.get(tag, EPElement({})), e2)
    return {t: e for t, e in totals.items() if not e.is_zero()}


def basis_spinor(space, block: str, k: int) -> EPElement:
    """The k-th basis vector on the block's support, as a full column."""
    col = [0] * space.rep.dim
    col[space.spinor_support[block][k]] = 1
    return EPElement({block: col})


def find_basis_witness(space, limit: int = 4096):
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


# the division-algebra parameter each level corresponds to
LEVEL_Q = {"der": 1, "str0": 2, "conf": 4, "qconf": 8}


def ep_scale(a: EPElement, c) -> EPElement:
    """c times a, on the int numerators over one shared denominator."""
    if not c:
        return EPElement({})
    c = Q(c)
    return EPElement(
        {name: _times(val, c.numerator) for name, val in a.blocks.items()},
        a.den * c.denominator,
    )
