import functools
import hashlib
import itertools
import json
import math
import operator
import random
import sys
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from linalg_oracle import apply, det3, dot, grid, identity, mat_mul, matmul, pauli_string
from magicstar.octonion import (
    MUL_SIGN,
    left_mult_label,
    oct_conj,
    oct_from,
    oct_mul,
    oct_norm,
    oct_re,
)
from magicstar.talgebra import (
    Calibration,
    OctonionHermitian3,
    TAlgebraError,
    TElement,
    TSpace,
    calibrate_embedding,
    cubic_norm,
    embed_jordan,
    entropy,
    entropy_of_norm,
    infinitesimal_rotation,
    jordan_determinant,
    lightcone_inverse,
    lightcone_map,
    make_space,
    norm_and_rank,
    norm_gradient,
    rank,
    so_generator_pairs,
    spinor_width,
    total_dimension,
)
from talgebra_oracle import (
    diagonal,
    element_to_json,
    eta,
    hermitian_diagonal,
    intertwiner,
    oct_unit,
)


def random_element(space, rng, lo=-5, hi=5):
    el = TElement.zero(space)
    el.r1, el.r2, el.r3 = (Q(rng.randint(lo, hi)) for _ in range(3))
    el.v = [Q(rng.randint(lo, hi)) for _ in range(space.vector_dim)]
    el.psi = [[Q(rng.randint(lo, hi)) for _ in range(space.width)] for _ in range(space.fund)]
    return el


# --- octonions -------------------------------------------------------------

def test_octonion_norm_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        x = oct_from([rng.randint(-6, 6) for _ in range(8)])
        y = oct_from([rng.randint(-6, 6) for _ in range(8)])
        assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


def test_octonion_alternative_not_associative():
    rng = random.Random(5)
    x = oct_from([rng.randint(-4, 4) for _ in range(8)])
    y = oct_from([rng.randint(-4, 4) for _ in range(8)])
    assert oct_mul(oct_mul(x, x), y) == oct_mul(x, oct_mul(x, y))
    a, b, c = oct_unit(1), oct_unit(2), oct_unit(4)
    assert oct_mul(oct_mul(a, b), c) != oct_mul(a, oct_mul(b, c))


def test_octonion_conjugation_norm():
    x = oct_from([1, -2, 3, 0, 5, 0, 0, -1])
    assert oct_mul(x, oct_conj(x))[0] == oct_norm(x)
    assert all(t == 0 for t in oct_mul(x, oct_conj(x))[1:])


def _unit(a):
    return tuple(int(k == a) for k in range(8))


def _associator(x, y, z):
    return tuple(p - q for p, q in zip(oct_mul(oct_mul(x, y), z), oct_mul(x, oct_mul(y, z))))


def test_octonion_associator_alternates_on_the_basis():
    """The associator is trilinear, so alternativity ((x x) y = x (x y) and
    (y x) x = y (x x) for all x, y) holds iff the associator vanishes with
    two equal neighbouring basis arguments and changes sign when they swap."""
    zero = (0,) * 8
    for a, b, c in itertools.product(range(8), repeat=3):
        ea, eb, ec = _unit(a), _unit(b), _unit(c)
        assert _associator(ea, ea, ec) == zero
        assert _associator(ea, ec, ec) == zero
        left = zip(_associator(ea, eb, ec), _associator(eb, ea, ec))
        right = zip(_associator(ea, eb, ec), _associator(ea, ec, eb))
        assert all(p + q == 0 for p, q in left)
        assert all(p + q == 0 for p, q in right)


def test_octonion_composition_on_the_basis():
    """<x y, z w> + <x w, z y> = 2 <x, z> <y, w> is the full polarization of
    n(x y) = n(x) n(y); both sides are 4-linear, so the basis proves it."""
    units = [_unit(a) for a in range(8)]
    prods = [[oct_mul(x, y) for y in units] for x in units]
    for a, b, c, d in itertools.product(range(8), repeat=4):
        lhs = sum(map(operator.mul, prods[a][b], prods[c][d]))
        lhs += sum(map(operator.mul, prods[a][d], prods[c][b]))
        assert lhs == 2 * (a == c) * (b == d)


def test_octonion_left_multiplications_are_pauli_strings():
    # f(a, b) is linear in b: L_a = X^a Z^z(a) on the bits of the basis index
    z = (0, 7, 6, 5, 4, 1, 3, 2)
    assert [left_mult_label(a) for a in range(8)] == [(1, a, z[a]) for a in range(8)]
    # column b of L_a holds MUL_SIGN[a][b] at row a ^ b: e_a e_b = +-e_(a ^ b)
    for a in range(8):
        m = pauli_string(8, left_mult_label(a))
        assert m.rows == tuple(a ^ b for b in range(8))
        assert m.signs == tuple(MUL_SIGN[a])
    assert oct_mul(_unit(1), _unit(2)) == tuple(-x for x in _unit(3))


# --- spaces and the norm -----------------------------------------------------

# T(1, 1) has dimension 44, the tip of der's EP Magic Star at n = 1, as
# T(1, 0) = J3(R) (dimension 6) is its tip at n = 0
@pytest.mark.parametrize("q,n,dim", [
    (8, 0, 27), (4, 0, 15), (2, 0, 9), (8, 1, 275), (1, 0, 6), (1, 1, 44),
])
def test_total_dimension(q, n, dim):
    assert total_dimension(q, n) == dim
    sp = make_space(q, n)
    assert sp.dimension == dim
    assert len(TElement.zero(sp).coords()) == dim


def test_spinor_width_table():
    assert spinor_width(8, 0) == 16
    assert spinor_width(4, 0) == 4
    assert spinor_width(2, 0) == 2
    assert spinor_width(1, 0) == 2
    assert spinor_width(8, 1) == 256


def test_q1_norm_is_the_real_symmetric_determinant():
    """T(1, 0) is J3(R): the element (r1/2, r2/2, 4 r3, v = (-a1/2),
    psi = ((a2 + a3, a2 - a3))) has cubic norm det [[r1, a1, a2],
    [a1, r2, a3], [a2, a3, r3]].  Both sides are polynomials of degree at
    most 3 in each of the six variables, so agreeing on the four values
    {-1, 0, 1, 2} of every variable makes them equal everywhere."""
    sp = make_space(1, 0)
    for r1, r2, r3, a1, a2, a3 in itertools.product((-1, 0, 1, 2), repeat=6):
        el = TElement(Q(r1, 2), Q(r2, 2), Q(4 * r3), [Q(-a1, 2)], [[Q(a2 + a3), Q(a2 - a3)]])
        assert cubic_norm(sp, el) == det3([[r1, a1, a2], [a1, r2, a3], [a2, a3, r3]])


def test_make_space_rejects_bad_q():
    with pytest.raises(TAlgebraError):
        make_space(3, 0)


@pytest.mark.parametrize("q,n,message", [(3, 0, "q must be one of"), (1, -1, "non-negative")])
def test_width_and_dimension_refuse_what_make_space_refuses(q, n, message):
    for f in (spinor_width, total_dimension, make_space):
        with pytest.raises(TAlgebraError, match=message):
            f(q, n)


def test_lightcone_roundtrip():
    assert lightcone_map(1, 1) == (Q(1), Q(0))
    assert lightcone_map(0, 0) == (Q(0), Q(0))
    rng = random.Random(7)
    for _ in range(20):
        r1 = Q(rng.randint(-9, 9), rng.randint(1, 5))
        r2 = Q(rng.randint(-9, 9), rng.randint(1, 5))
        assert lightcone_inverse(*lightcone_map(r1, r2)) == (r1, r2)


def test_norm_diagonal_cases():
    sp = make_space(8, 0)
    assert cubic_norm(sp, diagonal(sp, 2, 3, 5)) == 30
    assert cubic_norm(sp, diagonal(sp, 1, 1, 0)) == 0


@pytest.mark.parametrize("q,n", [(2, 0), (4, 0), (8, 0), (8, 1)])
def test_norm_homogeneity(q, n):
    sp = make_space(q, n)
    rng = random.Random(11)
    el = random_element(sp, rng)
    lam = Q(3, 2)
    scaled = TElement(
        lam * el.r1, lam * el.r2, lam * el.r3,
        [lam * x for x in el.v],
        [[lam * x for x in col] for col in el.psi],
    )
    assert cubic_norm(sp, scaled) == lam ** 3 * cubic_norm(sp, el)


@pytest.mark.parametrize("q,n", [(1, 0), (2, 0), (4, 0), (8, 0), (8, 1)])
def test_euler_identity(q, n):
    sp = make_space(q, n)
    rng = random.Random(13)
    for _ in range(5):
        el = random_element(sp, rng)
        grad = norm_gradient(sp, el)
        coords = el.coords()
        assert sum(g * c for g, c in zip(grad, coords)) == 3 * cubic_norm(sp, el)


def test_gradient_diag_110():
    sp = make_space(8, 0)
    grad = norm_gradient(sp, diagonal(sp, 1, 1, 0))
    assert grad[2] == 1
    assert all(g == 0 for i, g in enumerate(grad) if i != 2)


def test_gradient_matches_exact_divided_differences():
    # a cubic is reconstructed exactly from values at -2,-1,1,2
    sp = make_space(2, 0)
    rng = random.Random(17)
    el = random_element(sp, rng)
    grad = norm_gradient(sp, el)
    coords = el.coords()
    for k in range(len(coords)):
        vals = {}
        for h in (-2, -1, 1, 2):
            shifted = list(coords)
            shifted[k] += h
            el2 = TElement(
                shifted[0], shifted[1], shifted[2],
                shifted[3:3 + sp.vector_dim],
                [shifted[3 + sp.vector_dim + i * sp.width:3 + sp.vector_dim + (i + 1) * sp.width]
                 for i in range(sp.fund)],
            )
            vals[h] = cubic_norm(sp, el2)
        deriv = (8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])) / 12
        assert deriv == grad[k]


@pytest.mark.parametrize("q,n", [(2, 0), (4, 0), (8, 0), (8, 1)])
def test_spin_invariance(q, n):
    sp = make_space(q, n)
    rng = random.Random(19)
    pairs = so_generator_pairs(sp)
    for _ in range(10):
        el = random_element(sp, rng, -4, 4)
        pair = pairs[rng.randrange(len(pairs))]
        delta = infinitesimal_rotation(sp, el, pair)
        grad = norm_gradient(sp, el)
        assert sum(g * d for g, d in zip(grad, delta)) == 0


def test_rotation_refuses_a_carrier_the_generator_leaves():
    """A carrier that some gamma_a gamma_b does not map into itself is
    refused from its support alone, before any entry is read: also for
    psi = 0, where no output entry could show the leak."""
    sp = make_space(2, 0)
    half = (0, 1)
    bad = replace(sp, support=half, fund=1)  # one column of width entries
    gammas = sp.rep.gammas
    leaks = {pair: not all(mat_mul(gammas[pair[0]], gammas[pair[1]]).rows[c] in half for c in half)
             for pair in so_generator_pairs(sp)}
    assert any(leaks.values()) and not all(leaks.values())
    el = random_element(bad, random.Random(3))
    for pair, leaking in leaks.items():
        for x in (el, TElement.zero(bad)):
            if leaking:
                with pytest.raises(AssertionError, match="leaks outside the spinor carrier"):
                    infinitesimal_rotation(bad, x, pair)
            else:
                assert len(infinitesimal_rotation(bad, x, pair)) == len(x.coords())


def test_rotation_refuses_a_repeated_index():
    sp = make_space(2, 0)
    with pytest.raises(TAlgebraError, match="two different indices"):
        infinitesimal_rotation(sp, random_element(sp, random.Random(5)), (1, 1))


def test_rank_cases():
    sp = make_space(8, 0)
    assert rank(sp, diagonal(sp, 1, 1, 1)) == 3
    assert rank(sp, diagonal(sp, 1, 1, 0)) == 2
    assert rank(sp, diagonal(sp, 1, 0, 0)) == 1
    assert rank(sp, TElement.zero(sp)) == 0


def test_rank_scale_invariant():
    sp = make_space(4, 0)
    rng = random.Random(23)
    for _ in range(5):
        el = random_element(sp, rng, -3, 3)
        r = rank(sp, el)
        el2 = TElement(
            3 * el.r1, 3 * el.r2, 3 * el.r3,
            [3 * x for x in el.v],
            [[3 * x for x in col] for col in el.psi],
        )
        assert rank(sp, el2) == r


def test_entropy_values():
    sp = make_space(8, 0)
    val, n_abs = entropy(sp, diagonal(sp, 1, 2, 2))
    assert n_abs == 4
    assert val == pytest.approx(2 * math.pi, rel=1e-15)
    val0, n0 = entropy(sp, diagonal(sp, 2, 2, 0))
    assert n0 == 0 and val0 == 0.0
    valm, nm = entropy(sp, diagonal(sp, -1, 2, 2))
    assert nm == 4 and valm == pytest.approx(2 * math.pi, rel=1e-15)


def test_entropy_refuses_norm_past_float_range():
    # the largest |N| whose entropy is finite keeps the float expression
    top = Q(int(sys.float_info.max))
    value, n_abs = entropy_of_norm(-top)
    assert n_abs == top and value == math.pi * math.sqrt(top.numerator / top.denominator)
    for big in (top * 2, Q(10 ** 600), Q(10 ** 700, 3)):
        with pytest.raises(TAlgebraError, match="too large"):
            entropy_of_norm(big)
    sp = make_space(8, 0)
    with pytest.raises(TAlgebraError, match="too large"):
        entropy(sp, diagonal(sp, 10 ** 200, 10 ** 200, 10 ** 200))


def test_element_json_roundtrip():
    sp = make_space(4, 0)
    rng = random.Random(29)
    el = random_element(sp, rng)
    data = element_to_json(sp, el)
    back = TElement.from_json(sp, data)
    assert back.coords() == el.coords()
    with pytest.raises(TAlgebraError):
        TElement.from_json(make_space(2, 0), data)


@pytest.mark.parametrize("n", [0, 1])
def test_octonionic_element_names_its_basis(n):
    # a q = 8 spinor is read in the Albuquerque-Majid octonion basis, so a
    # file with nonzero psi must name it; psi = 0 and q != 8 read no basis
    sp = make_space(8, n)
    rng = random.Random(31)
    el = random_element(sp, rng)
    data = element_to_json(sp, el)
    assert data["basis"] == "albuquerque-majid"
    assert TElement.from_json(sp, data).coords() == el.coords()
    for bad in ({k: v for k, v in data.items() if k != "basis"}, {**data, "basis": "cayley-dickson"}):
        with pytest.raises(TAlgebraError, match='needs "basis": "albuquerque-majid"'):
            TElement.from_json(sp, bad)
    zero = {k: v for k, v in element_to_json(sp, diagonal(sp, 1, 2, 3)).items() if k != "basis"}
    assert TElement.from_json(sp, zero).coords() == diagonal(sp, 1, 2, 3).coords()
    for q in (1, 2, 4):
        other = make_space(q, n)
        keyless = element_to_json(other, random_element(other, rng))
        assert "basis" not in keyless
        TElement.from_json(other, keyless)


def test_element_labels_must_be_json_ints():
    # 8.0 == 8 and True == 1 in Python, but neither is a JSON integer
    for q, n, bad in ((8, 0, {"q": 8.0}), (1, 0, {"q": True}), (2, 0, {"n": 0.0}), (2, 0, {"n": False})):
        sp = make_space(q, 0)
        data = {**element_to_json(sp, random_element(sp, random.Random(3))), **bad}
        with pytest.raises(TAlgebraError, match="must be JSON integers"):
            TElement.from_json(sp, data)
        data = json.loads(json.dumps(data))
        with pytest.raises(TAlgebraError, match="must be JSON integers"):
            TElement.from_json(sp, data)


# --- determinant oracle ------------------------------------------------------

def test_jordan_determinant_diagonal():
    j = hermitian_diagonal(2, 3, 5)
    assert jordan_determinant(j) == 30


def test_jordan_determinant_real_restriction():
    rng = random.Random(31)
    for _ in range(100):
        r1, r2, r3, a1, a2, a3 = (Q(rng.randint(-6, 6)) for _ in range(6))
        j = OctonionHermitian3(
            r1, r2, r3,
            oct_from([a1] + [0] * 7),
            oct_from([a2] + [0] * 7),
            oct_from([a3] + [0] * 7),
        )
        assert jordan_determinant(j) == det3([[r1, a1, a2], [a1, r2, a3], [a2, a3, r3]])


def test_jordan_determinant_unit_triple():
    # zero diagonal, unit off-diagonals: only the trilinear term survives
    j = OctonionHermitian3(Q(0), Q(0), Q(0), oct_unit(1), oct_unit(3), oct_unit(2))
    tri = oct_re(oct_mul(oct_mul(oct_unit(1), oct_unit(2)), oct_unit(3)))
    assert jordan_determinant(j) == 2 * tri
    assert jordan_determinant(j) in (Q(2), Q(-2))


@functools.lru_cache(maxsize=None)
def embedding_t80():
    sp = make_space(8, 0)
    return sp, calibrate_embedding(sp)


def random_fraction(rng, bound, max_den):
    den = rng.randint(1, max_den)
    return Q(rng.randint(-bound * den, bound * den), den)


# the properties draw one seed and build their data from it: drawing lists
# of fractions through Hypothesis costs far more than the code under test
SEEDS = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_jordan_determinant_on_rational_entries(seed):
    # rational octonion entries reach the int-numerator product with den > 1
    rng = random.Random(seed)
    coords = [random_fraction(rng, 9, 12) for _ in range(27)]
    lam = random_fraction(rng, 5, 7)
    sp, cal = embedding_t80()
    j = OctonionHermitian3.from_coords(coords)
    det = jordan_determinant(j)
    assert type(det) is Q
    assert det == cubic_norm(sp, embed_jordan(sp, j, cal))
    assert jordan_determinant(OctonionHermitian3.from_coords([lam * c for c in coords])) == lam ** 3 * det


def test_calibration_and_oracle_sweep():
    sp = make_space(8, 0)
    cal = calibrate_embedding(sp)
    assert cal.candidates_validated == 2
    rng = random.Random(37)
    for _ in range(50):
        j = OctonionHermitian3.from_coords([rng.randint(-9, 9) for _ in range(27)])
        el = embed_jordan(sp, j, cal)
        assert cubic_norm(sp, el) == jordan_determinant(j)


def test_model_commutant_is_the_scalars():
    # the q=8, n=0 space is the octonionic model: the only monomial map
    # commuting with every gamma is the identity, up to scale, so the
    # calibration's identification needs no intertwiner
    rep = make_space(8, 0).rep
    s_mat, dim = intertwiner(rep, rep)
    assert dim == 1
    assert s_mat == identity(rep.dim)


# sha256 over repr((dim, rows, signs)) of each gamma in order, with the
# octonions signed by the Albuquerque-Majid cocycle, e_a e_b = (-1)^f(a, b) e_(a ^ b)
OCTONIONIC_GAMMA_DIGESTS = {
    0: "efa8ef68afb19069cb976cac6c12f66ae6c061c80d9dac122b1c5a65ff318664",
    1: "9429e1d2342a52d4eda0f189e3240f16317ffa6485b7c393ba074f285941f6e8",
}


@pytest.mark.parametrize("n", [0, 1])
def test_octonionic_gammas_pinned(n):
    h = hashlib.sha256()
    for g in make_space(8, n).rep.gammas:
        h.update(repr((g.dim, g.rows, g.signs)).encode())
    assert h.hexdigest() == OCTONIONIC_GAMMA_DIGESTS[n]


@pytest.mark.parametrize("n", [0, 1])
def test_octonionic_gammas_are_pauli_strings(n):
    # each label, read back column by column: column c holds s (-1)^popcount(c & b) at row c ^ a
    rep = make_space(8, n).rep
    for g, (s, a, b) in zip(rep.gammas, rep.labels, strict=True):
        assert g.rows == tuple(c ^ a for c in range(g.dim))
        assert g.signs == tuple(s * (-1) ** bin(c & b).count("1") for c in range(g.dim))


def test_embedding_structure():
    sp = make_space(8, 0)
    cal = calibrate_embedding(sp)
    j = hermitian_diagonal(3, -1, 7)
    el = embed_jordan(sp, j, cal)
    assert (el.r1, el.r2, el.r3) == (Q(3), Q(-1), Q(7))
    assert not any(el.v) and not any(any(c) for c in el.psi)
    j2 = OctonionHermitian3(Q(0), Q(0), Q(0), oct_from([1, 2, 0, 0, -1, 0, 0, 3]),
                            oct_from([0] * 8), oct_from([0] * 8))
    el2 = embed_jordan(sp, j2, cal)
    assert any(el2.v) and not any(any(c) for c in el2.psi)
    assert sum(x * x for x in el2.v) == oct_norm(j2.a1)


def test_calibration_rejected_off_site():
    with pytest.raises(TAlgebraError):
        calibrate_embedding(make_space(4, 0))
    sp = make_space(8, 0)
    cal = calibrate_embedding(sp)
    with pytest.raises(TAlgebraError):
        embed_jordan(make_space(8, 1), hermitian_diagonal(1, 1, 1), cal)


def test_eta_matches_norm_quadratic_part():
    from magicstar.talgebra import _vector_coords

    sp = make_space(8, 0)
    rng = random.Random(43)
    for _ in range(10):
        el = random_element(sp, rng)
        el.psi = [[Q(0)] * sp.width]
        vec = _vector_coords(sp, el)
        assert eta(sp, vec, vec) == 2 * el.r1 * el.r2 - 2 * sum(x * x for x in el.v)
        assert 2 * cubic_norm(sp, el) == el.r3 * eta(sp, vec, vec)


# --- properties on rational elements, against a plain Fraction reference ------

PROPERTY_SPACES = {q: make_space(q, 0) for q in (1, 2, 4, 8)}
DENSE_FORMS = {q: [grid(pauli_string(sp.rep.dim, m)) for m in sp.norm_forms]
               for q, sp in PROPERTY_SPACES.items()}


def random_rational(rng, zeros=0.25):
    """0 with probability ``zeros``, else a fraction in [-6, 6] with
    denominator up to 12."""
    if rng.random() < zeros:
        return Q(0)
    return random_fraction(rng, 6, 12)


def rational_element(rng):
    """(q, element) at n = 0.  The share of zero entries is drawn too, and
    a block is zeroed now and then, so that ranks below 3 occur."""
    q = rng.choice(sorted(PROPERTY_SPACES))
    sp = PROPERTY_SPACES[q]
    zeros = rng.choice((0.25, 0.6, 0.9))

    def block(size):
        if rng.random() < 0.25:
            return [Q(0)] * size
        return [random_rational(rng, zeros) for _ in range(size)]

    r1, r2, r3 = (random_rational(rng, zeros) for _ in range(3))
    el = TElement(r1, r2, r3, block(sp.vector_dim), [block(sp.width) for _ in range(sp.fund)])
    return q, el


def reference_column(sp, el):
    """The spinor block as one full-length column, zero off the carrier."""
    full = [Q(0)] * sp.rep.dim
    for i, x in zip(sp.support, (x for col in el.psi for x in col)):
        full[i] = x
    return full


def reference_norm_and_gradient(q, el):
    """N and its gradient from the dense norm forms, entry by entry:
    N = r3 (r1 r2 - |v|^2) + sum_nu V_nu B_nu with B_nu = sum psi^T M_nu psi
    and V = (v, (r1-r2)/2, (r1+r2)/2)."""
    sp = PROPERTY_SPACES[q]
    forms = DENSE_FORMS[q]
    col = reference_column(sp, el)
    vec = list(el.v) + [(el.r1 - el.r2) / 2, (el.r1 + el.r2) / 2]
    bil = [dot(col, apply(m, col)) for m in forms]
    vv = sum(x * x for x in el.v)
    norm = el.r3 * (el.r1 * el.r2 - vv) + sum(w * b for w, b in zip(vec, bil))
    grad = [
        el.r2 * el.r3 + (bil[-2] + bil[-1]) / 2,
        el.r1 * el.r3 + (bil[-1] - bil[-2]) / 2,
        el.r1 * el.r2 - vv,
    ]
    grad += [-2 * el.r3 * x + b for x, b in zip(el.v, bil)]
    moved = [apply(m, col) for m in forms]
    grad += [2 * sum(w * mc[i] for w, mc in zip(vec, moved)) for i in sp.support]
    return norm, grad


def scaled(el, lam):
    return TElement(
        lam * el.r1, lam * el.r2, lam * el.r3,
        [lam * x for x in el.v],
        [[lam * x for x in col] for col in el.psi],
    )


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_norm_and_gradient_equal_fraction_reference(seed):
    q, el = rational_element(random.Random(seed))
    sp = PROPERTY_SPACES[q]
    norm, grad = reference_norm_and_gradient(q, el)
    assert cubic_norm(sp, el) == norm
    assert norm_gradient(sp, el) == grad


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_rotation_equal_dense_product(seed):
    """The spinor delta is gamma_a gamma_b psi / 2 on the carrier, the
    product taken on dense grids; a pair is taken in either order."""
    rng = random.Random(seed)
    q, el = rational_element(rng)
    sp = PROPERTY_SPACES[q]
    a, b = rng.sample(rng.choice(so_generator_pairs(sp)), 2)
    dense = matmul(grid(sp.rep.gammas[a]), grid(sp.rep.gammas[b]))
    moved = apply(dense, reference_column(sp, el))
    expected = [moved[i] / 2 for i in sp.support]
    delta = infinitesimal_rotation(sp, el, (a, b))
    assert delta[3 + sp.vector_dim:] == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_norm_homogeneity_rational_scale(seed):
    rng = random.Random(seed)
    q, el = rational_element(rng)
    lam = random_rational(rng)
    sp = PROPERTY_SPACES[q]
    assert cubic_norm(sp, scaled(el, lam)) == lam ** 3 * cubic_norm(sp, el)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_euler_identity_rational(seed):
    q, el = rational_element(random.Random(seed))
    sp = PROPERTY_SPACES[q]
    grad = norm_gradient(sp, el)
    assert sum(g * c for g, c in zip(grad, el.coords())) == 3 * cubic_norm(sp, el)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_gradient_annihilates_rotations(seed):
    rng = random.Random(seed)
    q, el = rational_element(rng)
    sp = PROPERTY_SPACES[q]
    pair = rng.choice(so_generator_pairs(sp))
    delta = infinitesimal_rotation(sp, el, pair)
    assert sum(g * d for g, d in zip(norm_gradient(sp, el), delta)) == 0


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_rank_follows_norm_and_gradient(seed):
    rng = random.Random(seed)
    q, el = rational_element(rng)
    lam = random_fraction(rng, 6, 12) or Q(1)
    sp = PROPERTY_SPACES[q]
    norm, grad = cubic_norm(sp, el), norm_gradient(sp, el)
    if not any(el.coords()):
        expected = 0
    elif not any(grad):
        expected = 1
    else:
        expected = 2 if norm == 0 else 3
    assert rank(sp, el) == expected
    assert norm_and_rank(sp, el) == (norm, expected)
    assert rank(sp, scaled(el, lam)) == expected
