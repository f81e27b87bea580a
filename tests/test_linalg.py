import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

import linalg_oracle as oracle
from magicstar.linalg import (
    LANE_LIMIT,
    MonomialMatrix,
    RowReducer,
    kron,
    mat_mul,
    pack_lanes,
    rat_parse,
    rat_str,
    unpack_lanes,
)


EPS = MonomialMatrix(2, (1, 0), (1, -1))  # the 2x2 antisymmetric unit


def random_monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialMatrix(n, tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n)))


def test_rat_roundtrip():
    assert rat_str(Q(3, 4)) == "3/4"
    assert rat_str(Q(-5)) == "-5"
    assert rat_parse("7/2") == Q(7, 2)
    assert rat_parse("-5") == rat_parse(-5) == Q(-5)
    assert rat_parse("6/04") == Q(3, 2)


def test_rat_str_refuses_past_decimal_digit_limit():
    limit = sys.get_int_max_str_digits()
    for value in (Q(10 ** limit), Q(-(10 ** limit)), Q(1, 10 ** limit)):
        with pytest.raises(ValueError, match="%d decimal digits" % (limit + 1)):
            rat_str(value)
    assert rat_str(Q(10 ** (limit - 1))) == "1" + "0" * (limit - 1)


def test_identity_times_matrix():
    m = random_monomial(random.Random(1), 3)
    assert mat_mul(MonomialMatrix.identity(3), m) == m


def test_eps_squares_to_minus_identity():
    sq = mat_mul(EPS, EPS)
    assert sq.rows == (0, 1)
    assert sq.signs == (-1, -1)


def test_monomial_closure_under_product_and_kron():
    rng = random.Random(3)
    for _ in range(20):
        a = random_monomial(rng, rng.randint(1, 6))
        b = random_monomial(rng, a.dim)
        c = random_monomial(rng, rng.randint(1, 6))
        assert oracle.grid(mat_mul(a, b)) == oracle.matmul(oracle.grid(a), oracle.grid(b))
        assert oracle.grid(kron(a, c)) == oracle.kron(oracle.grid(a), oracle.grid(c))
    with pytest.raises(ValueError):
        mat_mul(MonomialMatrix.identity(2), MonomialMatrix.identity(3))


def test_kron_identity_block_diagonal():
    m = MonomialMatrix(2, (1, 0), (1, 1))
    k = kron(MonomialMatrix.identity(2), m)
    assert k.dim == 4
    assert k.rows == (1, 0, 3, 2)


def test_kron_eps_squares():
    k = kron(EPS, MonomialMatrix.identity(2))
    sq = mat_mul(k, k)
    assert sq.rows == (0, 1, 2, 3)
    assert set(sq.signs) == {-1}


def test_kron_dims_multiply():
    a = MonomialMatrix.identity(16)
    b = MonomialMatrix.identity(2)
    assert kron(a, b).dim == 32


def test_monomial_transpose_is_inverse():
    m = random_monomial(random.Random(5), 8)
    assert mat_mul(m.transpose(), m) == MonomialMatrix.identity(8)


def test_monomial_rejects_bad_entries():
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 1), (2, 1))
    with pytest.raises(ValueError):
        MonomialMatrix(2, (0, 0), (1, 1))


def test_solve_identity():
    b = [Q(3), Q(-1, 2), Q(7)]
    red, _, cert = feed(3, [[Q(int(i == j)) for j in range(3)] for i in range(3)], b)
    assert cert is None
    assert red.solution() == b
    assert oracle.kernel(red) == []


def test_solve_underdetermined():
    red, _, cert = feed(2, [[Q(1), Q(1)]], [Q(0)])
    assert cert is None
    assert red.solution() == [Q(0), Q(0)]
    (v,) = oracle.kernel(red)
    assert v[0] + v[1] == 0 and v != [Q(0), Q(0)]


def test_solve_random_invertible_multiply_back():
    rng = random.Random(13)
    for _ in range(3):
        while True:
            a = [[Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
            b = [Q(rng.randint(-9, 9)) for _ in range(6)]
            red, _, cert = feed(6, a, b)
            if cert is None and red.rank() == 6:
                break
        assert oracle.apply(a, red.solution()) == b


def test_infeasible_certificate_soundness():
    rng = random.Random(17)
    for _ in range(10):
        rows = [[Q(rng.randint(-4, 4)) for _ in range(3)] for _ in range(2)]
        # third row = sum of the first two, with contradictory rhs
        rows.append([rows[0][j] + rows[1][j] for j in range(3)])
        b = [Q(rng.randint(-4, 4)), Q(rng.randint(-4, 4))]
        b.append(b[0] + b[1] + 1)
        _, _, cert = feed(3, rows, b)
        assert cert is not None
        for j in range(3):
            assert sum(c * rows[k][j] for k, c in cert.items()) == 0
        assert sum(c * b[k] for k, c in cert.items()) != 0


# ---------------------------------------------------------------------------
# properties of the signed-permutation kernels, against the entry grid
# ---------------------------------------------------------------------------

@st.composite
def monomials(draw, max_dim=64, dim=None):
    n = dim if dim is not None else draw(st.integers(1, max_dim))
    rows = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return MonomialMatrix(n, tuple(rows), tuple(signs))


def random_scalar(rng):
    """Mostly zeros, as in chiral-block and basis spinors: half 0, a quarter
    ints in [-9, 9], a quarter fractions in [-9, 9] with denominators up to 6."""
    kind = rng.randrange(4)
    if kind < 2:
        return 0
    if kind == 2:
        return rng.randint(-9, 9)
    den = rng.randint(1, 6)
    return Q(rng.randint(-9 * den, 9 * den), den)


def random_vector(rng, n):
    return [random_scalar(rng) for _ in range(n)]


# the gather properties draw one seed and build a monomial of dimension up
# to 64, its vectors and scalars from it: drawing a permutation and 64
# scalars through Hypothesis costs far more than the kernel under test
SEEDS = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_apply_matches_dense(seed):
    rng = random.Random(seed)
    m = random_monomial(rng, rng.randint(1, 64))
    v = random_vector(rng, m.dim)
    assert m.apply(v) == oracle.apply(oracle.grid(m), v)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_apply_accumulates_weighted_in_place(seed):
    rng = random.Random(seed)
    m = random_monomial(rng, rng.randint(1, 64))
    v = random_vector(rng, m.dim)
    acc = random_vector(rng, m.dim)
    weight = random_scalar(rng)
    expected = [a + weight * b for a, b in zip(acc, oracle.apply(oracle.grid(m), v))]
    out = m.apply(v, acc, weight)
    assert out is acc
    assert acc == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_bilinear_matches_dense(seed):
    rng = random.Random(seed)
    m = random_monomial(rng, rng.randint(1, 64))
    u = random_vector(rng, m.dim)
    v = random_vector(rng, m.dim)
    assert m.bilinear(u, v) == oracle.dot(u, oracle.apply(oracle.grid(m), v))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_product_associative(data):
    a = data.draw(monomials())
    b = data.draw(monomials(dim=a.dim))
    c = data.draw(monomials(dim=a.dim))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=60, deadline=None)
@given(monomials())
def test_monomial_transpose_is_two_sided_inverse(m):
    ident = MonomialMatrix.identity(m.dim)
    assert mat_mul(m, m.transpose()) == ident
    assert mat_mul(m.transpose(), m) == ident


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_mixed_product(data):
    a = data.draw(monomials(max_dim=8))
    c = data.draw(monomials(dim=a.dim))
    b = data.draw(monomials(max_dim=8))
    d = data.draw(monomials(dim=b.dim))
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


# ---------------------------------------------------------------------------
# packed 64-bit lanes
# ---------------------------------------------------------------------------

# the ends of a signed 64-bit lane, and the values next to 0
LANE_EDGES = (0, 1, -1, 2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63))


def random_lanes(rng, n, cap):
    """n ints in [-cap, cap]: a quarter at -cap, 0 or cap, a quarter small,
    half anywhere in the range."""
    out = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            out.append(rng.choice((-cap, 0, cap)))
        elif kind == 1:
            out.append(rng.randint(-9, 9))
        else:
            out.append(rng.randint(-cap, cap))
    return out


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_lanes_roundtrip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 64)
    v = random_lanes(rng, n, LANE_LIMIT - 1)
    v[rng.randrange(n)] = rng.choice(LANE_EDGES)
    packed = pack_lanes(v)
    assert packed == sum(x << (64 * k) for k, x in enumerate(v))
    assert list(unpack_lanes(packed, n)) == v


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_lane_combination_matches_elementwise(seed):
    # the lane bound sum |c_i| * max |v_i| is kept just below LANE_LIMIT
    rng = random.Random(seed)
    n = rng.randint(1, 64)
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
    cap = (LANE_LIMIT - 1) // max(1, sum(map(abs, coeffs)))
    vectors = [random_lanes(rng, n, cap) for _ in coeffs]
    packed = sum(c * pack_lanes(v) for c, v in zip(coeffs, vectors))
    expected = [sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(n)]
    assert list(unpack_lanes(packed, n)) == expected


def test_pack_lanes_refuses_values_past_a_lane():
    assert pack_lanes([]) == 0
    for bad in (2 ** 63, -(2 ** 63) - 1):
        with pytest.raises(OverflowError):
            pack_lanes([0, bad])


# ---------------------------------------------------------------------------
# properties of the incremental exact solver
# ---------------------------------------------------------------------------

SMALL_RATIONALS = st.one_of(
    st.just(Q(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def rational_systems(draw, consistent=False):
    """Rows and right-hand sides of a small system.  ``consistent`` takes
    the right-hand side from a drawn point; otherwise it is drawn, and with
    a drawn flag one more row combines the others under a drawn (usually
    contradictory) right-hand side."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 6))
    row = st.lists(SMALL_RATIONALS, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if consistent:
        point = draw(row)
        return ncols, rows, [oracle.dot(r, point) for r in rows]
    rhs = draw(st.lists(SMALL_RATIONALS, min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        weights = draw(st.lists(SMALL_RATIONALS, min_size=nrows, max_size=nrows))
        rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)])
        rhs.append(draw(SMALL_RATIONALS))
    return ncols, rows, rhs


def feed(ncols, rows, rhs):
    """Feed rows in order; the reducer, the rows fed, and the first certificate."""
    red = RowReducer(ncols)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        cert = red.add_row(row, b)
        if cert is not None:
            return red, i + 1, cert
    return red, len(rows), None


@settings(max_examples=100, deadline=None)
@given(rational_systems())
def test_row_reducer_certificate_is_sound(system):
    ncols, rows, rhs = system
    _, fed, cert = feed(ncols, rows, rhs)
    assume(cert is not None)
    assert cert and all(0 <= k < fed for k in cert)
    for j in range(ncols):
        assert sum(c * rows[k][j] for k, c in cert.items()) == 0
    assert sum(c * rhs[k] for k, c in cert.items()) != 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(rational_systems(), rational_systems(consistent=True)))
def test_row_reducer_solution_satisfies_fed_rows(system):
    ncols, rows, rhs = system
    red, _, cert = feed(ncols, rows, rhs)
    assume(cert is None)
    x = red.solution()
    for row, b in zip(rows, rhs):
        assert oracle.dot(row, x) == b


@settings(max_examples=60, deadline=None)
@given(rational_systems(consistent=True))
def test_row_reducer_gives_no_certificate_for_consistent_system(system):
    assert feed(*system)[2] is None
