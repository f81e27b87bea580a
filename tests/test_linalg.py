import random
import sys
from array import array
from fractions import Fraction as Q
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import linalg_oracle as oracle
import magicstar.linalg as linalg_mod
from magicstar.clifford import _kron, _mul
from magicstar.linalg import (
    LANE_LIMIT,
    MonomialMatrix,
    RowReducer,
    _reader,
    _signed,
    lane_sums,
    pack_lanes,
    rat_parse,
    rat_str,
    unpack_lanes,
)


ONE = (1, 0, 0)  # the identity
XZ = (1, 1, 1)  # the 2x2 antisymmetric unit


def random_label(rng, bits):
    """A Pauli label (s, a, b) of s X^a Z^b on ``bits`` index bits."""
    return (rng.choice((1, -1)), rng.randrange(1 << bits), rng.randrange(1 << bits))


def label_grid(bits, label):
    """The entry grid of a label on ``bits`` index bits, built column by column."""
    return oracle.grid(oracle.pauli_string(1 << bits, label))


def transposed(label):
    """(s X^a Z^b)^T = s Z^b X^a = (-1)^popcount(a & b) s X^a Z^b."""
    s, a, b = label
    return (s * (-1) ** bin(a & b).count("1"), a, b)


def test_rat_roundtrip():
    assert rat_str(Q(3, 4)) == "3/4"
    assert rat_str(Q(-5)) == "-5"
    assert rat_parse("7/2") == Q(7, 2)
    assert rat_parse("-5") == rat_parse(-5) == Q(-5)
    assert rat_parse("6/04") == Q(3, 2)


def test_rat_str_refuses_past_decimal_digit_limit():
    limit = sys.get_int_max_str_digits()
    for value in (Q(10 ** limit), Q(-(10 ** limit)), Q(1, 10 ** limit), 10 ** limit, -(10 ** limit)):
        with pytest.raises(ValueError, match="%d decimal digits" % (limit + 1)):
            rat_str(value)
    assert rat_str(Q(10 ** (limit - 1))) == rat_str(10 ** (limit - 1)) == "1" + "0" * (limit - 1)


def test_rat_str_takes_an_int_without_a_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(linalg_mod, "Q", refuse)
    assert [rat_str(k) for k in (0, 7, -12, 10 ** 30)] == ["0", "7", "-12", "1" + "0" * 30]


def test_identity_times_matrix():
    rng = random.Random(1)
    for _ in range(20):
        m = random_label(rng, 3)
        assert _mul(ONE, m) == m == _mul(m, ONE)


def test_eps_squares_to_minus_identity():
    assert _mul(XZ, XZ) == (-1, 0, 0)
    assert oracle.matmul(label_grid(1, XZ), label_grid(1, XZ)) == [[-1, 0], [0, -1]]


def test_monomial_closure_under_product_and_kron():
    # the product and the Kronecker product of Pauli strings, taken on their
    # labels, equal the products of their dense grids
    rng = random.Random(3)
    for _ in range(20):
        j, k = rng.randint(0, 3), rng.randint(0, 3)
        a, b, c = random_label(rng, j), random_label(rng, j), random_label(rng, k)
        assert label_grid(j, _mul(a, b)) == oracle.matmul(label_grid(j, a), label_grid(j, b))
        assert label_grid(j + k, _kron(a, c, k)) == oracle.kron(label_grid(j, a), label_grid(k, c))


def test_kron_identity_block_diagonal():
    k = _kron(ONE, (1, 1, 0), 1)
    assert oracle.pauli_string(4, k).rows == (1, 0, 3, 2)


def test_kron_eps_squares():
    k = _kron(XZ, ONE, 1)
    assert _mul(k, k) == (-1, 0, 0)
    sq = oracle.mat_mul(oracle.pauli_string(4, k), oracle.pauli_string(4, k))
    assert sq.rows == (0, 1, 2, 3)
    assert set(sq.signs) == {-1}


def test_kron_dims_multiply():
    # a factor on 4 bits times a factor on 1 bit acts on 5 bits: dim 16 * 2
    rng = random.Random(4)
    for _ in range(20):
        _, a, b = _kron(random_label(rng, 4), random_label(rng, 1), 1)
        assert 0 <= a < 32 and 0 <= b < 32
    assert _kron((1, 15, 15), (1, 1, 1), 1) == (1, 31, 31)


def test_monomial_transpose_is_inverse():
    rng = random.Random(5)
    for _ in range(20):
        m = random_label(rng, 3)
        grid = label_grid(3, m)
        assert label_grid(3, transposed(m)) == [list(col) for col in zip(*grid)]
        assert _mul(transposed(m), m) == ONE


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
def labels(draw, max_bits=6, bits=None):
    k = bits if bits is not None else draw(st.integers(0, max_bits))
    index = st.integers(0, (1 << k) - 1)
    return draw(st.tuples(st.sampled_from((1, -1)), index, index))


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


# the gather properties draw one seed and build a label of dimension up
# to 64, its columns, supports, vectors and scalars from it: drawing 64
# scalars through Hypothesis costs far more than the kernel under test
SEEDS = st.integers(0, 2 ** 64 - 1)


def gathered(reader, cols, signed):
    """What ``reader`` reads from ``signed``, as a tuple: the itemgetter of
    one position returns the bare entry."""
    got = reader(signed)
    return (got,) if len(cols) == 1 else got


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_reader_matches_dense_transpose(seed):
    """_reader(label, cols, index, pos, flip) reads flip * (m^T v) at
    ``cols`` for the Pauli string m of the label, from _signed(v), with v
    given whole or, through ``pos``, on an input support that holds every
    row a column in ``cols`` reads."""
    rng = random.Random(seed)
    bits = rng.randint(0, 6)
    dim = 1 << bits
    label = random_label(rng, bits)
    m = oracle.pauli_string(dim, label)
    cols = rng.sample(range(dim), rng.randint(1, dim))
    if rng.random() < 0.5:
        support = list({m.rows[c] for c in cols} | {r for r in range(dim) if rng.random() < 0.5})
        rng.shuffle(support)
        pos = {r: k for k, r in enumerate(support)}
    else:
        support, pos = range(dim), None
    v = random_vector(rng, len(support))
    full = [0] * dim
    for r, x in zip(support, v):
        full[r] = x
    transposed_grid = [list(col) for col in zip(*oracle.grid(m))]
    expected = oracle.apply(transposed_grid, full)
    signed = _signed(v)
    assert signed == v + [-x for x in v]
    index = list(range(2 * len(v)))
    for flip in (1, -1):
        got = gathered(_reader(label, cols, index, pos, flip), cols, signed)
        assert got == tuple(flip * expected[c] for c in cols)
        # the oracle's gather over the whole matrix reads the same
        assert got == gathered(oracle.matrix_reader(m, cols, index, pos, flip), cols, signed)


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_reader_dot_is_the_bilinear(seed):
    """u^T m v is one gather of m^T u over every column and one dot product
    with v."""
    rng = random.Random(seed)
    bits = rng.randint(0, 6)
    dim = 1 << bits
    label = random_label(rng, bits)
    u = random_vector(rng, dim)
    v = random_vector(rng, dim)
    cols = range(dim)
    lowered = gathered(_reader(label, cols, list(range(2 * dim))), cols, _signed(u))
    assert oracle.dot(lowered, v) == oracle.dot(u, oracle.apply(label_grid(bits, label), v))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_product_associative(data):
    bits = data.draw(st.integers(0, 6))
    a, b, c = (data.draw(labels(bits=bits)) for _ in range(3))
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))


@settings(max_examples=60, deadline=None)
@given(labels())
def test_monomial_transpose_is_two_sided_inverse(m):
    assert _mul(m, transposed(m)) == ONE
    assert _mul(transposed(m), m) == ONE


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kron_mixed_product(data):
    j, k = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a, c = data.draw(labels(bits=j)), data.draw(labels(bits=j))
    b, d = data.draw(labels(bits=k)), data.draw(labels(bits=k))
    assert _mul(_kron(a, b, k), _kron(c, d, k)) == _kron(_mul(a, c), _mul(b, d), k)


# ---------------------------------------------------------------------------
# packed 32- and 64-bit lanes
# ---------------------------------------------------------------------------

# the ends of a signed 64-bit lane, and the values next to 0
LANE_EDGES = (0, 1, -1, 2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63))
# the same for a signed 32-bit lane
NARROW_EDGES = (0, 1, -1, 2 ** 31 - 1, -(2 ** 31 - 1), -(2 ** 31))
NARROW_LIMIT = 2 ** 31


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
    # the same on 32-bit lanes
    v = random_lanes(rng, n, NARROW_LIMIT - 1)
    v[rng.randrange(n)] = rng.choice(NARROW_EDGES)
    packed = pack_lanes(v, 32)
    assert packed == sum(x << (32 * k) for k, x in enumerate(v))
    assert list(unpack_lanes(packed, n, 32)) == v


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
    assert pack_lanes([]) == 0 == pack_lanes([], 32)
    for bad in (2 ** 63, -(2 ** 63) - 1):
        with pytest.raises(OverflowError):
            pack_lanes([0, bad])
    for bad in (2 ** 31, -(2 ** 31) - 1):
        with pytest.raises(OverflowError):
            pack_lanes([0, bad], 32)


def entrywise_sums(rows, vectors):
    """``_signed`` of each row's combination of the vectors, entry by entry."""
    width = len(vectors[0])
    return [_signed([sum(c * v[k] for c, v in zip(r, vectors)) for k in range(width)])
            for r in rows]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_lane_sums_match_entrywise_sums(seed):
    # rows with zero coefficients and an all-zero row; the vectors are
    # capped so every sum stays within LANE_LIMIT - 1, then lifted past it
    rng = random.Random(seed)
    n, k = rng.randint(1, 16), rng.randint(1, 6)
    rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(k)] for _ in range(rng.randint(0, 4))]
    rows.insert(rng.randint(0, len(rows)), [0] * k)
    cap = (LANE_LIMIT - 1) // max(1, max(sum(map(abs, r)) for r in rows))
    vectors = [random_lanes(rng, n, cap) for _ in range(k)]
    lifted = [[x << 70 for x in v] for v in vectors]
    # (vectors, bound, entry-by-entry fallbacks taken)
    cases = ((vectors, LANE_LIMIT - 1, 0), (vectors, LANE_LIMIT, 2), (lifted, LANE_LIMIT << 70, 2))
    for vs, bound, fallbacks in cases:
        with mock.patch.object(linalg_mod, "_entry_sums", wraps=linalg_mod._entry_sums) as spy:
            # rows and vectors as one-pass iterators, read one row per sum
            row_iter = iter(rows)
            sums = lane_sums([(row_iter, iter(vs), None)], bound)
            first = next(sums)
            assert len(list(row_iter)) == len(rows) - 1
            got = [list(first)] + [list(s) for s in lane_sums([(rows[1:], vs, None)], bound)]
        assert got == entrywise_sums(rows, vs)
        assert spy.call_count == fallbacks


def test_lane_sums_reach_the_lane_edge():
    edge = LANE_LIMIT - 1
    rows = [[1, 0], [1, 1], [-1, -1], [0, 0]]
    vectors = [[2 ** 62, -(2 ** 62), 0], [2 ** 62 - 1, 1 - 2 ** 62, 5]]
    got = [list(s) for s in lane_sums([(rows, vectors, None)], edge)]
    assert got == entrywise_sums(rows, vectors)
    assert got[1][:2] == [edge, -edge] and got[2][:2] == [-edge, edge]


def lane_path(rows):
    """The path a ``lane_sums`` call took, read off its rows: the item width
    in bits of an unpacked ``array``, or "entries" for ``_signed`` lists."""
    return 8 * rows[0].itemsize if isinstance(rows[0], array) else "entries"


def test_lane_typecodes_have_their_widths():
    assert {bits: array(code).itemsize for bits, code in linalg_mod._TYPECODES.items()} == {32: 4, 64: 8}


def test_lane_sums_take_the_narrowest_lanes_the_bound_allows():
    # entries and sums at +-(2^31 - 1) fit a 32-bit lane; a bound of 2^31
    # takes 64-bit lanes, and LANE_LIMIT sums entry by entry
    edge = NARROW_LIMIT - 1
    rows = [[1, 0], [1, 1], [-1, -1], [0, 0]]
    vectors = [[2 ** 30, -(2 ** 30), 0, edge], [2 ** 30 - 1, 1 - 2 ** 30, 5, 0]]
    expected = entrywise_sums(rows, vectors)
    assert expected[1][:2] == [edge, -edge] and expected[0][3] == edge
    for bound, path in ((edge, 32), (NARROW_LIMIT, 64), (LANE_LIMIT - 1, 64), (LANE_LIMIT, "entries")):
        got = list(lane_sums([(rows, vectors, None)], bound))
        assert [list(s) for s in got] == expected
        assert lane_path(got) == path


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_every_lane_width_matches_the_entry_sums(seed):
    # the vectors are capped so every sum stays within 2^31 - 1; each bound
    # then picks one path, and all three agree with the entry-by-entry sums
    rng = random.Random(seed)
    n, k = rng.randint(1, 16), rng.randint(1, 6)
    rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(k)] for _ in range(rng.randint(1, 4))]
    cap = (NARROW_LIMIT - 1) // max(1, max(sum(map(abs, r)) for r in rows))
    vectors = [random_lanes(rng, n, cap) for _ in range(k)]
    expected = list(linalg_mod._entry_sums([(rows, vectors, None)]))
    for bound, path in ((NARROW_LIMIT - 1, 32), (NARROW_LIMIT, 64), (LANE_LIMIT, "entries")):
        got = list(lane_sums([(rows, vectors, None)], bound))
        assert [list(r) for r in got] == expected
        assert lane_path(got) == path


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_term_sums_match_the_sum_of_each_terms_entry_sums(seed):
    # two to four terms over the same output rows, each row of a term None
    # (the term adds nothing there) or coefficients; every term is capped
    # so that the sum of all stays within 2^31 - 1, and the bounds put the
    # whole sum on each path in turn
    rng = random.Random(seed)
    n, count, nterms = rng.randint(1, 16), rng.randint(1, 4), rng.randint(2, 4)
    terms = []
    for _ in range(nterms):
        k = rng.randint(1, 6)
        rows = [None if rng.random() < 0.3 else [rng.choice((0, rng.randint(-9, 9))) for _ in range(k)]
                for _ in range(count)]
        cap = (NARROW_LIMIT - 1) // (nterms * max([1] + [sum(map(abs, r)) for r in rows if r is not None]))
        terms.append((rows, [random_lanes(rng, n, cap) for _ in range(k)]))
    expected = [[0] * (2 * n) for _ in range(count)]
    for rows, vectors in terms:
        present = [r or [0] * len(vectors) for r in rows]
        expected = [list(map(add, e, s)) for e, s in zip(expected, entrywise_sums(present, vectors))]
    for bound, path in ((NARROW_LIMIT - 1, 32), (NARROW_LIMIT, 64), (LANE_LIMIT, "entries")):
        got = list(lane_sums(((rows, iter(vectors), None) for rows, vectors in terms), bound))
        assert [list(r) for r in got] == expected
        assert lane_path(got) == path


def test_held_packs_are_made_once_per_width():
    # passed back with the same dict, the vectors are not read again; a
    # bound that takes the other width packs them afresh
    rows = [[1, -2], [0, 3]]
    vectors = [[1, -5, 7], [2, 0, -3]]
    held = {}

    def once():
        yield from vectors

    def never():
        raise AssertionError("held vectors were read again")
        yield

    first = [list(s) for s in lane_sums([(rows, once(), held)], 99)]
    assert first == entrywise_sums(rows, vectors) and set(held) == {32}
    assert [list(s) for s in lane_sums([(rows, never(), held)], 99)] == first
    assert [list(s) for s in lane_sums([(rows, once(), held)], NARROW_LIMIT)] == first
    assert set(held) == {32, 64}
    # past LANE_LIMIT the entries are summed and nothing is kept
    assert [list(s) for s in lane_sums([(rows, vectors, held)], LANE_LIMIT)] == first
    assert set(held) == {32, 64}


# ---------------------------------------------------------------------------
# properties of the incremental exact solver
# ---------------------------------------------------------------------------

def small_rational(rng):
    """0 a quarter of the time, else a fraction in [-5, 5] with denominator
    at most 4."""
    if rng.randrange(4) == 0:
        return Q(0)
    den = rng.randint(1, 4)
    return Q(rng.randint(-5 * den, 5 * den), den)


def rational_system(rng, consistent=False):
    """Rows and right-hand sides of a small system.  ``consistent`` takes
    the right-hand side from a random point; otherwise it is random, and
    half the time one more row combines the others under a random (usually
    contradictory) right-hand side."""
    ncols = rng.randint(1, 4)
    nrows = rng.randint(1, 6)
    rows = [[small_rational(rng) for _ in range(ncols)] for _ in range(nrows)]
    if consistent:
        point = [small_rational(rng) for _ in range(ncols)]
        return ncols, rows, [oracle.dot(r, point) for r in rows]
    rhs = [small_rational(rng) for _ in range(nrows)]
    if rng.random() < 0.5:
        weights = [small_rational(rng) for _ in range(nrows)]
        rows.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(ncols)])
        rhs.append(small_rational(rng))
    return ncols, rows, rhs


def feed(ncols, rows, rhs):
    """Feed rational rows in order, lifted to int numerators; the reducer,
    the rows fed, and the first certificate."""
    red = RowReducer(ncols)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        cert = oracle.add_rational_row(red, row, b)
        if cert is not None:
            return red, i + 1, cert
    return red, len(rows), None


# the solver properties draw one seed and build their system from it, as the
# gather properties do: drawing lists of fractions through Hypothesis costs
# far more than the reduction under test

@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_row_reducer_certificate_is_sound(seed):
    ncols, rows, rhs = rational_system(random.Random(seed))
    _, fed, cert = feed(ncols, rows, rhs)
    assume(cert is not None)
    assert cert and all(0 <= k < fed for k in cert)
    for j in range(ncols):
        assert sum(c * rows[k][j] for k, c in cert.items()) == 0
    assert sum(c * rhs[k] for k, c in cert.items()) != 0


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_row_reducer_solution_satisfies_fed_rows(seed):
    rng = random.Random(seed)
    ncols, rows, rhs = rational_system(rng, consistent=rng.random() < 0.5)
    red, _, cert = feed(ncols, rows, rhs)
    assume(cert is None)
    x = red.solution()
    for row, b in zip(rows, rhs):
        assert oracle.dot(row, x) == b


@settings(max_examples=60, deadline=None)
@given(SEEDS)
def test_row_reducer_gives_no_certificate_for_consistent_system(seed):
    assert feed(*rational_system(random.Random(seed), consistent=True))[2] is None


def ranked_system(rng):
    """Rows spanning a random subspace of rank at most r, for r drawn from 0
    to ncols, as ints, as Fractions (integral ones included) or as int
    numerators over one denominator; the right-hand side from a random
    point, or random."""
    ncols = rng.randint(1, 5)
    rank = rng.randint(0, ncols)
    kind = rng.choice(("int", "fraction", "den"))
    if kind == "fraction":
        entry = small_rational
    else:
        def entry(rng):
            return rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 12, 10 ** 12)))
    basis = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(rng.randint(1, 8)):
        weights = [entry(rng) for _ in basis]
        rows.append([sum(w * b[j] for w, b in zip(weights, basis)) for j in range(ncols)])
    if rng.random() < 0.5:
        point = [entry(rng) for _ in range(ncols)]
        rhs = [oracle.dot(row, point) for row in rows]
    else:
        rhs = [entry(rng) for _ in rows]
    dens = [rng.randint(1, 12) if kind == "den" else 1 for _ in rows]
    return ncols, rows, rhs, dens


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_row_reducer_equals_fraction_oracle(seed):
    # the pivot-origin rows are independent, so a certificate with
    # coefficient 1 at the new row, and the solution with the free
    # variables at 0, are unique: both reducers give them exactly
    ncols, rows, rhs, dens = ranked_system(random.Random(seed))
    red, ref = RowReducer(ncols), oracle.FractionReducer(ncols)
    for row, b, den in zip(rows, rhs, dens):
        if all(type(x) is int for x in (*row, b)):
            cert = red.add_row(row, b, den) if den > 1 else red.add_row(row, b)
        else:
            cert = oracle.add_rational_row(red, row, b)
        want = ref.add_row([Q(x, den) for x in row], Q(b, den))
        assert cert == want
        assert all(type(c) is Q for c in (cert or {}).values())
        assert red.rank() == ref.rank()
        assert [p[0] for p in red.pivots] == [p[0] for p in ref.pivots]
        if cert is not None:
            return
    assert red.solution() == ref.solution()
    assert all(type(x) is Q for x in red.solution())
    assert oracle.kernel(red) == oracle.kernel(ref)


def test_row_reducer_refuses_a_row_of_the_wrong_length():
    red = RowReducer(3)
    with pytest.raises(ValueError, match="expected 3"):
        red.add_row([1, 2], 0)


def test_row_reducer_refuses_fraction_rows_before_counting_them():
    red = RowReducer(3)
    assert red.add_row([2, 0, 1], 3) is None
    before = (red.nrows, [(col, list(row), r, dict(p)) for col, row, r, p in red.pivots])
    for row, b in (([Q(1, 2), 1, 0], 1), ([1, 1, 0], Q(1)), ([1.0, 1, 0], 1)):
        with pytest.raises(TypeError, match="linalg.lift"):
            red.add_row(row, b)
        assert (red.nrows, red.pivots) == before
    # the next row keeps index 1, so its certificate names rows 0 and 1
    assert red.add_row([4, 0, 2], 7) == {0: Q(-2), 1: Q(1)}
