import random
from collections import Counter
from fractions import Fraction as Q
from unittest import mock

import pytest

import magicstar.linalg as linalg_mod
from linalg_oracle import dot
from magicstar.linalg import LANE_LIMIT
from magicstar.roots import MAX_ROOTS, AlgebraLabel, generate_roots, root_count
from roots_oracle import EXPECTED_COUNTS, cartan_matrix, coroot_pairing, hand_built


def test_label_parse_and_validation():
    assert AlgebraLabel.parse("e8") == AlgebraLabel("E", 8)
    assert str(AlgebraLabel.parse("G2")) == "G2"
    with pytest.raises(ValueError):
        AlgebraLabel("E", 5)
    with pytest.raises(ValueError):
        AlgebraLabel("H", 4)


def test_cartan_a2():
    m = cartan_matrix(AlgebraLabel("A", 2))
    assert m == [[2, -1], [-1, 2]]


def test_cartan_g2_offdiagonal():
    m = cartan_matrix(AlgebraLabel("G", 2))
    off = sorted([m[0][1], m[1][0]])
    assert off == [Q(-3), Q(-1)]


def test_cartan_e8_has_seven_bonds():
    m = cartan_matrix(AlgebraLabel("E", 8))
    bonds = 0
    for i in range(8):
        for j in range(i + 1, 8):
            assert m[i][j] == m[j][i]
            if m[i][j] == Q(-1):
                bonds += 1
            else:
                assert m[i][j] == 0
    assert bonds == 7


def test_root_counts():
    for name, count in EXPECTED_COUNTS.items():
        rs = generate_roots(AlgebraLabel.parse(name))
        assert len(rs.roots) == count, name


def test_root_count_closed_form_matches_closure():
    labels = ["A%d" % r for r in range(1, 9)] + ["B%d" % r for r in range(2, 7)]
    labels += ["D%d" % r for r in range(3, 8)] + list(EXPECTED_COUNTS)
    for name in labels:
        label = AlgebraLabel.parse(name)
        assert root_count(label) == len(generate_roots(label).roots), name


@pytest.mark.parametrize("inside,outside", [("A44", "A45"), ("B31", "B32"), ("D32", "D33")])
def test_root_count_limit(inside, outside):
    assert root_count(AlgebraLabel.parse(inside)) <= MAX_ROOTS
    with pytest.raises(ValueError, match="over the limit"):
        root_count(AlgebraLabel.parse(outside))
    with pytest.raises(ValueError, match="over the limit"):
        generate_roots(AlgebraLabel.parse(outside))
    # the closed form refuses a rank far past the limit without building anything
    with pytest.raises(ValueError, match="over the limit"):
        generate_roots(AlgebraLabel("A", 10 ** 9))


def test_counts_cross_check_dim_minus_rank():
    # count = dim - rank for e8/e7/e6/f4
    dims = {"E8": 248, "E7": 133, "E6": 78, "F4": 52}
    for name, d in dims.items():
        label = AlgebraLabel.parse(name)
        rs = generate_roots(label)
        assert len(rs.roots) == d - label.rank


def test_closed_under_negation_and_no_duplicates():
    for name in EXPECTED_COUNTS:
        rs = generate_roots(AlgebraLabel.parse(name))
        rootset = set(rs.roots)
        assert len(rootset) == len(rs.roots)
        for r in rs.roots:
            assert tuple(-x for x in r) in rootset


def test_at_most_two_lengths_simply_laced_one():
    simply_laced = {"A2", "D4", "E6", "E7", "E8"}
    for name in EXPECTED_COUNTS:
        rs = generate_roots(AlgebraLabel.parse(name))
        lengths = {dot(r, r) for r in rs.roots}
        if name in simply_laced:
            assert len(lengths) == 1, name
        else:
            assert len(lengths) == 2, name


def test_reflection_closure_property():
    rng = random.Random(23)
    for name in ("G2", "F4", "E6"):
        rs = generate_roots(AlgebraLabel.parse(name))
        rootset = set(rs.roots)
        roots = rs.roots
        for _ in range(200):
            beta = roots[rng.randrange(len(roots))]
            alpha = roots[rng.randrange(len(roots))]
            c = 2 * dot(beta, alpha) / dot(alpha, alpha)
            refl = tuple(b - c * a for b, a in zip(beta, alpha))
            assert refl in rootset


def test_crystallographic_pairings_are_integers():
    rng = random.Random(29)
    rs = generate_roots(AlgebraLabel.parse("F4"))
    for _ in range(300):
        g = rs.roots[rng.randrange(len(rs.roots))]
        a = rs.roots[rng.randrange(len(rs.roots))]
        p = coroot_pairing(rs, g, a)
        assert isinstance(p, int)


def test_pairing_examples():
    rs = generate_roots(AlgebraLabel.parse("A2"))
    a, b = rs.simple_roots
    assert coroot_pairing(rs, a, a) == 2
    assert coroot_pairing(rs, a, b) == -1

    g2 = generate_roots(AlgebraLabel.parse("G2"))
    long_simple, short_simple = None, None
    for s in g2.simple_roots:
        if dot(s, s) == 6:
            long_simple = s
        else:
            short_simple = s
    assert coroot_pairing(g2, long_simple, short_simple) == -3


def test_pairing_rejects_non_roots():
    rs = generate_roots(AlgebraLabel.parse("A2"))
    with pytest.raises(ValueError):
        coroot_pairing(rs, (Q(5), Q(0), Q(0)), rs.roots[0])


def test_deterministic_ordering():
    a = generate_roots(AlgebraLabel.parse("F4")).roots
    b = generate_roots(AlgebraLabel.parse("F4")).roots
    assert a == b == tuple(sorted(a))


def test_pairing_table_refuses_non_integral_pairings():
    # (1, 0) against (1, 1/2): 2 * 1 / (5/4) = 8/5
    rs = hand_built(((2, 0), (2, 1)))
    with pytest.raises(ArithmeticError, match="not integral"):
        rs.pairings
    with pytest.raises(ArithmeticError, match="not integral"):
        coroot_pairing(rs, rs.roots[0], rs.roots[1])


def fraction_pairings(rs):
    """2(r_i, r_j)/(r_j, r_j) as Fractions, indexed [j][i] like ``pairings``."""
    return tuple(tuple(2 * dot(ri, rj) / dot(rj, rj) for ri in rs.roots) for rj in rs.roots)


def test_pairing_table_is_exact_past_the_lane_bound():
    # entry i of column j is 2(s_i, s_j), at most 2 * max (s, s); below
    # 2^63 it fits a signed 64-bit lane, that is while |coordinate| < 2^31
    # here, and at or past it the columns are summed entry by entry
    edge, far = 2 ** 31, 2 ** 40
    assert 2 * (edge - 1) ** 2 < LANE_LIMIT <= 2 * edge ** 2
    with mock.patch.object(linalg_mod, "_entry_sums", wraps=linalg_mod._entry_sums) as spy:
        inside = hand_built(((edge - 1, 0), (0, 1 - edge), (1 - edge, 0)))
        assert inside.pairings == ((2, 0, -2), (0, 2, 0), (-2, 0, 2))
        assert spy.call_count == 0
        for scaled in (((edge, 0), (0, 1)), ((far, 0), (0, far), (-far, far), (far, -far))):
            rs = hand_built(scaled)
            assert rs.pairings == fraction_pairings(rs)
        assert spy.call_count == 2
    with pytest.raises(ArithmeticError, match="not integral"):
        hand_built(((3, 0), (10 ** 30, 10 ** 30))).pairings


# sympy's all_roots() lists a non-root for G2 ([1, 0, 1] lies off the plane
# x + y + z = 0) and repeats roots for E6, E7 and E8 (50, 74 and 126
# distinct), so only F4's list is a root system to take pairings over.
_SYMPY_ROOT_LISTS_BROKEN = {"G2", "E6", "E7", "E8"}


@pytest.mark.parametrize("name,count,det", [
    ("G2", 12, 1), ("F4", 48, 1), ("E6", 72, 3), ("E7", 126, 2), ("E8", 240, 1),
])
def test_sympy_root_system_oracle(name, count, det):
    sympy = pytest.importorskip("sympy")
    from sympy.liealgebras.cartan_matrix import CartanMatrix
    from sympy.liealgebras.root_system import RootSystem as SympyRootSystem

    rs = generate_roots(AlgebraLabel.parse(name))
    theirs = SympyRootSystem(name).all_roots()
    assert len(rs.roots) == len(theirs) == count
    simple = [rs.index[s] for s in rs.simple_roots]
    cartan = sympy.Matrix([[rs.pairings[j][i] for j in simple] for i in simple])
    assert cartan.det() == CartanMatrix(name).det() == det

    roots = {tuple(Q(str(x)) for x in r) for r in theirs.values()}
    if len(roots) == count:
        pairings = Counter(2 * dot(a, b) / dot(b, b) for a in roots for b in roots)
        if all(p.denominator == 1 for p in pairings):
            assert pairings == Counter(p for col in rs.pairings for p in col)
            return
    assert name in _SYMPY_ROOT_LISTS_BROKEN
