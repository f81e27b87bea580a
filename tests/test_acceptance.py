"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its elapsed time (run with -s to see them)."""

import itertools
import math
import random
import time
from fractions import Fraction as Q

import pytest

from ep_oracle import basis_spinor
from linalg_oracle import det3
from talgebra_oracle import diagonal
from magicstar import clifford as cl
from magicstar import ep as ep_mod
from magicstar import star as star_mod
from magicstar import talgebra as tg
from magicstar.octonion import oct_from
from magicstar.roots import AlgebraLabel, generate_roots


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    print("[criterion %2d] PASS  %-58s %6.1fs (budget %ds)" % (num, label, elapsed, budget))
    assert elapsed < budget


def test_criterion_01_root_counts():
    t0 = time.monotonic()
    expected = {"A2": 6, "G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240}
    for name, count in expected.items():
        rs = generate_roots(AlgebraLabel.parse(name))
        assert len(rs.roots) == count, name
    _report(1, "root counts 6/12/48/72/126/240", t0, 5)


def test_criterion_02_magic_star_buckets():
    t0 = time.monotonic()
    expected = {
        "G2": (0, 1),
        "F4": (6, 6),
        "E6": (12, 9),
        "E7": (30, 15),
        "E8": (72, 27),
    }
    for name, (center, tip) in expected.items():
        rs = generate_roots(AlgebraLabel.parse(name))
        choice = star_mod.find_a2(rs)
        chart = star_mod.project(rs, choice)
        counts = star_mod.chart_counts(chart)
        assert counts["center"] == center, name
        assert counts["tips"] == [tip] * 6, name
        assert counts["hexagon"] == 6
        # every validated candidate yields the identical count multiset
        assert choice.validated_counts == {(center, (tip,) * 6)}, name
    _report(2, "hexagram buckets, all validated choices agree", t0, 30)


def test_criterion_03_clifford_relations_and_mod8():
    t0 = time.monotonic()
    base = [(9, 0), (9, 1), (10, 2), (11, 3), (12, 4)]
    reps = {}
    for (p, q) in base + [(p + 8, q) for (p, q) in base]:
        rep = cl.build_rep(cl.Signature(p, q))  # relations re-verified inside
        cl.verify_relations(rep)
        reps[(p, q)] = rep
    for (p, q) in base:
        small, big = reps[(p, q)], reps[(p + 8, q)]
        assert cl.reality_class(small.sig) == cl.reality_class(big.sig)
        for t in (1, -1):
            try:
                s_small = cl.conjugation(small, t).symmetry
            except cl.CliffordNoBilinearError:
                with pytest.raises(cl.CliffordNoBilinearError):
                    cl.conjugation(big, t)
                continue
            assert cl.conjugation(big, t).symmetry == s_small
    _report(3, "relations for ten signatures, mod-8 stable bilinears", t0, 120)


def test_criterion_04_jacobi_closure_at_n0():
    t0 = time.monotonic()
    coeffs = {}
    for level in ep_mod.LEVELS:
        coeffs[level] = ep_mod.calibrate(level, 0, seed=7).coeffs
    # full spinor-basis sweep for the 52-dimensional family
    sp = ep_mod.make_ep("der", 0, coeffs["der"])
    width = len(sp.spinor_support["psi"])
    assert width == 16
    basis = [basis_spinor(sp, "psi", k) for k in range(width)]
    for a, b, c in itertools.product(range(width), repeat=3):
        assert ep_mod.jacobiator(sp, basis[a], basis[b], basis[c]).is_zero()
    # seeded random triples for the other three families
    for level in ("str0", "conf", "qconf"):
        sp = ep_mod.make_ep(level, 0, coeffs[level])
        rng = random.Random(7)
        for _ in range(200):
            x = ep_mod.random_spinor_element(sp, rng)
            y = ep_mod.random_spinor_element(sp, rng)
            z = ep_mod.random_spinor_element(sp, rng)
            assert ep_mod.jacobiator(sp, x, y, z).is_zero(), level
    _report(4, "n=0 closure: 16^3 sweep + 3x200 random triples", t0, 600)


def test_criterion_05_jacobi_violation_at_n1():
    t0 = time.monotonic()
    for level in ep_mod.LEVELS:
        res = ep_mod.jacobi_infeasibility(level, 1, samples=50, seed=7)
        assert res.status == "violated", level
        assert res.seed == 7 and res.samples == 50
        cert = dict(res.certificate)
        row_map = {ref: (coeffs, rhs) for ref, coeffs, rhs in res.rows}
        for j in range(len(res.unknowns)):
            assert sum(c * row_map[ref][0][j] for ref, c in cert.items()) == 0
        assert sum(c * row_map[ref][1] for ref, c in cert.items()) != 0
        if level == "der":
            assert res.witness is not None
            print("  der n=1 witness triple (index %d, seed %d): nonzero jacobiator on"
                  % (res.witness_index, res.seed))
            for name in ("x", "y", "z"):
                col = res.witness[name]["psi"]
                head = ",".join(col[:8])
                print("    %s = [%s, ...] (%d entries)" % (name, head, len(col)))
    _report(5, "n=1 violation certificates for all four families", t0, 900)


def test_criterion_06_dimension_bookkeeping():
    t0 = time.monotonic()
    assert [ep_mod.dimension(lv, 0) for lv in ep_mod.LEVELS] == [52, 78, 133, 248]
    conf = ep_mod.grade_profiles("conf", 0)["extended"]
    assert [d for _, d in conf] == [1, 32, 67, 32, 1]
    assert sum(d for _, d in conf) == 133
    qconf = ep_mod.grade_profiles("qconf", 0)["extended"]
    assert [d for _, d in qconf] == [14, 64, 92, 64, 14]
    assert sum(d for _, d in qconf) == 248
    _report(6, "dimensions 52/78/133/248 and extended profiles", t0, 5)


def test_criterion_07_talgebra_dimension_formula():
    t0 = time.monotonic()
    for (q, n, dim) in [(8, 0, 27), (4, 0, 15), (2, 0, 9), (8, 1, 275)]:
        assert tg.total_dimension(q, n) == dim
        assert tg.make_space(q, n).dimension == dim
    _report(7, "cubic-space dimensions 27/15/9/275", t0, 5)


def test_criterion_08_norm_oracle():
    t0 = time.monotonic()
    sp = tg.make_space(8, 0)
    cal = tg.calibrate_embedding(sp)
    rng = random.Random(7)
    for _ in range(100):
        j = tg.OctonionHermitian3.from_coords([rng.randint(-9, 9) for _ in range(27)])
        el = tg.embed_jordan(sp, j, cal)
        assert tg.cubic_norm(sp, el) == tg.jordan_determinant(j)
    for _ in range(100):
        r1, r2, r3, a1, a2, a3 = (Q(rng.randint(-9, 9)) for _ in range(6))
        j = tg.OctonionHermitian3(
            r1, r2, r3,
            oct_from([a1] + [0] * 7), oct_from([a2] + [0] * 7), oct_from([a3] + [0] * 7),
        )
        assert tg.jordan_determinant(j) == det3([[r1, a1, a2], [a1, r2, a3], [a2, a3, r3]])
    _report(8, "determinant oracle: 100+100 exact equalities", t0, 60)


def test_criterion_09_norm_properties():
    t0 = time.monotonic()
    for (q, n) in [(2, 0), (4, 0), (8, 0), (8, 1)]:
        sp = tg.make_space(q, n)
        rng = random.Random(7)
        pairs = tg.so_generator_pairs(sp)
        for _ in range(50):
            el = tg.TElement.zero(sp)
            el.r1, el.r2, el.r3 = (Q(rng.randint(-5, 5)) for _ in range(3))
            el.v = [Q(rng.randint(-5, 5)) for _ in range(sp.vector_dim)]
            el.psi = [[Q(rng.randint(-5, 5)) for _ in range(sp.width)] for _ in range(sp.fund)]
            lam = Q(rng.randint(1, 7), rng.randint(1, 7))
            scaled = tg.TElement(
                lam * el.r1, lam * el.r2, lam * el.r3,
                [lam * x for x in el.v],
                [[lam * x for x in col] for col in el.psi],
            )
            assert tg.cubic_norm(sp, scaled) == lam ** 3 * tg.cubic_norm(sp, el)
            grad = tg.norm_gradient(sp, el)
            coords = el.coords()
            assert sum(g * c for g, c in zip(grad, coords)) == 3 * tg.cubic_norm(sp, el)
            pair = pairs[rng.randrange(len(pairs))]
            delta = tg.infinitesimal_rotation(sp, el, pair)
            assert sum(g * d for g, d in zip(grad, delta)) == 0
    _report(9, "homogeneity, Euler, spin invariance at four sites", t0, 600)


def test_criterion_10_rank_and_entropy():
    t0 = time.monotonic()
    sp = tg.make_space(8, 0)
    assert tg.rank(sp, diagonal(sp, 1, 1, 1)) == 3
    assert tg.rank(sp, diagonal(sp, 1, 1, 0)) == 2
    assert tg.rank(sp, diagonal(sp, 1, 0, 0)) == 1
    assert tg.rank(sp, tg.TElement.zero(sp)) == 0
    # N = -4 via diag(-1, 2, 2): entropy 2*pi to machine double precision
    el = diagonal(sp, -1, 2, 2)
    value, n_abs = tg.entropy(sp, el)
    assert tg.cubic_norm(sp, el) == -4 and n_abs == 4
    assert abs(value - 2 * math.pi) <= 1e-15 * (2 * math.pi)
    # the reported float is recomputable from the exact |N| it returns
    assert value == math.pi * math.sqrt(n_abs.numerator / n_abs.denominator)
    _report(10, "rank ladder and black-string entropy", t0, 5)
