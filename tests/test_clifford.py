import random
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import clifford_oracle
import linalg_oracle
from clifford_oracle import antisym_gamma, antisym_gamma_indexed, fierz_residual
from linalg_oracle import identity, is_diagonal, mat_mul, mat_prod, neg, pauli_string, transpose
from magicstar import talgebra
from magicstar.clifford import (
    MAX_REP_DIM,
    CliffordConstructionError,
    CliffordNoBilinearError,
    CliffordRep,
    Signature,
    build_rep,
    chiral_indices,
    chirality,
    conjugation,
    reality_class,
    rep_dim,
    verify_relations,
)
from magicstar.linalg import RowReducer


def test_base_case_dim2():
    rep = build_rep(Signature(1, 1))
    assert rep.dim == 2
    verify_relations(rep)


def test_nine_zero_dim16_all_symmetric():
    rep = build_rep(Signature(9, 0))
    assert rep.dim == 16
    assert all(transpose(g) == g for g in rep.gammas)


def test_twelve_four_dim256_chiral_halves():
    rep = build_rep(Signature(12, 4))
    assert rep.dim == 256
    plus, minus = chiral_indices(rep)
    assert len(plus) == len(minus) == 128


@pytest.mark.parametrize(
    "p,q,dim",
    [(9, 1, 32), (10, 2, 64), (11, 3, 128), (2, 0, 2), (0, 2, 4), (4, 0, 8), (5, 1, 16), (2, 1, 2),
     (1, 0, 1)],
)
def test_dims(p, q, dim):
    rep = build_rep(Signature(p, q))
    assert rep.dim == dim


def test_rep_dim_matches_build_rep():
    sigs = [Signature(p, total - p) for total in range(1, 13) for p in range(total + 1)]
    for sig in sigs + [Signature(0, 15), Signature(0, 23)]:
        try:
            rep = build_rep(sig)
        except ValueError:
            continue
        assert rep_dim(sig) == rep.dim


def _matrix_route_signatures(max_total):
    """Every signature with p + q <= max_total that the matrix route builds:
    classes 0, 1, 2, 4 and 6 mod 8 within the size limit, less class 1 with
    p = 0."""
    for total in range(1, max_total + 1):
        for p in range(total + 1):
            sig = Signature(p, total - p)
            d = (sig.p - sig.q) % 8
            if d in (3, 5, 7) or (d == 1 and p == 0):
                continue
            try:
                rep_dim(sig)
            except CliffordConstructionError:
                continue
            yield sig


def test_label_route_matches_matrix_route():
    # the labels are composed, then each gamma materialized from its label; the
    # oracle multiplies and tensors whole signed permutations
    sigs = list(_matrix_route_signatures(24))
    assert len(sigs) == 192
    for sig in sigs:
        want = clifford_oracle.construct(sig)
        got = build_rep(sig).gammas
        assert [(g.rows, g.signs) for g in got] == [(g.rows, g.signs) for g in want], sig


@pytest.mark.parametrize("q,dim", [(7, 8), (15, 128), (23, 2048)])
def test_class_one_with_p_zero_adjoins_a_minus_volume_element(q, dim):
    # Cl(0, q-1) has p-q = 2 mod 8: its volume element squares to -1 and,
    # the total being even, anticommutes with every gamma
    sig = Signature(0, q)
    rep = build_rep(sig)
    assert rep.dim == dim == rep_dim(sig)
    assert rep.metric == (-1,) * q
    clifford_oracle.verify_relations(rep)
    parent = build_rep(Signature(0, q - 1))
    assert rep.gammas[:-1] == parent.gammas
    assert rep.gammas[-1] == mat_prod(parent.gammas)


def test_size_limit_admits_qconf1_and_refuses_beyond():
    assert rep_dim(Signature(20, 4)) == MAX_REP_DIM
    for sig in [(26, 0), (21, 5), (10000, 0), (0, 10 ** 12)]:
        with pytest.raises(CliffordConstructionError, match="over the limit"):
            rep_dim(Signature(*sig))
    with pytest.raises(CliffordConstructionError, match="over the limit"):
        build_rep(Signature(26, 0))


def test_relations_verified_on_build():
    # verify_relations runs inside build_rep; re-run explicitly on a sample
    for sig in [(3, 1), (9, 0), (10, 2), (5, 1)]:
        verify_relations(build_rep(Signature(*sig)))


def test_complex_classes_refused():
    # class 7 too: the volume element of its p-q = 0 mod 8 parent squares
    # to +1, so it cannot be adjoined as a minus generator
    for p, q in [(3, 0), (5, 0), (0, 1), (1, 2), (8, 1), (10, 3), (0, 9), (6, 7)]:
        with pytest.raises(CliffordConstructionError, match="p-q = %d mod 8" % ((p - q) % 8)):
            build_rep(Signature(p, q))


def test_chirality_1_1():
    rep = build_rep(Signature(1, 1))
    om = pauli_string(rep.dim, chirality(rep))
    assert is_diagonal(om)
    assert om.signs == (1, -1)


def test_chirality_anticommutes_and_squares():
    for sig, square in [((9, 1), 1), ((10, 2), 1), ((2, 0), -1), ((0, 6), -1), ((4, 4), 1)]:
        rep = build_rep(Signature(*sig))
        om = pauli_string(rep.dim, chirality(rep))
        # the label product is the matrix product, up to the sign normalization
        assert om in (mat_prod(rep.gammas), neg(mat_prod(rep.gammas)))
        sq = mat_mul(om, om)
        assert is_diagonal(sq) and set(sq.signs) == {square}
        for g in rep.gammas:
            a = mat_mul(om, g)
            b = mat_mul(g, om)
            assert a == neg(b)


def test_chirality_odd_dimension_rejected():
    rep = build_rep(Signature(9, 0))
    with pytest.raises(ValueError):
        chirality(rep)


@pytest.mark.parametrize("sig", [(3, 1), (1, 3), (2, 0), (6, 0)])
def test_chiral_indices_names_a_chirality_squaring_to_minus_one(sig):
    # a diagonal signed permutation squares to +1, so the square is the reason
    with pytest.raises(ValueError, match="squares to -1"):
        chiral_indices(build_rep(Signature(*sig)))


def test_nine_one_chiral_16_16():
    plus, minus = chiral_indices(build_rep(Signature(9, 1)))
    assert len(plus) == len(minus) == 16


def test_conjugation_nine_zero_identity():
    rep = build_rep(Signature(9, 0))
    bf = conjugation(rep, +1)
    assert pauli_string(16, bf.C) == identity(16)
    assert bf.symmetry == 1 and bf.transpose_sign == 1
    with pytest.raises(CliffordNoBilinearError):
        conjugation(rep, -1)


def test_conjugation_nine_one_symmetric():
    rep = build_rep(Signature(9, 1))
    bf = conjugation(rep, +1)
    assert bf.symmetry == 1
    bfm = conjugation(rep, -1)
    assert bfm.symmetry == -1


def _intertwiner_space(rep, t):
    """Oracle: solve the intertwining equations C g = t g^T C entry by entry."""
    n = rep.dim
    red = RowReducer(n * n)
    for g in rep.gammas:
        gd = linalg_oracle.grid(g)
        for a in range(n):
            for b in range(n):
                # sum_k C[a,k] g[k,b] - t * sum_k g^T[a,k] C[k,b] = 0
                row = [0] * (n * n)
                for k in range(n):
                    if gd[k][b]:
                        row[a * n + k] += gd[k][b]
                    if gd[k][a]:
                        row[k * n + b] -= t * gd[k][a]
                if any(row):
                    red.add_row(row, 0)
    return linalg_oracle.kernel(red)


@pytest.mark.parametrize(
    "p,q,t,space_dim",
    [(3, 1, 1, 1), (3, 1, -1, 1), (2, 2, 1, 1), (2, 2, -1, 1), (4, 0, 1, 4)],
)
def test_conjugation_matches_solver_oracle(p, q, t, space_dim):
    # real-type signatures have a one-dimensional intertwiner space; the
    # quaternionic (4,0) case has commutant H, hence dimension four
    rep = build_rep(Signature(p, q))
    space = _intertwiner_space(rep, t)
    assert len(space) == space_dim
    bf = conjugation(rep, t)
    n = rep.dim
    flat = [Q(x) for row in linalg_oracle.grid(pauli_string(n, bf.C)) for x in row]
    red = RowReducer(space_dim)
    cert_free = True
    for pos in range(n * n):
        row = [space[k][pos] for k in range(space_dim)]
        if linalg_oracle.add_rational_row(red, row, flat[pos]) is not None:
            cert_free = False
            break
    assert cert_free, "construction lies outside the solver solution space"


def test_conjugation_defining_relations_large():
    rep = build_rep(Signature(10, 2))
    for t in (1, -1):
        bf = conjugation(rep, t)
        c = pauli_string(rep.dim, bf.C)
        for g in rep.gammas:
            lhs = mat_mul(c, g)
            rhs = mat_mul(transpose(g), c)
            assert lhs == (rhs if t == 1 else neg(rhs))
        assert transpose(c) == (c if bf.symmetry == 1 else neg(c))


def test_reality_classes():
    assert reality_class(Signature(9, 0)).name == "Majorana"
    assert reality_class(Signature(12, 4)) == reality_class(Signature(20, 4))
    rc = reality_class(Signature(12, 4))
    assert rc.name == "Majorana-Weyl" and rc.chiral
    rc17 = reality_class(Signature(17, 1))
    assert rc17.name == "Majorana-Weyl" and rc17.chiral
    assert not reality_class(Signature(10, 1)).chiral


def test_antisym_gamma_counts_and_symmetry():
    rep = build_rep(Signature(9, 0))
    k0 = antisym_gamma(rep, 0)
    assert len(k0) == 1 and k0[0] == identity(16)
    k1 = antisym_gamma(rep, 1)
    assert k1 == list(rep.gammas)
    k2 = antisym_gamma(rep, 2)
    assert len(k2) == 36
    for m in k2:
        assert transpose(m) == neg(m)


def test_antisym_gamma_k1_is_gammas_12_4():
    rep = build_rep(Signature(12, 4))
    assert antisym_gamma(rep, 1) == list(rep.gammas)


def test_antisym_gamma_matches_permutation_sum():
    # oracle: antisymmetrize the dense product over both orderings of 2 indices
    rep = build_rep(Signature(3, 1))
    for (i, j), m in antisym_gamma_indexed(rep, 2):
        gi = linalg_oracle.grid(rep.gammas[i])
        gj = linalg_oracle.grid(rep.gammas[j])
        ij = linalg_oracle.matmul(gi, gj)
        ji = linalg_oracle.matmul(gj, gi)
        md = linalg_oracle.grid(m)
        for a in range(rep.dim):
            for b in range(rep.dim):
                assert md[a][b] == Q(ij[a][b] - ji[a][b], 2)


def test_fierz_nine_zero_k2_vanishes():
    rep = build_rep(Signature(9, 0))
    C = conjugation(rep, +1)
    rng = random.Random(7)
    for _ in range(3):
        psi = [Q(rng.randint(-9, 9)) for _ in range(16)]
        assert all(x == 0 for x in fierz_residual(rep, C, 2, psi))


def test_fierz_nine_zero_k1_classical_identity():
    # gamma^mu psi (psi^T gamma_mu psi) = (psi^T psi) psi in nine Euclidean dims
    rep = build_rep(Signature(9, 0))
    C = conjugation(rep, +1)
    rng = random.Random(11)
    psi = [Q(rng.randint(-5, 5)) for _ in range(16)]
    norm = sum(x * x for x in psi)
    assert fierz_residual(rep, C, 1, psi) == [norm * x for x in psi]


def test_fierz_seventeen_zero_k2_also_vanishes():
    # C gamma_{mu nu} is antisymmetric here, so the one-argument cubic is
    # identically zero; the extension obstruction shows up only on distinct
    # spinor triples (exercised by the graded-algebra jacobiator tests).
    rep = build_rep(Signature(17, 0))
    C = conjugation(rep, +1)
    e0 = [Q(1)] + [Q(0)] * 255
    assert all(x == 0 for x in fierz_residual(rep, C, 2, e0))


def test_fierz_zero_input_and_homogeneity():
    rep = build_rep(Signature(5, 1))
    C = conjugation(rep, +1)
    assert all(x == 0 for x in fierz_residual(rep, C, 2, [Q(0)] * 16))
    rng = random.Random(13)
    psi = [Q(rng.randint(-4, 4)) for _ in range(16)]
    lam = Q(3, 2)
    scaled = fierz_residual(rep, C, 1, [lam * x for x in psi])
    base = fierz_residual(rep, C, 1, psi)
    assert scaled == [lam ** 3 * x for x in base]


def test_mod8_periodicity_of_bilinear_signs():
    for (p, q) in [(9, 0), (9, 1), (10, 2)]:
        small = build_rep(Signature(p, q))
        big = build_rep(Signature(p + 8, q))
        for t in (1, -1):
            try:
                s1 = conjugation(small, t).symmetry
            except CliffordNoBilinearError:
                with pytest.raises(CliffordNoBilinearError):
                    conjugation(big, t)
                continue
            assert conjugation(big, t).symmetry == s1


def test_fierz_chiral_block_embedding():
    rep = build_rep(Signature(9, 1))
    C = conjugation(rep, +1)
    plus, _ = chiral_indices(rep)
    rng = random.Random(19)
    short = [Q(rng.randint(-3, 3)) for _ in range(16)]
    full = [Q(0)] * 32
    for pos, val in zip(plus, short):
        full[pos] = val
    assert fierz_residual(rep, C, 1, short, block=plus) == fierz_residual(rep, C, 1, full)


# --- Pauli-label checks against the column-loop oracles ---------------------

SMALL_REPS = [build_rep(Signature(*sig)) for sig in [(1, 1), (2, 0), (0, 2), (2, 1), (3, 1), (4, 0), (5, 1)]]


@st.composite
def gamma_families(draw):
    """A built family or random labels, with the true squares or a random
    metric, and now and then one label mutated: s negated, or one bit of a
    or of b flipped."""
    if draw(st.booleans()):
        rep = draw(st.sampled_from(SMALL_REPS))
        dim, labels, metric = rep.dim, list(rep.labels), list(rep.metric)
    else:
        dim = 1 << draw(st.integers(0, 4))
        index = st.integers(0, dim - 1)
        labels = draw(st.lists(st.tuples(st.sampled_from((1, -1)), index, index), min_size=1, max_size=4))
        metric = [(-1) ** bin(a & b).count("1") for _, a, b in labels]
    if draw(st.booleans()):
        metric = draw(st.lists(st.sampled_from((1, -1)), min_size=len(labels), max_size=len(labels)))
    mutation = draw(st.sampled_from([None, "sign", "a", "b"]))
    if mutation is not None and dim > 1:
        i = draw(st.integers(0, len(labels) - 1))
        bit = 1 << draw(st.integers(0, dim.bit_length() - 2))
        s, a, b = labels[i]
        labels[i] = {"sign": (-s, a, b), "a": (s, a ^ bit, b), "b": (s, a, b ^ bit)}[mutation]
    sig = Signature(metric.count(1), metric.count(-1))
    return CliffordRep(sig, dim, tuple(labels), tuple(metric))


def _accepts(check, rep):
    try:
        check(rep)
    except AssertionError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(gamma_families())
def test_verify_relations_matches_column_loop(rep):
    # the label check accepts exactly the families that the column loop
    # accepts on the gammas the oracle builds from the labels
    assert _accepts(verify_relations, rep) == _accepts(clifford_oracle.verify_relations, rep)


def _with_label(rep, i, label):
    return replace(rep, labels=rep.labels[:i] + (label,) + rep.labels[i + 1:])


def test_mutated_gamma_rejected_on_labels():
    rep = build_rep(Signature(20, 4))
    s, a, b = rep.labels[3]
    # times Z on the lowest index bit, or X on the highest: still a Pauli
    # string, so the relations reject it
    for bad in ((s, a, b ^ 1), (s, a ^ rep.dim >> 1, b)):
        with pytest.raises(AssertionError):
            verify_relations(_with_label(rep, 3, bad))
    # a negated gamma keeps its square and anticommutes as before
    verify_relations(_with_label(rep, 3, (-s, a, b)))
    # the octonionic model's gammas are labels too, and checked the same way
    model = talgebra.make_space(8, 0).rep
    s, a, b = model.labels[1]
    with pytest.raises(AssertionError):
        verify_relations(_with_label(model, 1, (s, a, b ^ 4)))
    verify_relations(_with_label(model, 1, (-s, a, b)))


def test_a_replaced_rep_rebuilds_its_gammas():
    rep = build_rep(Signature(9, 1))
    before = rep.gammas  # built and cached
    s, a, b = rep.labels[3]
    bad = _with_label(rep, 3, (s, a, b ^ 1))
    assert bad.gammas[3] == pauli_string(rep.dim, (s, a, b ^ 1)) != before[3]
    assert bad.gammas[:3] + bad.gammas[4:] == before[:3] + before[4:]
    assert rep.gammas is before
    with pytest.raises(AssertionError):
        verify_relations(bad)


@pytest.mark.parametrize("dim,label", [
    (32, (2, 1, 1)),
    (32, (0, 1, 1)),
    (32, (1, 32, 0)),
    (32, (1, 0, 32)),
    (32, (1, -1, 0)),
    (32, (1, 0, -1)),
    (24, (1, 1, 1)),
    (0, (1, 0, 0)),
], ids=["sign", "zero-sign", "a", "b", "negative-a", "negative-b", "dim", "zero-dim"])
def test_a_label_that_does_not_act_on_the_space_is_refused(dim, label):
    # refused at construction, so verify_relations, chirality and the
    # conjugations only ever see labels that act on the space
    rep = build_rep(Signature(9, 1))
    with pytest.raises(AssertionError, match="representation space"):
        replace(rep, dim=dim, labels=rep.labels[:3] + (label,) + rep.labels[4:])


@pytest.mark.parametrize("sig,labels,metric", [
    (Signature(1, 1), ((1, 1, 0),), (1, -1)),
    (Signature(1, 1), ((1, 1, 0), (1, 1, 1)), (1,)),
    (Signature(2, 0), ((1, 1, 0), (1, 1, 1)), (1, -1)),
], ids=["one-gamma", "short-metric", "metric-of-another-signature"])
def test_gammas_that_do_not_fit_the_signature_are_refused(sig, labels, metric):
    # only the counts are checked: gamma_families draws metrics in any order
    with pytest.raises(AssertionError, match="do not fit signature"):
        CliffordRep(sig, 2, labels, metric)


def test_conjugation_matches_oracle_on_every_small_signature():
    # 119 signatures with p + q <= 14; 77 are buildable (Cl(1,0) and Cl(0,7)
    # among them), the rest are refused
    built = 0
    for total in range(1, 15):
        for p in range(total + 1):
            try:
                rep = build_rep(Signature(p, total - p))
            except ValueError:
                continue
            built += 1
            for t in (1, -1):
                try:
                    want = clifford_oracle.conjugation(rep, t)
                except CliffordNoBilinearError:
                    with pytest.raises(CliffordNoBilinearError):
                        conjugation(rep, t)
                    continue
                got = conjugation(rep, t)
                c = pauli_string(rep.dim, got.C)
                assert (c.rows, c.signs, got.symmetry) == (want.C.rows, want.C.signs, want.symmetry)
    assert built == 77


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("t", [1, -1])
def test_conjugation_of_the_octonionic_model_matches_oracle(n, t):
    rep = talgebra.make_space(8, n).rep
    want = clifford_oracle.conjugation(rep, t)
    got = conjugation(rep, t)
    c = pauli_string(rep.dim, got.C)
    assert (c.rows, c.signs, got.symmetry) == (want.C.rows, want.C.signs, want.symmetry)
