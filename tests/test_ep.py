import dataclasses
import functools
import hashlib
import json
import random
import weakref
from array import array
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import clifford_oracle
import ep_oracle
import magicstar.ep as ep_mod
import magicstar.linalg as linalg_mod
from ep_oracle import LEVEL_Q, basis_spinor, ep_scale, so_dict, so_list
from linalg_oracle import FractionReducer, grid, mat_mul, neg, pauli_string, transpose
from magicstar import talgebra
from magicstar.clifford import Signature, _prod, _rep_log2, build_rep, chirality, conjugation
from magicstar.ep import (
    BracketCoeffs,
    EPElement,
    EPError,
    bracket,
    calibrate,
    default_coeffs,
    dimension,
    element_to_json,
    ep_add,
    grade_profiles,
    jacobi_infeasibility,
    jacobiator,
    make_ep,
    random_element,
    random_spinor_element,
    signature_for,
    _describe,
    _k_act,
    _k_commutator,
    _k_pair_so,
    _tagged_jacobiator,
)
from magicstar.linalg import LANE_LIMIT, MonomialMatrix, RowReducer, _sign, _signed


def test_dimension_values():
    assert dimension("der", 0) == 52
    assert dimension("str0", 0) == 78
    assert dimension("conf", 0) == 133
    assert dimension("qconf", 0) == 248
    assert dimension("der", 1) == 392


def test_grade_profiles():
    assert grade_profiles("qconf", 0)["extended"] == [(-2, 14), (-1, 64), (0, 92), (1, 64), (2, 14)]
    assert sum(d for _, d in grade_profiles("qconf", 0)["extended"]) == 248
    assert grade_profiles("conf", 0)["extended"] == [(-2, 1), (-1, 32), (0, 67), (1, 32), (2, 1)]
    assert sum(d for _, d in grade_profiles("conf", 0)["extended"]) == 133
    assert grade_profiles("str0", 0)["canonical"] == [(-1, 16), (0, 46), (1, 16)]
    assert grade_profiles("der", 1)["canonical"] == [(0, 392)]
    assert set(grade_profiles("der", 0)) == {"canonical"}
    assert set(grade_profiles("str0", 0)) == {"canonical"}
    with pytest.raises(EPError, match="non-negative"):
        grade_profiles("qconf", -1)


def test_grade_profile_sums_match_dimension():
    for level in ("der", "str0", "conf", "qconf"):
        for n in (0, 1, 2):
            prof = grade_profiles(level, n)["canonical"]
            assert sum(d for _, d in prof) == dimension(level, n)
    for n in (0, 1, 2):
        assert sum(d for _, d in grade_profiles("qconf", n)["extended"]) == dimension("qconf", n)
        assert sum(d for _, d in grade_profiles("conf", n)["extended"]) == dimension("conf", n)


def test_signature_size_limit():
    assert signature_for("qconf", 1) == Signature(20, 4)
    assert signature_for("der", 2) == Signature(25, 0)
    for level, n in [("str0", 2), ("conf", 2), ("qconf", 2), ("der", 10 ** 9)]:
        with pytest.raises(ValueError, match="over the limit"):
            signature_for(level, n)
    with pytest.raises(ValueError, match="over the limit"):
        make_ep("str0", 2)


def test_make_ep_der0():
    sp = make_ep("der", 0)
    assert sp.rep.dim == 16
    assert len(sp.pairs) == 36
    assert sp.dim == 52


def test_make_ep_qconf1_shapes():
    sp = make_ep("qconf", 1)
    assert sp.rep.sig.p == 20 and sp.rep.sig.q == 4
    assert len(sp.spinor_support["psi"]) == 2048


def test_make_ep_str0_polarization_swaps_blocks():
    a = make_ep("str0", 0, polarization="unprimed")
    b = make_ep("str0", 0, polarization="primed")
    assert a.spinor_support["psi_p"] == b.spinor_support["psi_m"]
    assert a.spinor_support["psi_m"] == b.spinor_support["psi_p"]


def test_make_ep_refuses_primed_without_a_chiral_split():
    with pytest.raises(EPError, match="level der has no chiral split"):
        make_ep("der", 0, polarization="primed")
    for level in ("str0", "conf", "qconf"):
        assert make_ep(level, 0, polarization="primed").polarization == "primed"


@pytest.mark.parametrize("level", ["str0", "conf", "qconf"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("polarization", ["unprimed", "primed"])
def test_conjugation_swaps_halves_by_the_label_parity(level, n, polarization):
    # C = X^a Z^b sends c to c ^ a, across the halves of the chirality Z^z
    # exactly when popcount(a & z) is odd; der has no halves
    sp = make_ep(level, n, polarization=polarization)
    a, z = conjugation(sp.rep, 1).C[1], chirality(sp.rep)[2]
    assert ep_oracle.swaps_halves(sp) == {_sign(a & z) == -1}
    assert ep_oracle.swaps_halves(sp) == {level == "str0"}


@pytest.mark.parametrize("level", ["der", "str0", "conf", "qconf"])
@pytest.mark.parametrize("n", [0, 1])
def test_pair_forms_share_one_transpose_sign(level, n):
    # (C gamma_a gamma_b)^T = -sigma C gamma_a gamma_b for every a != b, so
    # make_ep checks one pair; sigma is -1 only at conf, whose same-block
    # channels pair through C itself
    rep = make_ep(level, n).rep
    c = conjugation(rep, 1)
    labels = rep.labels
    forms = [_prod((c.C, labels[a], labels[b])) for a in range(len(labels)) for b in range(a)]
    assert {_sign(f[1] & f[2]) for f in forms} == {-c.symmetry}
    assert c.symmetry == (-1 if level == "conf" else 1)
    if n == 0:
        # the same on the matrices
        _, _, matrices = oracle_space(level, 0, "unprimed")
        assert all(transpose(m) == (m if c.symmetry == -1 else neg(m)) for m in matrices.values())


def test_make_ep_refuses_halves_that_the_conjugation_does_not_pair(monkeypatch):
    # str0's C swaps the halves: with both spinor blocks on plus, their
    # pairing would be identically zero
    desc = ep_mod._LEVELS["str0"]
    blocks = tuple((name, g, "plus" if name == "psi_m" else s) for name, g, s in desc.blocks)
    monkeypatch.setitem(ep_mod._LEVELS, "str0", dataclasses.replace(desc, blocks=blocks))
    with pytest.raises(AssertionError, match="conjugation chirality behavior does not match the level"):
        make_ep("str0", 0)


def test_make_ep_refuses_a_same_block_channel_that_is_not_antisymmetric(monkeypatch):
    # conf's C is antisymmetric, so C gamma_a gamma_b is symmetric: a
    # psi_p x psi_p -> so channel would break the bracket's antisymmetry
    desc = ep_mod._LEVELS["conf"]
    channels = desc.channels + (("psi_p", "psi_p", "extra", "so"),)
    monkeypatch.setitem(ep_mod._LEVELS, "conf", dataclasses.replace(desc, channels=channels))
    with pytest.raises(AssertionError, match="conjugation symmetry does not match the level"):
        make_ep("conf", 0)


def test_make_ep_refuses_bookkeeping_off_the_dimension_formula(monkeypatch):
    # the components read one more bit of spinor dimension than build_rep gives
    monkeypatch.setattr(ep_mod, "_rep_log2", lambda sig: _rep_log2(sig) + 1)
    with pytest.raises(AssertionError, match="component bookkeeping disagrees with the dimension formula"):
        make_ep("der", 0)


@pytest.mark.parametrize("level", ["der", "str0", "conf", "qconf"])
def test_bracket_antisymmetry(level):
    sp = make_ep(level, 0)
    rng = random.Random(5)
    for _ in range(5):
        x = random_element(sp, rng)
        y = random_element(sp, rng)
        assert ep_add(bracket(sp, x, y), bracket(sp, y, x)).is_zero()
        assert bracket(sp, x, x).is_zero()


def test_bracket_grade_additivity_conf():
    sp = make_ep("conf", 0)
    rng = random.Random(9)
    el = random_element(sp, rng)
    singles = {}
    for name, val in el.blocks.items():
        singles[name] = EPElement({name: val})
    for bx, x in singles.items():
        for by, y in singles.items():
            out = bracket(sp, x, y)
            want = sp.grades[bx] + sp.grades[by]
            for (name, _key), _val in out.numerators():
                assert sp.grades[name] == want


def test_der_so_bracket_single_commutator():
    sp = make_ep("der", 0)
    m12 = EPElement({"so": so_list(sp, {(0, 1): 1})})
    m23 = EPElement({"so": so_list(sp, {(1, 2): 1})})
    out = bracket(sp, m12, m23)
    assert list(out.blocks) == ["so"]
    assert so_dict(sp, out.blocks["so"]) == {(0, 2): 1}


def test_der_basis_spinor_bracket_reads_off_gammas():
    sp = make_ep("der", 0)
    x = basis_spinor(sp, "psi", 0)
    y = basis_spinor(sp, "psi", 1)
    out = bracket(sp, x, y)
    so = so_dict(sp, out.blocks["so"])
    g, metric = sp.rep.gammas, sp.rep.metric
    c = pauli_string(sp.rep.dim, conjugation(sp.rep, 1).C)
    for a, b in sp.pairs:
        # the pair form +-C gamma_a gamma_b, with the sign eta_a eta_b
        m = mat_mul(c, mat_mul(g[a], g[b]))
        expected = metric[a] * metric[b] * grid(m)[0][1]
        assert so.get((a, b), 0) == expected
    assert any(so.values())


@pytest.mark.parametrize("level,n", [("der", 0), ("der", 1), ("str0", 0), ("conf", 0), ("qconf", 0)])
def test_mixed_jacobiator_vanishes(level, n):
    # one grade-zero orthogonal/scalar argument forces exact equivariance
    sp = make_ep(level, n)
    rng = random.Random(13)
    full = random_element(sp, rng)
    grade0 = {k: v for k, v in full.blocks.items() if k in ("so", "D")}
    x = EPElement(grade0)
    y = random_spinor_element(sp, rng, -5, 5)
    z = random_spinor_element(sp, rng, -5, 5)
    assert jacobiator(sp, x, y, z).is_zero()


def test_der0_jacobiator_zero_on_random_triples():
    sp = make_ep("der", 0)
    rng = random.Random(17)
    for _ in range(10):
        x = random_spinor_element(sp, rng)
        y = random_spinor_element(sp, rng)
        z = random_spinor_element(sp, rng)
        assert jacobiator(sp, x, y, z).is_zero()


def test_calibrate_der_returns_unit():
    rep = calibrate("der", 0, seed=7)
    assert rep.coeffs.values["pair_so"] == 1


def test_calibrate_refuses_n_other_than_0(monkeypatch):
    """Jacobi fails at n >= 1, where jacobi_infeasibility certifies it;
    calibrate refuses such n before it builds a space."""
    def build(*args, **kwargs):
        raise AssertionError("calibrate built a space")

    monkeypatch.setattr(ep_mod, "make_ep", build)
    for n in (1, 2, -1):
        with pytest.raises(EPError, match="jacobi_infeasibility certifies n >= 1"):
            calibrate("der", n)


def test_calibrate_refuses_a_nonzero_untagged_jacobiator(monkeypatch):
    # der has no unknown channel: one so component left over by the bracket
    # is a row 0 = nonzero, which no coefficient assignment can meet
    real = ep_mod._tagged_jacobiator

    def skewed(space, x, y, z, unknowns):
        out = real(space, x, y, z, unknowns)
        extra = EPElement({"so": [1] + [0] * (len(space.pairs) - 1)})
        out[()] = ep_add(out[()], extra) if () in out else extra
        return out

    monkeypatch.setattr(ep_mod, "_tagged_jacobiator", skewed)
    with pytest.raises(EPError, match="closes level der at n=0: construction bug"):
        calibrate("der", 0)


def test_calibrate_refuses_an_unknown_no_row_determines(monkeypatch):
    # a tag that names no channel has a zero column in every row
    real = ep_mod._Level.tags
    monkeypatch.setattr(ep_mod._Level, "tags", lambda self, inputs: real(self, inputs) + (("phantom",),))
    with pytest.raises(EPError, match="underdetermined beyond rescaling: nullspace dimension 1"):
        calibrate("str0", 0)


def test_calibrate_refuses_a_product_tag_off_its_factors(monkeypatch):
    # conf's last tag is the product apex_down * k_pair of two solved ones
    assert _describe("conf").tags(tuple(make_ep("conf", 0).grades))[-1] == ("apex_down", "k_pair")
    real = RowReducer.solution
    monkeypatch.setattr(RowReducer, "solution", lambda self: real(self)[:-1] + [real(self)[-1] + 1])
    with pytest.raises(EPError, match="coefficient products are inconsistent"):
        calibrate("conf", 0)


def test_calibrate_refuses_coefficients_that_fail_fresh_triples(monkeypatch):
    # the re-verification runs on the unit coefficients, where pair_R = 1
    # leaves str0's jacobiator nonzero
    monkeypatch.setattr(ep_mod, "replace", lambda space, **changes: space)
    with pytest.raises(EPError, match="calibrated coefficients fail re-verification"):
        calibrate("str0", 0)


def test_calibrate_str0_unique_ratio():
    rep = calibrate("str0", 0, seed=7)
    assert rep.coeffs.values["pair_so"] == 1
    assert rep.coeffs.values["pair_R"] == Q(3, 2)


def test_calibrate_str0_seed_independent():
    a = calibrate("str0", 0, seed=7)
    b = calibrate("str0", 0, seed=23)
    assert a.coeffs.values == b.coeffs.values


def test_calibrated_str0_closes_on_fresh_triples():
    rep = calibrate("str0", 0, seed=7)
    sp = make_ep("str0", 0, rep.coeffs)
    rng = random.Random(99)
    for _ in range(20):
        x = random_element(sp, rng)
        y = random_element(sp, rng)
        z = random_element(sp, rng)
        assert jacobiator(sp, x, y, z).is_zero()


def test_uncalibrated_str0_fails_jacobi():
    # default unit coefficients are not the closing ones: pair_R must be 3/2
    sp = make_ep("str0", 0, default_coeffs("str0"))
    rng = random.Random(31)
    seen_nonzero = False
    for _ in range(10):
        x = random_spinor_element(sp, rng)
        y = random_spinor_element(sp, rng)
        z = random_spinor_element(sp, rng)
        if not jacobiator(sp, x, y, z).is_zero():
            seen_nonzero = True
            break
    assert seen_nonzero


def test_infeasibility_rejects_n0():
    with pytest.raises(EPError):
        jacobi_infeasibility("der", 0, samples=1, seed=7)


def assert_certificate_sound(rep):
    """y^T A = 0 and y^T b != 0 over the sampled rows."""
    # this one check covers every sign of the pinned channels, so no run
    # per sign is made: the rows are over Q with the pinned channels at 1,
    # so they are infeasible over C too, and any assignment whose pinned
    # channels are nonzero rescales over C to pinned = 1, because the
    # pinned weights are independent (test_rescaling_weight_rank)
    cert = dict(rep.certificate)
    row_map = {ref: (coeffs, rhs) for ref, coeffs, rhs in rep.rows}
    for j in range(len(rep.unknowns)):
        assert sum(c * row_map[ref][0][j] for ref, c in cert.items()) == 0
    assert sum(c * row_map[ref][1] for ref, c in cert.items()) != 0


class _FractionRows(FractionReducer):
    """The Fraction oracle behind ``RowReducer.add_row(coeffs, rhs, den)``."""

    def add_row(self, coeffs, rhs, den=1):
        return super().add_row([Q(c, den) for c in coeffs], Q(rhs, den))


@pytest.mark.parametrize("run", [
    lambda: calibrate("der", 0, seed=7),
    lambda: calibrate("str0", 0, seed=3),
    lambda: jacobi_infeasibility("der", 1, samples=3, seed=7),
    lambda: jacobi_infeasibility("str0", 1, samples=50, seed=11, polarization="primed"),
], ids=["calibrate-der", "calibrate-str0", "certify-der", "certify-str0-primed"])
def test_int_rows_give_the_fraction_reducers_results(monkeypatch, run):
    # ep feeds int numerators over one denominator per triple; the Fraction
    # oracle fed the same rows as Fractions gives the same calibrated
    # values, certificates and rows, exactly
    got = run()
    monkeypatch.setattr(ep_mod, "RowReducer", _FractionRows)
    assert got == run()


def test_der1_certificate_and_witness():
    rep = jacobi_infeasibility("der", 1, samples=6, seed=7)
    assert rep.status == "violated"
    assert rep.witness_index is not None
    assert rep.witness is not None
    assert_certificate_sound(rep)


def test_der2_certificate_and_witness():
    # Cl(25,0), dimension 4096: the one level inside the size limit at n = 2
    rep = jacobi_infeasibility("der", 2, samples=1)
    assert rep.status == "violated"
    assert rep.witness_index == 0
    assert set(rep.witness) == {"x", "y", "z"}
    assert len(rep.witness["x"]["psi"]) == 4096
    assert_certificate_sound(rep)


def test_der1_stops_once_decided():
    # at seed 7 triple 0 already gives both the certificate and the witness
    rep = jacobi_infeasibility("der", 1, samples=6, seed=7)
    assert rep.samples == 6
    assert rep.triples_evaluated == 1
    assert rep.witness_index == 0
    assert all(ref[0] == 0 for ref, _ in rep.certificate)


@pytest.mark.parametrize("level", ep_mod.LEVELS)
def test_witness_is_the_certificates_last_triple(level):
    # sampling stops at the first certificate; where no channel is unknown
    # the system has no columns, so that certificate is the first nonzero
    # jacobiator and its triple is the witness
    sp = make_ep(level, 1)
    pinned_only = not _describe(level).unknowns
    for seed in range(1, 6):
        rep = jacobi_infeasibility(level, 1, seed=seed)
        assert rep.status == "violated"
        last = rep.triples_evaluated - 1
        assert max(ref[0] for ref, _ in rep.certificate) == last
        assert (rep.witness is not None) == (rep.witness_index is not None) == pinned_only
        if pinned_only:
            assert rep.witness_index == last
            assert all(ref[0] == last for ref, _ in rep.certificate)
            rng = random.Random(seed)
            drawn = [random_spinor_element(sp, rng) for _ in range(3 * rep.triples_evaluated)][-3:]
            assert rep.witness == {k: element_to_json(sp, el) for k, el in zip("xyz", drawn)}


def test_witness_is_drawn_after_a_vanishing_triple(monkeypatch):
    # triple 0 is zeroed, so its jacobiator feeds no row, and the witness
    # and every certificate row come from triple 1
    real, drawn = ep_mod.random_spinor_element, []

    def draw(space, rng):
        drawn.append(real(space, rng))
        if len(drawn) > 3:
            return drawn[-1]
        return EPElement({name: [0] * len(col) for name, col in drawn[-1].blocks.items()})

    monkeypatch.setattr(ep_mod, "random_spinor_element", draw)
    rep = jacobi_infeasibility("der", 1, samples=5, seed=7)
    assert (rep.triples_evaluated, rep.witness_index) == (2, 1)
    assert all(ref[0] == 1 for ref, _ in rep.certificate)
    sp = make_ep("der", 1)
    assert rep.witness == {k: element_to_json(sp, el) for k, el in zip("xyz", drawn[3:])}


def test_str01_certificate():
    rep = jacobi_infeasibility("str0", 1, samples=6, seed=7)
    assert rep.status == "violated"
    assert_certificate_sound(rep)


def test_der1_basis_witness_search():
    sp = make_ep("der", 1)
    hit = ep_oracle.find_basis_witness(sp, limit=200)
    assert hit is not None
    a, b, c = hit
    x = basis_spinor(sp, "psi", a)
    y = basis_spinor(sp, "psi", b)
    z = basis_spinor(sp, "psi", c)
    assert not jacobiator(sp, x, y, z).is_zero()


def test_scale_and_add_helpers():
    sp = make_ep("der", 0)
    rng = random.Random(41)
    x = random_spinor_element(sp, rng)
    y = ep_scale(x, Q(3))
    z = ep_add(y, ep_scale(x, Q(-3)))
    assert z.is_zero()


def test_level_q_correspondence():
    # level q acts on 8 + q + 8n gammas: so(9), so(9,1), so(10,2), so(12,4)
    # at n = 0, eight more generators per unit of n
    assert LEVEL_Q == {"der": 1, "str0": 2, "conf": 4, "qconf": 8}
    for level, q in LEVEL_Q.items():
        for n in (0, 1):
            assert signature_for(level, n).total == 8 + q + 8 * n


# ---------------------------------------------------------------------------
# channel bookkeeping derived from the level descriptions
# ---------------------------------------------------------------------------

# each level's channel bookkeeping written out: pinned channels, unknown
# channels, calibration tags, spinor-sector tags
EXPECTED_CHANNELS = {
    "der": (("pair_so",), (), (), ()),
    "str0": (("pair_so",), ("pair_R",), (("pair_R",),), (("pair_R",),)),
    "conf": (
        ("apex_up", "transfer_up", "transfer_down"),
        ("apex_down", "k_pair", "pair_so", "pair_R"),
        (("apex_down",), ("k_pair",), ("pair_R",), ("pair_so",), ("apex_down", "k_pair")),
        (("apex_down",), ("pair_R",), ("pair_so",)),
    ),
    "qconf": (("pair_so",), (), (), ()),
}


@pytest.mark.parametrize("level", sorted(EXPECTED_CHANNELS))
def test_derived_channels_match_literals(level):
    desc = _describe(level)
    blocks = [name for name, _, _ in desc.blocks]
    spinors = [name for name, _, support in desc.blocks if support]
    got = (desc.pinned, desc.unknowns, desc.tags(["so"] + blocks), desc.tags(spinors))
    assert got == EXPECTED_CHANNELS[level]
    assert default_coeffs(level).normalized == desc.pinned


def weight_rank(desc):
    red = RowReducer(len(desc.rescaled))
    for w in desc.weights.values():
        red.add_row(w, 0)
    return red.rank()


@pytest.mark.parametrize("level,rank,kernel", [
    ("conf", 3, {"psi_p": 1, "psi_m": -1, "K_p": 2, "K_m": -2}),
    ("str0", 1, {"psi_p": 1, "psi_m": -1}),
    ("der", 1, None),
    ("qconf", 1, None),
])
def test_rescaling_weight_rank(level, rank, kernel):
    # rank = number of pinned channels; the kernel is the rescaling that
    # moves no channel, so it pins nothing
    desc = _describe(level)
    assert weight_rank(desc) == rank == len(desc.pinned)
    if kernel is not None:
        assert sorted(desc.rescaled) == sorted(kernel)
        for w in desc.weights.values():
            assert sum(kernel[b] * x for b, x in zip(desc.rescaled, w)) == 0


# ---------------------------------------------------------------------------
# the element form: int numerators over one shared denominator
# ---------------------------------------------------------------------------

PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]
SPINOR_LEN = 6

# the properties draw one seed and build their data from it: drawing lists
# of scalars through Hypothesis costs far more than the code under test
SEEDS = st.integers(0, 2 ** 64 - 1)


def random_rational(rng):
    """0, an int in [-9, 9] or a fraction in [-9, 9] with denominator up to
    12, a third each."""
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    den = rng.randint(1, 12)
    return Q(rng.randint(-9 * den, 9 * den), den)


def fraction_blocks(rng):
    """Blocks shaped like an ep element, with int and Fraction entries: so
    over ``PAIRS``, mostly zero, a scalar and spinor columns."""
    blocks = {}
    if rng.random() < 0.5:
        keys = set(rng.sample(range(len(PAIRS)), rng.randint(0, 6)))
        blocks["so"] = [random_rational(rng) if k in keys else 0 for k in range(len(PAIRS))]
    if rng.random() < 0.5:
        blocks["D"] = [random_rational(rng)]
    for name in ("psi_p", "psi_m"):
        if rng.random() < 0.5:
            blocks[name] = [random_rational(rng) for _ in range(SPINOR_LEN)]
    return blocks


def entrywise(blocks):
    """Nonzero ((block, index), Fraction) entries of raw blocks."""
    return {(name, k): Q(v) for name, val in blocks.items() for k, v in enumerate(val) if v}


def numerators(el):
    for val in el.blocks.values():
        yield from val


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_element_reads_back_fraction_blocks(seed):
    rng = random.Random(seed)
    raw, raw_den = fraction_blocks(rng), rng.randint(1, 6)
    # int numerators over one den, folded from the Fraction entries
    blocks, den = ep_oracle.fold(raw, raw_den)
    el = EPElement(blocks, den)
    assert (el.blocks, el.den) == (blocks, den)
    assert all(type(v) is int for v in numerators(el))
    assert type(el.den) is int and el.den > 0
    got = list(ep_oracle.values(el))
    assert dict(got) == {k: v / raw_den for k, v in entrywise(raw).items()}
    assert [key for key, _ in got] == sorted(key for key, _ in got)
    for _, v in got:
        assert type(v) is (int if el.den == 1 else Q)


@settings(max_examples=80, deadline=None)
@given(SEEDS)
def test_add_and_scale_match_fraction_arithmetic(seed):
    rng = random.Random(seed)
    a_blocks, b_blocks, c = fraction_blocks(rng), fraction_blocks(rng), random_rational(rng)
    a, b = EPElement(*ep_oracle.fold(a_blocks)), EPElement(*ep_oracle.fold(b_blocks))
    ea, eb = entrywise(a_blocks), entrywise(b_blocks)
    total = {k: ea.get(k, 0) + eb.get(k, 0) for k in ea.keys() | eb.keys()}
    assert dict(ep_oracle.values(ep_add(a, b))) == {k: v for k, v in total.items() if v}
    scaled = {k: c * v for k, v in ea.items()}
    assert dict(ep_oracle.values(ep_scale(a, c))) == {k: v for k, v in scaled.items() if v}


# sha256 prefixes of random_element, random_spinor_element and basis_spinor
# at seed 5, as built when every element went through the Fraction scan,
# hashed in the earlier block shapes (so a pair-dict, a scalar a bare int)
SEEDED_DIGESTS = {
    "der": "fb3dfa1a88afa708",
    "str0": "31d6166e0ef37ab0",
    "conf": "e9c23d95c5abee0a",
    "qconf": "1ce3e8cc4d438de7",
}


@pytest.mark.parametrize("level", sorted(SEEDED_DIGESTS))
def test_seeded_elements_are_unchanged(level):
    sp = make_ep(level, 0)
    rng = random.Random(5)
    els = [
        random_element(sp, rng),
        random_spinor_element(sp, rng),
        basis_spinor(sp, sp.spinor_blocks()[-1], 3),
    ]
    legacy = [(sorted(ep_oracle.legacy_blocks(sp, e).items()), e.den) for e in els]
    digest = hashlib.sha256(repr(legacy).encode())
    assert digest.hexdigest()[:16] == SEEDED_DIGESTS[level]
    for el in els:
        assert all(type(v) is int for v in numerators(el))
        again = EPElement(el.blocks)
        assert (again.blocks, again.den) == (el.blocks, 1)


# sha256 prefixes of json.dumps(element_to_json(...)) of random_element at
# seed 5, keys in emitted order: so as "a,b" keys, scalars as one value,
# spinors as columns
ELEMENT_JSON_DIGESTS = {
    "der": "8010fda171bf160a",
    "str0": "bae1b97547d89ca4",
    "conf": "95a0cda355cd91b8",
    "qconf": "aefee9f1d9ad1c56",
}


@pytest.mark.parametrize("level", sorted(ELEMENT_JSON_DIGESTS))
def test_element_to_json_is_unchanged_on_every_block_kind(level):
    sp = make_ep(level, 0)
    out = element_to_json(sp, random_element(sp, random.Random(5)))
    assert set(out) == set(sp.grades)
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest[:16] == ELEMENT_JSON_DIGESTS[level]


STR0_CLOSING = BracketCoeffs({"pair_so": Q(1), "pair_R": Q(3, 2)}, ("pair_so",))


@functools.lru_cache(maxsize=None)
def space_for(level):
    return make_ep(level, 0, STR0_CLOSING if level == "str0" else None)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["der", "str0"]), SEEDS)
def test_bracket_bilinear_in_rational_scale(level, seed):
    sp = space_for(level)
    rng = random.Random(seed)
    den = rng.randint(1, 30)
    c = Q(rng.randint(-20 * den, 20 * den), den)
    x = ep_scale(random_element(sp, rng), Q(1, 3))
    y = random_element(sp, rng)
    left = bracket(sp, ep_scale(x, c), y)
    right = ep_scale(bracket(sp, x, y), c)
    assert list(ep_oracle.values(left)) == list(ep_oracle.values(right))


@functools.lru_cache(maxsize=None)
def calibrated_space(level):
    return make_ep(level, 0, calibrate(level, 0, seed=7).coeffs)


@pytest.mark.parametrize("level", ["str0", "conf"])
def test_calibrated_bracket_numerators_are_int(level):
    sp = calibrated_space(level)
    rng = random.Random(3)
    dens = set()
    for _ in range(3):
        x, y, z = (random_element(sp, rng) for _ in range(3))
        for el in (bracket(sp, x, y), bracket(sp, bracket(sp, x, y), z), jacobiator(sp, x, y, z)):
            assert all(type(v) is int for v in numerators(el))
            assert type(el.den) is int and el.den > 0
            dens.add(el.den)
    # the calibrated coefficients put a denominator above 1 somewhere
    assert max(dens) > 1


# ---------------------------------------------------------------------------
# the gamma-gather kernels against the per-pair reference kernels
# ---------------------------------------------------------------------------

KERNEL_SPACES = [
    ("der", 0, "unprimed"),
    ("str0", 0, "unprimed"),
    ("str0", 0, "primed"),
    ("conf", 0, "unprimed"),
    ("qconf", 0, "unprimed"),
    ("der", 1, "unprimed"),
]


@functools.lru_cache(maxsize=None)
def oracle_space(level, n, polarization):
    sp = make_ep(level, n, polarization=polarization)
    return sp, ep_oracle.pair_actions(sp), ep_oracle.pair_forms(sp)


def huge(rng):
    """An int of magnitude 2^30 to 2^70, of either sign."""
    return rng.choice((1, -1)) * rng.randint(2 ** 30, 2 ** 70)


def draw_so(rng, sp):
    """An so pair-dict: empty, a single pair, sparse, dense, or sparse with
    huge entries."""
    shape = rng.choice(["empty", "single", "sparse", "dense", "huge"])
    if shape == "empty":
        return {}
    if shape == "single":
        return {rng.choice(sp.pairs): rng.choice((-1, 1)) * rng.randint(1, 9)}
    keep = 1.0 if shape == "dense" else 0.1
    entry = huge if shape == "huge" else (lambda rng: rng.randint(-9, 9))
    so = {key: entry(rng) for key in sp.pairs if rng.random() < keep}
    return {key: v for key, v in so.items() if v}


def alone(u, v):
    """The one term (1, u, v, no packs held) of a kernel call."""
    return [(1, u, v, None)]


def listed(sp, result):
    """An oracle's (pair-dict, den_factor) with the so value as a list over
    the pairs, the form the kernels return."""
    value, den_factor = result
    return so_list(sp, value), den_factor


def draw_spinor(rng, sp, block):
    """A full column on the block's support: zero, one-hot, sparse, dense,
    or sparse with huge entries."""
    support = sp.spinor_support[block]
    col = [0] * sp.rep.dim
    shape = rng.choice(["zero", "one-hot", "sparse", "dense", "huge"])
    if shape == "one-hot":
        col[rng.choice(support)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    elif shape != "zero":
        keep = 1.0 if shape == "dense" else 0.05
        entry = huge if shape == "huge" else (lambda rng: rng.randint(-99, 99))
        for i in support:
            if rng.random() < keep:
                col[i] = entry(rng)
    return col


# the kernel properties draw a space and one seed, and build the operands
# from the seed; "huge" shapes put the action on both sides of the lane bound
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), SEEDS)
def test_act_matches_pair_actions(case, seed):
    sp, actions, _ = oracle_space(*case)
    rng = random.Random(seed)
    x = draw_so(rng, sp)
    for block in sp.spinor_blocks():
        psi = draw_spinor(rng, sp, block)
        assert _k_act(sp, ("so", block), alone(so_list(sp, x), psi)) == ep_oracle.act(sp, actions, x, psi)
        # two and three terms, some with packs held, against the sum of the
        # per-term actions
        for count in (2, 3):
            terms = [(rng.choice((-3, -1, 1, 2)), draw_so(rng, sp), draw_spinor(rng, sp, block), rng.choice((None, [])))
                     for _ in range(count)]
            want = [0] * sp.rep.dim
            for c, xt, psit, _ in terms:
                acted, den_factor = ep_oracle.act(sp, actions, xt, psit)
                want = [w + c * v for w, v in zip(want, acted)]
            got = _k_act(sp, ("so", block), [(c, so_list(sp, xt), psit, held) for c, xt, psit, held in terms])
            assert got == (want, den_factor)


def count_lane_paths(monkeypatch, paths):
    """Append, per ``lane_sums`` call of an ``ep`` kernel, the path its
    rows came from: the lane width in bits, or "entries"."""
    lane_sums = ep_mod.lane_sums

    def counted(*args):
        rows = list(lane_sums(*args))
        paths.append(8 * rows[0].itemsize if isinstance(rows[0], array) else "entries")
        return iter(rows)

    monkeypatch.setattr(ep_mod, "lane_sums", counted)


def test_act_matches_pair_actions_at_the_lane_bound(monkeypatch):
    # sum |x| * max |psi| at LANE_LIMIT - 1 packs, with some lane of the
    # row at that magnitude; one step further sums entry by entry
    sp, actions, _ = oracle_space("der", 0, "unprimed")
    paths = []
    count_lane_paths(monkeypatch, paths)
    for x in ({(0, 1): 1}, {(0, 1): -8}, {(0, 1): 1, (0, 2): 1}):
        total = sum(map(abs, x.values()))
        cap = (LANE_LIMIT - 1) // total
        for peak in (cap, cap + 1):
            for sign in (1, -1):
                psi = [sign * peak] * sp.rep.dim
                got = _k_act(sp, ("so", "psi"), alone(so_list(sp, x), psi))
                assert got == ep_oracle.act(sp, actions, x, psi)
                assert max(map(abs, got[0])) == total * peak
        assert paths == [32, 32, "entries", "entries"]
        paths.clear()


def test_act_matches_pair_actions_at_the_narrow_lane_edge(monkeypatch):
    # two terms, each alone below LANE_LIMIT, whose sum reaches it: the one
    # bound of the sum picks the path, with some lane of the sum at
    # 2^31 - 1, the edge of a 32-bit lane
    sp, actions, _ = oracle_space("der", 0, "unprimed")
    paths = []
    count_lane_paths(monkeypatch, paths)
    x = {(0, 1): 1}
    for peak in ((LANE_LIMIT - 1) // 2, LANE_LIMIT // 2):
        for sign in (1, -1):
            psi = [sign * peak] * sp.rep.dim
            got = _k_act(sp, ("so", "psi"), alone(so_list(sp, x), psi) * 2)
            acted, den_factor = ep_oracle.act(sp, actions, x, psi)
            assert got == ([2 * v for v in acted], den_factor)
            assert max(map(abs, got[0])) == 2 * peak
    assert paths == [32, 32, "entries", "entries"]


ZERO_AND_ONE_PAIR_SPACES = [(level, n) for level in ep_mod.LEVELS for n in (0, 1)]


@pytest.mark.parametrize("level,n", ZERO_AND_ONE_PAIR_SPACES)
def test_act_reads_only_what_a_zero_or_one_pair_x_reaches(monkeypatch, level, n):
    # a zero x returns the zero column without a sum; a one-pair x packs
    # the one gamma_b psi it reaches and sums one row
    sp = make_ep(level, n)
    g = clifford_oracle.gammas(sp.rep)
    rng = random.Random(n)
    packs, sums, paths = [], [], []
    pack_lanes, unpack_lanes = linalg_mod.pack_lanes, linalg_mod.unpack_lanes
    monkeypatch.setattr(linalg_mod, "pack_lanes", lambda *args: packs.append(args) or pack_lanes(*args))
    monkeypatch.setattr(linalg_mod, "unpack_lanes", lambda *args: sums.append(args) or unpack_lanes(*args))
    count_lane_paths(monkeypatch, paths)
    for block in sp.spinor_blocks():
        psi = [0] * sp.rep.dim
        for c in sp.spinor_support[block]:
            psi[c] = rng.randint(-9, 9)
        psi[sp.spinor_support[block][0]] = 7  # not zero
        assert _k_act(sp, ("so", block), alone([0] * len(sp.pairs), psi)) == ep_oracle.act(sp, {}, {}, psi)
        assert (packs, sums, paths) == ([], [], [])
        for key in (sp.pairs[0], sp.pairs[-1], rng.choice(sp.pairs)):
            x = {key: rng.choice((-3, 5))}
            action = {key: mat_mul(g[key[0]], g[key[1]])}
            assert _k_act(sp, ("so", block), alone(so_list(sp, x), psi)) == ep_oracle.act(sp, action, x, psi)
            assert (len(packs), len(sums), paths) == (1, 1, [32])
            packs.clear()
            sums.clear()
            paths.clear()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), SEEDS)
def test_pair_so_matches_pair_forms(case, seed):
    sp, _, forms = oracle_space(*case)
    rng = random.Random(seed)
    blocks = sp.spinor_blocks()
    for bx in blocks:
        for by in blocks:
            psi, phi = draw_spinor(rng, sp, bx), draw_spinor(rng, sp, by)
            got = _k_pair_so(sp, (bx, by), alone(psi, phi))
            assert got == listed(sp, ep_oracle.pair_so(sp, forms, psi, phi))


def test_pair_so_matches_pair_forms_at_the_narrow_lane_edge(monkeypatch):
    # a lane of row a is at most |image| * max |psi| * max |phi|; operands
    # at LANE_LIMIT - 1 pack, with the lane of one pair at 2^31 - 1, the
    # edge of a 32-bit lane; exactly at the bound the rows are summed entry
    # by entry
    paths = []
    count_lane_paths(monkeypatch, paths)
    for case in (("der", 0, "unprimed"), ("str0", 0, "unprimed")):
        sp, _, forms = oracle_space(*case)
        bx, by = sp.spinor_blocks()[0], sp.spinor_blocks()[-1]
        support = sp.spinor_support[by]
        # psi[form.rows[c]] = form.signs[c] puts every term of the pair
        # (0, 1) at the same sign
        form = mat_mul(pauli_string(sp.rep.dim, conjugation(sp.rep, 1).C), mat_mul(sp.rep.gammas[0], sp.rep.gammas[1]))
        for q in (1, 2):
            cap = (LANE_LIMIT - 1) // (len(support) * q)
            for peak in (cap, cap + 1):
                for sign in (1, -1):
                    psi, phi = [0] * sp.rep.dim, [0] * sp.rep.dim
                    for c in support:
                        psi[form.rows[c]] = sign * peak * form.signs[c]
                        phi[c] = q
                    got = _k_pair_so(sp, (bx, by), alone(psi, phi))
                    assert got == listed(sp, ep_oracle.pair_so(sp, forms, psi, phi))
                    assert abs(got[0][sp.pairs.index((0, 1))]) == len(support) * peak * q
            assert len(support) * (cap + 1) * q == LANE_LIMIT
            assert paths == [32, 32, "entries", "entries"]
            paths.clear()


def test_pair_so_matches_pair_forms_at_the_lane_bound(monkeypatch):
    # a zero operand beside one past LANE_LIMIT: the guard counts the zero
    # as 1, so the other is never packed
    paths = []
    count_lane_paths(monkeypatch, paths)
    for case in (("der", 0, "unprimed"), ("str0", 0, "unprimed")):
        sp, _, _ = oracle_space(*case)
        by = sp.spinor_blocks()[-1]
        support = sp.spinor_support[by]
        zero, big = [0] * sp.rep.dim, [0] * sp.rep.dim
        for c in support:
            big[c] = LANE_LIMIT + 5
        for psi, phi in ((zero, big), (big, zero)):
            assert _k_pair_so(sp, (by, by), alone(psi, phi)) == ([0] * len(sp.pairs), 1)
        assert paths == ["entries", "entries"]
        paths.clear()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_SPACES), SEEDS)
def test_commutator_matches_endpoint_index(case, seed):
    sp, _, _ = oracle_space(*case)
    rng = random.Random(seed)
    x, y = draw_so(rng, sp), draw_so(rng, sp)
    # the drawn x, then x lifted past the lane bound m * max |x| * max |y|
    for x in (x, {key: v << 63 for key, v in x.items()}):
        got = _k_commutator(sp, ("so", "so"), alone(so_list(sp, x), so_list(sp, y)))
        assert got == listed(sp, ep_oracle.commutator(sp, x, y))


def test_commutator_matches_endpoint_index_at_the_lane_bound(monkeypatch):
    # m * max |x| * max |y| one step below LANE_LIMIT packs; at or just past
    # it the rows of M are summed entry by entry
    sp, _, _ = oracle_space("der", 0, "unprimed")
    m = len(sp.rep.metric)
    paths = []
    count_lane_paths(monkeypatch, paths)
    y = {(0, 1): -1, (1, 2): 1, (0, 8): 1}
    for peak in ((LANE_LIMIT - 1) // m, -(-LANE_LIMIT // m)):
        for sign in (1, -1):
            x = {(1, 2): sign * peak, (0, 2): peak, (2, 8): -peak}
            got = _k_commutator(sp, ("so", "so"), alone(so_list(sp, x), so_list(sp, y)))
            assert got == listed(sp, ep_oracle.commutator(sp, x, y))
            # some entry of the bracket carries the peak's magnitude
            assert max(map(abs, got[0])) >= peak
    assert paths == [32, 32, "entries", "entries"]


@pytest.mark.parametrize("seed", [1, 7, 13])
def test_benchmarked_inputs_take_the_packed_action(monkeypatch, seed):
    # the calibrations at n = 0, the certificates at n = 1 and the der
    # certificate at n = 2, the largest bound a CLI command reaches, never
    # fall back to summing entry by entry, in the action, the pair form or
    # the commutator: a bound at LANE_LIMIT fails here
    def refuse(*args):
        raise AssertionError("a kernel left the packed lanes")

    monkeypatch.setattr(linalg_mod, "_entry_sums", refuse)
    for level in ep_mod.LEVELS:
        calibrate(level, 0, seed=seed)
        jacobi_infeasibility(level, 1, samples=3, seed=seed)
    jacobi_infeasibility("der", 2, seed=seed)


# ---------------------------------------------------------------------------
# packs held by one jacobiator
# ---------------------------------------------------------------------------

class Block(list):
    """A block list that a weak reference can follow."""


def off_coefficients(sp):
    """The space with every channel coefficient off its calibrated value,
    so no jacobiator cancels by closure."""
    values = {name: Q(5 + 2 * i, 7) for i, name in enumerate(sp.coeffs.values)}
    return dataclasses.replace(sp, coeffs=BracketCoeffs(values, sp.coeffs.normalized))


def seen_holding(monkeypatch):
    """The number of blocks held while the terms of each bracket, inner or
    outer, are collected."""
    sizes = []
    bracket_terms = ep_mod._bracket_terms

    def spy(space, x, y, unknowns, holding, groups, tag=()):
        sizes.append(len(holding))
        return bracket_terms(space, x, y, unknowns, holding, groups, tag)

    monkeypatch.setattr(ep_mod, "_bracket_terms", spy)
    return sizes


def numerators_by_tag(tagged):
    return {tag: (list(el.numerators()), el.den) for tag, el in tagged.items()}


@pytest.mark.parametrize("level,n", [(level, n) for level in ep_mod.LEVELS for n in (0, 1)])
def test_held_packs_leave_dense_jacobiators_unchanged(level, n):
    # dense and spinor-only seeded triples, str0 in both polarizations,
    # tagged by the level's unknowns and folded with every coefficient off
    # closure: numerators and den per tag as the oracle's brackets give
    # them, one at a time, with nothing held
    unknowns = frozenset(_describe(level).unknowns)
    for polarization in ("unprimed", "primed") if level == "str0" else ("unprimed",):
        sp = make_ep(level, n, polarization=polarization)
        rng = random.Random(31 + n)
        for draw in (random_element, random_spinor_element):
            x, y, z = (draw(sp, rng) for _ in range(3))
            got = _tagged_jacobiator(sp, x, y, z, unknowns)
            assert numerators_by_tag(got) == numerators_by_tag(ep_oracle.tagged_jacobiator(sp, x, y, z, unknowns))
            off = off_coefficients(sp)
            got = jacobiator(off, x, y, z)
            want = ep_oracle.tagged_jacobiator(off, x, y, z, None).get((), EPElement({}))
            assert (list(got.numerators()), got.den) == (list(want.numerators()), want.den)
            # every channel of der and qconf is pinned, so they close at
            # n = 0 at any nonzero coefficients
            assert got.is_zero() == (n == 0 and not _describe(level).unknowns)


def test_a_dense_numeric_jacobiator_gathers_back_once_per_destination():
    # qconf n = 0 with every coefficient folded in: each inner bracket
    # [a, b] acts twice into its psi block (a.so on b.psi, b.so on a.psi),
    # and the six outer actions all land in the jacobiator's one psi
    # block, so 12 actions take 4 back steps, one per so action call
    sp = make_ep("qconf", 0)
    calls = []

    def counted(space, key, terms):
        calls.append(sum(1 for c, x, _, _ in terms if c and any(x)))
        return _k_act(space, key, terms)

    counting = dataclasses.replace(sp, table={**sp.table, ("so", "psi"): [(None, "psi", counted)]})
    rng = random.Random(5)
    x, y, z = (random_element(sp, rng) for _ in range(3))
    # every channel of qconf is pinned: it closes at n = 0
    assert jacobiator(counting, x, y, z).is_zero()
    assert calls == [2, 2, 2, 6]


def test_a_dense_triple_holds_packs_and_a_spinor_only_triple_none(monkeypatch):
    sizes = seen_holding(monkeypatch)
    for level in ep_mod.LEVELS:
        sp = make_ep(level, 0)
        rng = random.Random(5)
        dense = [random_element(sp, rng) for _ in range(3)]
        _tagged_jacobiator(sp, *dense, None)
        # every spinor block of every operand is held
        assert set(sizes) == {3 * len(sp.spinor_blocks())}
        sizes.clear()
        _tagged_jacobiator(sp, *(random_spinor_element(sp, rng) for _ in range(3)), None)
        assert sizes and set(sizes) == {0}
        sizes.clear()


def test_held_packs_die_with_the_call(monkeypatch):
    # a weak reference to an operand's block list dies once the operand
    # lets go of it, after _tagged_jacobiator returns and after it raises
    sp = make_ep("der", 0)
    rng = random.Random(9)
    calls = []

    def pair_then_raise(*args):
        calls.append(1)
        if len(calls) > 1:
            raise RuntimeError("second pair form")
        return _k_pair_so(*args)

    raising = dataclasses.replace(sp, table={**sp.table, ("psi", "psi"): [("pair_so", "so", pair_then_raise)]})
    for space in (sp, raising):
        x, y, z = (random_element(sp, rng) for _ in range(3))
        x.blocks["psi"] = Block(x.blocks["psi"])
        ref = weakref.ref(x.blocks["psi"])
        try:
            _tagged_jacobiator(space, x, y, z, None)
        except RuntimeError:
            assert space is raising
        else:
            assert space is sp
        del x.blocks["psi"]
        assert ref() is None
    assert len(calls) == 2


GATHER_SPACES = [(level, n, "unprimed") for level in ep_mod.LEVELS for n in (0, 1)] + [
    ("str0", 0, "primed"),
    ("str0", 1, "primed"),
]


@pytest.mark.parametrize("level,n,polarization", GATHER_SPACES)
def test_gathers_read_what_transposed_gammas_read(level, n, polarization):
    sp = make_ep(level, n, polarization=polarization)
    # distinct magnitudes of both signs, so a wrong index or sign shows
    v = _signed([(k + 1) * (-1) ** k for k in range(sp.rep.dim)])
    lowered = _signed(sp.conj(v))
    for block in sp.spinor_blocks():
        g = sp.gathers[block]
        out, raised, back = ep_oracle.gathers(sp, block)
        r = _signed([(k + 2) * (-1) ** (k // 3) for k in range(len(g.support))])
        for a, eta in enumerate(sp.rep.metric):
            assert g.out[a](v) == out[a](v)
            assert g.back[a](r) == back[a](r)
            # (C gamma_a)^T v = eta_a gamma_a C^T v
            assert tuple(eta * x for x in g.out[a](lowered)) == raised[a](v)


def test_no_space_builds_a_matrix(monkeypatch):
    # the EP and T-algebra spaces, their kernels and the embedding run on
    # Pauli labels: a gamma becomes a matrix only when rep.gammas is read
    def refuse(self):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(MonomialMatrix, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="a matrix was built"):
        build_rep(Signature(1, 1)).gammas
    for level in ep_mod.LEVELS:
        for n in (0, 1):
            make_ep(level, n)
        jacobi_infeasibility(level, 1, samples=1, seed=7)
    jacobi_infeasibility("str0", 1, samples=1, seed=7, polarization="primed")
    # the calibration loop is the same at every level
    for level in ("der", "str0"):
        calibrate(level, 0, seed=7)
    rng = random.Random(11)
    for q in (1, 2, 4, 8):
        for n in (0, 1):
            sp = talgebra.make_space(q, n)
            el = talgebra.TElement.zero(sp)
            el.r1, el.r2, el.r3 = Q(1), Q(2), Q(-3)
            el.psi = [[Q(rng.randint(-3, 3)) for _ in range(sp.width)] for _ in range(sp.fund)]
            talgebra.norm_and_rank(sp, el)
            talgebra.norm_gradient(sp, el)
            talgebra.infinitesimal_rotation(sp, el, (0, sp.vdim_full - 1))
    cal = talgebra.calibrate_embedding(talgebra.make_space(8, 0))
    assert (cal.block, cal.u_slot, cal.w_slot) == ("low", ("A3", False, 1), ("A2", True, -1))
    assert cal.candidates_validated == 2


def test_space_holds_no_pair_tables():
    sp = make_ep("qconf", 0)
    assert not any(hasattr(sp, name) for name in ("pair_actions", "pair_forms", "pair_index"))
