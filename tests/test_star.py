import pytest

import star_oracle
from roots_oracle import hand_built
from magicstar.roots import AlgebraLabel, generate_roots
from magicstar.star import (
    HEX_WEIGHTS,
    STAR_HOSTS,
    MagicStarError,
    chart_counts,
    emit_chart,
    find_a2,
    project,
)

EXPECTED = {
    "G2": {"center": 0, "tip": 1},
    "F4": {"center": 6, "tip": 6},
    "E6": {"center": 12, "tip": 9},
    "E7": {"center": 30, "tip": 15},
    "D4": {"center": 0, "tip": 3},
}


def chart_for(name):
    rs = generate_roots(AlgebraLabel.parse(name))
    choice = find_a2(rs)
    return rs, choice, project(rs, choice)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_bucket_counts(name):
    _, _, chart = chart_for(name)
    counts = chart_counts(chart)
    want = EXPECTED[name]
    assert counts["center"] == want["center"]
    assert counts["hexagon"] == 6
    assert counts["tips"] == [want["tip"]] * 6


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_partition_property(name):
    rs, _, chart = chart_for(name)
    total = sum(len(v) for v in chart.buckets.values())
    assert total == len(rs.roots)


def test_g2_choice_uses_long_roots():
    rs, choice, _ = chart_for("G2")[0], None, None
    rs = generate_roots(AlgebraLabel.parse("G2"))
    choice = find_a2(rs)
    n2 = sum(x * x for x in choice.alpha)
    assert n2 == 6  # long roots in this normalization
    assert choice.candidates_validated > 0


def test_a2_host_is_rejected():
    rs = generate_roots(AlgebraLabel.parse("A2"))
    with pytest.raises(MagicStarError):
        find_a2(rs)


@pytest.mark.parametrize("name", sorted(STAR_HOSTS))
def test_matches_the_rational_oracle(name):
    label = AlgebraLabel.parse(name)
    rs = generate_roots(label)
    roots = star_oracle.generate_roots(label)
    assert rs.roots == roots
    cols = star_oracle.pairing_columns(roots)
    assert rs.pairings == tuple(map(tuple, cols))
    (i, j), validated, counts = star_oracle.scan(roots, cols)
    choice = find_a2(rs)
    assert (choice.alpha, choice.beta) == (roots[i], roots[j])
    assert choice.a2_roots == star_oracle.a2_roots(roots, roots[i], roots[j])
    assert choice.candidates_validated == validated
    assert choice.validated_counts == counts
    assert project(rs, choice).buckets == star_oracle.project(roots, cols, i, j)


# (ordered candidates validated, the one (center, tips) they all give)
SCAN_COUNTS = {
    "G2": (12, (0, (1,) * 6)),
    "F4": (192, (6, (6,) * 6)),
    "E6": (1440, (12, (9,) * 6)),
    "E7": (4032, (30, (15,) * 6)),
    "E8": (13440, (72, (27,) * 6)),
    "D4": (192, (0, (3,) * 6)),
}


@pytest.mark.parametrize("name", sorted(STAR_HOSTS))
def test_scan_counts(name):
    validated, counts = SCAN_COUNTS[name]
    choice = find_a2(generate_roots(AlgebraLabel.parse(name)))
    assert choice.candidates_validated == validated
    assert choice.validated_counts == {counts}


def test_scan_refuses_non_integral_pairings():
    # (1, 0) against (1, 1/2): 2 * 1 / (5/4) = 8/5
    with pytest.raises(ArithmeticError, match="not integral"):
        find_a2(hand_built(((2, 0), (2, 1))))


def test_scan_refuses_pairings_past_three():
    # (2, 0) against (1, 0): 4, past the byte lanes' range of [-3, 3]
    with pytest.raises(MagicStarError, match=r"outside \[-3, 3\]"):
        find_a2(hand_built(((2, 0), (4, 0))))


def test_hexagon_is_the_a2_image():
    _, choice, chart = chart_for("E6")
    hex_roots = set()
    for w in HEX_WEIGHTS:
        hex_roots.update(chart.buckets[w])
    assert hex_roots == set(choice.a2_roots)


def test_csv_rows_g2():
    _, _, chart = chart_for("G2")
    doc = emit_chart(chart, "csv")
    rows = [line for line in doc.strip().split("\n") if line]
    assert len(rows) == 12
    assert all(len(line.split(";")) == 4 for line in rows)


def test_svg_point_count_f4():
    _, _, chart = chart_for("F4")
    doc = emit_chart(chart, "svg")
    assert doc.count("<circle") == 13
    assert doc.count("<text") == 13
    assert doc.startswith("<svg")


def test_svg_center_label_multiplicity_e7():
    _, _, chart = chart_for("E7")
    doc = emit_chart(chart, "svg")
    assert ">30</text>" in doc


def test_emit_rejects_unknown_format():
    _, _, chart = chart_for("G2")
    with pytest.raises(ValueError):
        emit_chart(chart, "png")


def test_center_plus_residual_cartans_match_structure_dims():
    # center roots plus the rank-2 leftover Cartans fill out the algebra
    # fixing the norm of the tip spaces: 78, 35, 16, 8 for e8, e7, e6, f4
    str0_dims = {"E8": 78, "E7": 35, "E6": 16, "F4": 8}
    for name, want in str0_dims.items():
        rs = generate_roots(AlgebraLabel.parse(name))
        chart = project(rs, find_a2(rs))
        counts = chart_counts(chart)
        assert counts["center"] + (rs.rank - 2) == want
