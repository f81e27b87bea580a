import hashlib
import json
import sys
from fractions import Fraction as Q

import pytest

from magicstar import cli, talgebra
from magicstar.cli import run
from talgebra_oracle import element_to_json


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_roots_count(capsys):
    code, out = capture(capsys, ["roots", "E8", "--count"])
    assert code == 0
    assert out.strip() == "240"


def test_roots_listing(capsys):
    code, out = capture(capsys, ["roots", "A2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all("," in line for line in lines)


def test_star_f4(capsys):
    code, out = capture(capsys, ["star", "F4"])
    assert code == 0
    data = json.loads(out)
    assert data["center"] == 6
    assert data["hexagon"] == 6
    assert data["tips"] == [6] * 6


def test_star_emits_files(tmp_path, capsys):
    svg = tmp_path / "g2.svg"
    csv = tmp_path / "g2.csv"
    _, plain = capture(capsys, ["star", "G2"])
    code, out = capture(capsys, ["star", "G2", "--svg", str(svg), "--csv", str(csv)])
    assert code == 0
    assert out == plain
    assert svg.read_text().startswith("<svg")
    assert len(csv.read_text().strip().split("\n")) == 12


def test_star_unwritable_svg_prints_nothing_exit_3(tmp_path, capsys):
    code = run(["star", "F4", "--svg", str(tmp_path / "missing" / "f4.svg")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("i/o failure: ") and captured.err.count("\n") == 1


def test_star_refuses_a_non_host_before_building_roots(monkeypatch, capsys):
    def refuse(label):
        raise AssertionError("roots of %s built" % label)

    monkeypatch.setattr(cli, "generate_roots", refuse)
    code = run(["star", "A44"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: host A44 has no hexagram projection\n"


def test_clifford_summary(capsys):
    code, out = capture(capsys, ["clifford", "9", "0", "--check"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 16
    assert data["reality_class"] == "Majorana"
    assert data["bilinears"]["+1"] == {"symmetry": 1}
    assert data["bilinears"]["-1"] is None


def test_clifford_one_zero_is_one_dimensional(capsys):
    code, out = capture(capsys, ["clifford", "1", "0", "--check"])
    assert code == 0
    assert out == (
        '{"p":1,"q":0,"dim":1,"reality_class":"Majorana","chiral":false,'
        '"bilinears":{"+1":{"symmetry":1},"-1":null}}\n'
    )


@pytest.mark.parametrize("q,dim", [(7, 8), (15, 128)])
def test_clifford_class_one_with_p_zero(capsys, q, dim):
    code, out = capture(capsys, ["clifford", "0", str(q), "--check"])
    assert code == 0
    assert out == (
        '{"p":0,"q":%d,"dim":%d,"reality_class":"Majorana","chiral":false,'
        '"bilinears":{"+1":null,"-1":{"symmetry":1}}}\n' % (q, dim)
    )


@pytest.mark.parametrize("p,q", [(0, 1), (1, 2), (10, 3)])
def test_clifford_class_seven_exit_1(capsys, p, q):
    code = run(["clifford", str(p), str(q), "--check"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "p-q = 7 mod 8" in captured.err and captured.err.count("\n") == 1


def test_clifford_unwritable_emit_prints_nothing_exit_3(tmp_path, capsys):
    code = run(["clifford", "1", "1", "--emit", str(tmp_path / "missing" / "g.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("i/o failure: ") and captured.err.count("\n") == 1


def test_clifford_emit(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _ = capture(capsys, ["clifford", "1", "1", "--emit", str(path)])
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4  # two 2x2 generators, one entry per column
    assert all(len(line.split(",")) == 4 for line in lines)


# sha256 and line count of the --emit file: one "mu,row,col,sign" line per
# column of each gamma, the one CLI output built from materialized gammas
EMIT_DIGESTS = {
    (9, 1): ("c1c444f14d7dd043e212227aba0a0b2bc20290b40b76f055d39ab90323b1a8fc", 320),
    (12, 4): ("b4b57f707fa9973c10f64c3090ad778704444746ad2b36e9113a69290f8e0428", 4096),
    (20, 4): ("f2562353e9c4442efe50eaca3c747d3a9954bbf3f1422bf03ad4ce9e16b3d261", 98304),
}


@pytest.mark.parametrize("sig", sorted(EMIT_DIGESTS))
def test_clifford_emit_bytes(tmp_path, capsys, sig):
    path = tmp_path / "g.csv"
    code, _ = capture(capsys, ["clifford", str(sig[0]), str(sig[1]), "--emit", str(path)])
    assert code == 0
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == EMIT_DIGESTS[sig]


def test_ep_der0_matches_claim(capsys):
    code, out = capture(capsys, ["ep", "--level", "der", "--n", "0", "--samples", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 52
    assert data["jacobi_status"] == "lie-algebra"
    assert data["calibration"]["values"] == {"pair_so": "1"}


def test_ep_der1_violation(capsys):
    code, out = capture(capsys, ["ep", "--level", "der", "--n", "1", "--samples", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["jacobi_status"] == "violated"
    assert "witness" in data
    assert data["certificate_rows"]


def test_ep_deterministic_output(capsys):
    _, out1 = capture(capsys, ["ep", "--level", "str0", "--n", "0", "--samples", "4"])
    _, out2 = capture(capsys, ["ep", "--level", "str0", "--n", "0", "--samples", "4"])
    assert out1 == out2


def test_talg_entropy_diag220(tmp_path, capsys):
    payload = {
        "q": 8,
        "n": 0,
        "r": ["2", "2", "0"],
        "v": ["0"] * 8,
        "psi": [["0"] * 16],
    }
    path = tmp_path / "diag220.json"
    path.write_text(json.dumps(payload))
    code, out = capture(capsys, ["talg", "--q", "8", "--n", "0", "entropy", "--input", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data == {"N": "0", "rank": 2, "entropy": 0.0}


def test_talg_entropy_past_float_range_exit_1(tmp_path, capsys):
    big = str(10 ** 200)
    payload = {"q": 8, "n": 0, "r": [big] * 3, "v": ["0"] * 8, "psi": [["0"] * 16]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code = run(["talg", "--q", "8", "--n", "0", "entropy", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "too large" in captured.err and captured.err.count("\n") == 1


def test_talg_norm_past_decimal_digit_limit_exit_1(tmp_path, capsys):
    # N = (10^1500)^3 has 4,501 digits, past the interpreter's default
    # limit for int-to-decimal conversion; grad stays inside it
    big = str(10 ** 1500)
    payload = {"q": 8, "n": 0, "r": [big] * 3, "v": ["0"] * 8, "psi": [["0"] * 16]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    argv = ["talg", "--q", "8", "--n", "0", "norm", "--input", str(path)]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "4501 decimal digits" in captured.err
    assert "limit of %d digits" % sys.get_int_max_str_digits() in captured.err
    assert "set_int_max_str_digits" not in captured.err
    code, out = capture(capsys, argv[:5] + ["grad"] + argv[6:])
    assert code == 0 and len(json.loads(out)["grad"]) == 27


def test_talg_norm_and_grad(tmp_path, capsys):
    payload = {
        "q": 2,
        "n": 0,
        "r": ["1", "2", "3"],
        "v": ["1", "0"],
        "psi": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code, out = capture(capsys, ["talg", "--q", "2", "--n", "0", "norm", "--input", str(path)])
    assert code == 0
    n = json.loads(out)["N"]
    code, out = capture(capsys, ["talg", "--q", "2", "--n", "0", "grad", "--input", str(path)])
    assert code == 0
    assert len(json.loads(out)["grad"]) == 9


def test_usage_errors_exit_1(capsys):
    assert run(["roots"]) == 1
    assert run(["roots", "E8", "--bogus"]) == 1
    assert run(["roots", "Z9"]) == 1
    assert run(["ep", "--level", "nope", "--n", "0"]) == 1


def test_missing_input_file_exit_3(capsys):
    assert run(["talg", "--q", "8", "--n", "0", "norm", "--input", "/nonexistent.json"]) == 3


def _talg_norm(tmp_path, capsys, payload):
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code = run(["talg", "--q", "2", "--n", "0", "norm", "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_talg_q1_norm_is_the_real_symmetric_determinant(tmp_path, capsys):
    # T(1, 0) = J3(R): this element is det [[2, 1, 1], [1, 3, 1], [1, 1, 5]]
    payload = {"q": 1, "n": 0, "r": ["1", "3/2", "20"], "v": ["-1/2"], "psi": [["2", "0"]]}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code, out = capture(capsys, ["talg", "--q", "1", "--n", "0", "norm", "--input", str(path)])
    assert code == 0
    assert out == '{"N":"22"}\n'


def test_talg_q8_norm_is_the_octonionic_determinant(tmp_path, capsys):
    # A1, A2 and A3 all nonzero, so psi is nonzero and the trilinear term is -1:
    # det = 30 - 2 n(A3) - 3 n(A2) - 5 n(A1) + 2 Re((A1 A3) A2) = 6
    j = talgebra.OctonionHermitian3.from_coords(
        [2, 3, 5] + [1, 1, 0, 0, 0, 0, 0, 0] + [0, 0, 1, 0, 1, 0, 0, 0] + [0, 1, 0, 1, 0, 0, 1, 0])
    space = talgebra.make_space(8, 0)
    el = talgebra.embed_jordan(space, j, talgebra.calibrate_embedding(space))
    assert any(el.psi[0])
    path = tmp_path / "j3o.json"
    path.write_text(json.dumps(element_to_json(space, el)))
    det = talgebra.jordan_determinant(j)
    argv = ["talg", "--q", "8", "--n", "0", "norm", "--input", str(path)]
    code, out = capture(capsys, argv)
    assert code == 0
    assert out == '{"N":"%s"}\n' % det
    code, out = capture(capsys, argv[:5] + ["grad"] + argv[6:])
    assert code == 0
    grad = [Q(g) for g in json.loads(out)["grad"]]
    assert sum(g * c for g, c in zip(grad, el.coords())) == 3 * det


def test_talg_q8_file_without_its_basis_exit_1(tmp_path, capsys):
    # a q = 8 spinor written in another octonion basis would be misread
    space = talgebra.make_space(8, 0)
    el = talgebra.TElement.zero(space)
    el.psi = [[Q(1)] + [Q(0)] * (space.width - 1)]
    payload = element_to_json(space, el)
    del payload["basis"]
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code = run(["talg", "--q", "8", "--n", "0", "norm", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == 'usage error: a q = 8 element with nonzero psi needs "basis": "albuquerque-majid", the octonion sign table it is written in\n'


def test_talg_q1_two_carrier_copies_exit_1(tmp_path, capsys):
    # the width-4 spinor block of the retired doubled T(1, 0)
    payload = {"q": 1, "n": 0, "r": ["1", "1", "1"], "v": ["0"], "psi": [["1", "0", "0", "1"]]}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code = run(["talg", "--q", "1", "--n", "0", "norm", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: spinor block has the wrong shape\n"


def test_talg_missing_block_exit_1(tmp_path, capsys):
    payload = {"q": 2, "n": 0, "v": ["1", "0"], "psi": [["1", "0"], ["0", "1"]]}
    code, out, err = _talg_norm(tmp_path, capsys, payload)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_talg_top_level_list_exit_1(tmp_path, capsys):
    code, out, err = _talg_norm(tmp_path, capsys, [["1", "2", "3"]])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


# entries outside "p", "p/q" (q nonzero) and JSON integers
@pytest.mark.parametrize("entry", ["1/0", float("inf"), True, "1e9", "0.5", " 3"])
def test_talg_malformed_entry_exit_1(tmp_path, capsys, entry):
    payload = {"q": 2, "n": 0, "r": [entry, "2", "3"], "v": ["1", "0"], "psi": [["1", "0"], ["0", "1"]]}
    code, out, err = _talg_norm(tmp_path, capsys, payload)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_talg_deeply_nested_file_exit_1(tmp_path, capsys):
    # json.load recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code = run(["talg", "--q", "8", "--n", "0", "norm", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: element file nests too deeply to decode\n"


def test_talg_float_label_exit_1(tmp_path, capsys):
    # "q": 2.0 equals 2 in Python but is not a JSON integer
    payload = {"q": 2.0, "n": 0, "r": ["1", "2", "3"], "v": ["1", "0"], "psi": [["1", "0"], ["0", "1"]]}
    code, out, err = _talg_norm(tmp_path, capsys, payload)
    assert code == 1
    assert out == ""
    assert err == "usage error: element labels q and n must be JSON integers\n"


def test_ep_zero_samples_exit_1(capsys):
    # n = 0 never samples, but the count is still refused
    for n in ("1", "0"):
        code = run(["ep", "--level", "der", "--n", n, "--samples", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


def test_ep_primed_at_n0_exit_1(capsys):
    # n = 0 calibrates unprimed, so a primed request there is refused
    # before anything is built, for every level
    for level in ("der", "str0", "conf", "qconf"):
        code = run(["ep", "--level", level, "--n", "0", "--polarization", "primed"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "usage error: --polarization primed applies at n >= 1; n = 0 calibrates unprimed\n"
        )


def test_ep_primed_der_exit_1(capsys):
    # der has no chiral split, so no polarization to prime
    code = run(["ep", "--level", "der", "--n", "1", "--polarization", "primed"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: level der has no chiral split to polarize\n"


# exact stdout of ``ep --level L --n 0`` with the defaults: the grade
# profiles, the calibrated values and the pinned (normalized) channels
EP_N0_STDOUT = {
    "der": (
        '{"level":"der","n":0,"dimension":52,"grade_profile":{"canonical":[[0,'
        '52]]},"polarization":"unprimed","seed":7,"samples":50,'
        '"calibration":{"values":{"pair_so":"1"},"normalized":["pair_so"],'
        '"verified_triples":12},"jacobi_status":"lie-algebra"}'
        "\n"
    ),
    "str0": (
        '{"level":"str0","n":0,"dimension":78,"grade_profile":{"canonical":[[-1,'
        '16],[0,46],[1,16]]},"polarization":"unprimed","seed":7,"samples":50,'
        '"calibration":{"values":{"pair_R":"3/2","pair_so":"1"},'
        '"normalized":["pair_so"],"verified_triples":12},'
        '"jacobi_status":"lie-algebra"}'
        "\n"
    ),
    "conf": (
        '{"level":"conf","n":0,"dimension":133,"grade_profile":{"canonical":[[-2,'
        '1],[-1,32],[0,67],[1,32],[2,1]],"extended":[[-2,1],[-1,32],[0,67],[1,'
        '32],[2,1]]},"polarization":"unprimed","seed":7,"samples":50,'
        '"calibration":{"values":{"apex_down":"-1","apex_up":"1","k_pair":"1",'
        '"pair_R":"-1/2","pair_so":"-1/2","transfer_down":"1","transfer_up":"1"},'
        '"normalized":["apex_up","transfer_up","transfer_down"],'
        '"verified_triples":12},"jacobi_status":"lie-algebra"}'
        "\n"
    ),
    "qconf": (
        '{"level":"qconf","n":0,"dimension":248,"grade_profile":{"canonical":[[0,'
        '248]],"extended":[[-2,14],[-1,64],[0,92],[1,64],[2,14]]},'
        '"polarization":"unprimed","seed":7,"samples":50,'
        '"calibration":{"values":{"pair_so":"1"},"normalized":["pair_so"],'
        '"verified_triples":12},"jacobi_status":"lie-algebra"}'
        "\n"
    ),
}


@pytest.mark.parametrize("level", sorted(EP_N0_STDOUT))
def test_ep_n0_stdout_bytes(capsys, level):
    code, out = capture(capsys, ["ep", "--level", level, "--n", "0"])
    assert code == 0
    assert out == EP_N0_STDOUT[level]


# sha256 of the stdout of ``ep --n 1`` (50 samples, seed 7): the
# certificates, rows and witnesses behind it must not change with the kernels
EP_N1_STDOUT_SHA256 = [
    (["--level", "der"], "7a0ad7b4ba84026ebaa0e4f9a76489d6a3927a2f22d0cab810445f5517510155"),
    (["--level", "str0"], "396fd3835ba14486adb9fa000cd596415cf1313806977f8751fb6c85ce7401d5"),
    (["--level", "conf"], "44760065c89e0775e0c3c5ad2be6f950a0c909e737fdc91078de6b238bc89365"),
    (["--level", "qconf"], "5a83183249e5915636f8718676a0c71e17a475a47b3f93d6e2b5da275b938748"),
    (["--level", "str0", "--polarization", "primed"],
     "d8204080bc2a1e6a9bb6cd1ec687dbe931aadf883d5942edbb3d2d1540add39f"),
]


@pytest.mark.parametrize("args,digest", EP_N1_STDOUT_SHA256)
def test_ep_n1_stdout_digest(capsys, args, digest):
    code, out = capture(capsys, ["ep", "--n", "1"] + args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of ``star HOST`` and of E8's chart files, captured
# before the hexagram scan moved onto the integer pairing table
STAR_STDOUT_SHA256 = {
    "G2": "498307e14265c6f3645e209b7e864c39665771ba4e34966ca85fc59d7c150d06",
    "D4": "adf0ca874f766f555cdb0050acdee2f1fead75948a329b12306da971a599e204",
    "F4": "d02bd12fd4225eaa328da71baeddf8020949bbb560c3a3c30a0b45b6b3567f71",
    "E6": "64b1ded49a1d27bd09070a5ee7e402868fa1b126a1b5aae0a6794109dc7682a2",
    "E7": "5a841691e259df2ed55c2c22e4bec04da39992b85e9994a196c56f32fdf7e75b",
    "E8": "6874b025b5b00c835285521e3d34ef86c5169d76defb619311d5e1e1646b0781",
}
E8_CHART_SHA256 = {
    "e8.csv": "d86960f82f0b646839ae04502886a67d5430302f438c727f49e64c9cbfb22bbb",
    "e8.svg": "4cad14d2df9fc5f16dc2636b15eb931ad2397c7fc6295eee35d7a2fe23ed7863",
}


@pytest.mark.parametrize("host", sorted(STAR_STDOUT_SHA256))
def test_star_stdout_digest(capsys, host):
    code, out = capture(capsys, ["star", host])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STAR_STDOUT_SHA256[host]


def test_star_e8_chart_digests(tmp_path, capsys):
    code, out = capture(capsys, ["star", "E8", "--svg", str(tmp_path / "e8.svg"),
                                 "--csv", str(tmp_path / "e8.csv")])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STAR_STDOUT_SHA256["E8"]
    for name, digest in E8_CHART_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# requests just past the size limit, so even a missing check would build little
@pytest.mark.parametrize("argv", [
    ["clifford", "26", "0"],
    ["ep", "--level", "str0", "--n", "2", "--samples", "1"],
    ["talg", "--q", "8", "--n", "2", "norm", "--input", "/nonexistent.json"],
    ["talg", "--q", "2", "--n", "3", "norm", "--input", "/nonexistent.json"],
    ["roots", "A45", "--count"],
    ["star", "B32"],
])
def test_over_size_limit_exit_1(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "over the limit" in captured.err and captured.err.count("\n") == 1
