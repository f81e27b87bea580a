import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from pathlib import Path

import pytest

from cli_transcript import check, entry_id, load_entries
from magicstar import cli, talgebra
from magicstar.cli import run
from talgebra_oracle import element_to_json


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _invoke(argv, cwd):
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue().encode(), err.getvalue().encode()


ENTRIES = load_entries()


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry_id(e) for e in ENTRIES])
def test_transcript(entry):
    check(entry, _invoke)


# a run of a fake command that matches this entry in every checked part
FAKE_ENTRY = {
    "argv": ["fake"],
    "files": {"in.txt": [["ab", 2]]},
    "exit": 1,
    "stdout": hashlib.sha256(b"out\n").hexdigest(),
    "emitted": {"out.csv": hashlib.sha256(b"1,2\n").hexdigest()},
    "stderr": "usage error: ",
    "stderr_lines": 1,
}


def _fake(code=1, out=b"out\n", emit=(("out.csv", b"1,2\n"),), err=b"usage error: bad\n"):
    def invoke(argv, cwd):
        assert argv == ["fake"] and Path(cwd, "in.txt").read_text() == "abab"
        for name, data in emit:
            Path(cwd, name).write_bytes(data)
        return code, out, err
    return invoke


def test_runner_passes_a_matching_run():
    check(FAKE_ENTRY, _fake())


@pytest.mark.parametrize("fault", [
    {"code": 0},
    {"out": b"out"},
    {"emit": ()},
    {"emit": (("out.csv", b"1,3\n"),)},
    {"emit": (("out.csv", b"1,2\n"), ("stray.csv", b""))},
    {"err": b"i/o failure: bad\n"},
    {"err": b"usage error: bad\nmore\n"},
], ids=["exit", "stdout", "missing-file", "differing-file", "extra-file", "stderr-prefix", "extra-stderr-line"])
def test_runner_fails_a_differing_run(fault):
    with pytest.raises(AssertionError):
        check(FAKE_ENTRY, _fake(**fault))


# the transcript pins bytes; the tests below read the paper's facts out of
# the output (root counts, bucket sizes, dimensions, reality classes), so a
# transcript entry updated on purpose cannot silently change them


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


def test_clifford_emit(tmp_path, capsys):
    path = tmp_path / "g.txt"
    code, _ = capture(capsys, ["clifford", "1", "1", "--emit", str(path)])
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4  # two 2x2 generators, one entry per column
    assert all(len(line.split(",")) == 4 for line in lines)


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


def test_talg_q1_norm_is_the_real_symmetric_determinant(tmp_path, capsys):
    # T(1, 0) = J3(R): this element is det [[2, 1, 1], [1, 3, 1], [1, 1, 5]]
    payload = {"q": 1, "n": 0, "r": ["1", "3/2", "20"], "v": ["-1/2"], "psi": [["2", "0"]]}
    path = tmp_path / "el.json"
    path.write_text(json.dumps(payload))
    code, out = capture(capsys, ["talg", "--q", "1", "--n", "0", "norm", "--input", str(path)])
    assert code == 0
    assert out == '{"N":"22"}\n'


def test_usage_errors_exit_1(capsys):
    assert run(["roots"]) == 1
    assert run(["roots", "E8", "--bogus"]) == 1
    assert run(["roots", "Z9"]) == 1
    assert run(["ep", "--level", "nope", "--n", "0"]) == 1


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


def test_star_refuses_a_non_host_before_building_roots(monkeypatch, capsys):
    def refuse(label):
        raise AssertionError("roots of %s built" % label)

    monkeypatch.setattr(cli, "generate_roots", refuse)
    code = run(["star", "A44"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "usage error: host A44 has no hexagram projection\n"


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
