"""The three workloads.  Each function runs one pass and verifies it.

A pass takes the benchmark seed, builds every random input it feeds the
program from that seed, calls the public API, and checks each result with
``checks`` (which does not reuse the code under test) or against outputs
captured from the seed code in ``golden/``.  It returns the stage times of
the pass, keyed by metric name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from fractions import Fraction as Q

from magicstar import cli, clifford, ep, roots, star, talgebra

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# Samples per jacobi_infeasibility call.  At the seed every certificate
# references triple 0 only, so S = 3 spends two thirds of the sampled
# triples on work an early exit would skip.
CERTIFY_SAMPLES = 3
# Seeded spinor triples whose jacobiator must vanish after calibration.
CLOSURE_TRIPLES = 3
HOSTS = ("G2", "F4", "E6", "E7", "E8")
# Criterion 03: five base signatures and their p + 8 partners.
BASE_SIGNATURES = ((9, 0), (9, 1), (10, 2), (11, 3), (12, 4))
SIGNATURES = BASE_SIGNATURES + tuple((p + 8, q) for p, q in BASE_SIGNATURES)
ANTICOMMUTE_PAIRS = 6
# Seeded elements per T(q, n) site; latencies are recorded at T(8, 1).
TALG_ELEMENTS = {(2, 0): 8, (4, 0): 8, (8, 0): 8, (8, 1): 12}
ORACLE_MATRICES = 24
# The README's command-line examples that do no ep work.  Output files go
# to the pass's scratch directory; stdout and files are compared with the
# bytes the seed code produced.
CLI_EXAMPLES = (
    ("roots_e8_count", ["roots", "E8", "--count"], ()),
    ("roots_g2", ["roots", "G2"], ()),
    ("star_f4", ["star", "F4", "--svg", "{out}/f4.svg", "--csv", "{out}/f4.csv"], ("f4.svg", "f4.csv")),
    ("clifford_12_4", ["clifford", "12", "4", "--check"], ()),
    ("talg_entropy", ["talg", "--q", "8", "--n", "0", "entropy", "--input", "{out}/element.json"], ()),
)
README_ELEMENT = {
    "q": 8, "n": 0, "r": ["2", "2", "0"], "v": ["0"] * 8, "psi": [["0"] * 16],
}


def load_golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "golden.json")) as fh:
        return json.load(fh)


def _spinor_element(space, rng: random.Random) -> ep.EPElement:
    blocks = {}
    for name in space.spinor_blocks():
        col = [0] * space.rep.dim
        for i in space.spinor_support[name]:
            col[i] = rng.randint(-9, 9)
        blocks[name] = col
    return ep.EPElement(blocks)


# ---------------------------------------------------------------------------
# ep_certify
# ---------------------------------------------------------------------------

def ep_certify(seed: int, chk: checks.Checks, golden: dict, out_dir: str) -> dict:
    stages = {}
    for level in ep.LEVELS:
        t0 = time.perf_counter()
        res = ep.jacobi_infeasibility(level, 1, samples=CERTIFY_SAMPLES, seed=seed)
        stages["level_s." + level] = time.perf_counter() - t0
        if not chk.expect(res.status == "violated", "%s n=1 status %s" % (level, res.status)):
            continue
        chk.expect_none(
            checks.certificate_failures(res.rows, res.certificate, len(res.unknowns)),
            "%s n=1 certificate" % level,
        )
        if level == "der":
            chk.expect(res.witness is not None and set(res.witness) == {"x", "y", "z"},
                       "der n=1 witness missing")
    return stages


# ---------------------------------------------------------------------------
# ep_calibrate
# ---------------------------------------------------------------------------

def ep_calibrate(seed: int, chk: checks.Checks, golden: dict, out_dir: str) -> dict:
    stages = {}
    rng = random.Random(seed)
    for level in ep.LEVELS:
        t0 = time.perf_counter()
        rep = ep.calibrate(level, 0, seed=seed)
        stages["level_s." + level] = time.perf_counter() - t0
        values = {k: str(v) for k, v in sorted(rep.coeffs.values.items())}
        chk.expect(values == golden["calibration"][level],
                   "%s calibration %r, expected %r" % (level, values, golden["calibration"][level]))
        space = ep.make_ep(level, 0, rep.coeffs)
        for t in range(CLOSURE_TRIPLES):
            x, y, z = (_spinor_element(space, rng) for _ in range(3))
            chk.expect(ep.jacobiator(space, x, y, z).is_zero(),
                       "%s n=0 jacobiator nonzero on triple %d" % (level, t))
        if set(golden["calibration"][level].values()) != {"1"}:
            # the closure check is not vacuous: unit coefficients must fail it
            unit = ep.make_ep(level, 0)
            x, y, z = (_spinor_element(unit, rng) for _ in range(3))
            chk.expect(not ep.jacobiator(unit, x, y, z).is_zero(),
                       "%s n=0 jacobiator vanishes with unit coefficients" % level)
    return stages


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

def chart_digest(chart, fmt: str) -> str:
    return hashlib.sha256(star.emit_chart(chart, fmt).encode()).hexdigest()


def conjugation_symmetries(rep) -> dict:
    """Transpose sign -> symmetry of the conjugation form, None if none exists."""
    out = {}
    for t in (1, -1):
        try:
            out[t] = clifford.conjugation(rep, t).symmetry
        except clifford.CliffordNoBilinearError:
            out[t] = None
    return out


def run_cli(argv, out_dir: str):
    """Exit code and captured stdout of one in-process command-line call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([a.format(out=out_dir) for a in argv])
    return code, buf.getvalue()


def _star_step(chk, golden):
    for host in HOSTS:
        rs = roots.generate_roots(roots.AlgebraLabel.parse(host))
        chk.expect(len(rs.roots) == checks.ROOT_COUNTS[host], "%s root count" % host)
        choice = star.find_a2(rs)
        chart = star.project(rs, choice)
        chk.expect_none(checks.bucket_failures(host, star.chart_counts(chart)), "%s buckets" % host)
        for fmt in ("svg", "csv"):
            chk.expect(chart_digest(chart, fmt) == golden["charts"][host][fmt],
                       "%s %s chart bytes differ" % (host, fmt))


def _clifford_step(chk, golden, rng):
    symmetries = {}
    for p, q in SIGNATURES:
        rep = clifford.build_rep(clifford.Signature(p, q))
        clifford.verify_relations(rep)
        syms = symmetries[(p, q)] = conjugation_symmetries(rep)
        key = "%d,%d" % (p, q)
        expected = golden["clifford"][key]
        chk.expect(rep.dim == expected["dim"], "%s dim %d" % (key, rep.dim))
        chk.expect({str(t): s for t, s in syms.items()} == expected["bilinears"],
                   "%s bilinears %r" % (key, syms))
        n = p + q
        pairs = [(i, i) for i in range(n)] + [
            tuple(sorted(rng.sample(range(n), 2))) for _ in range(ANTICOMMUTE_PAIRS)]
        chk.expect_none(checks.anticommutation_failures(rep.gammas, rep.metric, pairs),
                        "%s relations" % key)
    chk.expect_none(checks.mod8_failures(symmetries), "mod-8 stability")


def _random_talg_element(space, rng):
    el = talgebra.TElement.zero(space)
    el.r1, el.r2, el.r3 = (Q(rng.randint(-5, 5)) for _ in range(3))
    el.v = [Q(rng.randint(-5, 5)) for _ in range(space.vector_dim)]
    el.psi = [[Q(rng.randint(-5, 5)) for _ in range(space.width)] for _ in range(space.fund)]
    return el


def _talg_step(chk, rng, latencies):
    spaces = {}
    for (q, n), count in TALG_ELEMENTS.items():
        space = talgebra.make_space(q, n)
        spaces[(q, n)] = space
        pairs = talgebra.so_generator_pairs(space)
        for k in range(count):
            el = _random_talg_element(space, rng)
            lam = Q(rng.randint(1, 7), rng.randint(1, 7))
            pair = pairs[rng.randrange(len(pairs))]
            t0 = time.perf_counter()
            norm = talgebra.cubic_norm(space, el)
            grad = talgebra.norm_gradient(space, el)
            rk = talgebra.rank(space, el)
            value, n_abs = talgebra.entropy(space, el)
            delta = talgebra.infinitesimal_rotation(space, el, pair)
            if (q, n) == (8, 1):
                latencies.append(time.perf_counter() - t0)
            scaled = talgebra.TElement(
                lam * el.r1, lam * el.r2, lam * el.r3,
                [lam * x for x in el.v], [[lam * x for x in col] for col in el.psi])
            site = "T(%d,%d) element %d" % (q, n, k)
            chk.expect(talgebra.cubic_norm(space, scaled) == lam ** 3 * norm, site + " homogeneity")
            chk.expect(sum(g * c for g, c in zip(grad, el.coords())) == 3 * norm, site + " Euler")
            chk.expect(sum(g * d for g, d in zip(grad, delta)) == 0, site + " invariance")
            expected_rank = 3 if norm else (2 if any(grad) else (1 if any(el.coords()) else 0))
            chk.expect(rk == expected_rank, site + " rank")
            chk.expect(n_abs == abs(norm) and value == math.pi * math.sqrt(abs(norm)),
                       site + " entropy")
    return spaces[(8, 0)]


def _oracle_step(chk, golden, rng, space):
    cal = talgebra.calibrate_embedding(space)
    chk.expect([cal.block, list(cal.u_slot), list(cal.w_slot), cal.v_conj]
               == golden["embedding"], "embedding choice differs")
    for k in range(ORACLE_MATRICES):
        j = talgebra.OctonionHermitian3.from_coords([rng.randint(-9, 9) for _ in range(27)])
        el = talgebra.embed_jordan(space, j, cal)
        chk.expect(talgebra.cubic_norm(space, el) == talgebra.jordan_determinant(j),
                   "oracle matrix %d: norm differs from the determinant" % k)
        # real restriction: the determinant equals the classical one
        r1, r2, r3, a1, a2, a3 = (Q(rng.randint(-9, 9)) for _ in range(6))
        real = talgebra.OctonionHermitian3.from_coords(
            [r1, r2, r3, a1] + [0] * 7 + [a2] + [0] * 7 + [a3] + [0] * 7)
        chk.expect(talgebra.jordan_determinant(real)
                   == checks.det3(((r1, a1, a2), (a1, r2, a3), (a2, a3, r3))),
                   "oracle real matrix %d: determinant differs" % k)


def _cli_step(chk, out_dir):
    with open(os.path.join(out_dir, "element.json"), "w") as fh:
        json.dump(README_ELEMENT, fh)
    for name, argv, files in CLI_EXAMPLES:
        for f in files:
            path = os.path.join(out_dir, f)
            if os.path.exists(path):
                os.remove(path)
        code, stdout = run_cli(argv, out_dir)
        chk.expect(code == 0, "cli %s exit code %d" % (name, code))
        with open(os.path.join(GOLDEN_DIR, name + ".out")) as fh:
            chk.expect(stdout == fh.read(), "cli %s stdout differs" % name)
        for f in files:
            with open(os.path.join(GOLDEN_DIR, f)) as g, open(os.path.join(out_dir, f)) as o:
                chk.expect(o.read() == g.read(), "cli %s file %s differs" % (name, f))


def structures(seed: int, chk: checks.Checks, golden: dict, out_dir: str) -> dict:
    rng = random.Random(seed)
    latencies = []
    t0 = time.perf_counter()
    _star_step(chk, golden)
    t1 = time.perf_counter()
    _clifford_step(chk, golden, rng)
    t2 = time.perf_counter()
    oracle_space = _talg_step(chk, rng, latencies)
    t3 = time.perf_counter()
    _oracle_step(chk, golden, rng, oracle_space)
    t4 = time.perf_counter()
    _cli_step(chk, out_dir)
    t5 = time.perf_counter()
    return {"star_s": t1 - t0, "clifford_s": t2 - t1, "oracle_s": t4 - t3, "cli_s": t5 - t4,
            "talg_ms.samples": latencies}


WORKLOADS = {
    "ep_certify": ep_certify,
    "ep_calibrate": ep_calibrate,
    "structures": structures,
}
