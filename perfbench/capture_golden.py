"""Capture the reference outputs the benchmark compares against.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/capture_golden.py

It rewrites perfbench/golden/: golden.json (calibrated coefficients, chart
digests, gamma dimensions and bilinear symmetries, the determinant
embedding) and, per command-line example, its stdout and output files.
None of these depend on the benchmark seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from magicstar import clifford, ep, star, talgebra  # noqa: E402
from magicstar.roots import AlgebraLabel, generate_roots  # noqa: E402


def main() -> None:
    golden = {"calibration": {}, "charts": {}, "clifford": {}}
    for level in ep.LEVELS:
        rep = ep.calibrate(level, 0, seed=7)
        golden["calibration"][level] = {k: str(v) for k, v in sorted(rep.coeffs.values.items())}
    for host in workloads.HOSTS:
        rs = generate_roots(AlgebraLabel.parse(host))
        chart = star.project(rs, star.find_a2(rs))
        golden["charts"][host] = {fmt: workloads.chart_digest(chart, fmt) for fmt in ("svg", "csv")}
    for p, q in workloads.SIGNATURES:
        rep = clifford.build_rep(clifford.Signature(p, q))
        bilinears = {str(t): s for t, s in workloads.conjugation_symmetries(rep).items()}
        golden["clifford"]["%d,%d" % (p, q)] = {"dim": rep.dim, "bilinears": bilinears}
    cal = talgebra.calibrate_embedding(talgebra.make_space(8, 0))
    golden["embedding"] = [cal.block, list(cal.u_slot), list(cal.w_slot), cal.v_conj]

    os.makedirs(workloads.GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(workloads.GOLDEN_DIR, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")

    out_dir = tempfile.mkdtemp()
    try:
        with open(os.path.join(out_dir, "element.json"), "w") as fh:
            json.dump(workloads.README_ELEMENT, fh)
        for name, argv, files in workloads.CLI_EXAMPLES:
            code, stdout = workloads.run_cli(argv, out_dir)
            if code != 0:
                raise SystemExit("%s exited %d" % (name, code))
            with open(os.path.join(workloads.GOLDEN_DIR, name + ".out"), "w") as fh:
                fh.write(stdout)
            for f in files:
                shutil.copyfile(os.path.join(out_dir, f), os.path.join(workloads.GOLDEN_DIR, f))
    finally:
        shutil.rmtree(out_dir)


if __name__ == "__main__":
    main()
