"""magicstar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/magicstar).
Workloads, each a pass of exact computations whose results are checked:

* ep_certify    n = 1 violation certificates for the four levels;
* ep_calibrate  n = 0 calibration for the four levels, then closure on
                seeded spinor triples;
* structures    root systems and hexagram charts, ten gamma-matrix
                signatures, cubic norms at four T-algebra sites, the
                octonionic determinant oracle, and the README's
                command-line examples.

Every pass runs in a fresh interpreter (perfbench/worker.py), so no
in-process cache carries over, just as between two command-line calls.
Passes repeat until --seconds is used up; at least one always runs.

--trace 0 reports the end-to-end metrics, as medians over the run's passes.
--trace 1 alternates untraced and traced passes; the traced ones wrap every
public function of the eight modules in a span and give per-layer self
times and counts, the untraced ones give the stage times and the tracing
overhead.

The last stdout line is the result object {"correct", "attempted",
"failed", "metrics"}; the line before it is a report with the workload's
stage metrics, the environment and the src/ line counts.  Spans are written
to .perfbench_out/ in the checkout.  The exit code is 0 only when every
check of every pass passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("ep_certify", "ep_calibrate", "structures")
IMPORT_ALL = "import " + ", ".join("magicstar." + m for m in MODULES)

SETUP_REPEATS = 7
# A run must end within 180 s; no pass starts that could not finish by then.
HARD_LIMIT_S = 170.0

# (name, unit, better, bound): gated on every workload.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

LEVEL_STAGES = ("level_s.der", "level_s.str0", "level_s.conf", "level_s.qconf")
STRUCTURE_STAGES = ("star_s", "clifford_s", "oracle_s", "cli_s")

# (name, unit, better): reported by --trace 1 on every workload, 0 where the
# workload does not reach the layer.
TRACED_LAYERS = (
    ("ep.jacobi_infeasibility.self_s", "s", "lower"),
    ("ep.jacobi_infeasibility.triples", "count", "lower"),
    ("ep.jacobi_infeasibility.rows", "count", "lower"),
    ("ep.jacobi_infeasibility.useful_ratio", "ratio", "higher"),
    ("ep.make_ep.calls", "count", "lower"),
    ("ep.make_ep.self_s", "s", "lower"),
    ("clifford.build_rep.calls", "count", "lower"),
    ("clifford.build_rep.self_s", "s", "lower"),
    ("clifford.chiral_indices.self_s", "s", "lower"),
    ("linalg.mat_mul.calls", "count", "lower"),
    ("linalg.mat_mul.self_s", "s", "lower"),
    ("linalg.mat_mul.cols", "count", "lower"),
    ("ep.calibrate.self_s", "s", "lower"),
    ("ep.calibrate.rows", "count", "lower"),
    ("ep.jacobiator.calls", "count", "lower"),
    ("ep.jacobiator.self_s", "s", "lower"),
    ("linalg.RowReducer.add_row.calls", "count", "lower"),
    ("linalg.RowReducer.add_row.self_s", "s", "lower"),
    ("clifford.verify_relations.self_s", "s", "lower"),
    ("clifford.conjugation.calls", "count", "lower"),
    ("clifford.conjugation.self_s", "s", "lower"),
    ("linalg.kron.calls", "count", "lower"),
    ("linalg.kron.self_s", "s", "lower"),
    ("roots.generate_roots.self_s", "s", "lower"),
    ("roots.generate_roots.roots", "count", "lower"),
    ("star.find_a2.self_s", "s", "lower"),
    ("star.find_a2.candidates", "count", "lower"),
    ("star.project.self_s", "s", "lower"),
    ("star.emit_chart.self_s", "s", "lower"),
    ("talgebra.cubic_norm.calls", "count", "lower"),
    ("talgebra.cubic_norm.self_s", "s", "lower"),
    ("talgebra.norm_gradient.self_s", "s", "lower"),
    ("talgebra.rank.self_s", "s", "lower"),
    ("talgebra.entropy.self_s", "s", "lower"),
    ("talgebra.infinitesimal_rotation.self_s", "s", "lower"),
    ("talgebra.make_space.self_s", "s", "lower"),
    ("talgebra.calibrate_embedding.self_s", "s", "lower"),
    ("talgebra.embed_jordan.self_s", "s", "lower"),
    ("talgebra.jordan_determinant.self_s", "s", "lower"),
    ("octonion.oct_mul.calls", "count", "lower"),
    ("octonion.oct_mul.self_s", "s", "lower"),
    ("linalg.MonomialMatrix.apply.calls", "count", "lower"),
    ("linalg.MonomialMatrix.apply.self_s", "s", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
)
PER_LAYER = (
    TRACED_LAYERS
    + (("trace.overhead_ratio", "ratio", "lower"), ("checks.fail_ratio", "ratio", "lower"))
    + tuple((name, "s", "lower") for name in LEVEL_STAGES + STRUCTURE_STAGES)
    + (("talg_ms.p50", "ms", "lower"), ("talg_ms.p90", "ms", "lower"),
       ("talg_ms.samples", "count", "higher"))
    + tuple(("src.lines." + m, "lines", "lower") for m in MODULES)
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(started: float) -> float:
    return HARD_LIMIT_S - (time.perf_counter() - started)


def measure_setup(started: float) -> float:
    """Median time from starting an interpreter to having imported every
    module.  One untimed start first writes the bytecode caches."""
    cmd = [sys.executable, "-c", IMPORT_ALL]
    subprocess.run(cmd, env=_env(), check=True, timeout=_remaining(started))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True, timeout=_remaining(started))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload: str, seed: int, pass_id: int, trace: bool, started: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           str(pass_id), "1" if trace else "0", OUT]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=max(_remaining(started), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("pass %d exited %d" % (pass_id, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - t0
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, started: float):
    """Untraced passes, or untraced and traced passes alternately, until
    ``seconds`` are used; a pass starts only if a pass of its kind, at its
    median length so far, would still end inside ``seconds``.  Returns the
    untraced and the traced passes."""
    kinds = (False, True) if trace else (False,)
    done = {k: [] for k in kinds}
    t0 = time.perf_counter()
    pass_id = 0
    while True:
        kind = kinds[pass_id % len(kinds)]
        if all(done.values()):
            expect = statistics.median(p["process_s"] for p in done[kind])
            elapsed = time.perf_counter() - t0
            if elapsed + expect > seconds or expect > _remaining(started):
                break
        done[kind].append(run_pass(workload, seed, pass_id, kind, started))
        pass_id += 1
    return done[False], done.get(True, [])


def _percentile_ms(samples: list, q: int) -> float:
    return 1000.0 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def stage_metrics(workload: str, untraced: list) -> dict:
    """Medians over the untraced passes of the workload's stage times."""
    out = {}
    if workload.startswith("ep_"):
        for name in LEVEL_STAGES:
            out[name] = statistics.median(p["stages"][name] for p in untraced)
    else:
        for name in STRUCTURE_STAGES:
            out[name] = statistics.median(p["stages"][name] for p in untraced)
        samples = [s for p in untraced for s in p["stages"]["talg_ms.samples"]]
        out["talg_ms.p50"] = _percentile_ms(samples, 50)
        out["talg_ms.p90"] = _percentile_ms(samples, 90)
        out["talg_ms.samples"] = len(samples)
    return out


def layer_metrics(traced: list) -> dict:
    """Medians over the traced passes of each layer's self time and counts."""
    out = {}
    for name, _, _ in TRACED_LAYERS:
        layer, field = name.rsplit(".", 1)
        values = []
        for p in traced:
            row = p["layers"].get(layer, {})
            if field == "useful_ratio":
                triples = row.get("triples", 0)
                values.append(row.get("useful_triples", 0) / triples if triples else 0.0)
            else:
                values.append(row.get(field, 0))
        out[name] = statistics.median(values)
    return out


def src_lines() -> dict:
    out = {}
    for m in MODULES:
        with open(os.path.join(SRC, "magicstar", m + ".py")) as fh:
            out["src.lines." + m] = sum(1 for _ in fh)
    return out


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "magicstar", "__init__.py")):
        print("no magicstar sources under %s: run from a source checkout" % SRC, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    setup = measure_setup(started)
    untraced, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), started)
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for message in p["failures"]:
            print("check failed: %s" % message, file=sys.stderr)

    wall = statistics.median(p["wall_s"] for p in untraced)
    e2e = {
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    # stage times are reported only when every pass ran to the end and verified
    stages = stage_metrics(args.workload, untraced) if failed == 0 else {}
    report = dict(e2e, fail_ratio=failed / attempted, **stages)
    units = {name: unit for name, unit, _ in PER_LAYER}
    units.update({name: unit for name, unit, _, _ in END_TO_END}, fail_ratio="ratio")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "pass_wall_s": {"untraced": [p["wall_s"] for p in untraced],
                        "traced": [p["wall_s"] for p in traced]},
        "report": {k: {"value": v, "unit": units[k]} for k, v in report.items()},
        "env": environment(),
        "src_lines": src_lines(),
    }))

    if args.trace:
        values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0)
        values.update(layer_metrics(traced))
        values["trace.overhead_ratio"] = statistics.median(p["wall_s"] for p in traced) / wall
        values["checks.fail_ratio"] = report["fail_ratio"]
        values.update(stages)
        values.update(src_lines())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
