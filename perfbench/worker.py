"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED PASS_ID TRACE OUT_DIR

run.py starts one of these per pass so that no in-process cache (such as
``generate_roots``' lru_cache) carries over between passes, as no cache
carries over between two ``magicstar`` command-line calls.  With TRACE = 1
every public function of the eight modules is wrapped in a span before the
pass starts.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback

import checks
import spans
import workloads


def _layer_observers():
    """Counts read at a span boundary from the call's arguments or result."""
    return {
        "linalg.mat_mul": lambda a, k, r: {"cols": getattr(r, "dim", None) or r.cols},
        "roots.generate_roots": lambda a, k, r: {"roots": len(r.roots)},
        "star.find_a2": lambda a, k, r: {"candidates": r.candidates_validated},
        "ep.calibrate": lambda a, k, r: {"rows": r.rows},
        "ep.jacobi_infeasibility": lambda a, k, r: {
            "rows": len(r.rows),
            "useful_triples": 1 + max(ref[0] for ref, _ in r.certificate) if r.certificate else 0,
        },
    }


def _jacobi_triples(recorder) -> int:
    """Triples sampled inside jacobi_infeasibility: three random spinor
    elements are drawn per triple."""
    jac = recorder.name_id("ep.jacobi_infeasibility")
    draw = recorder.name_id("ep.random_spinor_element")
    name_idx, parent = recorder.name_idx, recorder.parent
    draws = sum(1 for i in range(len(parent))
                if name_idx[i] == draw and parent[i] >= 0 and name_idx[parent[i]] == jac)
    return draws // 3


def main(argv) -> None:
    workload, seed, pass_id, trace, out_dir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "magicstar")
    if os.path.dirname(os.path.abspath(workloads.ep.__file__)) != src:
        raise SystemExit("magicstar was imported from %s, not %s" % (workloads.ep.__file__, src))
    golden = workloads.load_golden()
    recorder = None
    if trace:
        modules = {m: importlib.import_module("magicstar." + m) for m in spans.MODULES}
        recorder = spans.SpanRecorder(pass_id)
        spans.install(recorder, modules, _layer_observers())
    chk = checks.Checks()
    t0 = time.perf_counter()
    try:
        stages = workloads.WORKLOADS[workload](seed, chk, golden, out_dir)
    except Exception as exc:  # a program error fails the pass; its result is still reported
        traceback.print_exc()
        chk.expect(False, "%s raised %s: %s" % (workload, type(exc).__name__, exc))
        stages = {}
    wall = time.perf_counter() - t0
    result = {
        "wall_s": wall,
        "stages": stages,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        layers = recorder.summary()
        row = layers.setdefault("ep.jacobi_infeasibility", {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["triples"] = _jacobi_triples(recorder)
        result["layers"] = layers
        result["spans"] = len(recorder.start)
        recorder.write(os.path.join(out_dir, "spans-%s-seed%d-pass%d.tsv" % (workload, seed, pass_id)))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
