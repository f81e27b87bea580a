"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Covers self time on a synthetic span tree, the rebinding of traced names
across modules, the independent checkers rejecting a tampered certificate
and wrong bucket counts, and BENCHMARK.json agreeing with run.py.
"""

from __future__ import annotations

import json
import os
import sys
import types
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    """Advances one tick per reading, so every span length is known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SpanTreeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        rec = spans.SpanRecorder(pass_id=3, clock=FakeClock())
        leaf = rec.wrap("leaf", lambda: None)
        mid = rec.wrap("mid", lambda: (leaf(), leaf()))
        top = rec.wrap("top", lambda: (mid(), leaf()))
        top()
        # clock readings: top 1-10, mid 2-7 with leaves 3-4 and 5-6, leaf 8-9
        rows = rec.summary()
        self.assertEqual(rows["leaf"]["calls"], 3)
        self.assertEqual(rows["leaf"]["self_s"], 3.0)
        # mid opens at 2, closes at 7: 5 ticks, 2 of them in its two leaves
        self.assertEqual(rows["mid"]["total_s"], 5.0)
        self.assertEqual(rows["mid"]["self_s"], 3.0)
        # top opens at 1, closes at 10: 9 ticks, 5 in mid and 1 in its leaf
        self.assertEqual(rows["top"]["total_s"], 9.0)
        self.assertEqual(rows["top"]["self_s"], 3.0)
        self.assertEqual([rec.names[i] for i in rec.name_idx], ["top", "mid", "leaf", "leaf", "leaf"])
        self.assertEqual(list(rec.parent), [-1, 0, 1, 1, 0])

    def test_span_closes_when_the_call_raises(self):
        rec = spans.SpanRecorder(pass_id=0, clock=FakeClock())

        def fail():
            raise ValueError("boom")

        outer = rec.wrap("outer", lambda: rec.wrap("fail", fail)())
        with self.assertRaises(ValueError):
            outer()
        self.assertEqual(list(rec.parent), [-1, 0])
        self.assertTrue(all(e > s for s, e in zip(rec.start, rec.end)))

    def test_install_rebinds_every_alias(self):
        lib = types.ModuleType("pkg.lib")
        exec("def work(x):\n    return x + 1\n"
             "class Box:\n    def get(self):\n        return work(1)\n"
             "    @staticmethod\n    def make():\n        return Box()\n", lib.__dict__)
        user = types.ModuleType("pkg.user")
        user.work = lib.work
        exec("def call():\n    return work(2)\n", user.__dict__)
        user.call.__module__ = "pkg.user"
        rec = spans.SpanRecorder(pass_id=0, clock=FakeClock())
        names = spans.install(rec, {"lib": lib, "user": user})
        self.assertEqual(sorted(names), ["lib.Box.get", "lib.Box.make", "lib.work", "user.call"])
        self.assertEqual(user.call(), 3)
        self.assertEqual(lib.Box.make().get(), 2)
        rows = rec.summary()
        self.assertEqual(rows["lib.work"]["calls"], 2)
        self.assertEqual(rows["user.call"]["calls"], 1)


class CheckerTest(unittest.TestCase):
    def test_certificate_checker(self):
        # x = 1 and x = 2: y = (1, -1) gives 0 = -1
        rows = [((0, "a"), [Fraction(1)], Fraction(1)), ((0, "b"), [Fraction(1)], Fraction(2))]
        good = [((0, "a"), Fraction(1)), ((0, "b"), Fraction(-1))]
        self.assertEqual(checks.certificate_failures(rows, good, 1), [])
        self.assertTrue(checks.certificate_failures(rows, [((0, "a"), Fraction(1))], 1))
        self.assertTrue(checks.certificate_failures(rows, [((0, "c"), Fraction(1))], 1))
        self.assertTrue(checks.certificate_failures(rows, None, 1))

    def test_real_certificate_accepted_and_tampered_one_rejected(self):
        from magicstar import ep

        res = ep.jacobi_infeasibility("str0", 1, samples=1, seed=7)
        self.assertEqual(res.status, "violated")
        n = len(res.unknowns)
        self.assertEqual(checks.certificate_failures(res.rows, res.certificate, n), [])
        (ref, y), rest = res.certificate[0], res.certificate[1:]
        self.assertTrue(checks.certificate_failures(res.rows, [(ref, 2 * y)] + rest, n))
        tampered_rows = [(r, c, 0 * b) for r, c, b in res.rows]
        self.assertTrue(checks.certificate_failures(tampered_rows, res.certificate, n))

    def test_bucket_checker(self):
        self.assertEqual(checks.bucket_failures("E8", {"center": 72, "hexagon": 6, "tips": [27] * 6}), [])
        self.assertTrue(checks.bucket_failures("E8", {"center": 71, "hexagon": 6, "tips": [27] * 6}))
        self.assertTrue(checks.bucket_failures("E7", {"center": 30, "hexagon": 6, "tips": [15] * 5 + [16]}))

    def test_anticommutation_checker(self):
        from magicstar import clifford

        rep = clifford.build_rep(clifford.Signature(2, 0))
        pairs = [(0, 0), (1, 1), (0, 1)]
        self.assertEqual(checks.anticommutation_failures(rep.gammas, rep.metric, pairs), [])
        commuting = (rep.gammas[0], rep.gammas[0])
        self.assertTrue(checks.anticommutation_failures(commuting, rep.metric, [(0, 1)]))
        self.assertTrue(checks.anticommutation_failures(rep.gammas, (-1, -1), [(0, 0)]))

    def test_mod8_checker(self):
        same = {(9, 0): {1: 1, -1: None}, (17, 0): {1: 1, -1: None}}
        self.assertEqual(checks.mod8_failures(same), [])
        self.assertTrue(checks.mod8_failures({(9, 0): {1: 1}, (17, 0): {1: -1}}))


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]],
                         [tuple(m) for m in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
