"""Self-checks of the benchmark: generator, statistics, span arithmetic,
and the referees against the program they referee.

    python3 perfbench/selfcheck.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import referee  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _snapshot(requests):
    return [(r.kind, r.argv, r.files, repr(r.meta), r.graphs) for r in requests]


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in gen.WORKLOADS:
            a = _snapshot(gen.workload(name, 7))
            self.assertEqual(a, _snapshot(gen.workload(name, 7)), name)
            self.assertNotEqual(a, _snapshot(gen.workload(name, 8)), name)

    def test_composition_does_not_depend_on_seed(self):
        for name in gen.WORKLOADS:
            kinds = {tuple(sorted(r.argv[0] + str(r.meta.get("algebra")) + str(r.meta.get("k"))
                                  for r in gen.workload(name, s))) for s in (1, 2, 3)}
            self.assertEqual(len(kinds), 1, name)

    def test_normalize_groups_are_distinct_classes(self):
        bases = {}
        for req in gen.workload("warm-mix", 3):
            if req.kind == "normalize":
                g, key = req.graphs[0]
                # the certificate ignores the presentation ...
                self.assertEqual(gen.invariant(g), gen.invariant(req.meta["base"]))
                bases[key] = gen.invariant(req.meta["base"])
        # ... and differs between groups, so no two groups are isomorphic
        self.assertEqual(len(set(bases.values())), len(bases))


class StatisticsTest(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101))), (90, 90.0, 100))
        value, pct, n = run.tail([5.0] * 10 + [1.0] * 10)
        self.assertEqual((value, pct, n), (1.0, 50.0, 20))
        samples = list(range(37))
        value, pct, _ = run.tail(samples)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertAlmostEqual(pct, 100 * 27 / 37)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(run.tail([3, 1, 2]), (3, 100.0, 3))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        tree = [
            ["root", None, 0.0, 10.0],
            ["a", 0, 1.0, 4.0],   # overlaps b: the union of 1..4 and 3..6 is 5
            ["b", 0, 3.0, 6.0],
            ["leaf", 1, 2.0, 3.0],
            ["b", 0, 8.0, 9.0],
        ]
        out = spans.self_times(tree)
        self.assertEqual(out["root"], [1, 10.0 - 5.0 - 1.0])
        self.assertEqual(out["a"], [1, 2.0])
        self.assertEqual(out["b"], [2, 4.0])
        self.assertEqual(out["leaf"], [1, 1.0])

    def test_traced_worker_reports_spans_at_every_binding(self):
        scratch = ROOT / ".perfbench_tmp" / "selfcheck"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            (scratch / "v.txt").write_text(gen.format_graph(gen.THETA) + "\n")
            req = gen.Request("reduce", ["reduce", "--k", "1", "v.txt"])
            reply = run.run_once(req, True, scratch)
        finally:
            shutil.rmtree(scratch)
        self.assertEqual(reply["code"], 0, reply)
        # reduce reaches canonical_form through graph_algebra's binding
        for name in ("cli.main", "graph_core.canonical_form", "graph_algebra.reduce",
                     "graph_algebra.parse_vector", spans.IMPORT_SPAN):
            self.assertIn(name, reply["spans"])
        self.assertGreater(reply["counts"]["canon_calls"], 0)


class RefereeTest(unittest.TestCase):
    """The referees are independent of graphgenus; these tests pin them
    to it where both are known to be right."""

    @classmethod
    def setUpClass(cls):
        import graphgenus
        cls.gg = graphgenus

    def graph(self, g):
        return self.gg.Graph(*g)

    def test_ribbon_weights_match_the_contraction_oracle(self):
        gg = self.gg
        cases = [(1, gen.THETA)] + [(k, g) for k in (2, 3) for g in gen.BASIS[k]]
        for alg, N in (("sl2", 2), ("gl2", 2), ("gl3", 3)):
            for k, g in cases:
                if alg == "gl3" and k == 3:
                    continue
                want = gg.weight(gg.builtin(alg), self.graph(g))
                got = referee.evaluate(referee.weight_poly(g), N)
                self.assertEqual(got, want, (alg, g))
        self.assertEqual(referee.weight_poly(gen.THETA), {3: 2, 1: -2})

    def test_represent_sign_matches_canonical_form(self):
        import random
        rng = random.Random(5)
        for _ in range(200):
            g = gen.random_graph(rng, rng.choice((2, 4, 6)), rng.choice((0, 2, 4)))
            h, s = gen.represent(rng, g)
            rel = self.gg.is_isomorphic(self.graph(g), self.graph(h))
            self.assertIn(rel, (0, s))

    def test_generated_relations_vanish(self):
        for k, sources in gen.RELATION_SOURCES.items():
            for b, t in sources:
                terms = [(Fraction(s), h) for h, s in gen.ihx_relation(gen.BASIS[k][b], t)]
                self.assertEqual(referee.vector_poly(terms), {})
                v = self.gg.GraphVector.zero()
                for c, h in terms:
                    v.add_presentation(self.graph(h), c)
                self.assertFalse(self.gg.reduce(v), (k, b, t))

    def test_omega_and_analyze_expectations(self):
        from graphgenus import cli
        import contextlib
        import io
        for req in gen.workload("warm-mix", 1):
            if req.kind not in ("omega", "analyze"):
                continue
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(req.argv)
            reply = {"code": code, "out": out.getvalue(), "err": "", "exc": None}
            self.assertIsNone(referee.check(req, reply), req.argv)


class ContractTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_tmp" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "warm-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)

    def test_benchmark_json_lists_the_reported_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(gen.WORKLOADS))
        phase = run.Phase()
        phase.setup_s = [1.0]
        phase.passes = [(1.0, [{"seconds": 0.5}] * 12)]
        phase.maxrss_kb = 1024
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.end_to_end(phase)))
        phase.ready = {}
        phase.passes = [(1.0, [{"seconds": 0.5, "spans": {}, "counts": {}}])]
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(run.per_layer(phase, phase)))


def tearDownModule():
    try:
        (ROOT / ".perfbench_tmp").rmdir()
    except OSError:  # absent, or in use by a concurrent run
        pass


if __name__ == "__main__":
    unittest.main()
