"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that the generators reproduce the acceptance suite's inputs, that
damaged formulas are counted as failed operations, that a traced name the
program no longer has yields an absent metric instead of a crash, and
that BENCHMARK.json names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import os
import re
import sys
import unittest

import inputs
import run
import tracing
import workload

CLI, EXPR, ORACLE = workload.import_program()
TESTS = os.path.join(run.ROOT, "tests")
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fake_summary(names) -> dict:
    return {
        "calls": {n: 1 for n in names},
        "self_s": {n: 0.5 for n in names},
        "op_self_s": {n: 0.5 for n in names},
        "op_s": 1.0,
        "children": {},
    }


class InputTests(unittest.TestCase):
    @unittest.skipUnless(os.path.isdir(TESTS), "needs the repository's tests/")
    def test_random_query_matches_acceptance_stream(self):
        sys.path.insert(0, TESTS)
        try:
            from helpers import GOLDEN, random_diagram
        finally:
            sys.path.remove(TESTS)
        for i in range(1000):
            d, x, y, z = random_diagram(i, master=inputs.SWEEP_MASTER)
            qf = CLI.parse_diagram(inputs.random_query(i).text())
            self.assertEqual(qf.diagram, d, f"diagram {i}")
            self.assertEqual(qf.query, CLI.Query.create(x, y, z), f"query {i}")
        for spec in inputs.GOLDEN:
            make, (x, y, z) = GOLDEN[spec.name]
            qf = CLI.parse_diagram(spec.text())
            self.assertEqual(qf.diagram, make(), spec.name)
            self.assertEqual(qf.query, CLI.Query.create(x, y, z), spec.name)

    def test_same_seed_same_inputs(self):
        ref = inputs.load_reference()
        a = [spec.text() for spec, _ in inputs.large_queries(7, ref)]
        b = [spec.text() for spec, _ in inputs.large_queries(7, ref)]
        c = [spec.text() for spec, _ in inputs.large_queries(8, ref)]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_reference_covers_every_query(self):
        ref = inputs.load_reference()
        self.assertEqual(sorted(ref["golden"]), sorted(s.name for s in inputs.GOLDEN))
        self.assertEqual(len(ref["random_sweep"]), inputs.SWEEP_DIAGRAMS)
        for n, size in inputs.LARGE_POOL.items():
            self.assertEqual(len(ref["large_decide"][str(n)]), size)
        picked = inputs.large_queries(0, ref)
        fails = sum(1 for _, code in picked if code != "T")
        self.assertEqual(fails, inputs.LARGE_PICK_FAIL * len(inputs.LARGE_BLOCK))


class CheckTests(unittest.TestCase):
    def test_corrupted_formula_is_a_failed_op(self):
        w = workload.make_workload("golden", 0, inputs.load_reference())
        self.assertEqual(w.setup((CLI, EXPR, ORACLE)), [])
        name, qf, formula = w.items[0]
        w.items[0] = (name, qf, CLI._corrupt_formula(formula))
        latencies, failures = workload.closed_loop(w, float("inf"), w.block)
        self.assertEqual(len(latencies), w.block)
        self.assertEqual(len(failures), 1)
        self.assertIn(name, failures[0])
        for other, _, _ in w.items[1:]:
            self.assertNotIn(other, failures[0])

    def test_bad_sweep_row_fails_its_own_op_only(self):
        w = workload.make_workload("random_sweep", 0, inputs.load_reference())
        self.assertEqual(w.setup((CLI, EXPR, ORACLE)), [])
        name = w.items[1][0]
        w.bad.add(name)  # as if set-up had decided it against the reference
        latencies, failures = workload.closed_loop(w, float("inf"), 3)
        self.assertEqual(len(latencies), 3)
        self.assertEqual(len(failures), 1)
        self.assertIn(name, failures[0])

    def test_term_shape_rule(self):
        term = {"kind": "term", "domain": "target", "do": ["Z"], "outcome": ["Y"], "given": []}
        self.assertFalse(workload.term_shapes_ok(term, frozenset({"Z"})))
        src = dict(term, domain="source")
        self.assertTrue(workload.term_shapes_ok(src, frozenset({"Z"})))
        self.assertFalse(workload.term_shapes_ok({"kind": "product", "factors": [src]}, frozenset()))


class TracingTests(unittest.TestCase):
    def test_missing_attribute_is_absent_not_a_crash(self):
        targets = dict(tracing.TARGETS)
        targets["oracle.cpt"] = ("ztransport.oracle", "DiscreteSCM.no_such_method")
        tracer = tracing.Tracer()
        absent = tracer.install(targets)
        try:
            w = workload.make_workload("golden", 0, inputs.load_reference())
            tracer.span(tracing.SETUP, w.setup, (CLI, EXPR, ORACLE))
            workload.closed_loop(w, float("inf"), 2, tracer.span)
        finally:
            tracer.uninstall()
        self.assertEqual(absent, ["oracle.cpt"])
        metrics = workload.layer_metrics(tracer.summary(), absent, 0.0)
        self.assertNotIn("oracle.cpt.calls", metrics)
        self.assertGreater(metrics["oracle.enumerate_joint.calls"][0], 0)

    def test_uninstall_restores_every_binding(self):
        before = (CLI.run, ORACLE.evaluate, EXPR.evaluate, ORACLE.DiscreteSCM.__dict__["cpt"])
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(ORACLE.evaluate, before[1])
        tracer.uninstall()
        after = (CLI.run, ORACLE.evaluate, EXPR.evaluate, ORACLE.DiscreteSCM.__dict__["cpt"])
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        tracer.span(tracing.OP, lambda: [inner() for _ in range(3)])
        s = tracer.summary()
        total = s["op_s"]
        self.assertAlmostEqual(s["self_s"][tracing.OP] + s["self_s"]["inner"], total, places=9)
        self.assertEqual(s["children"][(tracing.OP, "inner")], 3)


class BenchmarkFileTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        e2e = [m["name"] for m in bench["end_to_end"]]
        layer = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(e2e, list(run.E2E))
        produced = workload.layer_metrics(fake_summary(tracing.TARGETS), [], 0.0)
        self.assertEqual(sorted(layer), sorted(produced))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, (_, unit) in produced.items():
            self.assertEqual(units[name], unit, name)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        for name in e2e + layer + [f"{w}.{m}" for w in run.WORKLOADS for m in e2e + layer]:
            self.assertRegex(name, METRIC_NAME)


if __name__ == "__main__":
    unittest.main()
