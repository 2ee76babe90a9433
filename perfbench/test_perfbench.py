"""Tests of the benchmark's own rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest
from pathlib import Path

from coldcli import import_split
from rules import (Checks, Outcome, check_reilly, check_report, key_medians,
                   mask_generated_time, nominal_nodes, percentile, tail_percentile, tally)

SRC = Path(__file__).resolve().parent.parent / "src"


class PercentileRule(unittest.TestCase):
    def test_hundred_samples_support_p90(self):
        self.assertEqual(tail_percentile(100), 90)
        self.assertEqual(percentile(range(1, 101), 90), 90)

    def test_too_few_samples(self):
        self.assertIsNone(tail_percentile(10))
        self.assertIsNone(tail_percentile(3))

    def test_highest_percentile_with_ten_beyond(self):
        for count in range(11, 400):
            xs = list(range(count))
            p = tail_percentile(count)
            beyond = sum(x > percentile(xs, p) for x in xs)
            self.assertGreaterEqual(beyond, 10, count)
            if p < 100:
                self.assertLess(sum(x > percentile(xs, p + 1) for x in xs), 10, count)

    def test_median_of_odd_count(self):
        self.assertEqual(percentile([5.0, 1.0, 3.0], 50), 3.0)


class Calibration(unittest.TestCase):
    def test_op_time_at_nominal_speed(self):
        self.assertAlmostEqual(Outcome("a", 0.6, slowness=1.5).nominal_s, 0.4)
        self.assertEqual(Outcome("a", 0.6).nominal_s, 0.6)

    def test_percentiles_over_medians_of_each_op(self):
        pairs = [("slow", 9.0), ("fast", 1.0), ("slow", 3.0), ("fast", 2.0), ("slow", 5.0)]
        self.assertEqual(key_medians(pairs), [5.0, 1.5])

    def test_sample_and_one_cpu(self):
        import os

        from calibrate import Calibrator, one_cpu
        cpus = os.sched_getaffinity(0)
        with one_cpu():
            self.assertEqual(len(os.sched_getaffinity(0)), 1)
            slowness = Calibrator().sample()
        self.assertEqual(os.sched_getaffinity(0), cpus)
        self.assertGreater(slowness, 0.0)


class Accounting(unittest.TestCase):
    def test_raised_and_failed_checks_both_fail(self):
        outcomes = [
            Outcome("a", 1.0),
            Outcome("b", 1.0, raised="DegenerateImmersion"),
            Outcome("c", 1.0, gate=["reilly.x1"]),
            Outcome("d", 1.0, fact=["Minkowski.equality"]),
        ]
        t = tally(outcomes)
        self.assertEqual((t["attempted"], t["failed"]), (4, 3))
        self.assertEqual((t["raised"], t["gate_failed"], t["fact_failed"]), (1, 1, 1))
        self.assertFalse(t["correct"])
        self.assertEqual(t["reasons"]["b raised:DegenerateImmersion"], 1)

    def test_program_verdicts_fail_ops_but_keep_run_correct(self):
        t = tally([Outcome("a", 1.0, raised="DegenerateImmersion"),
                   Outcome("b", 1.0, gate=["reilly.x1"])])
        self.assertEqual(t["failed"], 2)
        self.assertTrue(t["correct"])

    def test_reilly_residual_over_gate_is_a_gate_failure(self):
        ck = Checks()
        check_reilly(ck, {"function": "x1", "residual": 6.5e-3})
        check_reilly(ck, {"function": "V", "residual": 1e-15})
        self.assertEqual((ck.gate, ck.fact), (["reilly.x1"], []))

    def test_report_facts(self):
        report = {"theorem_id": "Minkowski", "lhs": 1.0, "rhs": 1.0, "deficit": -1e-3,
                  "relative_deficit": -1e-3, "hypothesis": {"ok": True},
                  "integrals": {"weighted_area": 6.283185307179586}}
        ck = Checks()
        check_report(ck, report, umbilical=True, hemisphere_n=3)
        self.assertEqual(ck.fact, ["Minkowski.equality"])
        ck = Checks()
        check_report(ck, report, umbilical=False)
        self.assertEqual(ck.fact, ["Minkowski.deficit_positive"])
        report["integrals"]["weighted_area"] = 6.3
        ck = Checks()
        check_report(ck, dict(report, relative_deficit=0.0), umbilical=True, hemisphere_n=3)
        self.assertEqual(ck.fact, ["Minkowski.hemisphere_area"])


class NominalNodes(unittest.TestCase):
    def test_one_piece_region(self):
        # n = 4, level 12 over a flat support: 3,456 surface and 20,736 region nodes
        self.assertEqual(nominal_nodes(4, 12, "euclidean_plane", ("cap", "face")), 3456)
        self.assertEqual(nominal_nodes(4, 12, "euclidean_plane", ("region",)), 20736)
        self.assertEqual(nominal_nodes(4, 12, "horosphere"), 3456 + 20736)

    def test_two_piece_region(self):
        self.assertEqual(nominal_nodes(3, 32, "euclidean_sphere", ("region",)), 2 * 32 ** 3)
        self.assertEqual(nominal_nodes(3, 32, "sph_geodesic_sphere"), 2 * 32 ** 2 + 2 * 32 ** 3)
        self.assertEqual(nominal_nodes(3, 32, "hyp_geodesic_sphere", ("cap",)), 32 ** 2)


class GeneratedTimeMask(unittest.TestCase):
    def test_only_the_time_field_is_masked(self):
        a = b'{\n  "generated_unix_time": 1712345678,\n  "status": "ok"\n}\n'
        b = b'{\n  "generated_unix_time": 1712349999,\n  "status": "ok"\n}\n'
        c = b'{\n  "generated_unix_time": 1712349999,\n  "status": "no"\n}\n'
        self.assertNotEqual(a, b)
        self.assertEqual(mask_generated_time(a), mask_generated_time(b))
        self.assertNotEqual(mask_generated_time(a), mask_generated_time(c))
        self.assertIn(b'"generated_unix_time": 0', mask_generated_time(a))

    def test_csv_is_unchanged(self):
        text = b"epsilon,deficit\n0.02,0.0028\n"
        self.assertEqual(mask_generated_time(text), text)


class ImportSplit(unittest.TestCase):
    def test_outermost_package_numpy_and_self_times(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |       1000 |       numpy",
            "import time:        50 |       1050 |     fbmink.ambient",
            "import time:        10 |       1060 |   fbmink",
            "import time:        40 |        400 |   jsonschema",
            "import time:        20 |       1480 | fbmink.cli",
        ])
        split = import_split(stderr)
        self.assertAlmostEqual(split["cli.import_s"], 1480e-6)
        self.assertAlmostEqual(split["cli.import_numpy_s"], 1000e-6)
        self.assertAlmostEqual(split["cli.import_jsonschema_s"], 400e-6)
        self.assertAlmostEqual(split["cli.import_fbmink_s"], 80e-6)


@unittest.skipUnless((SRC / "fbmink").is_dir(), "needs the package source")
class Tracing(unittest.TestCase):
    def setUp(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def test_wrapped_at_every_binding_and_restored(self):
        import fbmink
        import fbmink.inequalities as inequalities
        import fbmink.quadrature as quadrature
        import fbmink.surfaces as surfaces
        import tracing
        geometry, report = surfaces.surface_geometry, inequalities.minkowski_report
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(surfaces.surface_geometry, geometry)
            self.assertIs(quadrature.surface_geometry, surfaces.surface_geometry)
            wrapped = inequalities.minkowski_report
            self.assertIsNot(wrapped, report)
            for binding in (fbmink.minkowski_report, inequalities.REPORT_BUILDERS["minkowski"]):
                self.assertIs(binding, wrapped)
        finally:
            tracer.uninstall()
        self.assertIs(quadrature.surface_geometry, geometry)
        self.assertIs(inequalities.REPORT_BUILDERS["minkowski"], report)

    def test_counts_repeat_and_self_time_excludes_children(self):
        import fbmink.families as families
        import fbmink.inequalities as inequalities
        import fbmink.quadrature as quadrature
        import fbmink.supports as supports
        import tracing

        def traced_sums():
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.op = 0
                s = supports.make_support("euclidean_plane", 3)
                scenario = families.make_umbilical_cap(families.default_cap_spec(s))
                inequalities.minkowski_report(scenario, quadrature.QuadratureRule(8))
            finally:
                tracer.op = None
                tracer.uninstall()
            for span in tracer.spans:
                self.assertGreaterEqual(span.dur + 1e-9, span.child)
            return tracer.op_sums()[0]

        first, second = traced_sums(), traced_sums()
        for name in first:
            if not name.endswith("_s"):
                self.assertEqual(first[name], second[name], name)
        # one cap grid at level 8 in the report, plus the region nodes
        self.assertEqual(first["quadrature.surface_builds"], 1)
        self.assertGreaterEqual(first["surfaces.geometry_points"], 64)


if __name__ == "__main__":
    unittest.main()
