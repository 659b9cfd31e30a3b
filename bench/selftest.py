"""Self-tests of the benchmark's own helpers.

    python3 bench/selftest.py

They cover the percentile and quartile helpers, span self time, the checks
of a traced validate call, the output checks, the repetition check of the
runner and the restoring of every attribute the tracer wraps.  The file name keeps them out of the program's
pytest suite.
"""

import json
import math
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from measure import Span, Tracer, percentile, quartile_spread, self_times, subtree  # noqa: E402
from workloads import Op  # noqa: E402


class Stats(unittest.TestCase):
    def test_percentile_interpolates_between_ranks(self):
        xs = [7.0, 1.0, 3.0, 5.0]
        self.assertEqual(percentile(xs, 0), 1.0)
        self.assertEqual(percentile(xs, 100), 7.0)
        self.assertEqual(percentile(xs, 50), 4.0)
        self.assertAlmostEqual(percentile(xs, 90), 6.4)
        self.assertEqual(percentile([2.5], 90), 2.5)
        self.assertRaises(ValueError, percentile, [], 50)
        self.assertRaises(ValueError, percentile, xs, 101)

    def test_quartile_spread_matches_statistics_quantiles(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(quartile_spread(xs), (q3 - q1) / statistics.median(xs))
        self.assertEqual(quartile_spread([2.0] * 5), 0.0)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [Span("parent", 0.0, 10.0, None, 0),
                 Span("a", 1.0, 4.0, 0, 0), Span("b", 3.0, 6.0, 0, 0),
                 Span("c", 8.0, 12.0, 0, 0), Span("inner", 2.0, 3.0, 1, 0)]
        # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10 s.
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 4.0, 1.0])
        self.assertEqual(subtree(spans, 1), [1, 4])

    def test_nested_self_times_add_up_to_the_root(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        with tracer.span("root", op=3):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        selfs = self_times(tracer.spans)
        self.assertEqual(sum(selfs[i] for i in subtree(tracer.spans, 0)),
                         tracer.spans[0].duration)
        self.assertEqual({s.op for s in tracer.spans}, {3})
        self.assertEqual([s.parent for s in tracer.spans], [None, 0, 1, 0])


class Identity(unittest.TestCase):
    def test_validate_identity_checks_can_fail(self):
        record = {"op": 0, "span_s": 2.0, "subtree_self_s": 2.0,
                  "simulate_calls": 4}
        self.assertEqual(run.identity_problems(record, 2.0001), [])
        self.assertTrue(run.identity_problems(record, 3.0))
        self.assertTrue(run.identity_problems(record, 1.5))
        self.assertTrue(run.identity_problems(dict(record, subtree_self_s=1.9), 2.0))
        self.assertTrue(run.identity_problems(dict(record, simulate_calls=0), 2.0))


class Checks(unittest.TestCase):
    def setUp(self):
        run.ROOT.joinpath(".bench_tmp").mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp")
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    @staticmethod
    def csv(rows, bad=None):
        lines = ["omega_rad_s,value,thermal"]
        lines += [f"{i + 1},{2.0 * (i + 1)},0" for i in range(rows)]
        if bad is not None:
            lines[1] = bad
        return "\n".join(lines) + "\n"

    def test_csv(self):
        self.assertEqual(checks.check_csv("ok", self.csv(400), 400), [])
        self.assertTrue(checks.check_csv("truncated", self.csv(399), 400))
        self.assertTrue(checks.check_csv("cut line", self.csv(400, "1,2"), 400))
        self.assertTrue(checks.check_csv("nan", self.csv(400, "1,nan,0"), 400))
        self.assertTrue(checks.check_csv("zero psd", self.csv(400, "1,0,0"), 400))
        self.assertTrue(checks.check_csv("negative part", self.csv(400, "1,2,-1"), 400))
        self.assertTrue(checks.check_csv("header", "a,b\n1,2\n", 1))

    def test_values(self):
        self.assertEqual(checks.check_values("ok", [1.0, 2.0], rows=2), [])
        self.assertTrue(checks.check_values("nan", [1.0, math.nan]))
        self.assertTrue(checks.check_values("inf", [math.inf]))
        self.assertTrue(checks.check_values("rows", [1.0], rows=2))
        self.assertEqual(checks.check_values("zero part", [0.0], positive=False), [])

    def test_manifest_sha256(self):
        out = self.dir / "spectrum.csv"
        out.write_text(self.csv(3))
        manifest = self.dir / "spectrum.csv.manifest.json"
        entry = {"path": "spectrum.csv", "sha256": checks.sha256(out.read_bytes())}
        manifest.write_text(json.dumps({"outputs": [entry]}))
        self.assertEqual(checks.check_manifest("ok", manifest, self.dir), [])
        out.write_text(self.csv(2))
        self.assertTrue(checks.check_manifest("changed", manifest, self.dir))
        out.unlink()
        self.assertTrue(checks.check_manifest("missing", manifest, self.dir))

    def test_report(self):
        report = {name: 1.0 for name in checks.REPORT_FIELDS}
        report.update(case="nondeg-sub", passed=True, pass_fraction=0.98,
                      grid=[1.0, 2.0], estimate=[1.0, 2.0])
        self.assertEqual(checks.check_report("ok", report), [])
        self.assertTrue(checks.check_report("nan", dict(report, estimate=[1.0, math.nan])))
        missing = dict(report)
        del missing["stderr"]
        self.assertTrue(checks.check_report("missing", missing))


class Repetitions(unittest.TestCase):
    def test_changed_bytes_fail_the_op(self):
        outputs = iter([b"a", b"a", b"b"])

        def check(data):
            return [], {"out": checks.sha256(data)}
        op = Op("echo", lambda: next(outputs), check)
        runner = run.Runner()
        runner.run_pass([op, op])
        self.assertEqual(runner.failed, 0)
        runner.run_op(op)
        self.assertEqual((runner.attempted, runner.failed), (3, 1))

    def test_raising_op_fails(self):
        op = Op("boom", lambda: 1 / 0, lambda r: ([], {}))
        runner = run.Runner()
        runner.run_op(op)
        self.assertEqual(runner.failed, 1)
        self.assertIn("ZeroDivisionError", runner.problems[0])


class Wrappers(unittest.TestCase):
    def test_wrap_records_and_restores(self):
        class Thing:
            def twice(self, x):
                return 2 * x
        original = vars(Thing)["twice"]
        with Tracer() as tracer:
            tracer.wrap(Thing, "twice", "thing.twice",
                        count=lambda args, kwargs, result: float(result))
            self.assertEqual(Thing().twice(4), 8)
        self.assertIs(vars(Thing)["twice"], original)
        self.assertEqual([(s.name, s.count) for s in tracer.spans],
                         [("thing.twice", 8.0)])

    def test_instrument_restores_every_trimova_attribute(self):
        import workloads
        from trimova import cli, model, oracle, spectra, transfer
        owners = (model, transfer, spectra, oracle, cli,
                  oracle.StateSpace, spectra.SpectrumSeries)
        before = [dict(vars(owner)) for owner in owners]
        with Tracer() as tracer:
            workloads.instrument(tracer)
            changed = [name for owner, old in zip(owners, before)
                       for name, value in vars(owner).items()
                       if old.get(name) is not value]
            config = model.reference_config()
            spectra.spectrum_series(config, "baseline", spectra.default_grid(config, 8))
        for name in ("reference_config", "closed_form_psd", "transfer_coefficients",
                     "simulate", "validate", "main", "output_psd", "write_csv"):
            self.assertIn(name, changed)
        self.assertIn("transfer.transfer_coefficients", {s.name for s in tracer.spans})
        after = [dict(vars(owner)) for owner in owners]
        for old, new in zip(before, after):
            self.assertEqual(old.keys(), new.keys())
            for name in old:
                self.assertIs(old[name], new[name], name)


if __name__ == "__main__":
    unittest.main()
