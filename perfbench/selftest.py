"""Tests of the benchmark's own helpers.

    python3 perfbench/selftest.py

Run from the root of a source checkout (the output-check tests run the
program on corpus games and then doctor its output).
"""

import contextlib
import io
import json
import time
import unittest
from collections import Counter

import run  # noqa: F401  (pins BLAS threads and puts perfbench/ on sys.path)
import checks
import speed
import stats
import tracing
import workloads


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        value, pct, n = stats.tail([float(x) for x in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 6.0, 4.0, 0.0, 10.0, 11.0]
        self.assertEqual(stats.tail(values)[0], 1.0)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 6.0]
        parent = [-1, 0, 1, 0]
        self.assertEqual(list(stats.self_times(start, end, parent)), [6.0, 2.0, 1.0, 1.0])

    def test_wrapped_calls_partition_the_op(self):
        tracer = tracing.Tracer()

        def inner():
            time.sleep(0.002)

        inner_t = tracer.wrap(inner, "inner")

        def outer():
            time.sleep(0.002)
            inner_t()
            inner_t()

        outer_t = tracer.wrap(outer, "outer")
        with tracer.span("op:test"):
            outer_t()
        self_s, calls = tracer.layer_totals()
        self.assertEqual((calls["inner"], calls["outer"], calls["op:test"]), (2, 1, 1))
        op_span = [s for s in tracer.spans() if s[0] == "op:test"][0]
        total = sum(self_s.values())
        self.assertAlmostEqual(total, op_span[2] - op_span[1], places=9)
        self.assertGreater(self_s["inner"], 0.003)


class SpeedReference(unittest.TestCase):
    def test_each_op_is_scaled_by_the_slices_around_it(self):
        probe = speed.Probe()
        nominal = speed.REF_NOMINAL_S
        probe.samples = [(0, nominal, False), (2, 2 * nominal, False), (4, 2 * nominal, False)]
        factors = probe.factors(4, reach=1)
        self.assertAlmostEqual(factors[0], 2 / 3)  # between slices 0 and 1
        self.assertAlmostEqual(factors[3], 0.5)  # between slices 1 and 2

    def test_slices_inside_a_long_op_decide_its_factor(self):
        probe = speed.Probe()
        nominal = speed.REF_NOMINAL_S
        probe.samples = [(0, nominal, False)] + [(0, 4 * nominal, True)] * 3 + [(1, nominal, False)]
        self.assertEqual(probe.factors(1), [0.25])

    def test_slices_inside_an_op_are_taken_off_its_cpu_time(self):
        empeq = run.load_program()
        probe = speed.Probe()
        runner = run.Runner(empeq, deadline=5.0, probe=probe)

        def spin():
            t_end = time.perf_counter() + 0.5
            while time.perf_counter() < t_end:
                pass

        op = workloads.api("qre_fixed_point", workloads.gamma1(), spin,
                           lambda value: Counter(), repr)
        rec, _ = runner.execute(op)
        inside = [t for _, t, ins in probe.samples if ins]
        self.assertGreaterEqual(len(inside), 1)
        # busy the whole time: op CPU plus slice CPU make up the wall time
        self.assertAlmostEqual(rec["cpu_s"] + sum(inside), rec["wall_s"], delta=0.05)

    def test_a_slice_measures_cpu_time(self):
        self.assertGreater(speed.reference_slice(), 0.0)


class DeadlineAccounting(unittest.TestCase):
    def test_failed_ops_count_at_the_deadline(self):
        ops = [{"status": "passed", "ref_s": 0.5},
               {"status": "failed", "ref_s": 0.01},
               {"status": "failed", "ref_s": 15.0}]
        self.assertEqual(stats.op_latencies(ops, 15.0), [0.5, 15.0, 15.0])
        metrics, _ = run.end_to_end(ops, 15.0, [1.0], Counter())
        self.assertEqual(metrics["op_s.p50"][0], 15.0)
        self.assertAlmostEqual(metrics["passed_share"][0], 1 / 3)

    def test_the_runner_stops_an_op_at_its_deadline(self):
        empeq = run.load_program()
        runner = run.Runner(empeq, deadline=0.05)
        spec = workloads.gamma1()
        op = workloads.api("qre_fixed_point", spec, lambda: time.sleep(2.0),
                           lambda value: Counter(), repr)
        t0 = time.perf_counter()
        rec, result = runner.execute(op)
        self.assertLess(time.perf_counter() - t0, 1.0)
        self.assertEqual((rec["status"], rec["reason"], result.passed),
                         ("failed", "deadline", False))


def _cli(argv):
    empeq = run.load_program()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = empeq.cli.run(argv)
    return out.getvalue(), code


class OutputChecks(unittest.TestCase):
    def test_genuine_nash_output_passes(self):
        spec = workloads.gamma1()
        text, code = _cli(["nash", "--corpus", "gamma1"])
        tally = checks.check_nash(spec, text, code)
        self.assertGreater(sum(tally.values()), 0)

    def test_non_nash_profile_is_rejected(self):
        spec = workloads.gamma1()
        text, code = _cli(["nash", "--corpus", "gamma1"])
        doc = json.loads(text)
        doc["isolated"][0]["profile"] = {"P1": {"a1": 0.0, "a2": 1.0},
                                         "P2": {"b1": 1.0, "b2": 0.0}}
        with self.assertRaisesRegex(checks.CheckFailed, "Nash defect"):
            checks.check_nash(spec, json.dumps(doc), code)

    def test_doctored_member_witness_is_rejected(self):
        spec = workloads.gamma1()
        text, code = _cli(["empirical", "--corpus", "gamma1"])
        checks.check_empirical(spec, text, code, 1.0)
        doc = json.loads(text)
        member = [e for e in doc["isolated"] if e["decision"] == "member"][0]
        w = member["witnesses"][-1]["profile"]["P1"]
        w["a1"], w["a2"] = 1.0, 0.0
        with self.assertRaisesRegex(checks.CheckFailed, "not interior"):
            checks.check_empirical(spec, json.dumps(doc), code, 1.0)

    def test_non_monotone_profile_is_caught(self):
        spec = workloads.gamma1()
        # a1 pays 0.5 against b1 at 1/2, a2 pays 0, yet a2 is played more
        vectors = [[0.4, 0.6], [0.5, 0.5]]
        self.assertIn("played less", checks.monotone_violation(spec.payoffs, vectors, 1.0))
        self.assertIsNone(checks.monotone_violation(spec.payoffs, [[0.6, 0.4], [0.7, 0.3]], 1.0))

    def test_doctored_perfect_witness_is_rejected(self):
        spec = workloads.gamma1()
        text, code = _cli(["nash", "--corpus", "gamma1"])
        doc = json.loads(text)
        entry = [e for e in doc["isolated"] if e["perfect"]["status"] == "verified"][0]
        witness = entry["perfect"]["witnesses"][-1]
        witness["profile"]["P1"] = {"a1": 0.5, "a2": 0.5}
        with self.assertRaises(checks.CheckFailed):
            checks.check_nash(spec, json.dumps(doc), code)

    def test_doctored_dominance_refutation_is_rejected(self):
        spec = workloads.gamma1()
        text, code = _cli(["empirical", "--corpus", "gamma1"])
        doc = json.loads(text)
        entry = [e for e in doc["isolated"] if e["decision"] == "non-member"][0]
        data = entry["refutation"]["data"]
        data["dominated"], data["dominating"] = data["dominating"], data["dominated"]
        with self.assertRaisesRegex(checks.CheckFailed, "does not weakly dominate"):
            checks.check_empirical(spec, json.dumps(doc), code, 1.0)

    def test_exit_code_two_is_not_accepted(self):
        spec = workloads.gamma1()
        text, _ = _cli(["nash", "--corpus", "gamma1"])
        with self.assertRaisesRegex(checks.CheckFailed, "exit code 2"):
            checks.check_nash(spec, text, 2)


if __name__ == "__main__":
    unittest.main()
