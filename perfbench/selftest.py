"""Self-tests of the benchmark.

Usage (from the root of a checkout): python3 perfbench/selftest.py

They show that the output checks reject a table with one lambda changed, a
Gaussian result with one coefficient changed and a ``verify`` report with a
suite failed or a count lowered; that spans are installed where each layer
is looked up and their self time is computed from the children; that timed
operations are scaled by the calibrations around them; and that a run at
tiny sizes completes and prints every metric BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

import checks
import run
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ENV = dict(os.environ, PYTHONPATH=os.path.abspath("src"))


def cli(*args: str) -> str:
    return subprocess.run(
        [sys.executable, "-m", "pflyub.cli", *args], env=ENV, capture_output=True, text=True, check=True
    ).stdout


class TableChecks(unittest.TestCase):
    N, K = 9, 2

    def table(self, fmt: str) -> str:
        return cli("lyubeznik", "--n", str(self.N), "--k", str(self.K), "--format", fmt)

    def test_accepts_every_format(self):
        found = [checks.check_table(self.table(fmt), fmt, self.N, self.K) for fmt in ("json", "csv", "latex")]
        self.assertTrue(found[0] and found[0] == found[1] == found[2])

    def test_rejects_one_lambda_changed_in_json(self):
        obj = json.loads(self.table("json"))
        for index in range(len(obj["entries"])):
            for delta in (1, -1):
                broken = json.loads(json.dumps(obj))
                broken["entries"][index]["lambda"] += delta
                with self.assertRaises(checks.CheckError):
                    checks.check_table(json.dumps(broken), "json", self.N, self.K)

    def test_rejects_one_lambda_changed_in_csv(self):
        lines = self.table("csv").split("\n")
        for row in range(1, len(lines) - 1):
            i, j, lam = lines[row].split(",")
            broken = lines[:row] + [f"{i},{j},{int(lam) + 1}"] + lines[row + 1:]
            with self.assertRaises(checks.CheckError):
                checks.check_table("\n".join(broken), "csv", self.N, self.K)

    def test_rejects_one_lambda_changed_in_latex(self):
        text = self.table("latex")
        lines = text.split("\n")
        row = lines[2]
        cells = row[: -len(r" \\")].split(" & ")
        first = next(c for c in range(1, len(cells)) if cells[c] != "$0$")
        cells[first] = f"${int(cells[first][1:-1]) + 1}$"
        lines[2] = " & ".join(cells) + r" \\"
        with self.assertRaises(checks.CheckError):
            checks.check_table("\n".join(lines), "latex", self.N, self.K)

    def test_published_table(self):
        text = cli("lyubeznik", "--n", "6", "--k", "1")
        self.assertEqual(len(checks.check_table(text, "json", 6, 1)), 3)
        # two extra entries that cancel in the Euler characteristic
        obj = json.loads(text)
        obj["entries"][:0] = [{"i": 0, "j": 1, "lambda": 1}, {"i": 0, "j": 2, "lambda": 1}]
        with self.assertRaises(checks.CheckError):
            checks.check_table(json.dumps(obj), "json", 6, 1)

    def test_rejects_changed_bytes_by_digest(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)
        data = self.table("json").encode()
        checks.check_digest(f"json:{self.N}:{self.K}", data, recorded)
        with self.assertRaises(checks.CheckError):
            checks.check_digest(f"json:{self.N}:{self.K}", data.replace(b'"lambda": 1', b'"lambda": 2', 1), recorded)


class GaussianChecks(unittest.TestCase):
    A, B = 20, 6

    def test_accepts_and_rejects_one_coefficient_changed(self):
        terms = json.loads(cli("gaussian", "--a", str(self.A), "--b", str(self.B), "--power", "4"))
        self.assertEqual(checks.check_gaussian(json.dumps(terms), self.A, self.B, 4), len(terms))
        for index in range(len(terms)):
            for delta in (1, -1):
                broken = json.loads(json.dumps(terms))
                broken[index]["c"] += delta
                with self.assertRaises(checks.CheckError):
                    checks.check_gaussian(json.dumps(broken), self.A, self.B, 4)


class VerifyChecks(unittest.TestCase):
    N_MAX = 5

    def setUp(self):
        self.text = cli("verify", "--n-max", str(self.N_MAX))

    def rebuild(self, report: dict) -> str:
        lines = [f"{s['name']}: {'PASS' if s['pass'] else 'FAIL'} ({s['checked']} checks)" for s in report["suites"]]
        return "\n".join(lines + [json.dumps(report)]) + "\n"

    def test_accepts(self):
        self.assertGreater(checks.check_verify(self.text, self.N_MAX), 0)

    def test_rejects_a_failed_suite(self):
        for index in range(7):
            report = json.loads(self.text.splitlines()[-1])
            report["suites"][index].update({"pass": False, "error": "injected"})
            with self.assertRaises(checks.CheckError):
                checks.check_verify(self.rebuild(report), self.N_MAX)

    def test_rejects_a_lowered_count(self):
        for index in range(7):
            report = json.loads(self.text.splitlines()[-1])
            report["suites"][index]["checked"] -= 1
            with self.assertRaises(checks.CheckError):
                checks.check_verify(self.rebuild(report), self.N_MAX)


class Spans(unittest.TestCase):
    def test_self_time_and_outermost_groups(self):
        tracer = spans.Tracer()
        mul = tracer.wrap(lambda a, b: sum(range(20000)), "polyring.BiLaurentPoly.__mul__", lambda a, b: len(a) * len(b))
        closed = tracer.wrap(lambda: mul("ab", "abc"), "lyubeznik.L_closed")
        build = tracer.wrap(lambda: (closed(), mul("a", "a"), sum(range(20000))), "lyubeznik.build_table")
        build()
        path = os.path.join(".perfbench_out", "selftest.spans")
        os.makedirs(".perfbench_out", exist_ok=True)
        tracer.write(path)
        got = spans.layer_metrics([path])
        duration = [e - s for s, e in zip(tracer.start, tracer.end)]
        self.assertEqual(got["polyring.mul_calls"], 2)
        self.assertEqual(got["polyring.term_products"], 7)
        self.assertAlmostEqual(got["polyring.mul_s"], (duration[2] + duration[3]) / 1e9)
        self.assertAlmostEqual(got["lyubeznik.closed_s"], duration[1] / 1e9)
        self.assertAlmostEqual(got["lyubeznik.build_self_s"], (duration[0] - duration[1] - duration[3]) / 1e9)

    def test_install_reaches_names_imported_by_value_and_operator_aliases(self):
        code = (
            "import sys; sys.path.insert(0, 'perfbench'); import spans; t = spans.Tracer(); spans.install(t);"
            "from pflyub import kgroup, origin_localcoh, polyring; p = polyring.BiLaurentPoly.q();"
            "2 * p; 1 + p; kgroup.localcoh_class_even_D(4, 1); origin_localcoh.h0_Q(3, 1);"
            "print('\\n'.join(f'{t.names[t.name[i]]} {t.names[t.name[t.parent[i]]] if t.parent[i] >= 0 else None}'"
            " for i in range(len(t.name))))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, check=True).stdout
        pairs = {tuple(line.split(" ")) for line in out.splitlines()}
        self.assertIn(("polyring.BiLaurentPoly.__rmul__", "None"), pairs)
        self.assertIn(("polyring.BiLaurentPoly.__radd__", "None"), pairs)
        self.assertIn(("partitions.gaussian_binomial", "kgroup.localcoh_class_even_D"), pairs)
        self.assertIn(("partitions.gaussian_binomial", "origin_localcoh.h0_Q"), pairs)


class Scaling(unittest.TestCase):
    def test_each_operation_is_scaled_by_the_calibrations_around_it(self):
        runner = run.Runner(run.WORKLOADS["verify"], {})
        ref = run.CALIBRATIONS["objects"][1]
        # the CPU runs at the reference speed, then at half of it
        runner.calibrations = [ref] * 5 + [2 * ref] * 6
        ops = [run.OpRun(1.0, True, calibration=i) for i in (0, 4, 9)]
        runner.timed_runs = ops
        runner.scale()
        self.assertEqual([op.raw_seconds for op in ops], [1.0] * 3)
        # calibrations 0-3 | 2-7, half of them slow | 7-10
        for op, seconds in zip(ops, (1.0, 2 / 3, 0.5)):
            self.assertAlmostEqual(op.seconds, seconds)

    def test_calibrations_are_positive_times(self):
        for name in run.CALIBRATIONS:
            self.assertGreater(run.calibrate(name), 0)


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_declared_metric(self):
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        declared = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    out = subprocess.run(
                        [*bench["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace), "--tiny"],
                        capture_output=True, text=True, check=True,
                    ).stdout
                    result = json.loads(out.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(declared[trace]))

    def test_refuses_a_directory_without_the_program(self):
        bare = os.path.join(".perfbench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
