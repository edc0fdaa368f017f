"""Self-tests of the benchmark, at the tiny sizes.

Run from the root of an rcforms checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They are not part of the library's test suite (pytest's testpaths is
``tests``), and they take about a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check_result(self, result: dict, spec_metrics: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # fail_ratio == 0
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec_metrics})
        for metric in spec_metrics:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_every_workload_untraced(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--workload", workload["name"], "--seed", "3", "--seconds", "1", "--trace", "0",
                             "--size", "tiny")
                self.check_result(result_of(proc), SPEC["end_to_end"])
                self.assertIn("fail_ratio   0.0000", proc.stdout)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result_of(proc)["metrics"][metric["name"]]["value"], 0)

    def test_every_workload_traced_matches_untraced_digest(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--workload", workload["name"], "--seed", "3", "--seconds", "1", "--trace", "1",
                             "--size", "tiny")
                self.check_result(result_of(proc), SPEC["per_layer"])
                line = next(l for l in proc.stdout.splitlines() if l.startswith("output digest"))
                words = line.split()
                self.assertEqual(words[3], words[5])

    def test_exact_counts_repeat(self):
        first, second = (
            result_of(bench("--workload", "jacobi_scale", "--seed", "5", "--seconds", "1", "--trace", "1",
                            "--size", "tiny"))["metrics"]
            for _ in range(2)
        )
        for name in tracing.EXACT_COUNTS:
            self.assertEqual(first[name], second[name], name)


class Gates(unittest.TestCase):
    def perturbed(self, series_obj, cls, key):
        coeffs = dict(series_obj.items())
        coeffs[key] += 1
        if cls is workloads.siegel.SiegelSeries:
            n, r, m = key
            coeffs[(m, r, n)] = coeffs[key]  # keep the transpose symmetry legal
            return cls(series_obj.weight, series_obj.trunc, coeffs)
        return cls(series_obj.weight, series_obj.index, series_obj.trunc, coeffs)

    def test_one_perturbed_jacobi_coefficient_fails_the_job(self):
        wl = workloads.JacobiScale("tiny", ROOT, ROOT / ".perfbench_run" / "test-work")
        state = wl.setup()
        reference = run.load_reference("tiny", wl.name)
        job = next(j for j in wl.block(random.Random(0)) if j.call == "bracket" and j.args[1] == 3)
        out = wl.run(state, job)
        self.assertEqual(run.gate_job(wl, state, job, out, reference)[0], [])
        key = next(k for k in out.support() if k[1] > 0)  # parity breaks as well as the digest
        problems = run.gate_job(wl, state, job, self.perturbed(out, workloads.series.JacobiSeries, key), reference)[0]
        self.assertTrue(any("digest" in p for p in problems), problems)
        self.assertGreaterEqual(len(problems), 2, problems)  # a structural check fails as well

    def test_one_perturbed_siegel_coefficient_fails_the_job(self):
        wl = workloads.SiegelScale("tiny", ROOT, ROOT / ".perfbench_run" / "test-work")
        state = wl.setup()
        reference = run.load_reference("tiny", wl.name)
        direct, sliced = [j for j in wl.universe() if j.args == (("F", "FF"), 1)]
        out = wl.run(state, direct)
        self.assertEqual(run.gate_job(wl, state, direct, out, reference)[0], [])
        wrong = self.perturbed(wl.run(state, sliced), workloads.siegel.SiegelSeries, out.support()[0])
        problems = run.gate_job(wl, state, sliced, wrong, reference)[0]
        self.assertTrue(any("routes differ" in p for p in problems), problems)
        self.assertTrue(any("digest" in p for p in problems), problems)

    def test_perturbed_rank_and_scalar_fail(self):
        wl = workloads.JacobiScale("tiny", ROOT, ROOT / ".perfbench_run" / "test-work")
        state = wl.setup()
        reference = run.load_reference("tiny", wl.name)
        jobs = wl.universe()
        rank_job = next(j for j in jobs if j.call == "rank")
        cross_job = next(j for j in jobs if j.call == "crosscheck")
        self.assertTrue(run.gate_job(wl, state, rank_job, 99, reference)[0])
        lam = wl.run(state, cross_job)
        self.assertTrue(run.gate_job(wl, state, cross_job, lam * Fraction(2), reference)[0])


class Harness(unittest.TestCase):
    def test_tracer_restores_every_original(self):
        from rcforms import brackets, jets, series, siegel, verify

        before = (jets.bracket_jacobi, siegel.bracket_jacobi, brackets.heat_power, series.JacobiSeries.__mul__,
                  dict(verify.SUITES))
        tracer = tracing.Tracer()
        tracer.install()
        self.assertIsNot(jets.bracket_jacobi, before[0])
        self.assertIs(jets.bracket_jacobi, siegel.bracket_jacobi)
        tracer.restore()
        after = (jets.bracket_jacobi, siegel.bracket_jacobi, brackets.heat_power, series.JacobiSeries.__mul__,
                 dict(verify.SUITES))
        self.assertEqual(before, after)

    def test_self_time_excludes_children(self):
        spans = [
            ["a", 0.0, 10.0, -1, 0, 0, 0.0, 10.0],
            ["b", 1.0, 4.0, 0, 0, 7, 1.0, 4.5],
            ["a", 5.0, 6.0, 0, 0, 0, 5.0, 6.0],
        ]
        stats = tracing.summarize(spans)
        self.assertAlmostEqual(stats["a"]["incl_s"], 10.0)  # the nested "a" is not counted twice
        self.assertAlmostEqual(stats["a"]["self_s"], 10.0 - 3.5 - 1.0 + 1.0)
        self.assertEqual(stats["b"]["count"], 7)

    def test_mixed_product_counted_once(self):
        from rcforms import lattices

        theta = lattices.jacobi_theta(lattices.E8, lattices.E8_INDEX1_VECTOR, 2)
        e4 = lattices.eisenstein_q(4, 2)
        for left, right in ((e4, theta), (theta, e4)):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.active = True
                left * right
            finally:
                tracer.restore()
            metrics = tracing.layer_metrics(tracing.summarize(tracer.spans))
            self.assertEqual(metrics["series.mul_calls"]["value"], 1)
            self.assertEqual(metrics["series.mul_pairs"]["value"], len(e4.items()) * len(theta.items()))

    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench_run" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_spec_names_match_the_harness(self):
        self.assertEqual([m["name"] for m in SPEC["end_to_end"]], [name for name, _ in run.END_TO_END])
        traced = {name for name, *_ in tracing.LAYER_METRICS} | {"series.coeff_bits_max", "trace.overhead_s"}
        self.assertEqual({m["name"] for m in SPEC["per_layer"]}, traced)
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
