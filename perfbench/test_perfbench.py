#!/usr/bin/env python3
"""Tests of the repo benchmark itself. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

They build the benchmark (as run.py does) and check that its output is
strict JSON with no duplicate keys, that every workload passes its answer
checks on two seeds, and that two counter sweeps match exactly.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT_SECONDS = "3"


def run_benchmark(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    return proc


class StrictJsonTest(unittest.TestCase):
    def test_rejects_duplicate_keys(self):
        with self.assertRaises(ValueError):
            run.strict_loads('{"a": 1, "a": 2}')
        with self.assertRaises(ValueError):
            run.strict_loads('{"a": {"b": 1, "b": 1}}')
        with self.assertRaises(ValueError):
            run.strict_loads('{"a": NaN}')
        self.assertEqual(run.strict_loads('{"a": 1, "b": 2}'), {"a": 1, "b": 2})

    def test_result_line_zero_fills_only_declared_bypasses(self):
        bench = run.load_benchmark()
        per_layer = {m["name"] for m in bench["per_layer"]}
        for workload in ("paper_mc", "serve_mc", "churn_mzb"):
            self.assertLessEqual(run.BYPASSED[workload], per_layer)
            exercised = per_layer - run.BYPASSED[workload]
            report = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {name: 1.0 for name in exercised}}
            line = run.result_line(report, bench, workload, True)
            for name in run.BYPASSED[workload]:
                self.assertEqual(line["metrics"][name]["value"], 0.0)
            dropped = dict(report, metrics=dict(report["metrics"]))
            dropped["metrics"].pop(sorted(exercised)[0])
            with self.assertRaises(RuntimeError):
                run.result_line(dropped, bench, workload, True)
            bypass = sorted(run.BYPASSED[workload])[0]
            extra = dict(report, metrics=dict(report["metrics"], **{bypass: 1.0}))
            with self.assertRaises(RuntimeError):
                run.result_line(extra, bench, workload, True)

    def test_benchmark_json_follows_the_contract(self):
        bench = run.load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["paper_mc", "serve_mc", "churn_mzb"])
        names = []
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class RunOutputTest(unittest.TestCase):
    """Short runs of every workload, untraced and traced, on two seeds."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.bench = run.load_benchmark()

    def check_run(self, workload, seed, trace):
        proc = run_benchmark(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        report = run.strict_loads(lines[-2])
        result = run.strict_loads(lines[-1])
        self.assertEqual(list(result), ["correct", "attempted", "failed",
                                        "metrics"])
        self.assertTrue(result["correct"], report["errors"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.bench["per_layer"] if trace else self.bench["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        # Before the runner's zero-fill: the program itself reports every
        # metric of the layers the workload exercises.
        exercised = {m["name"] for m in wanted}
        if trace:
            exercised -= run.BYPASSED[workload]
        self.assertEqual(set(report["metrics"]), exercised)
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        for key in ("seed", "nproc", "build_type", "kernel_tier", "git_sha"):
            self.assertIn(key, report["envelope"])
        self.assertIn("host.parallel_efficiency_4t", report["info"])
        return result

    def test_paper_mc(self):
        for seed in (1, 2):
            self.check_run("paper_mc", seed, 0)
        self.check_run("paper_mc", 1, 1)

    def test_serve_mc(self):
        for seed in (1, 2):
            self.check_run("serve_mc", seed, 0)
        self.check_run("serve_mc", 1, 1)

    def test_churn_mzb(self):
        for seed in (1, 2):
            self.check_run("churn_mzb", seed, 0)
        traced = self.check_run("churn_mzb", 1, 1)["metrics"]
        self.assertLess(traced["index.door_cache_hit_ratio"]["value"], 0.9)
        self.assertGreater(traced["service.compactions"]["value"], 0)
        self.assertGreater(traced["mutation_ms_p50"]["value"], 0)


class CounterSweepTest(unittest.TestCase):
    def test_two_sweeps_match_exactly(self):
        binary = run.build()
        sweeps = []
        for _ in range(2):
            out = subprocess.run([binary, "--sweep"], stdout=subprocess.PIPE,
                                 text=True, check=True, timeout=300).stdout
            sweeps.append(run.strict_loads(out.strip().splitlines()[-1]))
        self.assertTrue(sweeps[0]["correct"])
        self.assertEqual(len(sweeps[0]["metrics"]), 4 * 3 * 3)
        self.assertEqual(sweeps[0]["metrics"], sweeps[1]["metrics"])
        for name, value in sweeps[0]["metrics"].items():
            self.assertGreater(value, 0, name)


if __name__ == "__main__":
    unittest.main()
