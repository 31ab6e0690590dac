#!/usr/bin/env python3
"""Tests of the repository benchmark, on its quick mode (small inputs, a
short timed phase, the same output checks).

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s rcbench/tests -v

Each workload must pass its output checks and print every metric that
BENCHMARK.json names; each output check must fail when its expected value
is perturbed; and run.py must refuse to report anything from a directory
that holds the benchmark without the library sources.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
WORKLOADS = ("client_read", "net_push", "sched_month")


def run(workload, *extra, trace=0, seed=3, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def check_names(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("checks:"):
            return line.split()[1:]
    return []


class QuickModeTest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def assert_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
        result = result_of(proc)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for metric in names:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        return result

    def test_untraced_runs_report_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.assert_result(run(workload), self.spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_report_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace=1)
                self.assert_result(proc, self.spec["per_layer"])
                self.assertIn("self time by layer", proc.stdout)
                trace_file = (ROOT / ".bench_build" / "rcbench" / "out" /
                              f"{workload}-seed3.trace.json")
                events = json.loads(trace_file.read_text())["traceEvents"]
                self.assertTrue(events)
                self.assertTrue({"name", "ts", "dur", "args"} <= set(events[0]))

    def test_same_seed_gives_same_inputs(self):
        def replay_line(proc):
            return [l for l in proc.stdout.splitlines() if l.startswith("RC-informed-soft:")][0]

        first = replay_line(run("sched_month")).split(" replays")[0]
        second = replay_line(run("sched_month")).split(" replays")[0]
        # Same arrivals, failures, overloads and oversubscribed placements;
        # the replay count depends on speed, so it is left out.
        self.assertEqual(first.rsplit(",", 1)[0], second.rsplit(",", 1)[0])
        other = replay_line(run("sched_month", seed=4)).split(" replays")[0]
        self.assertNotEqual(first.rsplit(",", 1)[0], other.rsplit(",", 1)[0])

    def test_each_check_fails_on_a_perturbed_expected_value(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                names = check_names(run(workload, trace=trace))
                self.assertTrue(names, workload)
                for name in names:
                    if trace == 1 and not name.startswith("trace."):
                        continue  # already perturbed in the untraced run
                    with self.subTest(workload=workload, check=name):
                        proc = run(workload, "--perturb", name, trace=trace)
                        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
                        self.assertIn(f"FAILED {name}", proc.stdout)
                        self.assertFalse(result_of(proc)["correct"])

    def test_unknown_perturbation_is_an_error(self):
        proc = run("client_read", "--perturb", "no.such.check")
        self.assertEqual(proc.returncode, 2)
        self.assertIsNone(result_of(proc))

    def test_refuses_without_library_sources(self):
        bare = ROOT / ".bench_build" / "rcbench" / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run("client_read", cwd=bare, script=bare / BENCH_DIR.name / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result_of(proc))


if __name__ == "__main__":
    unittest.main()
