#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, on
tiny grids (the campaign cannot shrink and runs at its usual size, about a
minute in all).

    python3 perfbench/test_smoke.py        # from the repository root

Checks that each run ends with a well-formed result line; that every
metric BENCHMARK.json names is emitted with its unit; that a metric is
non-zero on each workload where perfbench/layers.json says it is measured
and zero elsewhere; that a traced run writes a Chrome trace; that a
tampered determinism record of the same code fails the run while a record
of other code is left alone; and that the benchmark refuses to run
without the repository around it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SEED = 5

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCH = json.load(f)
with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as f:
    LAYERS = json.load(f)


def run(workload, trace, seed=SEED, cwd=ROOT):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    return lines, json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_result(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines, doc = result(proc)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(doc["correct"], True)
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        specs = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(doc["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = doc["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        return lines, doc

    def check_workload(self, workload):
        lines, doc = self.check_result(workload, 0)
        for m in BENCH["end_to_end"]:
            self.assertGreater(doc["metrics"][m["name"]]["value"], 0, (workload, m["name"]))
        text = "\n".join(lines)
        for name in ("error_rate", "latency_ms_p50", "latency_ms_tail"):
            self.assertIn(name, text, workload)

        # Same seed, traced: also checks the untraced run's results repeat.
        lines, doc = self.check_result(workload, 1)
        self.assertEqual(set(LAYERS["metrics"]), {m["name"] for m in BENCH["per_layer"]})
        for name, spec in LAYERS["metrics"].items():
            value = doc["metrics"][name]["value"]
            if workload not in spec["measured_on"]:
                self.assertEqual(value, 0, (workload, name))
            elif not spec["may_be_zero"]:
                self.assertNotEqual(value, 0, (workload, name))
        with open(os.path.join(WORK, f"trace-{workload}.json"), encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        self.assertTrue(events)
        self.assertTrue(all({"name", "ts", "dur", "args"} <= set(e) for e in events))

    def test_fig7_tune(self):
        self.check_workload("fig7-tune")

    def test_fig8_campaign(self):
        self.check_workload("fig8-campaign")

    def determinism_record(self, seed):
        proc = run("fig7-tune", 0, seed)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        marker = "determinism record: "
        lines = [l for l in proc.stdout.splitlines() if marker in l]
        self.assertEqual(len(lines), 1, proc.stdout)
        return lines[0].split(marker, 1)[1].strip()

    def test_tampered_determinism_record_fails(self):
        seed = SEED + 1000
        path = self.determinism_record(seed)
        with open(path, "a", encoding="utf-8") as f:
            f.write("a line no run produces\n")
        proc = run("fig7-tune", 0, seed)
        os.remove(path)
        self.assertEqual(proc.returncode, 1)
        _, doc = result(proc)
        self.assertIs(doc["correct"], False)
        self.assertIn("nondeterminism", proc.stderr)

    def test_record_of_other_code_is_ignored(self):
        # Changed code may legitimately change what the record holds; a
        # record stored under another code key must not fail the run.
        seed = SEED + 2000
        path = self.determinism_record(seed)
        os.remove(path)
        head, key = path.rsplit("-code", 1)
        other = f"{head}-code{'0' * 16 if key[:16] != '0' * 16 else '1' * 16}.txt"
        with open(other, "w", encoding="utf-8") as f:
            f.write("results of some other build\n")
        try:
            self.assertEqual(self.determinism_record(seed), path)
        finally:
            os.remove(other)
            os.remove(path)

    def test_refuses_to_run_without_the_repository(self):
        alone = os.path.join(WORK, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        for p in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(alone, p),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
        proc = run("fig7-tune", 0, cwd=alone)
        shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip(), proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
