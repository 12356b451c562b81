#!/usr/bin/env python3
"""The benchmark's own test: smoke mode, every oracle firing on an injected
fault, the stall watchdog, and a refusal to run without the runtime sources.

    python3 perfbench/test_bench.py        (about 40 s on 4 cores)
"""
import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SHORT = ["--seed", "1", "--seconds", "1"]


def run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def test_smoke_prints_every_declared_metric_with_its_unit(self):
        p = run(RUN, "--smoke", timeout=300)
        self.assertEqual(p.returncode, 0, p.stdout[-3000:] + p.stderr[-3000:])
        self.assertIn("smoke ok", p.stdout)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertIn(f"metric {m['name']} = ", p.stdout)
            self.assertRegex(p.stdout, rf"metric {m['name']} = \S+ {m['unit']}\n")

    def test_each_oracle_fires_on_an_injected_fault(self):
        cases = [
            ("rbtree-ro", "rbtree-found", "rbtree.found_count"),
            ("rbtree-ro", "rbtree-found", "rbtree.digest"),
            ("rbtree-ro", "probe", "probe.count"),
            ("rbtree-ro", "probe", "probe.read_your_write"),
            ("bank-tls", "bank-total", "bank.total"),
            ("bank-tls", "bank-ops", "bank.user_ops"),
            ("bank-tls", "bank-replay", "bank.replay"),
            ("bank-tm", "bank-total", "bank.total"),
            ("bank-tm", "bank-ops", "bank.user_ops"),
            ("kv-session", "kv-snapshot", "kv.snapshot"),
            ("kv-session", "kv-version", "kv.version"),
        ]
        for workload, fault, oracle in cases:
            with self.subTest(workload=workload, fault=fault, oracle=oracle):
                p = run(RUN, "--workload", workload, *SHORT, "--trace", "0", "--inject", fault)
                self.assertEqual(p.returncode, 1, p.stdout[-2000:] + p.stderr[-2000:])
                self.assertIn(f"ORACLE FAILED {oracle}:", p.stdout)
                res = result_line(p.stdout)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertLess(res["metrics"]["commit_frac"]["value"], 1.0)

    def test_clean_run_passes_every_oracle(self):
        p = run(RUN, "--workload", "bank-tls", *SHORT, "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stderr[-2000:])
        res = result_line(p.stdout)
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertNotIn("ORACLE FAILED", p.stdout)

    def test_stalled_run_ends_and_counts_its_failures(self):
        for workload in ("bank-tls", "kv-session"):
            with self.subTest(workload=workload):
                t0 = time.monotonic()
                p = run(RUN, "--workload", workload, *SHORT, "--trace", "0",
                        "--inject", "stall", timeout=120)
                self.assertLess(time.monotonic() - t0, 60)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.assertIn("stalls 1", p.stdout)
                res = result_line(p.stdout)
                self.assertGreater(res["failed"], 0)
                self.assertLess(res["metrics"]["commit_frac"]["value"], 1.0)
                self.assertIn("runtime::dump_state() saved in", p.stderr)
                dump = p.stderr.split("saved in ")[-1].split()[0]
                with open(dump) as f:
                    self.assertIn("thread 0: completed=", f.read())

    def test_refuses_to_run_without_the_runtime_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        build = build if os.path.isabs(build) else os.path.join(ROOT, build)
        bare = os.path.join(build, "perfbench-test", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rbtree-ro",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=170, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
