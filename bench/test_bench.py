"""Self-tests of the benchmark (standard library only).

    python3 bench/test_bench.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import spans  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _report(workload, seed):
    """(exit status, report text, config) of one invocation."""
    from premetric import cli

    cfg = workload.config(seed)
    path = BENCH / "out" / "work" / f"selftest-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(workload.argv(str(path)))
    finally:
        path.unlink()
    return status, out.getvalue(), cfg


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_different_seed_different_bytes(self):
        for w in WORKLOADS.values():
            self.assertEqual(w.config_text(7), w.config_text(7))
            self.assertNotEqual(w.config_text(7), w.config_text(8))

    def test_configs_do_not_depend_on_the_interpreter(self):
        probe = ("from workloads import WORKLOADS; "
                 "print(WORKLOADS['constitutive-ll4'].config_text(7))")
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=BENCH, capture_output=True,
            text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONHASHSEED="12345")).stdout
        self.assertEqual(out.strip(), WORKLOADS["constitutive-ll4"].config_text(7))


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.witness_ok = staticmethod(gate.witness_reader())

    def check(self, workload, status, text, cfg):
        return gate.check_invocation(status, text, "", cfg,
                                     workload.expected_rows(cfg),
                                     workload.structured, self.witness_ok)[1]

    def test_clean_reports_pass(self):
        for w in WORKLOADS.values():
            status, text, cfg = _report(w, 3)
            self.assertEqual(self.check(w, status, text, cfg), [], w.name)

    def test_flipped_identity_row_is_caught(self):
        w = WORKLOADS["check-n6"]
        status, text, cfg = _report(w, 3)
        self.assertEqual(status, 0)
        lines = text.splitlines()
        i = next(k for k, line in enumerate(lines) if "identity-0000-a (a)" in line)
        lines[i] = lines[i].replace("[PASS]", "[FAIL]")
        lines.insert(i + 1, "         witness: (x0)*dx0^dx1^dx2^dx3^dx4^dx5")
        rows = w.expected_rows(cfg)
        lines[-1] = f"FAIL: {rows - 1} passed, 1 failed"
        problems = self.check(w, 1, "\n".join(lines) + "\n", cfg)
        self.assertEqual(problems, ["identity-0000-a (a) FAILED"])

    def test_flipped_structured_row_is_caught(self):
        w = WORKLOADS["reciprocity-c4"]
        status, text, cfg = _report(w, 3)
        doc = json.loads(text)
        doc["checks"][0]["status"] = "FAIL"
        doc["summary"].update(passed=doc["summary"]["passed"] - 1, failed=1,
                              status="FAIL")
        problems = self.check(w, 1, json.dumps(doc), cfg)
        self.assertEqual(len(problems), 1)
        self.assertIn("FAILED", problems[0])

    def test_empty_fail_witness_is_caught(self):
        w = WORKLOADS["constitutive-ll4"]
        status, text, cfg = _report(w, 3)
        self.assertEqual(status, 1)
        lines = text.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("         witness: "))
        del lines[i]
        problems = self.check(w, 1, "\n".join(lines) + "\n", cfg)
        self.assertEqual(len(problems), 1)
        self.assertIn("is not a nonzero twisted n-form", problems[0])

    def test_zero_witness_is_caught(self):
        w = WORKLOADS["constitutive-ll4"]
        status, text, cfg = _report(w, 3)
        lines = text.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("         witness: "))
        lines[i] = "         witness: (0)*dx0^dx1^dx2^dx3"
        problems = self.check(w, 1, "\n".join(lines) + "\n", cfg)
        self.assertEqual(len(problems), 1)

    def test_exit_status_verdict_mismatch_is_caught(self):
        w = WORKLOADS["constitutive-ll4"]
        status, text, cfg = _report(w, 3)
        self.assertEqual(status, 1)
        problems = self.check(w, 0, text, cfg)
        self.assertEqual(problems, ["exit status 0 with verdict FAIL"])

    def test_wrong_row_count_and_errors_are_caught(self):
        w = WORKLOADS["check-n6"]
        status, text, cfg = _report(w, 3)
        self.assertTrue(gate.check_invocation(status, text, "", cfg, 11, False,
                                              self.witness_ok)[1])
        self.assertTrue(self.check(w, 2, "", cfg))
        self.assertTrue(self.check(w, None, "", cfg))


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] with children a [1, 4] (holding g [2, 3]) and b [5, 9]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        parent = [-1, 0, 1, 0]
        self.assertEqual(spans.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])

    def test_tracer_clock_skips_bookkeeping(self):
        ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        root = tracer.enter(tracer.name_id("root"))       # t=0
        child = tracer.enter(tracer.name_id("child"))     # t=1
        t = tracer._clock()                               # bookkeeping 2..5
        tracer.paused += tracer._clock() - t
        tracer.exit(child)                                # t=6-3=3
        self.assertEqual(list(tracer.start), [0.0, 1.0])
        self.assertEqual(tracer.end[child], 3.0)
        self.assertEqual(list(tracer.parent), [-1, root])


class TracedLayerTest(unittest.TestCase):
    """One traced invocation per workload: layer facts and exact repeats."""

    def traced(self, name, k=0):
        runner = run.Runner(WORKLOADS[name], 11)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin_invocation(k)
            runner.invoke(k, tracer)
        finally:
            tracer.uninstall()
            runner.cleanup()
        self.assertEqual(runner.problems, [])
        self.assertEqual(tracer.absent, [])
        return tracer.metrics()

    def test_layer_facts(self):
        m = {name: self.traced(name) for name in WORKLOADS}
        recip = [n for n in m["check-n6"] if n.startswith("reciprocity.")
                 and n.endswith(".calls")]
        self.assertEqual(len(recip), 4)
        for name, metrics in m.items():
            in_recip = name == "reciprocity-c4"
            self.assertEqual(metrics["hodge.hodge.calls"] > 0, in_recip)
            self.assertEqual(metrics["formexpr.parse.calls"] > 0,
                             name == "constitutive-ll4")
            for r in recip:
                self.assertEqual(metrics[r] > 0, in_recip, (name, r))
            self.assertGreater(metrics["scalars.poly_mul.calls"], 0)
            self.assertGreater(metrics["cli.main.self_s"], 0)
            self.assertEqual(set(metrics) | {"trace.overhead_ratio"},
                             {spec[0] for spec in spans.metric_specs()})

    def test_exact_counters_repeat(self):
        a = self.traced("constitutive-ll4", 2)
        b = self.traced("constitutive-ll4", 2)
        exact = [n for n in a if spans.is_exact(n)]
        self.assertGreater(len(exact), 30)
        self.assertEqual({n: a[n] for n in exact}, {n: b[n] for n in exact})

    def test_patching_is_undone(self):
        from premetric import electrodynamics, forms, suites
        before = (forms.wedge, electrodynamics.wedge, suites.SUITE_RUNNERS["phi"])
        self.traced("check-n6")
        self.assertEqual((forms.wedge, electrodynamics.wedge,
                          suites.SUITE_RUNNERS["phi"]), before)


class SmokeTest(unittest.TestCase):
    def test_each_workload_runs_clean(self):
        for name, w in WORKLOADS.items():
            runner = run.Runner(w, 5)
            try:
                rows = [runner.invoke(k)[1] for k in range(3)]
            finally:
                runner.cleanup()
            self.assertEqual(runner.problems, [], name)
            self.assertEqual(rows, [w.expected_rows(w.config(5 + k))
                                    for k in range(3)])

    def test_timed_run_reports_every_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        saved = run.MIN_INVOCATIONS, run.SETUP_STARTS
        run.MIN_INVOCATIONS, run.SETUP_STARTS = 10, 2
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.timed_run(WORKLOADS["check-n6"], 21, 0)
        finally:
            run.MIN_INVOCATIONS, run.SETUP_STARTS = saved
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"], 10 + run.WARMUP_INVOCATIONS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {name: m["unit"] for name, m in result["metrics"].items()})
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [s[:3] for s in spans.metric_specs()])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))

    def test_refuses_to_run_without_the_source(self):
        bare = BENCH / "out" / f"bare-{os.getpid()}"
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "check-n6",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_standard_library_only(self):
        local = {"calibrate", "gate", "spans", "run", "workloads", "premetric"}
        for path in BENCH.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    self.assertTrue(top in sys.stdlib_module_names or top in local,
                                    f"{path.name} imports {name}")


if __name__ == "__main__":
    unittest.main()
