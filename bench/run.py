#!/usr/bin/env python3
"""premetric benchmark: closed-loop `cli.main` workloads with a correctness gate.

    python3 bench/run.py --workload check-n6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client, one process, one thread: each invocation writes a freshly
generated config (see workloads.py) and calls `premetric.cli.main` on it
in-process, with the report going to an in-memory buffer.  Every report
goes through the correctness gate (gate.py).

--trace 0 measures the end-to-end metrics with the package imported
unpatched; each time is scaled by a machine-speed probe timed next to it
(calibrate.py), and the raw times are printed beside the scaled ones.
--trace 1 runs two fresh child interpreters, each replaying
the workload's fixed number of invocations first untraced and then
traced (spans.py); the per-layer metrics come from the traced passes, the
exact counters must agree between the two children, and the spans of the
first child go to a sidecar under bench/out/.  The last line of standard
output is the JSON result; the lines before it are a readable summary.
Runs straight from src/ without installing, with the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from workloads import WORKLOADS  # noqa: E402
import calibrate  # noqa: E402
import gate  # noqa: E402

MIN_INVOCATIONS = 100     # p90 then has at least 10 samples beyond it
WARMUP_INVOCATIONS = 2
MAX_LOOP_SECONDS = 120    # stop a very slow program well inside the time limit
SETUP_STARTS = 9
CHILD_TIMEOUT = 80
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import premetric.cli; "
    "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from calibrate import probe; print(t, sorted(probe() for _ in range(3))[1])")


def environment(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed}


def _child_env():
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def import_seconds():
    """(import time of premetric.cli, probe time) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH)],
                         env=_child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT, check=True).stdout
    import_s, probe_s = map(float, out.split())
    return import_s, probe_s


class Runner:
    """Runs one workload's invocations in this process and gates each one."""

    def __init__(self, workload, seed):
        from premetric import cli  # noqa: F401  (imported unpatched)

        self.workload = workload
        self.seed = seed
        self.witness_ok = gate.witness_reader()
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        self.config_path = OUT / "work" / f"{os.getpid()}-{workload.name}.json"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def invoke(self, k, tracer=None):
        """Run invocation k; returns (seconds in cli.main, report rows)."""
        text = self.workload.config_text(self.seed + k)
        self.config_path.write_text(text, encoding="utf-8")
        cfg = json.loads(text)
        argv = self.workload.argv(str(self.config_path))
        main = sys.modules["premetric.cli"].main
        out, err = io.StringIO(), io.StringIO()
        elapsed = 0.0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    status = main(argv)
                finally:
                    elapsed = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.active = False
        except SystemExit as e:
            status = e.code if isinstance(e.code, int) else 2
        except Exception:
            status = None
            err.write(traceback.format_exc())
        report, problems = gate.check_invocation(
            status, out.getvalue(), err.getvalue(), cfg,
            self.workload.expected_rows(cfg),
            self.workload.structured,
            self.witness_ok)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            problems.append("report differs from an earlier run of the same config")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"invocation {k}: {p}" for p in problems)
        return elapsed, len(report.rows) if report else 0

    def run_digest(self, count):
        """Digest of the reports of invocations 0..count-1, in order."""
        h = hashlib.sha256()
        for k in range(count):
            h.update(self.digests[k].encode("ascii"))
        return h.hexdigest()

    def cleanup(self):
        self.config_path.unlink(missing_ok=True)


def _timings(times, rows, setup):
    return {"verify_ms.p50": statistics.median(times) * 1e3,
            "verify_ms.p90": statistics.quantiles(times, n=10)[8] * 1e3,
            "checks_per_s": rows / sum(times),
            "setup_s": statistics.median(setup)}


def timed_run(workload, seed, seconds):
    # Every time is measured raw and scaled by the probe timed around it
    # (calibrate.py).  The fresh-interpreter starts for setup_s are spread
    # over the loop so that they see the same machine conditions.
    runner = Runner(workload, seed)
    raw, scaled, setup = [], [], []
    rows = 0
    try:
        for k in range(WARMUP_INVOCATIONS):
            runner.invoke(k)
        k = WARMUP_INVOCATIONS
        before = calibrate.probe()
        start = time.perf_counter()
        while True:
            wall = time.perf_counter() - start
            if len(setup) < SETUP_STARTS and wall >= len(setup) * seconds / SETUP_STARTS:
                setup.append(import_seconds())
            dt, n = runner.invoke(k)
            after = calibrate.probe()
            raw.append(dt)
            scaled.append(dt * calibrate.REFERENCE_S * 2 / (before + after))
            before = after
            rows += n
            k += 1
            wall = time.perf_counter() - start
            if wall >= MAX_LOOP_SECONDS or (wall >= seconds
                                            and len(raw) >= MIN_INVOCATIONS):
                break
        while len(setup) < SETUP_STARTS:
            setup.append(import_seconds())
    finally:
        runner.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_timings = _timings(raw, rows, [i for i, _ in setup])
    timings = _timings(scaled, rows, [i * calibrate.REFERENCE_S / p for i, p in setup])
    units = {"verify_ms.p50": "ms", "verify_ms.p90": "ms", "checks_per_s": "1/s",
             "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in timings.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    digest = runner.run_digest(min(k, MIN_INVOCATIONS))
    record = dict(environment(seed), workload=workload.name, trace=0,
                  invocations=k, timed_invocations=len(raw),
                  report_rows=rows, run_digest=digest,
                  report_sha256=[runner.digests[i] for i in range(k)],
                  problems=runner.problems[:50],
                  metrics={name: v for name, (v, _) in metrics.items()},
                  raw_metrics=raw_timings)
    _write_json(OUT / f"{workload.name}-seed{seed}-trace0.json", record)

    env = environment(seed)
    print(f"workload {workload.name}: closed loop, 1 client, "
          f"{len(raw)} timed invocations (+{WARMUP_INVOCATIONS} warm-up), "
          f"python {env['python']}, nproc {env['nproc']}, seed {seed}")
    print(f"  {'metric':<16} {'scaled':>12} {'raw':>12}")
    for name, (value, unit) in metrics.items():
        raw_value = raw_timings.get(name, value)
        print(f"  {name:<16} {value:12.4f} {raw_value:12.4f} {unit}")
    print(f"  {'failed_ratio':<16} {runner.failed / runner.attempted:12.4f} "
          f"ratio ({runner.failed}/{runner.attempted})")
    print(f"  report digest of invocations 0..{min(k, MIN_INVOCATIONS) - 1}: {digest}")
    _print_problems(runner.problems)
    return _result(runner.failed == 0, runner.attempted, runner.failed, metrics)


def traced_child(workload, seed, out_path):
    """One traced run: the workload's fixed invocations untraced, then traced."""
    runner = Runner(workload, seed)
    import spans

    count = workload.traced_invocations
    tracer = spans.Tracer()
    try:
        untraced_s = sum(runner.invoke(k)[0] for k in range(count))
        tracer.install()
        traced_s = 0.0
        for k in range(count):
            tracer.begin_invocation(k)
            traced_s += runner.invoke(k, tracer)[0]
    finally:
        tracer.uninstall()
        runner.cleanup()
    metrics = tracer.metrics()
    residual_calls, residual_s = tracer.inclusive_seconds(
        "electrodynamics.conservation_residual")
    spans_path = out_path.with_suffix(".spans.json.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump(dict(environment(seed), workload=workload.name,
                       invocations=count, absent=tracer.absent,
                       metrics=metrics, spans=tracer.spans_json()), fh)
    _write_json(out_path, {
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems[:50], "metrics": metrics,
        "absent": tracer.absent, "untraced_s": untraced_s,
        "traced_s": traced_s, "overhead_ratio": traced_s / untraced_s - 1,
        "residual_calls": residual_calls, "residual_s": residual_s,
        "run_digest": runner.run_digest(count), "spans_path": str(spans_path),
    })


def traced_run(workload, seed):
    import spans

    (OUT / "work").mkdir(parents=True, exist_ok=True)
    children = []
    for label in ("a", "b"):
        path = OUT / "work" / f"{os.getpid()}-{workload.name}-{label}.json"
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload.name, "--seed", str(seed),
                        "--trace", "1", "--child-out", str(path)],
                       timeout=CHILD_TIMEOUT, check=True)
        children.append(json.loads(path.read_text(encoding="utf-8")))
        path.unlink()
    a, b = children
    sidecar = OUT / f"trace-{workload.name}-seed{seed}.spans.json.gz"
    os.replace(a["spans_path"], sidecar)
    os.unlink(b["spans_path"])

    problems = a["problems"] + b["problems"]
    if a["run_digest"] != b["run_digest"]:
        problems.append("traced runs with the same seed gave different reports")
    metrics, absent = {}, []
    for name, unit, _, _ in spans.metric_specs():
        if name == "trace.overhead_ratio":
            value = statistics.median([a["overhead_ratio"], b["overhead_ratio"]])
        elif spans.is_exact(name):
            value = a["metrics"][name]
            if value != b["metrics"][name]:
                problems.append(f"exact counter {name} differs between traced "
                                f"runs: {value} vs {b['metrics'][name]}")
        elif a["metrics"][name] is None:
            value = None
        else:
            value = statistics.median([a["metrics"][name], b["metrics"][name]])
        if value is None:
            absent.append(name)
            value = 0
        metrics[name] = (value, unit)

    env = environment(seed)
    print(f"workload {workload.name}: traced, 2 runs of "
          f"{workload.traced_invocations} invocations, "
          f"python {env['python']}, nproc {env['nproc']}, "
          f"seed {seed}; spans in {sidecar.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:14.6f} {unit}")
    layer_self = {}
    for name, (value, unit) in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + value
    total = sum(layer_self.values())
    print("  self time share by layer: " + ", ".join(
        f"{layer} {s / total:.1%}" for layer, s in layer_self.items()))
    if a["residual_calls"]:
        print("  conservation_residual inclusive per call: "
              f"{a['residual_s'] / a['residual_calls'] * 1e3:.3f} ms traced, "
              f"over {a['residual_calls']} calls")
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")
    _print_problems(problems)
    attempted = a["attempted"] + b["attempted"]
    failed = a["failed"] + b["failed"]
    return _result(not problems, attempted, failed, metrics)


def run_all(seed, seconds, trace):
    """Run every workload in its own interpreter and print one table."""
    table = []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              capture_output=True, text=True, timeout=180)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        table.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    print(f"{'workload':<18} {'metric':<42} {'value':>14} unit")
    for name, result in table:
        for metric, m in result["metrics"].items():
            print(f"{name:<18} {metric:<42} {m['value']:14.4f} {m['unit']}")
        print(f"{name:<18} {'failed_ratio':<42} "
              f"{result['failed'] / result['attempted']:14.4f} ratio")
    return 0 if all(r["correct"] for _, r in table) else 1


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _print_problems(problems):
    for p in problems[:20]:
        print(f"  GATE: {p}")
    if len(problems) > 20:
        print(f"  GATE: ... {len(problems) - 20} more")


def _write_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1), encoding="utf-8")


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 63:   # seed + k must stay a valid config seed
        raise argparse.ArgumentTypeError("seed must be in 0..2^63-1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "premetric" / "cli.py").is_file():
        print(f"bench: no premetric source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    workload = WORKLOADS[args.workload]
    if args.child_out is not None:
        traced_child(workload, args.seed, args.child_out)
        return 0
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
