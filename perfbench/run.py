"""Benchmark runner for latticeopt: one workload, one seed, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload hs_scaled.kernel --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A run is a closed loop with one caller: it makes a case from the seed (the
first case uses the seed itself, later ones seeds drawn from it), times one
pipeline on it, checks the result, and repeats until --seconds have passed.
The first case is also checked against the other methods' builds. With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 the pipeline runs under span-recording wrappers and
the object holds per-layer metrics instead. `--workload all` runs every
workload in a fresh process and prints a summary.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF = time.perf_counter


def import_package():
    """Import latticeopt from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = PERF()
    try:
        pkg = importlib.import_module("latticeopt")
        importlib.import_module("latticeopt.cli")
    except ImportError as exc:
        sys.exit("perfbench: cannot import latticeopt from %s: %s" % (src, exc))
    import_s = PERF() - t0
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        sys.exit("perfbench: latticeopt imported from %s, not %s"
                 % (pkg.__file__, src))
    return import_s


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    k = n - 10  # samples at or below the percentile
    return (100 * k // n, sorted(samples)[k - 1])


def peak_rss_mib():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


class Run:
    """Attempt counts and printed failures of one benchmark process."""

    def __init__(self, wl, seed, workdir):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.rng = random.Random(seed)
        self.attempted = self.failed = 0
        self.setup = []

    def make(self, first):
        seed = self.seed if first else self.rng.randrange(1, 2 ** 31)
        t0 = PERF()
        case = self.wl.make(seed, self.workdir)
        self.setup.append(PERF() - t0)
        return case

    def sample(self, case, threads):
        """Time one pipeline and check it; returns (seconds, grid) or None."""
        self.attempted += 1
        try:
            t0 = PERF()
            out = self.wl.run(case, threads)
            wall = PERF() - t0
            grid = self.wl.grid(case, out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.fails(self.wl.check(case, grid, False)):
            return None
        return wall, grid

    def verify(self, case, grid):
        """The checks that build other methods' matrices, run once per run."""
        try:
            problems = self.wl.check(case, grid, True)
        except Exception:
            traceback.print_exc()
            problems = ["reference check raised"]
        return not self.fails(problems)

    def fails(self, problems):
        for p in problems:
            print("FAIL %s: %s" % (self.wl.family, p), file=sys.stderr)
        self.failed += bool(problems)
        return bool(problems)


def calibration_loop():
    """Fixed pure-Python work: tuple arithmetic, componentwise comparisons and
    dict inserts, the operations latticeopt's inner loops are made of. Its
    wall clock tracks how fast this host runs Python at the moment."""
    acc = 0
    seen = {}
    for i in range(80000):
        t = (i % 97, i * 7 % 31, -(i % 13), i % 5)
        u = tuple(a - b for a, b in zip(t, (3, 1, -2, 0)))
        if all(a <= b for a, b in zip(u, t)):
            acc += sum(u)
        seen[i % 509] = u
    return acc + len(seen)


def timed_calibration():
    t0 = PERF()
    calibration_loop()
    return PERF() - t0


def untraced(run, seconds, import_s):
    """Samples alternate with the calibration loop; each pipeline's wall clock
    is divided by the mean of the calibrations just before and after it."""
    wl = run.wl
    deadline = PERF() + seconds
    walls, ratios = [], []
    first = None
    cal = None
    while not walls or PERF() < deadline:
        case = run.make(first is None)
        if cal is None:
            cal = timed_calibration()
        got = run.sample(case, wl.threads)
        if first is None:
            first = (case, got)
        if got is None:
            cal = None
            if run.attempted > 2 * len(walls) + 2:
                break  # mostly failing: stop early, the result says so
            continue
        after = timed_calibration()
        walls.append(got[0])
        ratios.append(got[0] / ((cal + after) / 2))
        cal = after
    peak = peak_rss_mib()
    report_samples("pipeline_s", walls, "s")
    report_samples("pipeline_cal", ratios, "cal")
    if first[1] is None or not run.verify(first[0], first[1][1]):
        return {}
    report_properties(wl, *first)
    return {"pipeline_cal": statistics.median(ratios),
            "setup_s": import_s + statistics.median(run.setup),
            "peak_rss_mib": peak}


def traced(run, seconds):
    from latticeopt import graver, instances, opcost
    from latticeopt.lattice import IntMatrix, IntVector

    wl = run.wl
    deadline = PERF() + seconds
    case = run.make(True)
    # Traced and untraced samples alternate on the same case, so their
    # difference is the tracing overhead. Forked pool workers would lose
    # their spans, so both use one thread.
    plain = run.sample(case, 1)
    if plain is None or not run.verify(case, plain[1]):
        return {}
    walls, samples = [plain[0]], []
    tracer = tracing.Tracer()
    while not samples or PERF() < deadline:
        tracer.install()
        try:
            got = run.sample(case, 1)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        if got is None:
            return {}
        samples.append((got[0], tracing.layer_metrics(spans, got[0])))
        if PERF() < deadline:
            got = run.sample(case, 1)
            if got is None:
                return {}
            walls.append(got[0])
    layers = {k: statistics.median_low([m[k] for _, m in samples])
              for k in samples[0][1]}
    traced_walls = [w for w, _ in samples]
    layers["pipeline.wall_s"] = statistics.median(walls)
    layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - layers["pipeline.wall_s"])
    report_samples("pipeline_s", walls, "s")
    report_samples("traced_pipeline_s", traced_walls, "s")

    layers.update(report_properties(wl, case, plain))

    hs_w = IntMatrix(instances.HS_RECOURSE)
    reps = []
    for _ in range(5):
        t0 = PERF()
        graver.graver_basis(hs_w)
        reps.append(PERF() - t0)
    layers["graver.construction_s"] = statistics.median(reps)

    layers["opcost.pool_overhead_s"] = 0.0
    if wl.threads > 1 and wl.method in ("kernel", "graver"):
        inst = wl.instance(case)
        dec = opcost.DecisionList(tuple(IntVector(x)
                                        for x in plain[1].decisions))
        build = getattr(opcost, "opcost_" + wl.method)
        times = {}
        for threads in (wl.threads, 1):
            t0 = PERF()
            build(inst, dec, threads=threads)
            times[threads] = PERF() - t0
        layers["opcost.pool_overhead_s"] = times[wl.threads] - times[1]
    return layers


def report_samples(name, values, unit):
    t = tail(values)
    print("%s: median %s %s, n=%d, %s" % (
        name, statistics.median(values) if values else "-", unit, len(values),
        "no percentile has 10 samples beyond it" if t is None
        else "p%d %s %s" % (t + (unit,))))
    print("%s samples: %s" % (name, " ".join("%.4f" % v for v in values)))


def report_properties(wl, case, got):
    """Print (and return) the input properties of the first case."""
    props = wl.properties(case, got[1])
    print("input: " + ", ".join("%s=%s" % kv for kv in props.items()))
    return props


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args):
    import_s = import_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    os.makedirs(workdir)
    try:
        run = Run(wl, args.seed, workdir)
        if args.trace:
            values = traced(run, args.seconds)
        else:
            values = untraced(run, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run still uses it
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted} if values else {}
    print("attempted %d, failed %d, error_rate %s" % (
        run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    print(json.dumps({
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if metrics else 1


def run_all(args):
    """Each workload in a fresh process, then a summary in the terms of the
    matrix pipelines: <method>_matrix_s per family, testset_s for completion."""
    summary = []
    for name in (w["name"] for w in spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print("%s | %s" % (name, line))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {}
        result["ok"] = proc.returncode == 0 and result.get("correct", False)
        raw = [l for l in lines if l.startswith("pipeline_s:")]
        summary.append((name, result, raw[0] if raw else "pipeline_s: -"))
    print("summary (seed %d, %s s per workload)" % (args.seed, args.seconds))
    for name, result, raw in summary:
        method = name.partition(".")[2]
        label = method + "_matrix_s" if method else "testset_s"
        print("%-20s %-16s %s" % (name, label, raw.split(":", 1)[1].strip()))
        print("%-20s %-16s %s / %s" % (name, "error_rate",
                                       result.get("failed", "-"),
                                       result.get("attempted", "-")))
        for metric, mv in result.get("metrics", {}).items():
            print("%-20s %-16s %s %s" % (name, metric, mv["value"], mv["unit"]))
    return 0 if all(r["ok"] for _, r, _ in summary) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
