"""Benchmark of the ``positroid`` command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

A task is one or more CLI pipelines, run in-process through
``positroid.cli.main(argv)`` with stdin and stdout in memory, so a timing
covers parsing, computing and formatting but not interpreter start-up.
Inputs come from the seed (see workloads.py); every output is checked
exactly after the timed region, and the canonical outputs are hashed into a
digest that two runs with the same seed reproduce.

``--trace 0`` times whole passes over the task list, in a closed loop with
one client, until S seconds have passed, and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and then one traced pass of
the same tasks and reports the per-layer metrics.  ``--workload all`` runs
every workload in its own process and prints each end-to-end metric with
its unit.  The last line of standard output is always one JSON object.
"""

import time

STARTED = time.perf_counter()

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 5        # set-ups per run; setup_s is their median
SETUP_PROBES = 20     # reference_work runs before and after each set-up
# Times are reported in reference seconds: measured seconds times the speed
# factor REFERENCE_WORK_S / (measured time of reference_work) taken next to
# them.  A shared 2-vCPU virtual machine drifted in speed by a third within a
# minute, so raw seconds would vary more between runs than any bound allows.
REFERENCE_WORK_S = 0.0025
PROBE_WINDOW = 5      # tasks on either side whose reference runs scale a latency
TAIL_BEYOND = 10      # the tail percentile keeps at least this many tasks above it

WORKLOAD_NAMES = ("cyclic_measure", "inverse_roundtrip", "plabic_query", "plabic_rewrite")


def set_up(workload, seed, workdir):
    """Import positroid afresh and write the workload's inputs; returns the tasks."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("positroid", "workloads")]:
        del sys.modules[name]
    import workloads
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    written = []

    def write(text):
        path = os.path.join(workdir, f"{len(written)}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
        return path

    return workloads.WORKLOADS[workload](seed, write)


def reference_work():
    """Fixed pure-Python work (exact fractions, tuples, dicts): a machine-speed probe.

    It uses nothing from positroid, so no change to the library moves it.
    """
    x = Fraction(0)
    seen = {}
    for i in range(1, 600):
        x += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 17)
        seen[key] = seen.get(key, 0) + len(key)
    return x, len(seen)


def speed_factor(repeats):
    """Reference seconds per measured second, from `repeats` runs of reference_work."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return REFERENCE_WORK_S * repeats / (time.perf_counter() - start)


class Results:
    """Outputs and failures per task, shared by every pass of a run."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.outputs = [None] * len(tasks)
        self.attempts = [0] * len(tasks)
        self.errors = {}

    def run_one(self, i):
        """Run task i once and keep its output; returns the latency."""
        self.attempts[i] += 1
        start = time.perf_counter()
        try:
            out = self.tasks[i].run()
        except Exception:    # a failing task is counted, not fatal
            self.errors.setdefault(i, traceback.format_exc())
            return time.perf_counter() - start
        latency = time.perf_counter() - start
        if self.outputs[i] is None:
            self.outputs[i] = out
        elif out != self.outputs[i]:
            self.errors.setdefault(i, "output differs between passes")
        return latency

    def run(self, order):
        """One pass over the tasks in the given order; returns the wall time."""
        start = time.perf_counter()
        for i in order:
            self.run_one(i)
        return time.perf_counter() - start

    def check(self):
        """Exact checks, outside the timed region; returns (failed, digest)."""
        digest = hashlib.sha256()
        for i, task in enumerate(self.tasks):
            if self.outputs[i] is None:
                continue
            try:
                task.check(self.outputs[i])
                parts = task.digest(self.outputs[i])
            except Exception:
                self.errors.setdefault(i, "check failed: " + traceback.format_exc())
                continue
            for part in parts:
                digest.update(part.encode() + b"\0")
        failed = sum(self.attempts[i] for i in self.errors)
        return failed, digest.hexdigest()


def tail_percentile(samples):
    """(p, value): the highest whole percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    p = max(0, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(p * n / 100))      # nearest-rank definition
    return p, ordered[rank - 1]


def timed_run(results, order, seconds):
    """Whole passes until `seconds` have passed, in reference seconds.

    The reference work runs once before every task, outside its latency.
    Each latency is scaled by the speed factor of the reference runs within
    PROBE_WINDOW tasks of it, which follows the machine's second-to-second
    swings.  Returns the scaled pass times, each task's scaled latencies, and
    the pass speed factors.
    """
    pass_times, latencies, factors = [], [[] for _ in order], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        probes, measured = [], []
        for i in order:
            start = time.perf_counter()
            reference_work()
            probes.append(time.perf_counter() - start)
            measured.append(results.run_one(i))
        scaled = 0.0
        for t, (i, latency) in enumerate(zip(order, measured)):
            near = probes[max(0, t - PROBE_WINDOW):t + PROBE_WINDOW + 1]
            latency *= REFERENCE_WORK_S * len(near) / sum(near)
            latencies[i].append(latency)
            scaled += latency
        pass_times.append(scaled)
        factors.append(REFERENCE_WORK_S * len(probes) / sum(probes))
    return pass_times, latencies, factors


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "positroid", "cli.py")):
        sys.exit(f"run.py: no positroid sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    setups = []
    for _ in range(SETUP_REPS):
        before = speed_factor(SETUP_PROBES)
        start = time.perf_counter()
        tasks = set_up(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - start
        setups.append(elapsed * (before + speed_factor(SETUP_PROBES)) / 2)
    # Objects made by set-up are never collected during timing, as in a
    # fresh CLI process that holds only its own input.
    gc.collect()
    gc.freeze()
    order = list(range(len(tasks)))
    random.Random(args.seed).shuffle(order)
    results = Results(tasks)
    try:
        if args.trace:
            metrics, summary = traced_metrics(args, results, order)
        else:
            metrics, summary = end_to_end_metrics(args, results, order, setups)
        failed, digest = results.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(results.attempts)
    for i, err in sorted(results.errors.items()):
        print(f"task {i} failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(tasks)} tasks, {attempted} attempted, "
          f"{failed} failed (fail_frac {failed / attempted:.4f}), digest {digest[:16]}, "
          f"{summary}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def end_to_end_metrics(args, results, order, setups):
    """Throughput from the median pass; latencies are each task's median over passes."""
    first_task = time.perf_counter()
    pass_times, latencies, factors = timed_run(results, order, args.seconds)
    per_task = [statistics.median(samples) for samples in latencies]
    p, tail = tail_percentile(per_task)
    metrics = {
        "tasks_per_s": (len(order) / statistics.median(pass_times), "1/s"),
        "task_p50_ms": (1000 * statistics.median(per_task), "ms"),
        "task_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    summary = (f"{len(pass_times)} passes, task_tail_ms is p{p} of {len(per_task)} tasks "
               f"({len(per_task) * len(pass_times)} samples), "
               f"{first_task - STARTED:.3f} s from start to the first timed task, "
               f"speed factors {min(factors):.3f}-{max(factors):.3f}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, summary


def traced_metrics(args, results, order):
    from tracer import Tracer
    untraced = results.run(order)
    tracer = Tracer()
    tracer.install()
    try:
        traced = results.run(order)
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv")
    tracer.write(spans_path)
    values, useful = tracer.layer_metrics(traced)
    values["traced_pass_s"] = traced
    values["trace_overhead_frac"] = traced / untraced - 1
    metrics = {}
    for name, value in values.items():
        unit = "s" if name.endswith("_s") else "bits" if name.endswith("_bits") else \
            "ratio" if name.endswith(("_ratio", "_frac")) else "count"
        metrics[name] = {"value": value, "unit": unit}
    summary = (f"traced pass {traced:.3f} s, untraced {untraced:.3f} s, "
               f"plabic.orientations_useful_ratio = {useful} useful of "
               f"{values['plabic.orientations']} orientations, "
               f"{len(tracer.spans)} spans written to {spans_path}")
    return metrics, summary


def run_all(args):
    """Every workload in its own process; prints each end-to-end metric by name."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name:18} fail_frac = {result['failed'] / result['attempted']:g}")
        for metric, entry in result["metrics"].items():
            print(f"{name:18} {metric} = {entry['value']:.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    if code == 0:
        print(json.dumps(combined))
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
