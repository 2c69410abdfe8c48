"""Scaling ladders: where each exponential routine stops being usable.

    python3 perfbench/ladder.py [--budget SECONDS] [--seed N]

Informational only: neither a gate nor a workload.  Three ladders, each a
CLI call timed in-process, in wall seconds:

  invert     ``invert`` of the top cell (k, 2k) matrix, k = 2, 3, ...
  manhattan  ``measure --matrix`` on an L x L Manhattan grid whose streets
             alternate in direction, so every other block is a directed
             cycle, L = 2, 3, ...
  matroid    ``matroid`` of the top cell (n // 2, n) plabic graph, n = 4, 5, ...

Each rung is timed untraced and then, if it stayed within the per-rung
budget, run once more under the tracer for the per-layer work counts.  A
ladder stops at the first rung over the budget, which is cut off after
CUT_OFF budgets, and records the largest rung within the budget.  The report goes to stdout and to .bench_out/ladder.json.
"""

import argparse
import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CUT_OFF = 5     # a rung still running after this many budgets is stopped

COUNTERS = ("exactmath.minors", "exactmath.max_bits", "network.entries",
            "network.networks_built", "lediagram.hook_networks", "plabic.orientations",
            "plabic.graphs_built", "planarmaps.maps_built", "planarmaps.face_traces")


def rungs(name, rng):
    """(label, argv, stdin) for every rung of one ladder, smallest first."""
    from workloads import manhattan_grid, random_ratio, run_cli
    from positroid import lediagram, permutations
    for size in range(2, 64):
        if name == "invert":
            D = permutations.le_from_perm(permutations.top_permutation(size, 2 * size))
            T = lediagram.diagram_to_tableau(D, {b: random_ratio(rng, 30) for b in D.boxes()})
            net = lediagram.gamma_network(T).to_text()
            yield f"({size},{2 * size})", ["invert", "-"], run_cli(["measure", "-", "--matrix"], net)
        elif name == "manhattan":
            east = tuple(i % 2 == 0 for i in range(size))
            north = tuple(not d for d in east)   # every other block is a directed cycle
            net = manhattan_grid(size, size, east, north, lambda: random_ratio(rng, 9))
            yield f"{size}x{size}", ["measure", "-", "--matrix"], net.to_text()
        else:
            n = size + 2
            pi = permutations.top_permutation(n // 2, n)
            yield f"({n // 2},{n})", ["matroid", "-"], run_cli(["perm2graph", pi.format()])


class RungCutOff(Exception):
    """A rung ran for CUT_OFF times the budget and was stopped."""


def _cut_off(signum, frame):
    raise RungCutOff


def climb(name, budget, seed):
    from tracer import Tracer
    from workloads import run_cli
    steps = []
    signal.signal(signal.SIGALRM, _cut_off)
    for label, argv, stdin in rungs(name, random.Random(seed)):
        step = {"rung": label}
        signal.setitimer(signal.ITIMER_REAL, CUT_OFF * budget)
        start = time.perf_counter()
        try:
            run_cli(argv, stdin)
        except RungCutOff:
            step["cut_off"] = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = step["seconds"] = time.perf_counter() - start
        steps.append(step)
        print(f"{name:10} {label:8} {seconds:9.4f} s{' (cut off)' if 'cut_off' in step else ''}",
              flush=True)
        if seconds > budget:
            break
        tracer = Tracer()
        tracer.install()
        try:
            run_cli(argv, stdin)
        finally:
            tracer.uninstall()
        counts, _ = tracer.layer_metrics(seconds)
        step["counts"] = {key: counts[key] for key in COUNTERS if counts[key]}
    reached = [s["rung"] for s in steps if s["seconds"] <= budget]
    return {"budget_s": budget, "largest_rung_within_budget": reached[-1] if reached else None,
            "rungs": steps}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--budget", type=float, default=2.0, help="seconds allowed per rung")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "positroid", "cli.py")):
        sys.exit(f"ladder.py: no positroid sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    report = {name: climb(name, args.budget, args.seed)
              for name in ("invert", "manhattan", "matroid")}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "ladder.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    for name, ladder in report.items():
        print(f"{name}: largest rung within {args.budget:g} s is "
              f"{ladder['largest_rung_within_budget']}")


if __name__ == "__main__":
    main()
