#!/usr/bin/env python3
"""Compares hetbench runs of two commits, or condenses runs to medians.

    compare.py compare --a A1 A2 ... --b B1 B2 ... [--layers]
    compare.py medians RUN1 RUN2 ... > baseline.json

Each file holds what run.py printed: every line that is a report object (it
has "workload" and "metrics") counts as one run of that workload; other lines
are ignored. Pass the runs of each side in the order they were made, so the
i-th run of A pairs with the i-th run of B (interleave A and B when running).

`compare` prints, per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the pairs B won, and a verdict under the
metric's bound:
  improved    B won at least 9 of 10 pairs and the medians differ by more
              than A's quartile spread
  unresolved  a side's quartile spread exceeds the bound (unless every B run
              beats every A run, or loses to every A run by more than the
              bound: then "regressed")
  regressed   B's median is worse than A's by more than the bound
  unchanged   otherwise
It exits 1 when any verdict is "regressed". With --layers it also prints the
per-layer metrics, which have no bound: "improved" or "worse" by the same
pair rule (B wins, or loses, at least 9 of 10 pairs and the medians differ by
more than A's quartile spread), "-" otherwise.

`medians` prints one JSON object with the median and quartiles of every
metric of every workload over the given runs: a trajectory point.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(paths):
    """workload -> metric -> [values in run order]; plus units and seeds."""
    runs, units, seeds = {}, {}, {}
    for path in paths:
        with open(path) as f:
            for line in f:
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(obj, dict) or "workload" not in obj:
                    continue
                wl = obj["workload"]
                seeds.setdefault(wl, []).append(obj.get("seed"))
                for name, m in obj["metrics"].items():
                    runs.setdefault(wl, {}).setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
    return runs, units, seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, better, bound):
    """Returns (verdict, pairs B won, pairs); bound None = a per-layer metric."""
    sign = 1 if better == "lower" else -1
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    gain = sign * (med_a - med_b)  # > 0: B's median is better
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread_a = qa[2] - qa[0]
    if pairs and wins >= 0.9 * len(pairs) and gain > spread_a:
        return "improved", wins, len(pairs)
    if bound is None:
        worse = pairs and losses >= 0.9 * len(pairs) and -gain > spread_a
        return ("worse" if worse else "-"), wins, len(pairs)
    rel = lambda q: (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    worse_by = -gain / abs(med_a) if med_a else 0.0
    if max(rel(qa), rel(qb)) > bound and not all_better:
        if all_worse and worse_by > bound:
            return "regressed", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_runs, _, _ = load_runs(args.a)
    b_runs, units, _ = load_runs(args.b)
    print(f"{'workload':18} {'metric':34} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B-A':>8} {'B won':>6}  verdict")
    metrics = spec["end_to_end"] + (spec["per_layer"] if args.layers else [])
    regressed = False
    for wl in sorted(set(a_runs) & set(b_runs)):
        for m in metrics:
            name = m["name"]
            a, b = a_runs[wl].get(name), b_runs[wl].get(name)
            if not a or not b:
                continue
            bound = m.get("bound")
            v, wins, n = verdict(a, b, m["better"], bound)
            regressed = regressed or v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            cell = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {units[name]}"
            change = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
            note = f" (bound {bound:.0%})" if bound is not None else ""
            print(f"{wl:18} {name:34} {cell(qa):>34} {cell(qb):>34} "
                  f"{change:+7.2f}% {wins:>3}/{n:<2}  {v}{note}")
    return 1 if regressed else 0


def medians(args):
    runs, units, seeds = load_runs(args.files)
    out = {"runs": {wl: len(s) for wl, s in seeds.items()},
           "seeds": {wl: sorted(set(s)) for wl, s in seeds.items()},
           "workloads": {}}
    for wl, metrics in sorted(runs.items()):
        out["workloads"][wl] = {}
        for name, values in metrics.items():
            q1, q2, q3 = quartiles(values)
            out["workloads"][wl][name] = {"median": q2, "q1": q1, "q3": q3,
                                          "unit": units[name]}
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("compare")
    c.add_argument("--a", nargs="+", required=True)
    c.add_argument("--b", nargs="+", required=True)
    c.add_argument("--layers", action="store_true")
    m = sub.add_parser("medians")
    m.add_argument("files", nargs="+")
    args = parser.parse_args()
    return compare(args) if args.cmd == "compare" else medians(args)


if __name__ == "__main__":
    sys.exit(main())
