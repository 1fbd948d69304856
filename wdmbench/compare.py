#!/usr/bin/env python3
"""A/B comparator for wdmbench results.

    python3 wdmbench/compare.py PARENT CHANGE
    python3 wdmbench/compare.py RESULTS        # one set's medians and spread
    python3 wdmbench/compare.py --self-test

PARENT and CHANGE are result directories (or single result files) written by
wdmbench/run.py under .bench_out/results/. Untraced results are grouped by
workload; parent and change runs of the same seed form a pair (the k-th run
of a seed on one side pairs with the k-th on the other). For each workload
and end-to-end metric the comparator prints both sides' median and
quartiles, the pairs the change won, and a verdict:

  improved      the change wins at least 9 in 10 pairs and its median is
                better than the parent's by more than the parent's own
                quartile spread
  worse         the change's median is worse than the parent's by more than
                the metric's bound
  unresolved    the run-to-run spread (quartile distance over median) of
                either side is wider than the bound, unless every change
                run reads better than every parent run
  within bound  otherwise

Bounds and directions come from BENCHMARK.json. It also reports, per
workload and seed, whether both sides printed the same output digest, i.e.
whether the simulated statistics are identical.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for file in files:
        result = json.loads(file.read_text())
        if not result.get("trace"):
            results.append(result)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (verdict, wins, pairs) for one metric; parent and change are
    lists of (seed, value) in run order."""
    sign = 1.0 if better == "higher" else -1.0
    by_seed = defaultdict(list)
    for seed, value in parent:
        by_seed[seed].append(value)
    wins = pairs = 0
    for seed, value in change:
        if by_seed[seed]:
            base = by_seed[seed].pop(0)
            pairs += 1
            wins += sign * (value - base) > 0
    p = [v for _, v in parent]
    c = [v for _, v in change]
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    gain = sign * (cm - pm)
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    decisive = pairs > 0 and wins >= 0.9 * pairs and gain > (p3 - p1)
    if spread > bound and not all_better:
        return "unresolved", wins, pairs
    if decisive:
        return "improved", wins, pairs
    if pm and -gain / abs(pm) > bound:
        return "worse", wins, pairs
    return "within bound", wins, pairs


def compare(parent_results, change_results, bench):
    metrics = bench["end_to_end"]
    rows = []
    workloads = sorted({r["workload"] for r in parent_results} & {r["workload"] for r in change_results})
    for workload in workloads:
        p = [r for r in parent_results if r["workload"] == workload]
        c = [r for r in change_results if r["workload"] == workload]
        for metric in metrics:
            name = metric["name"]
            pv = [(r["seed"], r["e2e"][name]["value"]) for r in p if name in r["e2e"]]
            cv = [(r["seed"], r["e2e"][name]["value"]) for r in c if name in r["e2e"]]
            if not pv or not cv:
                continue
            result, wins, pairs = verdict(pv, cv, metric["better"], metric["bound"])
            rows.append((workload, name, metric["unit"], [v for _, v in pv],
                         [v for _, v in cv], wins, pairs, result))
        digests = defaultdict(lambda: [set(), set()])
        for r in p:
            digests[r["seed"]][0].add(r["digest"])
        for r in c:
            digests[r["seed"]][1].add(r["digest"])
        same = [s for s, (a, b) in digests.items() if a and b and a == b]
        differ = [s for s, (a, b) in digests.items() if a and b and a != b]
        rows.append((workload, "digest", "", same, differ, 0, 0,
                     "identical" if not differ else "DIFFERENT"))
    return rows


def render(rows):
    lines = [f"{'workload':<13} {'metric':<22} {'parent q1/med/q3':>32} "
             f"{'change q1/med/q3':>32} {'wins':>6}  verdict"]
    for workload, name, unit, p, c, wins, pairs, result in rows:
        if name == "digest":
            lines.append(f"{workload:<13} {'digest':<22} same on seeds {sorted(p)}, "
                         f"different on seeds {sorted(c)}: {result}")
            continue
        pq = "/".join(f"{x:.4g}" for x in quartiles(p))
        cq = "/".join(f"{x:.4g}" for x in quartiles(c))
        lines.append(f"{workload:<13} {name + ' ' + unit:<22} {pq:>32} {cq:>32} "
                     f"{wins:>3}/{pairs:<2}  {result}")
    return "\n".join(lines)


def spread(results, bench):
    """Median and quartile spread (q3 - q1 over the median) per workload and
    end-to-end metric, next to a third of the metric's bound."""
    lines = [f"{'workload':<13} {'metric':<22} {'runs':>4} {'median':>12} {'spread':>8} "
             f"{'bound/3':>8}"]
    for workload in sorted({r["workload"] for r in results}):
        runs = [r for r in results if r["workload"] == workload]
        for metric in bench["end_to_end"]:
            values = [r["e2e"][metric["name"]]["value"] for r in runs
                      if metric["name"] in r["e2e"]]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            share = (q3 - q1) / abs(median) if median else 0.0
            lines.append(f"{workload:<13} {metric['name']:<22} {len(values):>4} "
                         f"{median:>12.6g} {share:>8.4f} {metric['bound'] / 3:>8.4f}")
    return "\n".join(lines)


def self_test():
    def runs(values, seeds=None):
        return list(zip(seeds or range(len(values)), values))

    cases = [
        # (name, parent, change, better, bound, expected)
        ("clear gain", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [120, 121, 119, 120, 122, 118, 120, 121, 119, 120], "higher", 0.1, "improved"),
        ("noise within bound", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [101, 99, 100, 102, 98, 100, 100, 99, 101, 100], "higher", 0.1, "within bound"),
        ("regression past bound", [100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
         [80, 81, 79, 80, 82, 78, 80, 81, 79, 80], "higher", 0.1, "worse"),
        ("lower is better", [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0],
         [0.8, 0.81, 0.79, 0.8, 0.82, 0.78, 0.8, 0.81, 0.79, 0.8], "lower", 0.1, "improved"),
        ("spread wider than bound", [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [65, 135, 85, 125, 95, 75, 125, 95, 105, 100], "higher", 0.1, "unresolved"),
        ("wide spread, every change run better", [60, 140, 80, 120, 100, 70, 130, 90, 110, 100],
         [300, 340, 320, 310, 330, 305, 335, 315, 325, 320], "higher", 0.1, "improved"),
    ]
    failed = 0
    for name, p, c, better, bound, expected in cases:
        got, wins, pairs = verdict(runs(p), runs(c), better, bound)
        status = "ok" if got == expected else "FAIL"
        failed += got != expected
        print(f"self-test {name}: {got} ({wins}/{pairs} pairs) {status}")
    rows = compare(
        [{"workload": "w", "seed": 1, "digest": "a", "e2e": {"m": {"value": 1.0}}}],
        [{"workload": "w", "seed": 1, "digest": "b", "e2e": {"m": {"value": 1.0}}}],
        {"end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]})
    if rows[-1][-1] != "DIFFERENT":
        print("self-test digest mismatch: not reported FAIL")
        failed += 1
    print("self-test " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description="Compare two sets of wdmbench results.")
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent:
        parser.error("PARENT (and CHANGE) are required")
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    if not args.change:
        print(spread(load_results(args.parent), bench))
        return 0
    rows = compare(load_results(args.parent), load_results(args.change), bench)
    print(render(rows))
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
