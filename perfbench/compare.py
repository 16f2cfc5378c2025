#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE CHANGE [--per-layer]

BASE and CHANGE are ledger files written by perfbench/run.py (JSONL, one
row per run).  FILE@PREFIX keeps only the rows whose commit starts with
PREFIX, so both sides may come from one ledger:

    python3 perfbench/compare.py .perfbench/ledger.jsonl@1a7ce3f .perfbench/ledger.jsonl@9f737f5

End-to-end metrics are read from untraced rows; with --per-layer the
per-layer metrics are read from traced rows.  For every workload and
metric the script prints each side's median and quartiles, the fraction
of pairs the change wins (runs paired by seed, ties counting for
neither), and a verdict:

  improved    the change wins at least 9 in 10 pairs and its median beats
              the base median by more than the base's quartile spread;
  worse       the change's median is worse than the base's by more than
              the metric's bound (BENCHMARK.json), or, for per-layer
              metrics, it loses 9 in 10 pairs by more than the spread;
  unchanged   neither, and the base's own spread is within the bound;
  unresolved  neither, but the base's spread is wider than the bound,
              and not every change run beats every base run.

Exit code 1 when any verdict is "worse".
"""

import argparse
import json
import statistics
import sys


def load(spec, traced):
    path, _, prefix = spec.partition("@")
    rows = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["traced"] == traced and row["commit"].startswith(prefix):
                rows.append(row)
    return rows


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def pairs(base, change):
    """(base value, change value) pairs, matched by seed in run order."""
    pending = {}
    for seed, v in base:
        pending.setdefault(seed, []).append(v)
    out = []
    for seed, v in change:
        if pending.get(seed):
            out.append((pending[seed].pop(0), v))
    if not out:
        out = list(zip([v for _, v in base], [v for _, v in change]))
    return out


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles([v for _, v in base])
    _, cmed, _ = quartiles([v for _, v in change])
    spread = bq3 - bq1
    gain = sign * (cmed - bmed)
    ps = pairs(base, change)
    wins = sum(1 for b, c in ps if sign * (c - b) > 0)
    losses = sum(1 for b, c in ps if sign * (c - b) < 0)
    win_frac = wins / len(ps) if ps else 0.0
    all_better = min(sign * v for _, v in change) > max(sign * v for _, v in base)
    all_worse = max(sign * v for _, v in change) < min(sign * v for _, v in base)
    if ps and wins >= 0.9 * len(ps) and gain > spread:
        return "improved", win_frac
    if bound is None:
        if ps and losses >= 0.9 * len(ps) and -gain > spread:
            return "worse", win_frac
        return ("unchanged" if abs(gain) <= spread else "unresolved"), win_frac
    scale = abs(bmed) if bmed else 1.0
    if -gain / scale > bound and (spread / scale <= bound or all_worse):
        return "worse", win_frac
    if spread / scale <= bound or all_better:
        return "unchanged", win_frac
    return "unresolved", win_frac


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--per-layer", action="store_true")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    section = "per_layer" if args.per_layer else "end_to_end"
    base = load(args.base, args.per_layer)
    change = load(args.change, args.per_layer)
    if not base or not change:
        sys.exit("compare: no matching rows on one side")

    print(f"{'workload':10} {'metric':28} {'base q1/median/q3':>34} "
          f"{'change q1/median/q3':>34} {'wins':>6}  verdict")
    any_worse = False
    for w in sorted({r["workload"] for r in base + change}):
        for m in bench[section]:
            def values(rows):
                return [(r["seed"], r[section][m["name"]]["value"]) for r in rows
                        if r["workload"] == w and m["name"] in r[section]]
            b, c = values(base), values(change)
            if not b or not c:
                continue
            v, win_frac = verdict(b, c, m["better"], m.get("bound"))
            any_worse |= v == "worse"
            bq, cq = quartiles([x for _, x in b]), quartiles([x for _, x in c])
            print(f"{w:10} {m['name']:28} "
                  f"{bq[0]:10.4g} {bq[1]:10.4g} {bq[2]:10.4g}  "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g}  "
                  f"{win_frac:5.0%}  {v} (n={len(b)}/{len(c)})")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
