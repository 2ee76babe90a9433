"""Run perfbench on two source trees in alternating pairs and compare the medians.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W --pairs N --seconds S

Each tree is a checkout of this repository.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each tree, with the tree as the working directory: both sides of a pair
use the same seed, and the side that runs first alternates from pair to pair,
so a drift in the host's speed falls on both sides alike.  The last line a run
prints must be its JSON result.

For each end-to-end metric of OLD_TREE's BENCHMARK.json the table gives the
median and the quartiles over OLD_TREE's runs, the median over NEW_TREE's, the
change of the median relative to OLD_TREE's (positive is worse, in the metric's
``better`` direction), the spread (the quartile distance over OLD_TREE's median)
and the wins, the pairs in which NEW_TREE's run was strictly better.  A metric
whose spread exceeds its bound is "unresolved", unless every NEW_TREE run is
better than every OLD_TREE run; otherwise it is "worse" when the change exceeds
the bound and "ok" when it does not.  The exit status is 1 when a
run failed or its last line is not a result, naming each such run, and 0
otherwise.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values, by the exclusive
    method of ``statistics.quantiles``; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins(old: list[float], new: list[float], better: str) -> int:
    """The pairs (old[i], new[i]) in which new is strictly better: lower or higher."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (b - a) > 0.0 for a, b in zip(old, new))


def change(old_median: float, new_median: float, better: str) -> float:
    """The relative change of the median, positive where new is worse."""
    worse_by = new_median - old_median if better == "lower" else old_median - new_median
    if old_median == 0.0:
        return 0.0 if worse_by == 0.0 else math.copysign(math.inf, worse_by)
    return worse_by / abs(old_median)


def verdict(old: list[float], new: list[float], better: str, bound: float) -> tuple:
    """(old quartiles, new median, change, spread, wins, verdict) of one metric."""
    q1, q2, q3 = quartiles(old)
    new_median = statistics.median(new)
    delta = change(q2, new_median, better)
    spread = (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else math.inf)
    best_old = min(old) if better == "lower" else max(old)
    separated = wins([best_old] * len(new), new, better) == len(new)
    word = ("unresolved" if spread > bound and not separated
            else "worse" if delta > bound else "ok")
    return (q1, q2, q3), new_median, delta, spread, wins(old, new, better), word


def run(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One perfbench run in ``tree``: (the result's metric values, or None, and why not)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        result = json.loads(lines[-1])
        return {name: m["value"] for name, m in result["metrics"].items()}, ""
    except (IndexError, ValueError, KeyError, TypeError):
        return None, f"last line is not a result: {lines[-1][:200] if lines else '(none)'}"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    with open(os.path.join(args.old, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    results: dict[str, list[dict]] = {"old": [], "new": []}
    failed = []
    for seed in range(args.pairs):
        sides = ("old", "new") if seed % 2 == 0 else ("new", "old")
        pair = {}
        for side in sides:
            values, why = run(getattr(args, side), args.workload, seed, args.seconds)
            print(f"pair {seed} {side}: {'ok' if values else why}", file=sys.stderr, flush=True)
            if values is None:
                failed.append(f"{side} tree, seed {seed}: {why}")
            pair[side] = values
        if pair["old"] and pair["new"]:
            for side in ("old", "new"):
                results[side].append(pair[side])

    print(f"{args.workload}: {len(results['old'])} pairs, old {args.old}, new {args.new}")
    print(f"{'metric':<14}{'old q1':>11}{'old med':>11}{'old q3':>11}{'new med':>11}"
          f"{'change':>9}{'spread':>9}{'bound':>7}  wins  verdict")
    for metric in metrics:
        name = metric["name"]
        old = [r[name] for r in results["old"] if name in r]
        new = [r[name] for r in results["new"] if name in r]
        if not old or len(old) != len(new):
            continue
        (q1, q2, q3), new_median, delta, spread, k, word = verdict(
            old, new, metric["better"], metric["bound"])
        print(f"{name:<14}{q1:>11.4g}{q2:>11.4g}{q3:>11.4g}{new_median:>11.4g}"
              f"{delta:>+9.1%}{spread:>9.1%}{metric['bound']:>7.2f}  {k:>2}/{len(old):<2} {word}")
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
