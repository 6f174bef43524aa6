#!/usr/bin/env python3
"""Compare two source checkouts over alternating pairs of benchmark runs.

For each workload of BENCHMARK.json, runs ``perfbench/run.py`` untraced in
the base checkout and in the change checkout, N pairs in all.  Pair i uses
seed ``--seed + i`` on both sides, and the side that runs first flips from
one pair to the next (base first in pair 0), so drift in the host's speed
hits both sides alike.  Every run must report ``correct``.

Per workload and end-to-end metric it prints the median and quartiles of
each side, how many pairs the change won (ties count for neither side) and
whether the change's lead is a gain under the benchmark's rule: over at
least ``MIN_PAIRS`` pairs it wins at least nine tenths of them, the medians
differ by more than the base's interquartile range, and the change fails no
larger share of operations than the base.  It also prints whether the change
is worse by the mirror rule: over at least ``MIN_PAIRS`` pairs the base wins
at least nine tenths of them and the medians differ by more than the
change's interquartile range.  Last comes the bound rule, by which
a change that claims no gain is judged: the change's median as a signed
percentage of the base's, and ``over`` when the change's median is worse
than the base's by more than the metric's BENCHMARK.json ``bound`` times
the base median, ``unresolved`` when either side's interquartile range
exceeds that amount (unless every change run beats every base run), and
``ok`` otherwise.  Every run lasts BENCHMARK.json's ``run_seconds``,
every workload runs, and both checkouts must hold the same benchmark
files.  Per workload and seed it also prints whether both sides
gave the same per-engine row digests (the ``digests`` of each run's
``info:`` line), naming each engine whose digest differs.  ``--out`` keeps
every run's result line, with those digests, keyed by workload and side, in
pair order.

Usage:
    python scripts/bench_pairs.py BASE CHANGE
    python scripts/bench_pairs.py BASE CHANGE --pairs 12 --seed 11 --out runs.json
"""
from __future__ import annotations

import argparse
import filecmp
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

#: the fewest pairs on which the benchmark's rule can call a gain or a loss
MIN_PAIRS = 10


def benchmark_files(checkout: Path) -> list[Path]:
    """BENCHMARK.json and the benchmark's Python files, relative to the checkout."""
    files = [checkout / "BENCHMARK.json", *(checkout / "perfbench").glob("*.py")]
    return sorted(path.relative_to(checkout) for path in files)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced ``perfbench/run.py`` run, plus the
    per-engine row ``digests`` of its ``info:`` line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr}")
    *_, info, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave incorrect rows")
    result["digests"] = json.loads(info.removeprefix("info: "))["digests"]
    return result


def differing_engines(base: dict, change: dict) -> list[str]:
    """The engines whose row digests differ between two runs of one seed,
    an engine that only one run reports among them."""
    return sorted(engine for engine in base.keys() | change.keys()
                  if base.get(engine) != change.get(engine))


def failed_share(results: list[dict]) -> float:
    """The share of all attempted operations that failed over a side's runs."""
    return sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results))


def summarise(
    better: str, base: list[float], change: list[float], base_failed: float, change_failed: float
) -> dict:
    """Both sides' (first quartile, median, third quartile), linearly
    interpolated, the pairs the change won, and whether that is a gain or
    the change is worse, neither on fewer than ``MIN_PAIRS`` pairs;
    ``base_failed`` and ``change_failed`` are the sides' failed shares."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b1, b2, b3 = statistics.quantiles(base, n=4, method="inclusive")
    c1, c2, c3 = statistics.quantiles(change, n=4, method="inclusive")
    enough = len(base) >= MIN_PAIRS
    return {
        "base": (b1, b2, b3),
        "change": (c1, c2, c3),
        "wins": wins,
        "pairs": len(base),
        "gain": enough and wins >= 0.9 * len(base) and sign * (b2 - c2) > b3 - b1
        and change_failed <= base_failed,
        "worse": enough and losses >= 0.9 * len(base) and sign * (c2 - b2) > c3 - c1,
    }


def bound_verdict(
    better: str, bound: float, base: list[float], change: list[float]
) -> tuple[float, str]:
    """The change's median as a signed percentage of the base's, and the
    bound rule's verdict: ``over``, ``unresolved`` or ``ok``."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b2, b3 = statistics.quantiles(base, n=4, method="inclusive")
    c1, c2, c3 = statistics.quantiles(change, n=4, method="inclusive")
    limit = bound * abs(b2)
    percent = 100.0 * (c2 - b2) / abs(b2) if b2 else math.nan
    if sign * (c2 - b2) > limit:
        return percent, "over"
    beats_all = all(sign * (b - c) > 0 for b in base for c in change)
    if max(b3 - b1, c3 - c1) > limit and not beats_all:
        return percent, "unresolved"
    return percent, "ok"


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, help="source checkout of the parent commit")
    ap.add_argument("change", type=Path, help="source checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11, help="seed of pair 0; pair i uses seed + i")
    ap.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be >= 2")
    files = benchmark_files(args.base)
    if files != benchmark_files(args.change) or not all(
        filecmp.cmp(args.base / name, args.change / name, shallow=False) for name in files
    ):
        ap.error("the two checkouts hold different benchmark files")

    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    every_run: dict[str, dict[str, list[dict]]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = every_run[workload] = {"base": [], "change": []}
        for i in range(args.pairs):
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in sides:
                result = run_once(getattr(args, side), workload, args.seed + i, seconds)
                runs[side].append(result)
                print(f"{workload} pair {i} {side}: failed {result['failed']} of "
                      f"{result['attempted']}", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
              f"{seconds:g} s runs")
        failed = {side: failed_share(results) for side, results in runs.items()}
        print(f"{'metric':<24} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} "
              f"{'won':>6}  gain  worse  {'change':>7}  bound")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [run["metrics"][name]["value"] for run in runs["base"]]
            change = [run["metrics"][name]["value"] for run in runs["change"]]
            row = summarise(metric["better"], base, change, failed["base"], failed["change"])
            percent, verdict = bound_verdict(metric["better"], metric["bound"], base, change)
            b1, b2, b3 = row["base"]
            c1, c2, c3 = row["change"]
            print(f"{name:<24} {f'{fmt(b2)} [{fmt(b1)}, {fmt(b3)}]':<30} "
                  f"{f'{fmt(c2)} [{fmt(c1)}, {fmt(c3)}]':<30} "
                  f"{row['wins']:>3}/{row['pairs']:<2}  {'yes' if row['gain'] else 'no':<4}  "
                  f"{'yes' if row['worse'] else 'no':<5}  {percent:>+6.1f}%  {verdict}")
        for i, (base, change) in enumerate(zip(runs["base"], runs["change"])):
            differ = differing_engines(base["digests"], change["digests"])
            print(f"seed {args.seed + i} row digests: "
                  + (f"differ in {', '.join(differ)}" if differ else "same"))
        for side, results in runs.items():
            print(f"{side}: {sum(r['failed'] for r in results)} of "
                  f"{sum(r['attempted'] for r in results)} operations failed "
                  f"({failed[side]:.3%})")
    if args.out:
        args.out.write_text(json.dumps(every_run, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
