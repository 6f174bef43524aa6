#!/usr/bin/env python3
"""Sweep every engine over a synthetic corpus and print one summary table.

Builds the corpus in memory, runs the site and subtype retrieval tasks for
all four engines (plus the patch task where an engine supports it), and
prints mMV/mAP cells side by side.  Pass --out-dir to keep the per-run rows
and summaries.

Usage:
    python scripts/run_synthetic_eval.py
    python scripts/run_synthetic_eval.py --slides-per-subtype 10 --dim 512 --sigma 0.1
    python scripts/run_synthetic_eval.py --engines yottixel,hshr --tasks site
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wsisearch.errors import UnsupportedOperationError
from wsisearch.experiment import (
    ENGINE_MODULES,
    TASK_PLANS,
    ExperimentConfig,
    format_cell,
    run_experiment,
)
from wsisearch.synth import SyntheticSpec, generate


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--engines", default="all", help="comma list or 'all'")
    ap.add_argument("--tasks", default="site,subtype,patch")
    ap.add_argument("--sites", type=int, default=4)
    ap.add_argument("--subtypes-per-site", type=int, default=2)
    ap.add_argument("--slides-per-subtype", type=int, default=8)
    ap.add_argument("--patches", type=int, default=48)
    ap.add_argument("--dim", type=int, default=128)
    ap.add_argument("--separation", type=float, default=1.0)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--queries-per-subtype", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", type=Path, help="keep rows.csv and summaries per run")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    engines = sorted(ENGINE_MODULES) if args.engines == "all" else args.engines.split(",")
    tasks = args.tasks.split(",")

    spec = SyntheticSpec(
        n_sites=args.sites,
        subtypes_per_site=args.subtypes_per_site,
        slides_per_subtype=args.slides_per_subtype,
        patches_per_slide=args.patches,
        dim=args.dim,
        separation=args.separation,
        sigma=args.sigma,
        queries_per_subtype=args.queries_per_subtype,
        seed=args.seed,
    )
    db_slides, query_slides = generate(spec)
    print(
        f"corpus: {len(db_slides)} database slides, {len(query_slides)} query slides, "
        f"dim {spec.dim}, sigma/separation {spec.sigma}/{spec.separation}"
    )

    header = None
    for task in tasks:
        plan = TASK_PLANS[task]
        metric_names = [f"mMV@{k}" for k in plan.mv_ks] + [f"mAP@{k}" for k in plan.ap_ks]
        print(f"\n== {task} task ==")
        header = f"{'engine':<10}" + "".join(f"{m:>9}" for m in metric_names) + f"{'time':>8}"
        print(header)
        for engine in engines:
            t0 = time.perf_counter()
            try:
                config = ExperimentConfig(engine=engine, task=task)
            except UnsupportedOperationError:
                cells = "".join(f"{'-':>9}" for _ in metric_names)
                print(f"{engine:<10}{cells}{'':>8}")
                continue
            out_dir = args.out_dir / f"{engine}-{task}" if args.out_dir else None
            report = run_experiment(config, db_slides, query_slides, out_dir=out_dir)
            cells = "".join(f"{format_cell(report.summary[m]):>9}" for m in metric_names)
            print(f"{engine:<10}{cells}{time.perf_counter() - t0:>7.1f}s")
    if args.out_dir:
        print(f"\nrows and summaries under {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
