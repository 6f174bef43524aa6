"""Command-line entry points.

Subcommands: build-db, query, eval, synth, bench, stats-mwu.  Every
subcommand accepts --config FILE with line-based key=value pairs (dashes
and underscores interchangeable, # starts a comment).  Each pair becomes a
``--key=value`` argument placed right after the subcommand, so argparse
converts, checks and requires config values exactly as it does flags, and
an explicit flag, abbreviated or not, beats the file.  A config file cannot
name another.  Exit codes: 0 success, 2 validation problem (argparse's own
errors exit with SystemExit(2)), 3 unsupported operation.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .bench import BenchSpec, bench_query, format_report
from .dataio import load_database, load_slides, parse_manifest, save_database
from .errors import SearchError, UnsupportedOperationError, ValidationError
from .experiment import (
    ENGINE_MODULES,
    TASK_PLANS,
    build_engine_database,
    check_engine_task,
    compute_summary,
    format_cell,
    query_rows_against_db,
    read_rows,
    write_rows,
    write_rows_to,
    write_summary,
)
from .metrics import mann_whitney_u
from .synth import SyntheticSpec, synth_generate

#: engine flags, (dest, argparse keywords); each is forwarded into the engine
#: parameter object when present
ENGINE_FLAGS = (
    ("sim_threshold", dict(type=float, help="retccl: cosine cut for bag membership")),
    ("quality_rule", dict(choices=("median", "none"), help="retccl: weak-bag filter")),
    ("hamming_threshold", dict(type=int, help="sish: result distance ceiling")),
    ("probe_budget", dict(type=int, help="sish: index probes per guided search")),
    ("knn_k", dict(type=int, help="hshr: hyperedge neighborhood size")),
    ("alpha", dict(type=float, help="hshr: vertex similarity weight")),
    ("beta", dict(type=float, help="hshr: hyperedge similarity weight")),
)
ENGINE_OVERRIDE_DESTS = tuple(dest for dest, _ in ENGINE_FLAGS)


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_or_tuple(text: str) -> int | tuple[int, ...]:
    values = _comma_ints(text)
    return values[0] if len(values) == 1 else values


def _add_engine_flags(sp: argparse.ArgumentParser) -> None:
    for dest, keywords in ENGINE_FLAGS:
        sp.add_argument("--" + dest.replace("_", "-"), **keywords)


def _engine_overrides(ns: argparse.Namespace) -> dict:
    overrides = {
        dest: getattr(ns, dest)
        for dest in ENGINE_OVERRIDE_DESTS
        if getattr(ns, dest, None) is not None
    }
    if getattr(ns, "seed", None) is not None:
        overrides["seed"] = ns.seed
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsisearch", description="slide retrieval engines and their harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="key=value file; flags win")
        return sp

    sp = command("build-db", "index a manifest of slides into a database file")
    sp.add_argument("--engine", choices=sorted(ENGINE_MODULES), required=True)
    sp.add_argument("--manifest", type=Path, required=True)
    sp.add_argument("--db", type=Path, required=True, help="output database path")
    sp.add_argument("--seed", type=int, default=0)
    _add_engine_flags(sp)

    sp = command("query", "run query slides from a manifest against a database")
    sp.add_argument("--db", type=Path, required=True)
    sp.add_argument("--manifest", type=Path, required=True, help="query slides")
    sp.add_argument("--engine", choices=sorted(ENGINE_MODULES), help="must match the database")
    sp.add_argument("--task", choices=sorted(TASK_PLANS), default="site")
    sp.add_argument("--k", type=int, help="result slots per query (default: task K_max)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", type=Path, help="rows CSV path (default: stdout)")

    sp = command("eval", "aggregate a rows CSV into mMV/mAP summaries")
    sp.add_argument("--rows", type=Path, required=True)
    sp.add_argument("--task", choices=sorted(TASK_PLANS), required=True)
    sp.add_argument("--out-dir", type=Path, help="also write summary.csv and summary.txt")

    sp = command("synth", "generate a synthetic corpus with manifests")
    sp.add_argument("--out", type=Path, required=True)
    sp.add_argument("--sites", type=int, default=5)
    sp.add_argument(
        "--subtypes-per-site",
        type=_int_or_tuple,
        default=2,
        help="one count, or per-site comma list",
    )
    sp.add_argument("--slides-per-subtype", type=int, default=10)
    sp.add_argument("--patches", type=int, default=48)
    sp.add_argument("--dim", type=int, default=64)
    sp.add_argument("--separation", type=float, default=1.0)
    sp.add_argument("--sigma", type=float, default=0.1)
    sp.add_argument("--queries-per-subtype", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)

    sp = command("bench", "measure query-time scaling against database size")
    sp.add_argument(
        "--engine",
        default="all",
        help="engine name, comma list, or 'all'",
    )
    sp.add_argument("--sizes", type=_comma_ints, default=(50, 100, 200, 400))
    sp.add_argument("--reps", type=int, default=3)
    sp.add_argument("--queries", type=int, default=3)
    sp.add_argument("--patches", type=int, default=40)
    sp.add_argument("--dim", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=Path, help="also write the timings as CSV")

    sp = command("stats-mwu", "two-sided Mann-Whitney U test on two samples")
    sp.add_argument("--a", type=_comma_floats, required=True, help="comma-separated sample")
    sp.add_argument("--b", type=_comma_floats, required=True, help="comma-separated sample")

    return parser


def _config_args(path: Path) -> list[str]:
    """The config file's key=value lines as ``--key=value`` arguments; the
    ``=`` form keeps values such as ``-1,2`` from reading as flags."""
    if not path.is_file():
        raise ValidationError(f"config file {path} does not exist")
    args = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip().replace("_", "-")
        if not sep or not key:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        # argparse would take any prefix of config as --config
        if "config".startswith(key):
            raise ValidationError(f"{path}:{lineno}: a config file cannot name another")
        args.append(f"--{key}={value.strip()}")
    return args


def _cmd_build_db(ns: argparse.Namespace) -> int:
    slides = load_slides(parse_manifest(ns.manifest))
    db = build_engine_database(ns.engine, slides, _engine_overrides(ns))
    save_database(ns.db, ns.engine, db)
    unprocessed = getattr(db, "unprocessed", [])
    print(f"indexed {len(slides) - len(unprocessed)}/{len(slides)} slides into {ns.db}")
    for slide_id, reason in unprocessed:
        print(f"  unprocessed {slide_id}: {reason}", file=sys.stderr)
    return 0


def _cmd_query(ns: argparse.Namespace) -> int:
    engine, db = load_database(ns.db)
    if ns.engine and ns.engine != engine:
        raise ValidationError(
            f"database {ns.db} was built by {engine!r}, not {ns.engine!r}"
        )
    check_engine_task(engine, ns.task)
    queries = load_slides(parse_manifest(ns.manifest))
    k = ns.k if ns.k is not None else TASK_PLANS[ns.task].k_max
    rows = query_rows_against_db(engine, db, queries, ns.task, k, ns.jobs)
    if ns.out is None:
        write_rows_to(sys.stdout, rows, k)
    else:
        write_rows(ns.out, rows, k)
        print(f"wrote {len(rows)} rows to {ns.out}")
    return 0


def _cmd_eval(ns: argparse.Namespace) -> int:
    rows = read_rows(ns.rows)
    summary = compute_summary(rows, ns.task)
    if ns.out_dir is not None:
        ns.out_dir.mkdir(parents=True, exist_ok=True)
        write_summary(
            summary,
            ns.out_dir / "summary.csv",
            ns.out_dir / "summary.txt",
            context={"task": ns.task, "rows": str(len(rows))},
        )
    width = max(len(name) for name in summary)
    for name, value in summary.items():
        print(f"{name.ljust(width)}  {format_cell(value)}")
    return 0


def _cmd_synth(ns: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_sites=ns.sites,
        subtypes_per_site=ns.subtypes_per_site,
        slides_per_subtype=ns.slides_per_subtype,
        patches_per_slide=ns.patches,
        dim=ns.dim,
        separation=ns.separation,
        sigma=ns.sigma,
        queries_per_subtype=ns.queries_per_subtype,
        seed=ns.seed,
    )
    manifest, queries = synth_generate(spec, ns.out)
    print(f"database manifest: {manifest}")
    print(f"query manifest:    {queries}")
    return 0


def _cmd_bench(ns: argparse.Namespace) -> int:
    engines = sorted(ENGINE_MODULES) if ns.engine == "all" else ns.engine.split(",")
    for engine in engines:
        if engine not in ENGINE_MODULES:
            raise ValidationError(f"unknown engine {engine!r}")
    spec = BenchSpec(
        sizes=tuple(ns.sizes),
        repetitions=ns.reps,
        queries=ns.queries,
        patches_per_slide=ns.patches,
        dim=ns.dim,
        seed=ns.seed,
    )
    results = [bench_query(engine, spec) for engine in engines]
    print(format_report(results))
    if ns.out is not None:
        with ns.out.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["engine", "size", "median_s", "slope", "theory"])
            for res in results:
                for size, med in zip(res.sizes, res.median_seconds):
                    writer.writerow(
                        [res.engine, size, f"{med:.9f}", f"{res.slope:.4f}", f"{res.theory:.1f}"]
                    )
        print(f"wrote {ns.out}")
    return 0


def _cmd_stats_mwu(ns: argparse.Namespace) -> int:
    u, p = mann_whitney_u(ns.a, ns.b)
    print(f"U={u:.6g} p={p:.6g}")
    return 0


_HANDLERS = {
    "build-db": _cmd_build_db,
    "query": _cmd_query,
    "eval": _cmd_eval,
    "synth": _cmd_synth,
    "bench": _cmd_bench,
    "stats-mwu": _cmd_stats_mwu,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config", type=Path)
        config = pre.parse_known_args(argv[1:])[0].config
        if config is not None:
            # after the subcommand and before the user's flags, which win
            argv[1:1] = _config_args(config)
        ns = build_parser().parse_args(argv)
        return _HANDLERS[ns.command](ns)
    except UnsupportedOperationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
