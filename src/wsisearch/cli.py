"""Command-line entry points.

Subcommands: build-db, query, eval, synth, bench, stats-mwu.  Every
subcommand accepts --config FILE with line-based key=value pairs (dashes
and underscores interchangeable, # starts a comment); explicit flags beat
config values.  Exit codes: 0 success, 2 validation problem, 3 unsupported
operation.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import BenchSpec, bench_engines, format_report
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
    write_summary,
)
from .metrics import mann_whitney_u
from .synth import SyntheticSpec, synth_generate

#: flags forwarded into engine parameter objects when present
ENGINE_OVERRIDE_DESTS = (
    "sim_threshold",
    "quality_rule",
    "hamming_threshold",
    "probe_budget",
    "knn_k",
    "alpha",
    "beta",
)


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
    sp.add_argument("--sim-threshold", type=float, help="retccl: cosine cut for bag membership")
    sp.add_argument("--quality-rule", choices=("median", "none"), help="retccl: weak-bag filter")
    sp.add_argument("--hamming-threshold", type=int, help="sish: result distance ceiling")
    sp.add_argument("--probe-budget", type=int, help="sish: index probes per guided search")
    sp.add_argument("--knn-k", type=int, help="hshr: hyperedge neighborhood size")
    sp.add_argument("--alpha", type=float, help="hshr: vertex similarity weight")
    sp.add_argument("--beta", type=float, help="hshr: hyperedge similarity weight")


def _engine_overrides(ns: argparse.Namespace) -> dict:
    overrides = {
        dest: getattr(ns, dest)
        for dest in ENGINE_OVERRIDE_DESTS
        if getattr(ns, dest, None) is not None
    }
    if getattr(ns, "seed", None) is not None:
        overrides["seed"] = ns.seed
    return overrides


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="wsisearch", description="slide retrieval engines and their harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=Path, help="key=value file; flags win")
        commands[name] = sp
        return sp

    sp = command("build-db", "index a manifest of slides into a database file")
    sp.add_argument("--engine", choices=sorted(ENGINE_MODULES))
    sp.add_argument("--manifest", type=Path)
    sp.add_argument("--db", type=Path, help="output database path")
    sp.add_argument("--seed", type=int, default=0)
    _add_engine_flags(sp)

    sp = command("query", "run query slides from a manifest against a database")
    sp.add_argument("--db", type=Path)
    sp.add_argument("--manifest", type=Path, help="query slides")
    sp.add_argument("--engine", choices=sorted(ENGINE_MODULES), help="must match the database")
    sp.add_argument("--task", choices=sorted(TASK_PLANS), default="site")
    sp.add_argument("--k", type=int, help="result slots per query (default: task K_max)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", type=Path, help="rows CSV path (default: stdout)")

    sp = command("eval", "aggregate a rows CSV into mMV/mAP summaries")
    sp.add_argument("--rows", type=Path)
    sp.add_argument("--task", choices=sorted(TASK_PLANS))
    sp.add_argument("--out-dir", type=Path, help="also write summary.csv and summary.txt")

    sp = command("synth", "generate a synthetic corpus with manifests")
    sp.add_argument("--out", type=Path)
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
    sp.add_argument("--a", type=_comma_floats, help="comma-separated sample")
    sp.add_argument("--b", type=_comma_floats, help="comma-separated sample")

    return parser, commands


# arguments a run cannot proceed without; checked after the config merge so
# a config file may satisfy them
REQUIRED_DESTS = {
    "build-db": ("engine", "manifest", "db"),
    "query": ("db", "manifest"),
    "eval": ("rows", "task"),
    "synth": ("out",),
    "bench": (),
    "stats-mwu": ("a", "b"),
}


def _read_config(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ValidationError(f"config file {path} does not exist")
    values: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config(
    ns: argparse.Namespace,
    command_parser: argparse.ArgumentParser,
    argv: list[str],
) -> None:
    """Fill namespace attributes from the config file; explicit flags win."""
    converters = {}
    for action in command_parser._actions:
        if action.option_strings:
            converters[action.dest] = action.type or str
    for key, raw in _read_config(ns.config).items():
        if key not in converters or key == "config":
            raise ValidationError(f"config key {key!r} does not apply to this command")
        flag = "--" + key.replace("_", "-")
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        try:
            setattr(ns, key, converters[key](raw))
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc


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
        write_rows("/dev/stdout", rows, k)
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
    results = bench_engines(engines, spec)
    print(format_report(results))
    if ns.out is not None:
        import csv as _csv

        with ns.out.open("w", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
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
    parser, commands = build_parser()
    ns = parser.parse_args(argv)
    try:
        if getattr(ns, "config", None) is not None:
            _apply_config(ns, commands[ns.command], argv)
        missing = [
            dest for dest in REQUIRED_DESTS[ns.command] if getattr(ns, dest) is None
        ]
        if missing:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in missing)
            raise ValidationError(f"{ns.command} requires {flags} (flag or config)")
        return _HANDLERS[ns.command](ns)
    except UnsupportedOperationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
