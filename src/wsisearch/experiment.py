"""Experiment orchestration: site, subtype, and patch retrieval runs.

A run builds the engine's database, queries every slide (or every query
mosaic patch, for the patch task), writes one CSV row per query with up to
K_max result slots, and aggregates the metric summary.  The subtype task
rebuilds a database per site so queries only ever compete within their own
tissue; a standalone prebuilt database can instead be queried with a site
filter (the CLI does this), which keeps the candidate set identical but
computes database-wide statistics globally.

Both runners, ``run_experiment`` and ``query_rows_against_db``, send every
query through one loop, ``_query_all``: patient self-exclusion (plus the
site for the subtype task), the slide and patch branches, abstention and
the row layout live there once.  It answers the queries one after
another and sorts the rows by query_id.  Next to the rows and summary, a
run writes run.json: the slides each database left unprocessed, with the
reason, and how many queries abstained.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

from . import hshr, retccl, sish, yottixel
from .dataio import read_text
from .errors import (
    FormatError,
    NothingIndexedError,
    UndefinedAggregateError,
    UnprocessedSlideError,
    UnsupportedOperationError,
    ValidationError,
)
from .metrics import (
    FIELD_SITE,
    FIELD_SUBTYPE,
    QueryRow,
    RetrievalSlot,
    aggregate_mean,
    ap_at_k,
    mv_at_k,
)
from .model import SlideRecord, patch_ref

ENGINE_MODULES = {
    "yottixel": yottixel,
    "sish": sish,
    "retccl": retccl,
    "hshr": hshr,
}
ENGINE_PARAMS = {
    "yottixel": yottixel.YottixelParams,
    "sish": sish.SishParams,
    "retccl": retccl.RetcclParams,
    "hshr": hshr.HshrParams,
}

TASK_SITE = "site"
TASK_SUBTYPE = "subtype"
TASK_PATCH = "patch"


@dataclass(frozen=True)
class MetricPlan:
    field: str
    mv_ks: tuple[int, ...]
    ap_ks: tuple[int, ...]
    k_max: int


# K choices per task; the subtype and patch tasks judge the finer label
TASK_PLANS = {
    TASK_SITE: MetricPlan(field=FIELD_SITE, mv_ks=(1, 3, 5, 10), ap_ks=(3, 5), k_max=10),
    TASK_SUBTYPE: MetricPlan(field=FIELD_SUBTYPE, mv_ks=(1, 3, 5), ap_ks=(3, 5), k_max=5),
    TASK_PATCH: MetricPlan(field=FIELD_SUBTYPE, mv_ks=(1, 3, 5), ap_ks=(3, 5), k_max=5),
}


def check_engine_task(engine: str, task: str) -> None:
    if engine not in ENGINE_MODULES:
        raise ValidationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINE_MODULES)}"
        )
    if task not in TASK_PLANS:
        raise ValidationError(f"unknown task {task!r}; choose from {sorted(TASK_PLANS)}")
    if engine == "hshr" and task == TASK_PATCH:
        raise UnsupportedOperationError("hshr does not support patch retrieval")


def make_params(engine: str, overrides: Mapping[str, object] | None = None):
    """Engine parameter object from defaults plus named overrides."""
    cls = ENGINE_PARAMS.get(engine)
    if cls is None:
        raise ValidationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINE_MODULES)}"
        )
    overrides = dict(overrides or {})
    known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(overrides) - known
    if unknown:
        raise ValidationError(
            f"{engine} does not take parameter(s) {sorted(unknown)}; known: {sorted(known)}"
        )
    return cls(**overrides)


@dataclass(frozen=True)
class ExperimentConfig:
    engine: str
    task: str = TASK_SITE
    k_max: int | None = None  # None: the task's default
    engine_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_engine_task(self.engine, self.task)
        if self.k_max is not None and self.k_max < 1:
            raise ValidationError("k_max must be >= 1")

    @property
    def plan(self) -> MetricPlan:
        return TASK_PLANS[self.task]

    @property
    def effective_k(self) -> int:
        return self.k_max if self.k_max is not None else self.plan.k_max


def build_engine_database(
    engine: str, slides: Sequence[SlideRecord], overrides: Mapping[str, object] | None = None
):
    return ENGINE_MODULES[engine].build_database(slides, make_params(engine, overrides))


def _query_all(
    engine: str,
    db_for: Callable[[SlideRecord], object | None],
    queries: Sequence[SlideRecord],
    task: str,
    k: int,
) -> tuple[list[QueryRow], int]:
    """Every query's rows, sorted by query_id, and the number of queries
    that abstained.

    A query abstains, with one all-null row and none of the rows it may
    have produced before failing, when ``db_for`` gives it no database or
    the engine cannot process it; it never kills the run.  Self-exclusion
    is by patient, not just slide id, and the subtype task keeps only
    candidates from the query's site.
    """
    mod = ENGINE_MODULES[engine]

    def row(query: SlideRecord, query_id: str, entries=()) -> QueryRow:
        slots: list[RetrievalSlot | None] = [RetrievalSlot(*e) for e in entries]
        slots.extend([None] * (k - len(slots)))
        return QueryRow(query_id, query.site, query.subtype, tuple(slots))

    def answer(query: SlideRecord, db) -> list[QueryRow]:
        # chosen once per query: the filter runs once per database slide
        if task == TASK_SUBTYPE:
            def keep(slide_id, labels):
                return labels.site == query.site and labels.patient_id != query.patient_id
        else:
            def keep(slide_id, labels):
                return labels.patient_id != query.patient_id
        if task == TASK_PATCH:
            return [
                row(
                    query,
                    patch_ref(query.slide_id, patch.x, patch.y),
                    mod.query_patches(db, patch, k, keep).entries,
                )
                for patch in mod.query_patch_set(db, query)
            ]
        return [row(query, query.slide_id, mod.query_slides(db, query, k, keep).entries)]

    rows: list[QueryRow] = []
    abstained = 0
    for query in queries:
        db = db_for(query)
        try:
            if db is not None:
                rows += answer(query, db)
                continue
        except (UnprocessedSlideError, UnsupportedOperationError):
            pass
        abstained += 1
        rows.append(row(query, query.slide_id))
    return sorted(rows, key=lambda r: r.query_id), abstained


def run_experiment(
    config: ExperimentConfig,
    db_slides: Sequence[SlideRecord],
    query_slides: Sequence[SlideRecord],
    out_dir: str | Path | None = None,
) -> "ExperimentReport":
    """Full run: build database(s), query everything, write rows + summary.

    The subtype task builds one database per site from that site's slides,
    named by the site; queries whose site has no database slides, or none
    that could be indexed, abstain with all-null rows.  The other tasks
    build one database, named ``all``.
    """
    k_max = config.effective_k
    mod = ENGINE_MODULES[config.engine]
    params = make_params(config.engine, config.engine_params)

    per_site = config.task == TASK_SUBTYPE
    groups: dict[str, Sequence[SlideRecord]] = {"all": db_slides}
    if per_site:
        groups = {}
        for slide in db_slides:
            groups.setdefault(slide.site, []).append(slide)
    databases = {}
    unprocessed: list[tuple[str, str, str]] = []
    for name, slides in groups.items():
        try:
            databases[name] = mod.build_database(slides, params)
            failed = databases[name].unprocessed
        except NothingIndexedError as exc:
            if not per_site:
                raise
            failed = exc.unprocessed  # the site has no database: its queries abstain
        unprocessed += [(name, slide_id, reason) for slide_id, reason in failed]

    def db_for(query: SlideRecord):
        return databases.get(query.site if per_site else "all")

    rows, abstained = _query_all(config.engine, db_for, query_slides, config.task, k_max)
    summary = compute_summary(rows, config.task)

    rows_path = summary_csv = summary_txt = run_json = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        rows_path = out_dir / "rows.csv"
        write_rows(rows_path, rows, k_max)
        summary_csv = out_dir / "summary.csv"
        summary_txt = out_dir / "summary.txt"
        write_summary(
            summary,
            summary_csv,
            summary_txt,
            context={
                "engine": config.engine,
                "task": config.task,
                "queries": str(len(rows)),
            },
        )
        run_json = out_dir / "run.json"
        write_run_report(run_json, unprocessed, abstained)
    return ExperimentReport(
        config=config,
        rows=rows,
        summary=summary,
        rows_path=rows_path,
        summary_csv=summary_csv,
        summary_txt=summary_txt,
        unprocessed=unprocessed,
        abstained=abstained,
        run_json=run_json,
    )


def query_rows_against_db(
    engine: str,
    db,
    query_slides: Sequence[SlideRecord],
    task: str,
    k_max: int | None = None,
) -> list[QueryRow]:
    """Query a single prebuilt database (the CLI path).

    The subtype task here narrows candidates to the query's site by filter
    instead of rebuilding; database-wide statistics stay global.
    """
    # checked here: a run whose every query abstains never reaches an engine
    config = ExperimentConfig(engine, task, k_max)
    return _query_all(engine, lambda query: db, query_slides, task, config.effective_k)[0]


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[QueryRow]
    summary: dict[str, float | None]
    rows_path: Path | None
    summary_csv: Path | None
    summary_txt: Path | None
    unprocessed: list[tuple[str, str, str]]  # (database, slide_id, reason)
    abstained: int  # queries answered with an all-null row
    run_json: Path | None


def compute_summary(rows: Sequence[QueryRow], task: str) -> dict[str, float | None]:
    """mMV@k / mAP@k for the task's metric plan; None marks undefined cells."""
    plan = TASK_PLANS[task]
    # metrics needing more slots than the rows carry are undefined, not errors
    slots = min((len(row.slots) for row in rows), default=0)
    summary: dict[str, float | None] = {}
    for k in plan.mv_ks:
        if k > slots:
            summary[f"mMV@{k}"] = None
            continue
        outcomes = [mv_at_k(row, k, plan.field) for row in rows]
        try:
            summary[f"mMV@{k}"] = aggregate_mean(outcomes)
        except UndefinedAggregateError:
            summary[f"mMV@{k}"] = None
    for k in plan.ap_ks:
        if k > slots or not rows:
            summary[f"mAP@{k}"] = None
            continue
        values = [ap_at_k(row, k, plan.field) for row in rows]
        summary[f"mAP@{k}"] = aggregate_mean(values)
    return summary


def write_run_report(
    path: str | Path, unprocessed: Sequence[tuple[str, str, str]], abstained: int
) -> None:
    """run.json: each database's unprocessed slides and the abstained count."""
    report = {
        "unprocessed": [
            {"database": name, "slide_id": slide_id, "reason": reason}
            for name, slide_id, reason in unprocessed
        ],
        "abstained_queries": abstained,
    }
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def _row_header(k_max: int) -> list[str]:
    header = ["query_id", "query_site", "query_subtype"]
    for i in range(1, k_max + 1):
        header += [f"ret_{i}_id", f"ret_{i}_site", f"ret_{i}_subtype", f"ret_{i}_score"]
    return header


def write_rows(path: str | Path, rows: Sequence[QueryRow], k_max: int) -> None:
    """QueryRow CSV file, as ``write_rows_to`` lays it out."""
    with Path(path).open("w", newline="") as fh:
        write_rows_to(fh, rows, k_max)


def write_rows_to(stream: TextIO, rows: Sequence[QueryRow], k_max: int) -> None:
    """QueryRow CSV onto an open text stream; null slots are empty fields,
    scores print as %.6g."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(_row_header(k_max))
    for row in rows:
        if len(row.slots) != k_max:
            raise ValidationError(
                f"row {row.query_id!r} has {len(row.slots)} slots, expected {k_max}"
            )
        cells = [row.query_id, row.query_site, row.query_subtype]
        for slot in row.slots:
            if slot is None:
                cells += ["", "", "", ""]
            else:
                cells += [slot.target_id, slot.site, slot.subtype, f"{slot.score:.6g}"]
        writer.writerow(cells)


def read_rows(path: str | Path) -> list[QueryRow]:
    path = Path(path)
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty rows file") from None
        if len(header) < 7 or (len(header) - 3) % 4 != 0:
            raise FormatError(f"{path}: malformed header of {len(header)} columns")
        k_max = (len(header) - 3) // 4
        if header != _row_header(k_max):
            raise FormatError(f"{path}: header does not match the rows schema")
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise FormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            slots: list[RetrievalSlot | None] = []
            for i in range(k_max):
                chunk = cells[3 + 4 * i : 7 + 4 * i]
                if all(c == "" for c in chunk):
                    slots.append(None)
                elif all(c != "" for c in chunk):
                    try:
                        score = float(chunk[3])
                    except ValueError:
                        raise FormatError(
                            f"{path}:{lineno}: slot {i + 1} score {chunk[3]!r} is not a number"
                        ) from None
                    slots.append(RetrievalSlot(chunk[0], chunk[1], chunk[2], score))
                else:
                    raise FormatError(f"{path}:{lineno}: slot {i + 1} partially filled")
            rows.append(QueryRow(cells[0], cells[1], cells[2], tuple(slots)))
    return rows


def format_cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def write_summary(
    summary: dict[str, float | None],
    csv_path: str | Path,
    txt_path: str | Path,
    context: dict[str, str] | None = None,
) -> None:
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        for name, value in summary.items():
            writer.writerow([name, format_cell(value)])

    lines = []
    for key, val in (context or {}).items():
        lines.append(f"{key}: {val}")
    if lines:
        lines.append("")
    width = max(len(name) for name in summary) if summary else 6
    lines.append(f"{'metric'.ljust(width)}  value")
    for name, value in summary.items():
        lines.append(f"{name.ljust(width)}  {format_cell(value)}")
    Path(txt_path).write_text("\n".join(lines) + "\n")
