"""Workloads, corpus generation, the closed query loop and the output check.

Each run generates its corpus from the seed with ``synth.synth_generate``,
so the package sees only feature files and manifests.  It then drives the
public API the way the CLI does: parse and load both manifests, run every
engine's ``build_database``, save and reload each database, and query the
reloaded databases from one client in a closed loop, engines taking turns
operation by operation.
"""
from __future__ import annotations

import hashlib
import math
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from wsisearch import dataio, experiment
from wsisearch.metrics import QueryRow, RetrievalSlot
from wsisearch.model import patch_ref
from wsisearch.synth import SyntheticSpec, synth_generate

from tracing import ENGINE_MODULES, ENGINES

#: every workload's class structure; at sigma >= 1.5 RetCCL's cosine
#: threshold empties every bag and all of its queries abstain
SEPARATION = 1.0
SIGMA = 0.5
#: operations per engine needed for a p90 with ten samples beyond it
MIN_OPS = 100

SLIDE = "slide"
PATCH = "patch"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SyntheticSpec fields other than separation, sigma and seed
    op_kind: str  # SLIDE: one query slide per op; PATCH: one mosaic patch per op
    #: query slides are cropped to a side x side block of patches
    query_side: int
    #: build rounds in an untraced run; each builds every engine and reloads
    #: the databases, and after the first, queries run between the builds.
    #: A run's speed drifts with the host's, and each engine's build_s is the
    #: mean of this many builds spread over the run
    rounds: int
    #: query passes an untraced run makes at least, spread over its rounds
    passes: int


WORKLOADS = {
    # the pinned profile shape; 13 query slides per class give 104 distinct
    # queries, so no single slide's cost sets the percentiles.  Query slides
    # are 5 x 5-patch crops, which keeps two passes over 104 operations per
    # engine inside the run's time budget.
    "slide-query": Workload(
        name="slide-query",
        spec=dict(n_sites=4, subtypes_per_site=2, slides_per_subtype=25,
                  patches_per_slide=100, dim=256, queries_per_subtype=13),
        op_kind=SLIDE,
        query_side=5,
        rounds=3,
        passes=2,
    ),
    # 600-patch database slides: the k-means mosaics dominate build time
    # and peak RSS.  Sixteen slides, not fewer larger ones, so that no single
    # slide's k-means iteration count sets a run's build time.  Patch queries
    # come from 8 x 8 crops of the query slides, so the query loop stays short
    # beside the builds.
    "index-build": Workload(
        name="index-build",
        spec=dict(n_sites=2, subtypes_per_site=2, slides_per_subtype=4,
                  patches_per_slide=600, dim=512, queries_per_subtype=4),
        op_kind=PATCH,
        query_side=8,
        rounds=5,
        passes=2,
    ),
}


def make_corpus(workload: Workload, seed: int, out_dir: Path) -> tuple[Path, Path]:
    """Write the workload's corpus; returns (database manifest, query manifest).

    Equal seeds give byte-identical files.
    """
    spec = SyntheticSpec(**workload.spec, separation=SEPARATION, sigma=SIGMA, seed=seed)
    manifest, queries = synth_generate(spec, out_dir)
    return manifest, _crop_queries(queries, workload.query_side)


def _crop_queries(path: Path, side: int) -> Path:
    source = dataio.parse_manifest(path)
    rows = []
    for row in source.rows:
        patches = dataio.read_features(source.resolve(row))
        kept = [p for p in patches if p.x < side and p.y < side]
        rel = Path("features") / f"{row.slide_id}-{side}x{side}.psf"
        dataio.write_features(source.base_dir / rel, kept)
        rows.append(row._replace(features_path=str(rel)))
    out = path.with_name(f"queries-{side}x{side}.csv")
    dataio.write_manifest(out, rows)
    return out


# ---------------------------------------------------------------- set-up


@dataclass
class Loaded:
    db_slides: list
    query_slides: list
    dbs: dict = field(default_factory=dict)


def load_corpus(manifest: Path, queries: Path) -> Loaded:
    return Loaded(
        db_slides=dataio.load_slides(dataio.parse_manifest(manifest)),
        query_slides=dataio.load_slides(dataio.parse_manifest(queries)),
    )


def setup_pass(manifest: Path, queries: Path, built: dict, db_dir: Path) -> tuple[float, Loaded]:
    """The I/O a user pays before the first query: both manifests read and
    every built database saved and loaded back."""
    t0 = perf_counter()
    loaded = load_corpus(manifest, queries)
    for engine, db in built.items():
        path = db_dir / f"{engine}.db"
        dataio.save_database(path, engine, db)
        name, loaded.dbs[engine] = dataio.load_database(path)
        if name != engine:
            raise RuntimeError(f"{path} reloaded as {name!r}, saved as {engine!r}")
    return perf_counter() - t0, loaded


def build(engine: str, db_slides, tracer=None):
    """One engine's database and its build_database wall seconds."""
    with op_span(tracer, f"op.build.{engine}"):
        t0 = perf_counter()
        db = experiment.build_engine_database(engine, db_slides)
        return db, perf_counter() - t0


def build_all(db_slides, tracer=None) -> dict:
    return {engine: build(engine, db_slides, tracer)[0] for engine in ENGINES}


def op_span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


# ---------------------------------------------------------------- queries


@dataclass(frozen=True)
class Op:
    """One query operation: a slide query under ``task``, or one patch query."""

    query: object  # SlideRecord
    task: str
    k: int
    patch: object = None  # PatchFeature for patch queries


def engine_ops(workload: Workload, engine: str, db, query_slides) -> list[Op]:
    """The operations one pass over the query set makes for ``engine``.

    Patch workloads query each member of ``query_patch_set``; hshr has no
    patch path, so there it answers the same slides as subtype queries,
    the label the patch task judges.
    """
    if workload.op_kind == SLIDE:
        k = experiment.TASK_PLANS[experiment.TASK_SITE].k_max
        return [Op(q, experiment.TASK_SITE, k) for q in query_slides]
    if engine == "hshr":
        k = experiment.TASK_PLANS[experiment.TASK_SUBTYPE].k_max
        return [Op(q, experiment.TASK_SUBTYPE, k) for q in query_slides]
    module = ENGINE_MODULES[engine]
    k = experiment.TASK_PLANS[experiment.TASK_PATCH].k_max
    return [
        Op(q, experiment.TASK_PATCH, k, patch)
        for q in query_slides
        for patch in module.query_patch_set(db, q)
    ]


def run_op(engine: str, db, op: Op) -> list[QueryRow]:
    if op.patch is None:
        return experiment.query_rows_against_db(engine, db, [op.query], op.task, op.k)
    query = op.query
    result = ENGINE_MODULES[engine].query_patches(
        db, op.patch, op.k, lambda slide_id, labels: labels.patient_id != query.patient_id
    )
    slots = [
        RetrievalSlot(e.target_id, e.target_site, e.target_subtype, e.score)
        for e in result.entries
    ]
    slots += [None] * (op.k - len(slots))
    return [
        QueryRow(
            query_id=patch_ref(query.slide_id, op.patch.x, op.patch.y),
            query_site=query.site,
            query_subtype=query.subtype,
            slots=tuple(slots),
        )
    ]


#: score order per (engine, op kind); RetCCL slides come in bag order
#: (entropy, then bag position), so only their threshold is checked
SCORE_ORDER = {
    ("yottixel", SLIDE): "ascending",
    ("yottixel", PATCH): "ascending",
    ("sish", SLIDE): "descending",
    ("sish", PATCH): "ascending",
    ("retccl", SLIDE): "threshold",
    ("retccl", PATCH): "descending",
    ("hshr", SLIDE): "descending",
}


def check_rows(engine: str, op: Op, rows: list[QueryRow], labels: dict) -> str | None:
    """Why the rows of one operation are wrong, or None when they pass."""
    if len(rows) != 1:
        return f"{len(rows)} rows for one operation"
    row = rows[0]
    expected_id = op.query.slide_id if op.patch is None else patch_ref(
        op.query.slide_id, op.patch.x, op.patch.y)
    if row.query_id != expected_id:
        return f"row is for {row.query_id!r}, not {expected_id!r}"
    if len(row.slots) != op.k:
        return f"{len(row.slots)} slots, expected {op.k}"
    filled = [s for s in row.slots if s is not None]
    if any(s is None for s in row.slots[: len(filled)]):
        return "an empty slot precedes a filled one"
    targets = [s.target_id for s in filled]
    if len(set(targets)) != len(targets):
        return "a target repeats"
    for slot in filled:
        slide_id = slot.target_id.rsplit(":", 1)[0] if op.patch is not None else slot.target_id
        truth = labels.get(slide_id)
        if truth is None:
            return f"unknown target {slot.target_id!r}"
        if truth.patient_id == op.query.patient_id:
            return f"target {slot.target_id!r} belongs to the query's patient"
        if (slot.site, slot.subtype) != (truth.site, truth.subtype):
            return f"target {slot.target_id!r} carries wrong labels"
        if op.task == experiment.TASK_SUBTYPE and slot.site != op.query.site:
            return f"target {slot.target_id!r} is outside the query's site"
    scores = [s.score for s in filled]
    order = SCORE_ORDER[(engine, PATCH if op.patch is not None else SLIDE)]
    if order == "ascending" and scores != sorted(scores):
        return "scores are not ascending"
    if order == "descending" and scores != sorted(scores, reverse=True):
        return "scores are not descending"
    if order == "threshold":
        floor = experiment.make_params("retccl").sim_threshold
        if any(not (floor <= s <= 1.0) for s in scores):
            return "a cosine score lies outside [threshold, 1]"
    return None


@dataclass
class QueryStats:
    #: per engine, the latencies of each operation's runs, in seconds
    samples: dict[str, list[list[float]]]
    first_pass: dict[str, list]
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    abstained: int = 0  # rows whose every slot is empty

    def mean(self, engine: str) -> list[float]:
        """Each operation's mean latency over its runs.  The host's speed
        swings by about 1.45x every few seconds, and the share of time it
        spends slow drifts over minutes; the runs of an operation lie far
        apart in the run, so their mean weighs the host's states as the
        whole run met them, where a minimum or median would jump between
        the fast and the slow state."""
        return [sum(runs) / len(runs) for runs in self.samples[engine] if runs]


class QueryLoop:
    """Closed loop, one client: each engine runs its next operation in turn.

    A round is one operation per engine.  The loop owes ``passes`` passes
    of at least ``MIN_OPS`` rounds that run each engine's every operation,
    and ``seconds`` of loop time; with ``one_pass`` it owes just one run of
    each operation.  ``run`` can pay that debt in shares, so a run can
    interleave its queries with other work.  A repeated operation must
    return the rows of its first run.
    """

    def __init__(self, ops: dict[str, list[Op]], labels, *, seconds: float = 0.0,
                 passes: int = 1, one_pass: bool = False, tracer=None) -> None:
        self.ops = ops
        self.labels = labels
        self.seconds = seconds
        self.one_pass = one_pass
        self.tracer = tracer
        longest = max(len(queue) for queue in ops.values())
        self.total_rounds = longest if one_pass else passes * max(MIN_OPS, longest)
        self.rounds = 0
        self.elapsed = 0.0
        self.stats = QueryStats(
            samples={e: [[] for _ in ops[e]] for e in ops},
            first_pass={e: [None] * len(ops[e]) for e in ops},
        )

    def run(self, dbs, share: float = 1.0) -> QueryStats:
        start = perf_counter() - self.elapsed
        while (self.rounds < math.ceil(self.total_rounds * share)
               or perf_counter() - start < self.seconds * share):
            for engine, queue in self.ops.items():
                if not (self.one_pass and self.rounds >= len(queue)):
                    self._run_op(engine, dbs[engine], queue)
            self.rounds += 1
        self.elapsed = perf_counter() - start
        return self.stats

    def _run_op(self, engine: str, db, queue: list[Op]) -> None:
        stats = self.stats
        i = self.rounds
        j = i % len(queue)
        op = queue[j]
        stats.attempted += 1
        try:
            with op_span(self.tracer, f"op.query.{engine}"):
                t0 = perf_counter()
                rows = run_op(engine, db, op)
                elapsed = perf_counter() - t0
        except Exception:
            stats.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        problem = check_rows(engine, op, rows, self.labels)
        if problem is None and i >= len(queue) and rows != stats.first_pass[engine][j]:
            problem = "a repeated operation returned different rows"
        if problem is not None:
            stats.failed += 1
            print(f"{engine} {rows[0].query_id if rows else '?'}: {problem}", file=sys.stderr)
            return
        if i < len(queue):
            stats.first_pass[engine][j] = rows
        stats.rows += len(rows)
        stats.abstained += sum(all(s is None for s in row.slots) for row in rows)
        stats.samples[engine][j].append(elapsed)


def first_pass_rows(stats: QueryStats, engine: str) -> list[QueryRow]:
    """First-pass rows of one engine, ordered by query id as rows.csv is."""
    rows = [row for rows in stats.first_pass[engine] if rows is not None for row in rows]
    return sorted(rows, key=lambda r: r.query_id)


def rows_digest(rows: list[QueryRow], k: int, path: Path) -> str:
    """sha256 of the rows written in the rows.csv format."""
    experiment.write_rows(path, rows, k)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mmv5(rows: list[QueryRow], ops: list[Op]) -> float | None:
    """mMV@5 of one engine's first-pass rows under its operations' task."""
    return experiment.compute_summary(rows, ops[0].task)["mMV@5"]


def percentile_ms(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples) * 1000.0, q))
