"""One benchmark run: untraced for the end-to-end metrics, traced for the
per-layer ones."""
from __future__ import annotations

import dataclasses
import platform
import resource
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import (
    PATCH,
    SLIDE,
    WORKLOADS,
    Loaded,
    QueryLoop,
    build,
    build_all,
    engine_ops,
    first_pass_rows,
    load_corpus,
    make_corpus,
    mmv5,
    op_span,
    percentile_ms,
    rows_digest,
    setup_pass,
)
from tracing import ENGINES, PeakMemory, Tracer

#: (name, unit, better) of every end-to-end metric, as BENCHMARK.json lists them
END_TO_END = (
    [("setup_s", "s", "lower")]
    + [(f"{e}.build_s", "s", "lower") for e in ENGINES]
    + [(f"{e}.query_p50_ms", "ms", "lower") for e in ENGINES]
    + [(f"{e}.query_p90_ms", "ms", "lower") for e in ENGINES]
    + [("peak_rss_mb", "MB", "lower"), ("ok_ratio", "ratio", "higher"),
       ("mmv5_mean", "ratio", "higher")]
)


def _s(*names):
    return [(n, "s", "lower") for n in names]


def _n(*names, better="lower"):
    return [(n, "count", better) for n in names]


#: (name, unit, better) of every per-layer metric of a traced run
PER_LAYER = (
    _s("dataio.parse_manifest_s", "dataio.load_slides_s", "dataio.save_database_s",
       "dataio.load_database_s")
    + [("dataio.bytes_read", "B", "lower")]
    + [(f"dataio.db_bytes.{e}", "B", "lower") for e in ENGINES]
    + _s("mosaic.histogram_matrix_s", "mosaic.kmeans_s", "mosaic.build_mosaic_percent_self_s",
         "mosaic.build_mosaic_fixed_self_s")
    + _n("mosaic.histogram_matrix_calls", "mosaic.kmeans_calls")
    + [("mosaic.kmeans_peak_mb", "MB", "lower")]
    + _s("model.binarize_barcode_s", "model.hamming_distance_s", "model.hamming_matrix_s")
    + _n("model.binarize_barcode_calls", "model.hamming_distance_calls",
         "model.hamming_matrix_calls")
    + _s("veb.insert_s", "veb.member_s", "veb.successor_s", "veb.predecessor_s")
    + _n("veb.insert_calls", "veb.member_calls", "veb.successor_calls",
         "veb.predecessor_calls", "veb.visits")
    + _s("sish.index_encode_s", "sish.guided_search_self_s", "sish.rank_slides_s")
    + _n("sish.probes", "sish.candidates_examined")
    + _n("sish.hits_kept", better="higher")
    + [("sish.hit_ratio", "ratio", "higher")]
    + _s("retccl.build_bags_s", "retccl.vote_slides_s", "retccl.query_patches_self_s")
    + _n("retccl.bag_hits")
    + [("retccl.bags_kept_ratio", "ratio", "higher")]
    + _s("yottixel.median_min_hamming_s", "yottixel.query_patches_self_s")
    + _n("yottixel.median_min_hamming_calls")
    + _s("hshr.slide_signature_s", "hshr.build_hypergraph_s", "hshr.ranked_scores_s")
    + [m for e in ENGINES for m in _s(f"{e}.prepare_query_s", f"{e}.search_s")]
    + [m for e in ENGINES if e != "hshr" for m in _s(f"{e}.query_patch_set_s")]
    + [(f"{e}.build_peak_mb", "MB", "lower") for e in ENGINES]
    + _n("experiment.rows", better="higher")
    + _n("experiment.rows_abstained")
    + _s("metrics.compute_summary_s")
    + _s("trace.untraced_s", "trace.traced_s", "trace.overhead_s")
    + _n("trace.spans")
    + [("host.calib_ms", "ms", "lower")]
)

MB = 1024.0 * 1024.0
#: query slides the traced run also queries with the other query kind
COVER_SLIDES = 4


def calibrate() -> float:
    """Milliseconds for a fixed numpy plus pure-Python kernel, best of three.

    Recorded at the start and end of every run to recognise a slow host;
    never used to rescale a metric.
    """
    rng = np.random.default_rng(0)
    matrix = rng.random((160, 160))
    vector = rng.random(100_000)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        float((matrix @ matrix).sum())
        np.sort(vector)
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def _metrics(values: dict[str, float], table) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in table}


def _row_outputs(stats, ops, work: Path) -> tuple[dict[str, str], float]:
    """Per-engine rows.csv digests of the first pass, and mean mMV@5."""
    digests = {}
    scores = []
    for engine in ENGINES:
        rows = first_pass_rows(stats, engine)
        digests[engine] = rows_digest(rows, ops[engine][0].k, work / f"rows-{engine}.csv")
        score = mmv5(rows, ops[engine])
        if score is not None:
            scores.append(score)
    return digests, (float(np.mean(scores)) if scores else 0.0)


def _query_loop(workload, loaded, labels, tracer=None, **options) -> QueryLoop:
    """A query loop over every engine's operations on the reloaded databases."""
    ops = {}
    for engine in ENGINES:
        with op_span(tracer, f"op.query_set.{engine}"):
            ops[engine] = engine_ops(workload, engine, loaded.dbs[engine], loaded.query_slides)
    return QueryLoop(ops, labels, tracer=tracer, **options)


def _one_pass(workload, loaded, labels, work: Path, tracer=None):
    """One pass over the workload's operations and the digests of its rows,
    then a pass of the other query kind over the first COVER_SLIDES query
    slides, so that every layer reports a time on every workload."""
    loop = _query_loop(workload, loaded, labels, tracer, one_pass=True)
    stats = loop.run(loaded.dbs)
    with op_span(tracer, "op.summary"):
        digests, _ = _row_outputs(stats, loop.ops, work)
    other = dataclasses.replace(workload, op_kind=PATCH if workload.op_kind == SLIDE else SLIDE)
    few = Loaded(loaded.db_slides, loaded.query_slides[:COVER_SLIDES], loaded.dbs)
    cover = _query_loop(other, few, labels, tracer, one_pass=True).run(loaded.dbs)
    for name in ("attempted", "failed", "rows", "abstained"):
        setattr(stats, name, getattr(stats, name) + getattr(cover, name))
    return stats, digests


def _info(workload, seed: int, calib_start: float, calib_end: float) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host_calib_ms": {"start": calib_start, "end": calib_end},
    }


def run_untraced(workload, seed: int, seconds: float, work_root) -> tuple[dict, dict]:
    calib_start = calibrate()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=work_root))
    try:
        manifest, queries = make_corpus(workload, seed, work / "corpus")
        corpus = load_corpus(manifest, queries)
        labels = {s.slide_id: s.labels for s in corpus.db_slides}
        build_s = {e: [] for e in ENGINES}
        setup_s = []
        loop = None
        # the query passes run in shares: one after every set-up pass, and
        # after the first round one after every build, so builds and queries
        # both meet the host's states across the whole run
        segments = workload.rounds + (workload.rounds - 1) * len(ENGINES)
        done = 0
        for _ in range(workload.rounds):
            built = {}
            for e in ENGINES:
                built[e], elapsed = build(e, corpus.db_slides)
                build_s[e].append(elapsed)
                if loop is not None:
                    done += 1
                    loop.run(loaded.dbs, done / segments)
            elapsed, loaded = setup_pass(manifest, queries, built, work)
            del built
            setup_s.append(elapsed)
            if loop is None:
                loop = _query_loop(workload, loaded, labels, seconds=seconds,
                                   passes=workload.passes)
            done += 1
            stats = loop.run(loaded.dbs, done / segments)
        digests, mmv = _row_outputs(stats, loop.ops, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calib_end = calibrate()

    # builds, like operations (QueryStats.mean), count the mean of their runs
    values = {"setup_s": statistics.median(setup_s)}
    for e in ENGINES:
        values[f"{e}.build_s"] = statistics.fmean(build_s[e])
        values[f"{e}.query_p50_ms"] = percentile_ms(stats.mean(e), 50)
        values[f"{e}.query_p90_ms"] = percentile_ms(stats.mean(e), 90)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_ratio"] = (stats.attempted - stats.failed) / stats.attempted
    values["mmv5_mean"] = mmv
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": _metrics(values, END_TO_END),
    }
    info = _info(workload, seed, calib_start, calib_end)
    info["samples"] = {
        "setup_passes": len(setup_s),
        "builds_per_engine": workload.rounds,
        "operations_per_engine": {e: len(stats.mean(e)) for e in ENGINES},
        "queries_per_engine": {e: sum(map(len, stats.samples[e])) for e in ENGINES},
        "rows": stats.rows,
        "rows_abstained": stats.abstained,
    }
    info["raw"] = {"setup_s": setup_s, "build_s": build_s, "query_s": stats.samples}
    info["digests"] = digests
    return result, info


def _timed_pass(workload, manifest, queries, built, labels, work: Path, tracer=None):
    """Set-up plus one query pass on ``built``: (seconds, stats, digests)."""
    t0 = perf_counter()
    with op_span(tracer, "op.setup"):
        _, loaded = setup_pass(manifest, queries, built, work)
    stats, digests = _one_pass(workload, loaded, labels, work, tracer)
    return perf_counter() - t0, stats, digests


def run_traced(workload, seed: int, work_root) -> tuple[dict, dict]:
    """Per-layer run.  A build under tracemalloc gives the memory peaks and
    the databases for an untraced set-up and query pass; the same build,
    set-up and query pass then run traced, and the untraced pass runs once
    more.  The tracing overhead compares the traced pass with the mean of
    the two untraced ones, which bracket it in time, so the host's drift
    and the first pass's warm-up mostly cancel.  Spans are written beside
    the work directories."""
    calib_start = calibrate()
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-trace-", dir=work_root))
    tracer = Tracer()
    memory = PeakMemory()
    try:
        manifest, queries = make_corpus(workload, seed, work / "corpus")
        corpus = load_corpus(manifest, queries)
        labels = {s.slide_id: s.labels for s in corpus.db_slides}
        memory.instrument()
        try:
            built = build_all(corpus.db_slides)
        finally:
            restored = memory.restore()
        before_s, before, ref_digests = _timed_pass(
            workload, manifest, queries, built, labels, work)
        del built

        tracer.instrument()
        try:
            built = build_all(corpus.db_slides, tracer)
            traced_s, stats, digests = _timed_pass(
                workload, manifest, queries, built, labels, work, tracer)
        finally:
            restored = tracer.restore() and restored
        after_s, after, after_digests = _timed_pass(
            workload, manifest, queries, built, labels, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tracer.save(Path(work_root) / f"trace-{workload.name}-seed{seed}.npz")
    calib_end = calibrate()

    untraced_s = (before_s + after_s) / 2
    values = layer_values(tracer, memory, stats)
    values.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "host.calib_ms": calib_start,
    })
    failed = before.failed + stats.failed + after.failed
    result = {
        "correct": failed == 0 and restored and digests == ref_digests == after_digests,
        "attempted": before.attempted + stats.attempted + after.attempted,
        "failed": failed,
        "metrics": _metrics(values, PER_LAYER),
    }
    info = _info(workload, seed, calib_start, calib_end)
    info["digests"] = digests
    info["digests_untraced"] = ref_digests
    info["originals_restored"] = restored
    return result, info


def layer_values(tracer: Tracer, memory: PeakMemory, stats) -> dict[str, float]:
    spans = tracer.summary()
    counters = tracer.counters

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    v: dict[str, float] = {}
    for fn in ("parse_manifest", "load_slides", "save_database", "load_database"):
        v[f"dataio.{fn}_s"] = total(f"dataio.{fn}")
    v["dataio.bytes_read"] = counters["dataio.bytes_read"]
    for e in ENGINES:
        v[f"dataio.db_bytes.{e}"] = counters[f"dataio.db_bytes.{e}"]
    for fn in ("histogram_matrix", "kmeans"):
        v[f"mosaic.{fn}_s"] = total(f"mosaic.{fn}")
        v[f"mosaic.{fn}_calls"] = calls(f"mosaic.{fn}")
    for fn in ("build_mosaic_percent", "build_mosaic_fixed"):
        v[f"mosaic.{fn}_self_s"] = own(f"mosaic.{fn}")
    v["mosaic.kmeans_peak_mb"] = memory.peaks.get("mosaic.kmeans", 0) / MB
    for fn in ("binarize_barcode", "hamming_distance", "hamming_matrix"):
        v[f"model.{fn}_s"] = total(f"model.{fn}")
        v[f"model.{fn}_calls"] = calls(f"model.{fn}")
    for fn in ("insert", "member", "successor", "predecessor"):
        v[f"veb.{fn}_s"] = total(f"veb.{fn}")
        v[f"veb.{fn}_calls"] = calls(f"veb.{fn}")
    v["veb.visits"] = counters["veb.visits"]

    v["sish.index_encode_s"] = total("sish.index_encode")
    v["sish.guided_search_self_s"] = own("sish.guided_search")
    v["sish.rank_slides_s"] = total("sish.rank_slides")
    # every tree operation inside the walk costs one probe
    v["sish.probes"] = sum(
        tracer.child_count(f"veb.{fn}", "sish.guided_search")
        for fn in ("member", "successor", "predecessor")
    )
    v["sish.candidates_examined"] = tracer.child_count("model.hamming_distance", "sish.guided_search")
    v["sish.hits_kept"] = counters["sish.hits_kept"]
    examined = v["sish.candidates_examined"]
    v["sish.hit_ratio"] = v["sish.hits_kept"] / examined if examined else 0.0

    v["retccl.build_bags_s"] = total("retccl.build_bags")
    v["retccl.vote_slides_s"] = total("retccl.vote_slides")
    v["retccl.query_patches_self_s"] = own("retccl.query_patches")
    v["retccl.bag_hits"] = counters["retccl.bag_hits"]
    bags = counters["retccl.bags"]
    v["retccl.bags_kept_ratio"] = counters["retccl.bags_kept"] / bags if bags else 0.0

    v["yottixel.median_min_hamming_s"] = total("yottixel.median_min_hamming")
    v["yottixel.median_min_hamming_calls"] = calls("yottixel.median_min_hamming")
    v["yottixel.query_patches_self_s"] = own("yottixel.query_patches")
    for fn in ("slide_signature", "build_hypergraph", "ranked_scores"):
        v[f"hshr.{fn}_s"] = total(f"hshr.{fn}")

    for e in ENGINES:
        prepare = tracer.child_total_s(f"{e}.prepare_query", f"{e}.query_slides")
        v[f"{e}.prepare_query_s"] = prepare
        v[f"{e}.search_s"] = total(f"{e}.query_slides") + total(f"{e}.query_patches") - prepare
        v[f"{e}.query_patch_set_s"] = total(f"{e}.query_patch_set")
        v[f"{e}.build_peak_mb"] = memory.peaks.get(f"{e}.build_database", 0) / MB

    v["experiment.rows"] = stats.rows
    v["experiment.rows_abstained"] = stats.abstained
    v["metrics.compute_summary_s"] = total("experiment.compute_summary")
    v["trace.spans"] = len(tracer.start)
    return v
