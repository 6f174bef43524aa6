"""Acceptance suite: one test per release criterion, each with a wall-clock
budget.  Every numeric target is checked against an oracle computed here by
an independent route (hand arithmetic, a sorted-set reference, a brute-force
scan), never against the engine's own output.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
import pytest

from wsisearch import hshr, retccl, sish, yottixel
from wsisearch.errors import UnsupportedOperationError
from wsisearch.experiment import ExperimentConfig, run_experiment
from wsisearch.metrics import (
    FIELD_SUBTYPE,
    METRIC_MV,
    MetricOutcome,
    QueryRow,
    RetrievalSlot,
    aggregate_mean,
    ap_at_k,
    mann_whitney_u,
    mv_at_k,
)
from wsisearch.model import SlideRecord, patch_ref
from wsisearch.synth import SyntheticSpec, generate
from wsisearch.veb import VebTree

from util import make_slide, patch_at


def relevance_row(rel):
    """QueryRow whose slot subtypes realize the given 0/1 relevance list."""
    slots = tuple(
        RetrievalSlot(f"s{i}", "brain", "pos" if r else "neg", 1.0 - 0.01 * i)
        for i, r in enumerate(rel)
    )
    return QueryRow("q", "brain", "pos", slots)


def test_criterion_01_average_precision_oracle():
    t0 = time.perf_counter()
    # hand arithmetic: sum of precisions at hit ranks over min(k, #relevant)
    assert ap_at_k(relevance_row([1, 1, 0, 1, 1]), 5, FIELD_SUBTYPE) == pytest.approx(
        (1 / 1 + 2 / 2 + 3 / 4 + 4 / 5) / 4, abs=1e-9
    )
    assert ap_at_k(relevance_row([1, 1, 0, 1, 1]), 5, FIELD_SUBTYPE) == pytest.approx(
        0.8875, abs=1e-9
    )
    assert ap_at_k(relevance_row([0, 1, 1]), 3, FIELD_SUBTYPE) == pytest.approx(
        (1 / 2 + 2 / 3) / 2, abs=1e-9
    )
    assert round(ap_at_k(relevance_row([0, 1, 1]), 3, FIELD_SUBTYPE), 5) == 0.58333
    assert ap_at_k(relevance_row([1, 0, 0, 1, 0]), 5, FIELD_SUBTYPE) == pytest.approx(
        (1 / 1 + 2 / 4) / 2, abs=1e-9
    )
    assert ap_at_k(relevance_row([1, 0, 0, 1, 0]), 5, FIELD_SUBTYPE) == pytest.approx(
        0.750, abs=1e-9
    )
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_majority_vote_oracle():
    t0 = time.perf_counter()
    all_null = QueryRow("q", "brain", "pos", (None,) * 5)
    assert mv_at_k(all_null, 5, FIELD_SUBTYPE) is None

    all_correct = relevance_row([1, 1, 1, 1, 1])
    assert mv_at_k(all_correct, 5, FIELD_SUBTYPE) == 1

    outcomes = [
        MetricOutcome(1, METRIC_MV, 5),
        MetricOutcome(0, METRIC_MV, 5),
        None,
        MetricOutcome(1, METRIC_MV, 5),
    ]
    mean = aggregate_mean(outcomes)
    assert mean == pytest.approx(2 / 3, abs=1e-9)  # 0 counts, None is excluded
    assert round(mean, 4) == 0.6667
    assert time.perf_counter() - t0 < 1.0


class SortedSetOracle:
    def __init__(self):
        self.keys: list[int] = []
        self.present: set[int] = set()

    def insert(self, k):
        if k not in self.present:
            self.present.add(k)
            bisect.insort(self.keys, k)

    def member(self, k):
        return k in self.present

    def successor(self, k):
        i = bisect.bisect_right(self.keys, k)
        return self.keys[i] if i < len(self.keys) else None

    def predecessor(self, k):
        i = bisect.bisect_left(self.keys, k)
        return self.keys[i - 1] if i > 0 else None


def test_criterion_03_veb_against_sorted_set():
    t0 = time.perf_counter()
    for u_bits in (16, 32, 48):
        rng = np.random.default_rng(u_bits)
        tree = VebTree(u_bits)
        oracle = SortedSetOracle()
        depth_bound = 2 * math.ceil(math.log2(u_bits)) + 4
        ops = rng.integers(0, 4, 100_000)
        draws = rng.integers(0, 2**u_bits, 100_000, dtype=np.uint64)
        reuse = rng.random(100_000)
        for i in range(100_000):
            if oracle.keys and reuse[i] < 0.3:
                # probe near existing members so walks have something to find
                key = oracle.keys[int(reuse[i] / 0.3 * len(oracle.keys)) % len(oracle.keys)]
            else:
                key = int(draws[i])
            op = int(ops[i])
            if op == 0:
                tree.insert(key)
                oracle.insert(key)
            elif op == 1:
                assert tree.member(key) == oracle.member(key)
            elif op == 2:
                assert tree.successor(key) == oracle.successor(key)
            else:
                assert tree.predecessor(key) == oracle.predecessor(key)
            assert tree.last_op_depth <= depth_bound
        assert len(tree) == len(oracle.keys)
    assert time.perf_counter() - t0 < 30.0


def _random_label_slides(rng, count, dim, prefix, patch_range=(4, 21)):
    pools = [
        ("brain", "gbm"),
        ("brain", "lgg"),
        ("lung", "luad"),
        ("lung", "lusc"),
        ("breast", "idc"),
    ]
    slides = []
    for t in range(count):
        m = int(rng.integers(*patch_range))
        site, subtype = pools[t % len(pools)]
        feats = rng.normal(0.0, 1.0, (m, dim))
        slides.append(make_slide(f"{prefix}{t:03d}", feats, site=site, subtype=subtype))
    return slides


def _equivalence_corpus():
    """50 slides of <= 20 patches each at dim 64, plus 5 query slides."""
    rng = np.random.default_rng(404)
    db_slides = _random_label_slides(rng, 50, 64, "t")
    queries = _random_label_slides(rng, 5, 64, "q", patch_range=(12, 13))
    return db_slides, queries


def test_criterion_04_brute_force_equivalence():
    t0 = time.perf_counter()
    db_slides, queries = _equivalence_corpus()

    ydb = yottixel.build_database(db_slides, yottixel.YottixelParams(seed=1))
    assert not ydb.unprocessed

    def ascent_int(patch) -> int:
        # a barcode read as one integer: bit i is feature[i+1] > feature[i]
        return int("".join("1" if up else "0" for up in np.diff(patch.feature) > 0), 2)

    # a slide's mosaic depends only on the slide and the parameters, so the
    # query-side mosaic of a database slide is its indexed bag
    bags = {}
    for slide in db_slides:
        members = yottixel.query_patch_set(ydb, slide)
        bags[slide.slide_id] = [(ascent_int(m), m.coord) for m in members]
    # the database stacks those bags in slide order, one row per member
    assert ydb.slide_ids == [slide.slide_id for slide in db_slides]
    slide_coords = (ydb.coords[ydb.slide == s] for s in range(len(ydb)))
    for slide_id, coords in zip(ydb.slide_ids, slide_coords):
        assert [tuple(c) for c in coords.tolist()] == [coord for _, coord in bags[slide_id]]

    for q in queries:
        q_ints = [ascent_int(m) for m in yottixel.query_patch_set(ydb, q)]

        # slide oracle: median over query codes of min Hamming into each bag
        expected = []
        for slide_id in ydb.slide_ids:
            t_ints = [code for code, _ in bags[slide_id]]
            mins = [min((qi ^ ti).bit_count() for ti in t_ints) for qi in q_ints]
            expected.append((float(statistics.median(mins)), slide_id))
        expected.sort()
        got = yottixel.query_slides(ydb, yottixel.prepare_query(ydb, q), k=len(ydb))
        assert [(e.score, e.target_id) for e in got.entries] == expected

        # patch oracle: exhaustive Hamming scan over every indexed barcode
        for patch in yottixel.query_patch_set(ydb, q)[:3]:
            code = ascent_int(patch)
            ranked = []
            for slide_id in ydb.slide_ids:
                for ordinal, (bc, coord) in enumerate(bags[slide_id]):
                    ranked.append(((code ^ bc).bit_count(), slide_id, ordinal, coord))
            ranked.sort(key=lambda t: t[:3])
            got = yottixel.query_patches(ydb, patch, k=25)
            want = [
                (patch_ref(sid, x, y), float(d)) for d, sid, _, (x, y) in ranked[:25]
            ]
            assert [(e.target_id, e.score) for e in got.entries] == want

    rdb = retccl.build_database(db_slides, retccl.RetcclParams(seed=1))
    for q in queries[:2]:
        for patch in retccl.query_patch_set(rdb, q)[:3]:
            vec = patch.feature.astype(np.float64)
            unit = vec / np.linalg.norm(vec)
            scores = [float(np.dot(row, unit)) for row in rdb.unit_features]
            order = sorted(
                range(rdb.n_patches),
                key=lambda j: (-scores[j], rdb.slide_ids[rdb.slide[j]], j),
            )
            got = retccl.query_patches(rdb, patch, k=30)
            want_ids = [
                patch_ref(rdb.slide_ids[rdb.slide[j]], *rdb.coords[j]) for j in order[:30]
            ]
            assert [e.target_id for e in got.entries] == want_ids
            for e, j in zip(got.entries, order):
                assert e.score == pytest.approx(scores[j], abs=1e-12)

    assert time.perf_counter() - t0 < 60.0


def _separable_spec():
    # 5 sites carrying 8 subtypes total; sigma is a tenth of the separation
    return SyntheticSpec(
        n_sites=5,
        subtypes_per_site=(2, 1, 2, 1, 2),
        slides_per_subtype=10,
        patches_per_slide=48,
        dim=512,
        separation=1.0,
        sigma=0.1,
        queries_per_subtype=2,
        seed=11,
    )


def test_criterion_05_separable_data_sanity():
    t0 = time.perf_counter()
    db_slides, query_slides = generate(_separable_spec())
    assert len(db_slides) == 80 and len(query_slides) == 16
    for engine in ("yottixel", "sish", "retccl", "hshr"):
        site = run_experiment(
            ExperimentConfig(engine=engine, task="site"), db_slides, query_slides
        )
        assert site.summary["mMV@10"] is not None, engine
        assert site.summary["mMV@10"] >= 0.95, engine
        subtype = run_experiment(
            ExperimentConfig(engine=engine, task="subtype"), db_slides, query_slides
        )
        assert subtype.summary["mMV@5"] is not None, engine
        assert subtype.summary["mMV@5"] >= 0.90, engine
    assert time.perf_counter() - t0 < 300.0


def test_criterion_06_threshold_contracts():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)

    # cosine floor: every hit in every bag clears the 0.70 threshold
    mu = rng.normal(0.0, 1.0, 32) * 3.0
    db_slides = [
        make_slide(f"c{i}", mu + rng.normal(0.0, 0.05, (16, 32))) for i in range(10)
    ]
    rdb = retccl.build_database(db_slides, retccl.RetcclParams(seed=6))
    near = make_slide("near", mu + rng.normal(0.0, 0.05, (16, 32)))
    bags = retccl.build_bags(rdb, retccl.prepare_query(rdb, near))
    assert any(len(bag.hits) for bag in bags)
    for bag in bags:
        assert (bag.scores >= 0.70).all()
    res = retccl.query_slides(rdb, near, k=5)
    assert res.entries and all(e.score >= 0.70 for e in res.entries)

    # a query pointing the other way matches nothing and raises nothing
    far = make_slide("far", -mu + rng.normal(0.0, 0.05, (16, 32)))
    far_res = retccl.query_slides(rdb, far, k=5)
    assert far_res.entries == ()

    # Hamming ceiling: ascending ramps index fine and stay within 128 bits
    dim = 512
    base = np.linspace(0.0, 1.0, dim)
    ramp_slides = [
        make_slide(f"r{i}", base + rng.normal(0.0, 1e-3, (12, dim))) for i in range(6)
    ]
    sdb = sish.build_database(ramp_slides, sish.SishParams(seed=6))
    assert not sdb.unprocessed
    near_q = make_slide("nq", base + rng.normal(0.0, 1e-3, (12, dim)))
    results = [sish.guided_search(sdb, *q) for q in zip(*sish.prepare_query(sdb, near_q))]
    assert any(len(r) for r in results)
    for per_patch in results:
        for _, ham in per_patch:
            assert ham <= 128

    # descending ramp flips every barcode bit: 511 > 128, so nothing returns
    far_q = make_slide("fq", base[::-1] + rng.normal(0.0, 1e-3, (12, dim)))
    for q in zip(*sish.prepare_query(sdb, far_q)):
        assert len(sish.guided_search(sdb, *q)) == 0
    assert sish.query_slides(sdb, far_q, k=5).entries == ()

    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_hshr_contracts():
    t0 = time.perf_counter()
    spec = SyntheticSpec(
        n_sites=5,
        subtypes_per_site=2,
        slides_per_subtype=10,
        patches_per_slide=24,
        dim=64,
        separation=0.5,
        sigma=1.0,
        queries_per_subtype=0,
        seed=23,
    )
    db_slides, _ = generate(spec)
    assert len(db_slides) == 100
    hdb = hshr.build_database(db_slides, hshr.HshrParams(seed=2))

    with pytest.raises(UnsupportedOperationError):
        hshr.query_patches(hdb, patch_at(db_slides[0], 0), 5)
    with pytest.raises(UnsupportedOperationError):
        hshr.query_patch_set(hdb, db_slides[0])

    for pick in (0, 17, 42, 71, 99):
        src = db_slides[pick]
        twin = SlideRecord(
            slide_id="twin",
            patient_id="twin-patient",
            site=src.site,
            subtype=src.subtype,
            magnification=src.magnification,
            coords=src.coords,
            features=src.features,
        )
        res = hshr.query_slides(hdb, twin, k=5)
        assert res.entries[0].target_id == src.slide_id
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_mann_whitney():
    t0 = time.perf_counter()
    u, p = mann_whitney_u([1, 2], [3, 4])
    assert u == 0
    assert p == pytest.approx(1 / 3, abs=1e-4)

    rng = np.random.default_rng(88)
    for trial in range(1000):
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        if trial % 2:  # integer draws force ties through the midrank path
            a = rng.integers(0, 10, n1).astype(float).tolist()
            b = rng.integers(0, 10, n2).astype(float).tolist()
        else:
            a = rng.normal(0.0, 1.0, n1).tolist()
            b = rng.normal(0.0, 1.0, n2).tolist()
        ua, _ = mann_whitney_u(a, b)
        ub, _ = mann_whitney_u(b, a)
        assert ua + ub == n1 * n2

    _, p_const = mann_whitney_u([5.0, 5.0, 5.0], [5.0, 5.0])
    assert math.isnan(p_const)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_complexity_bench():
    from wsisearch.bench import BenchSpec, bench_query

    t0 = time.perf_counter()
    spec = BenchSpec(
        sizes=(50, 100, 200, 400),
        repetitions=3,
        queries=3,
        patches_per_slide=40,
        dim=64,
        seed=0,
    )
    yot = bench_query("yottixel", spec)
    assert 1.0 - 0.3 <= yot.slope <= 1.0 + 0.3, yot.slope
    hsh = bench_query("hshr", spec)
    assert hsh.slope <= 3.3, hsh.slope
    assert time.perf_counter() - t0 < 600.0


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()

    def pipeline(tag: str, jobs: int) -> dict[str, bytes]:
        """Fresh data, fresh databases, rows + summary bytes per run."""
        out: dict[str, bytes] = {}
        eq_db, eq_queries = _equivalence_corpus()
        sep_db, sep_queries = generate(_separable_spec())
        runs = [
            ("eq-yottixel-site", "yottixel", "site", eq_db, eq_queries),
            ("eq-yottixel-patch", "yottixel", "patch", eq_db, eq_queries),
            ("eq-retccl-patch", "retccl", "patch", eq_db, eq_queries),
        ]
        for engine in ("yottixel", "sish", "retccl", "hshr"):
            runs.append((f"sep-{engine}-site", engine, "site", sep_db, sep_queries))
            runs.append((f"sep-{engine}-subtype", engine, "subtype", sep_db, sep_queries))
        for name, engine, task, db, queries in runs:
            run_dir = tmp_path / tag / name
            run_experiment(
                ExperimentConfig(engine=engine, task=task, jobs=jobs),
                db,
                queries,
                out_dir=run_dir,
            )
            out[f"{name}/rows.csv"] = (run_dir / "rows.csv").read_bytes()
            out[f"{name}/summary.csv"] = (run_dir / "summary.csv").read_bytes()
        return out

    serial = pipeline("serial", jobs=1)
    threaded = pipeline("threaded", jobs=4)
    assert set(serial) == set(threaded)
    for name in serial:
        assert serial[name] == threaded[name], name
    assert time.perf_counter() - t0 < 600.0
