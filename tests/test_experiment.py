"""Orchestration layer: runs, row serialization, summaries."""
import inspect
import json
import pickle
import typing

import numpy as np
import pytest

from wsisearch import model
from wsisearch.errors import (
    EmptyInputError,
    FormatError,
    UnsupportedOperationError,
    ValidationError,
)
from wsisearch.experiment import (
    ENGINE_MODULES,
    ExperimentConfig,
    TASK_PATCH,
    TASK_PLANS,
    TASK_SITE,
    TASK_SUBTYPE,
    build_engine_database,
    check_engine_task,
    compute_summary,
    format_cell,
    make_params,
    query_rows_against_db,
    read_rows,
    run_experiment,
    write_rows,
    write_summary,
)
from wsisearch.dataio import load_database, load_slides, parse_manifest, save_database
from wsisearch.metrics import QueryRow, RetrievalSlot
from wsisearch.synth import SyntheticSpec, synth_generate
from wsisearch.veb import VebTree

from util import gaussian_slides, make_slide, patch_at


@pytest.fixture(scope="module")
def corpus():
    """Two sites, two subtypes each, well separated."""
    rng = np.random.default_rng(19)
    db = []
    queries = []
    means = {
        ("brain", "gbm"): rng.normal(0, 1, 32) * 3,
        ("brain", "lgg"): rng.normal(0, 1, 32) * 3,
        ("lung", "luad"): rng.normal(0, 1, 32) * 3,
        ("lung", "lusc"): rng.normal(0, 1, 32) * 3,
    }
    for (site, subtype), mean in means.items():
        db.extend(
            gaussian_slides(
                rng, 4, 24, 32, mean=mean, sigma=0.15,
                prefix=f"{subtype}", site=site, subtype=subtype,
            )
        )
        queries.extend(
            gaussian_slides(
                rng, 1, 24, 32, mean=mean, sigma=0.15,
                prefix=f"q-{subtype}", site=site, subtype=subtype,
            )
        )
    return db, queries


class TestGuards:
    def test_unknown_engine(self):
        with pytest.raises(ValidationError):
            check_engine_task("faiss", TASK_SITE)

    def test_unknown_task(self):
        with pytest.raises(ValidationError):
            check_engine_task("yottixel", "grade")

    def test_hshr_patch_refused(self):
        with pytest.raises(UnsupportedOperationError):
            check_engine_task("hshr", TASK_PATCH)

    def test_make_params_rejects_unknown_override(self):
        with pytest.raises(ValidationError, match="sim_threshold"):
            make_params("yottixel", {"sim_threshold": 0.5})
        # sish's index universe is fixed at 48 bits, no longer a parameter
        with pytest.raises(ValidationError, match="universe_bits"):
            make_params("sish", {"universe_bits": 48})

    def test_make_params_applies_override(self):
        params = make_params("retccl", {"sim_threshold": 0.5})
        assert params.sim_threshold == 0.5

    def test_config_validates_k_and_jobs(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(engine="yottixel", k_max=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(engine="yottixel", jobs=0)

    def test_effective_k_defaults_to_plan(self):
        cfg = ExperimentConfig(engine="yottixel", task=TASK_SUBTYPE)
        assert cfg.effective_k == TASK_PLANS[TASK_SUBTYPE].k_max
        assert ExperimentConfig(engine="yottixel", k_max=3).effective_k == 3


#: per engine, patches it cannot index: (rng, n, dim) -> (n, dim) features
UNINDEXABLE = [
    # every patch constant: SISH drops flat mosaic patches
    ("sish", lambda rng, n, dim: np.repeat(rng.normal(size=(n, 1)), dim, axis=1)),
    # every patch zero: RetCCL drops zero vectors
    ("retccl", lambda rng, n, dim: np.zeros((n, dim))),
]


ENGINE_INTERFACE = {
    "build_database": ["slides", "params"],
    "prepare_query": ["db", "slide"],
    "query_slides": ["db", "query", "k", "candidate_filter"],
    "query_patches": ["db", "patch", "k", "candidate_filter"],
    "query_patch_set": ["db", "slide"],
}


class TestEngineInterface:
    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_uniform_entry_points(self, engine):
        mod = ENGINE_MODULES[engine]
        assert mod.CandidateFilter is model.CandidateFilter
        for name, params in ENGINE_INTERFACE.items():
            fn = getattr(mod, name)
            assert list(inspect.signature(fn).parameters) == params, (engine, name)
            if "candidate_filter" in params:
                hint = typing.get_type_hints(fn)["candidate_filter"]
                assert hint == typing.Optional[model.CandidateFilter], (engine, name)

    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_queries_never_write_to_the_database(self, engine, corpus):
        # a saved file must not depend on whether a query ran before the save
        db_slides, queries = corpus
        mod = ENGINE_MODULES[engine]
        db = build_engine_database(engine, db_slides)
        before = pickle.dumps(db)
        mod.query_slides(db, queries[0], len(db))
        mod.query_slides(db, queries[1], 3, lambda slide_id, labels: labels.site == "lung")
        assert pickle.dumps(db) == before
        if engine != "hshr":
            for patch in mod.query_patch_set(db, queries[0])[:2]:
                mod.query_patches(db, patch, 10)
            assert pickle.dumps(db) == before

    def test_hshr_patch_entry_points_unsupported(self, corpus):
        hshr = ENGINE_MODULES["hshr"]
        db_slides, queries = corpus
        db = hshr.build_database(db_slides)
        with pytest.raises(UnsupportedOperationError):
            hshr.query_patch_set(db, queries[0])
        with pytest.raises(UnsupportedOperationError):
            hshr.query_patches(db, patch_at(queries[0], 0), 5)

    @pytest.mark.parametrize(
        "engine, field, value",
        [
            (engine, field, value)
            for engine in ("yottixel", "sish", "retccl")
            for field, value in (("fraction", 0.0), ("fraction", 1.5), ("k_primary", 0))
        ]
        + [("yottixel", "histogram_bins", 0), ("sish", "histogram_bins", 0)],
    )
    def test_bad_mosaic_params_rejected(self, engine, field, value):
        with pytest.raises(ValidationError, match=field):
            make_params(engine, {field: value})

    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_database_is_a_slide_table(self, engine, corpus):
        db_slides, _ = corpus
        db = build_engine_database(engine, db_slides)
        assert isinstance(db, model.SlideTable)
        declared = set(vars(type(db))["__annotations__"]) | set(vars(type(db)))
        assert declared.isdisjoint({"dim", "slide_ids", "labels", "unprocessed", "__len__"})
        assert len(db) == len(db_slides)
        everything = db.kept(None)
        assert everything.dtype == bool and everything.tolist() == [True] * len(db)
        for keep in (
            lambda slide_id, labels: labels.site == "lung",
            lambda slide_id, labels: slide_id.endswith(("0", "2")),
            lambda slide_id, labels: False,
        ):
            # oracle: the filter called slide by slide, in table order
            oracle = np.array([keep(*s) for s in zip(db.slide_ids, db.labels)], dtype=bool)
            assert np.array_equal(db.kept(keep), oracle)

    @pytest.mark.parametrize("engine, patch_value", UNINDEXABLE, ids=["sish", "retccl"])
    def test_build_with_no_indexable_slide_fails(self, engine, patch_value):
        rng = np.random.default_rng(8)
        slides = [make_slide(f"s{i}", patch_value(rng, 12, 16)) for i in range(3)]
        with pytest.raises(EmptyInputError, match="none of 3 slides"):
            build_engine_database(engine, slides)


class TestCandidateFilter:
    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_duplicate_slide_id_rejected(self, engine, corpus):
        db, _ = corpus
        twin = make_slide(db[0].slide_id, db[5].features, site="lung", subtype="luad")
        with pytest.raises(ValidationError, match="duplicate slide_id"):
            build_engine_database(engine, [*db[:4], twin])

    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_filter_runs_once_per_slide_and_only_removes(self, engine, corpus):
        db_slides, queries = corpus
        mod = ENGINE_MODULES[engine]
        db = build_engine_database(engine, db_slides)
        calls = []

        def keep(slide_id, labels):
            calls.append(slide_id)
            return labels.subtype != "lgg"

        def without_lgg(result):
            return [e for e in result.entries if e.target_subtype != "lgg"]

        for query in queries[:3]:
            calls.clear()
            filtered = mod.query_slides(db, query, len(db), keep)
            assert len(calls) == len(db), engine
            assert all(e.target_subtype != "lgg" for e in filtered.entries)
            if engine in ("yottixel", "hshr"):
                # slides score independently, so the filter only removes
                assert list(filtered.entries) == without_lgg(mod.query_slides(db, query, len(db)))
            if engine == "hshr":
                continue
            patch = mod.query_patch_set(db, query)[0]
            calls.clear()
            filtered = mod.query_patches(db, patch, 10_000, keep)
            assert len(calls) == len(db), engine
            assert list(filtered.entries) == without_lgg(mod.query_patches(db, patch, 10_000))


class TestHotPathGuard:
    def test_slide_search_builds_no_patch_objects(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(
            n_sites=2, subtypes_per_site=2, slides_per_subtype=3, patches_per_slide=30,
            dim=16, queries_per_subtype=1, seed=3,
        )
        manifest, queries = synth_generate(spec, tmp_path)

        def refuse(self):
            raise AssertionError("a PatchFeature was built on the slide-search path")

        monkeypatch.setattr(model.PatchFeature, "__post_init__", refuse)
        db_slides = load_slides(parse_manifest(manifest))
        query_slides = load_slides(parse_manifest(queries))
        for engine, mod in ENGINE_MODULES.items():
            db = build_engine_database(engine, db_slides)
            for query in query_slides:
                prepared = mod.prepare_query(db, query)
                assert len(mod.query_slides(db, prepared, 3)) > 0, engine
                assert len(mod.query_slides(db, query, 3)) > 0, engine

    def test_sish_never_touches_a_veb_tree(self, tmp_path, monkeypatch):
        spec = SyntheticSpec(
            n_sites=2, subtypes_per_site=2, slides_per_subtype=3, patches_per_slide=30,
            dim=16, queries_per_subtype=1, seed=3,
        )
        manifest, queries = synth_generate(spec, tmp_path)

        def refuse(self, key):
            raise AssertionError("a vEB tree operation ran on the SISH path")

        for method in ("insert", "member", "successor", "predecessor"):
            monkeypatch.setattr(VebTree, method, refuse)
        db = build_engine_database("sish", load_slides(parse_manifest(manifest)))
        save_database(tmp_path / "sish.db", "sish", db)
        _, db = load_database(tmp_path / "sish.db")
        sish = ENGINE_MODULES["sish"]
        for query in load_slides(parse_manifest(queries)):
            assert len(sish.query_slides(db, query, 3)) > 0
            patch = sish.query_patch_set(db, query)[0]
            assert len(sish.query_patches(db, patch, 3)) > 0


class TestRunExperiment:
    def test_site_task_rows_and_summary(self, corpus, tmp_path):
        db, queries = corpus
        cfg = ExperimentConfig(engine="yottixel", task=TASK_SITE)
        report = run_experiment(cfg, db, queries, out_dir=tmp_path)
        assert len(report.rows) == len(queries)
        assert [r.query_id for r in report.rows] == sorted(r.query_id for r in report.rows)
        # well-separated classes: the site metric should be solid
        assert report.summary["mMV@1"] == 1.0
        assert report.rows_path.exists()
        assert report.summary_csv.exists() and report.summary_txt.exists()

    def test_subtype_task_stays_within_site(self, corpus):
        db, queries = corpus
        cfg = ExperimentConfig(engine="yottixel", task=TASK_SUBTYPE)
        report = run_experiment(cfg, db, queries)
        labels = {s.slide_id: s.site for s in db}
        for row in report.rows:
            for slot in row.slots:
                if slot is not None:
                    assert labels[slot.target_id] == row.query_site

    def test_subtype_query_without_site_database_abstains(self, corpus):
        db, _ = corpus
        rng = np.random.default_rng(5)
        orphan = make_slide(
            "orphan", rng.normal(0, 1, (10, 32)).astype(np.float32),
            site="skin", subtype="scc",
        )
        cfg = ExperimentConfig(engine="yottixel", task=TASK_SUBTYPE)
        report = run_experiment(cfg, db, [orphan])
        (row,) = report.rows
        assert all(slot is None for slot in row.slots)
        assert report.summary["mMV@1"] is None

    def test_run_json_names_unprocessed_slides_and_abstained_queries(self, corpus, tmp_path):
        db, queries = corpus
        # a zero slide has no vector RetCCL can index or query with, and a
        # skin query finds no skin database in the subtype task
        zero = make_slide("zero", np.zeros((12, 32)), site="lung", subtype="luad")
        orphan = make_slide("orphan", np.ones((12, 32)), site="skin", subtype="scc")
        cfg = ExperimentConfig(engine="retccl", task=TASK_SUBTYPE)
        report = run_experiment(cfg, [*db, zero], [*queries[:3], zero, orphan], out_dir=tmp_path)
        (entry,) = report.unprocessed
        assert entry[:2] == ("lung", "zero") and "zero vector" in entry[2]
        assert report.abstained == 2
        assert json.loads(report.run_json.read_text()) == {
            "unprocessed": [{"database": "lung", "slide_id": "zero", "reason": entry[2]}],
            "abstained_queries": 2,
        }
        # run.json leaves the rows and summary files as they were
        write_rows(tmp_path / "again.csv", report.rows, cfg.effective_k)
        assert report.rows_path.read_bytes() == (tmp_path / "again.csv").read_bytes()
        context = {"engine": "retccl", "task": TASK_SUBTYPE, "queries": "5"}
        write_summary(report.summary, tmp_path / "s.csv", tmp_path / "s.txt", context)
        assert report.summary_txt.read_bytes() == (tmp_path / "s.txt").read_bytes()
        assert report.summary_csv.read_bytes() == (tmp_path / "s.csv").read_bytes()

    @pytest.mark.parametrize("engine, patch_value", UNINDEXABLE, ids=["sish", "retccl"])
    def test_subtype_site_with_no_indexable_slide_abstains(
        self, engine, patch_value, corpus, tmp_path
    ):
        db, queries = corpus
        rng = np.random.default_rng(8)
        bad = [
            make_slide(s.slide_id, patch_value(rng, 12, 32), site=s.site, subtype=s.subtype)
            for s in db
            if s.site == "brain"
        ]
        good = [s for s in db if s.site != "brain"]
        cfg = ExperimentConfig(engine=engine, task=TASK_SUBTYPE)
        report = run_experiment(cfg, [*bad, *good], queries, out_dir=tmp_path / "bad")
        clean = run_experiment(cfg, good, queries, out_dir=tmp_path / "clean")
        # brain queries abstain in both runs; lung rows are untouched
        assert report.rows_path.read_bytes() == clean.rows_path.read_bytes()
        assert report.summary_txt.read_bytes() == clean.summary_txt.read_bytes()
        assert report.abstained == clean.abstained == sum(q.site == "brain" for q in queries)
        assert [entry[:2] for entry in report.unprocessed] == [
            ("brain", s.slide_id) for s in bad
        ]
        assert all(entry[2] for entry in report.unprocessed)
        assert json.loads(report.run_json.read_text())["unprocessed"] == [
            {"database": name, "slide_id": slide_id, "reason": reason}
            for name, slide_id, reason in report.unprocessed
        ]

    def test_run_json_of_a_clean_site_run(self, corpus, tmp_path):
        db, queries = corpus
        cfg = ExperimentConfig(engine="sish")
        report = run_experiment(cfg, db, queries[:2], out_dir=tmp_path)
        assert report.unprocessed == [] and report.abstained == 0
        assert json.loads(report.run_json.read_text()) == {"unprocessed": [], "abstained_queries": 0}

    def test_patient_self_exclusion(self, corpus):
        db, _ = corpus
        # querying a database slide must never return that patient's slides
        cfg = ExperimentConfig(engine="yottixel", task=TASK_SITE)
        report = run_experiment(cfg, db, db[:4])
        patients = {s.slide_id: s.patient_id for s in db}
        by_id = {s.slide_id: s for s in db}
        for row in report.rows:
            q_patient = by_id[row.query_id].patient_id
            for slot in row.slots:
                if slot is not None:
                    assert patients[slot.target_id] != q_patient

    def test_jobs_do_not_change_rows(self, corpus):
        db, queries = corpus
        serial = run_experiment(
            ExperimentConfig(engine="yottixel", task=TASK_SITE, jobs=1), db, queries
        )
        threaded = run_experiment(
            ExperimentConfig(engine="yottixel", task=TASK_SITE, jobs=4), db, queries
        )
        assert serial.rows == threaded.rows
        assert serial.summary == threaded.summary

    def test_patch_task_rows_per_mosaic_member(self, corpus):
        db, queries = corpus
        cfg = ExperimentConfig(engine="yottixel", task=TASK_PATCH)
        report = run_experiment(cfg, db, queries[:1])
        assert len(report.rows) > 1  # one row per query mosaic patch
        assert all(":" in r.query_id for r in report.rows)
        assert all(r.query_subtype == queries[0].subtype for r in report.rows)

    def test_empty_database_fails_unless_built_per_site(self, corpus):
        _, queries = corpus
        with pytest.raises(EmptyInputError):
            run_experiment(ExperimentConfig(engine="yottixel"), [], queries)
        report = run_experiment(ExperimentConfig(engine="yottixel", task=TASK_SUBTYPE), [], queries)
        assert report.abstained == len(queries)

    def test_hshr_patch_config_rejected_upfront(self):
        with pytest.raises(UnsupportedOperationError):
            ExperimentConfig(engine="hshr", task=TASK_PATCH)


class TestQueryAgainstPrebuilt:
    def test_subtype_filter_matches_per_site_build(self, corpus):
        db, queries = corpus
        global_db = build_engine_database("yottixel", db)
        rows = query_rows_against_db("yottixel", global_db, queries, TASK_SUBTYPE)
        labels = {s.slide_id: s.site for s in db}
        assert len(rows) == len(queries)
        for row in rows:
            for slot in row.slots:
                if slot is not None:
                    assert labels[slot.target_id] == row.query_site

    @pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
    def test_subtype_run_equals_queries_against_each_site_database(self, engine, corpus):
        db, queries = corpus
        report = run_experiment(ExperimentConfig(engine=engine, task=TASK_SUBTYPE), db, queries)
        rows = []
        for site in sorted({s.site for s in db}):
            site_db = build_engine_database(engine, [s for s in db if s.site == site])
            site_queries = [q for q in queries if q.site == site]
            rows += query_rows_against_db(engine, site_db, site_queries, TASK_SUBTYPE)
        assert report.rows == sorted(rows, key=lambda r: r.query_id)

    def test_patch_task_unrestricted_by_site(self, corpus):
        db, queries = corpus
        global_db = build_engine_database("yottixel", db)
        rows = query_rows_against_db("yottixel", global_db, queries, TASK_PATCH, k_max=3)
        sites = {slot.site for row in rows for slot in row.slots if slot}
        assert len(sites) >= 1  # no structural restriction applied

    def test_k_max_override(self, corpus):
        db, queries = corpus
        global_db = build_engine_database("yottixel", db)
        rows = query_rows_against_db("yottixel", global_db, queries, TASK_SITE, k_max=2)
        assert all(len(r.slots) == 2 for r in rows)


class TestSummary:
    def make_row(self, qid, subtypes, site="brain", subtype="gbm"):
        slots = tuple(
            None if s is None else RetrievalSlot(f"r{i}", site, s, 1.0 - 0.01 * i)
            for i, s in enumerate(subtypes)
        )
        return QueryRow(qid, site, subtype, slots)

    def test_perfect_rows(self):
        rows = [self.make_row("q1", ["gbm"] * 5), self.make_row("q2", ["gbm"] * 5)]
        summary = compute_summary(rows, TASK_SUBTYPE)
        assert summary["mMV@1"] == 1.0
        assert summary["mMV@5"] == 1.0
        assert summary["mAP@5"] == 1.0

    def test_k_beyond_row_width_is_undefined(self):
        rows = [self.make_row("q1", ["gbm"] * 5)]
        summary = compute_summary(rows, TASK_SITE)  # site plan wants k up to 10
        assert summary["mMV@10"] is None
        assert summary["mMV@5"] == 1.0

    def test_all_null_rows_are_undefined(self):
        rows = [self.make_row("q1", [None] * 5)]
        summary = compute_summary(rows, TASK_SUBTYPE)
        assert summary["mMV@1"] is None

    def test_no_rows(self):
        summary = compute_summary([], TASK_SUBTYPE)
        assert all(v is None for v in summary.values())

    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(0.66666) == "0.6667"


class TestRowSerialization:
    def sample_rows(self):
        return [
            QueryRow(
                "q1", "brain", "gbm",
                (
                    RetrievalSlot("a", "brain", "gbm", 0.125),
                    None,
                    RetrievalSlot("b", "lung", "luad", -3.5),
                ),
            ),
            QueryRow("q2", "lung", "lusc", (None, None, None)),
        ]

    def test_round_trip(self, tmp_path):
        rows = self.sample_rows()
        path = tmp_path / "rows.csv"
        write_rows(path, rows, 3)
        assert read_rows(path) == rows

    def test_wrong_slot_count_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_rows(tmp_path / "rows.csv", self.sample_rows(), 5)

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("a,b,c,d,e,f,g\n")
        with pytest.raises(FormatError):
            read_rows(path)

    def test_read_rejects_partial_slot(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, self.sample_rows(), 3)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = ""  # knock one field out of a filled slot
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="partially filled"):
            read_rows(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_rows(path)

    def test_summary_files(self, tmp_path):
        write_summary(
            {"mMV@1": 0.75, "mAP@3": None},
            tmp_path / "s.csv",
            tmp_path / "s.txt",
            context={"engine": "yottixel"},
        )
        csv_text = (tmp_path / "s.csv").read_text()
        assert "mMV@1,0.7500" in csv_text
        assert "mAP@3,-" in csv_text
        txt = (tmp_path / "s.txt").read_text()
        assert "engine: yottixel" in txt
        assert "-" in txt
