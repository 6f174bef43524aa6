"""Tests of the benchmark's own code: PYTHONPATH=src python -m pytest perfbench -q"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import harness
import measure
import tracing
from wsisearch import veb
from wsisearch.metrics import RetrievalSlot

TINY = harness.Workload(
    name="tiny",
    spec=dict(n_sites=2, subtypes_per_site=2, slides_per_subtype=3,
              patches_per_slide=49, dim=32, queries_per_subtype=1),
    op_kind=harness.SLIDE,
    query_side=5,
    rounds=2,
    passes=2,
)
TINY_PATCH = dataclasses.replace(TINY, name="tiny-patch", op_kind=harness.PATCH)


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    harness.make_corpus(TINY, 11, tmp_path / "a")
    harness.make_corpus(TINY, 11, tmp_path / "b")
    harness.make_corpus(TINY, 12, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")
    assert any(name.endswith("-5x5.psf") for name in first)


def _bindings():
    out = []
    for module, attr in tracing.TRACED_FUNCTIONS:
        out += [(site, attr) for site in tracing.binding_sites(module, attr)]
    out += [(m, attr) for m in tracing.ENGINE_MODULES.values() for attr in tracing.ENGINE_ENTRY_POINTS]
    out += [(veb.VebTree, attr) for attr in tracing.VEB_METHODS]
    return out


@pytest.mark.parametrize("workload", [TINY, TINY_PATCH], ids=lambda w: w.name)
def test_traced_run_restores_originals_and_keeps_rows(workload, tmp_path):
    before = [(owner, attr, getattr(owner, attr)) for owner, attr in _bindings()]
    traced, traced_info = measure.run_traced(workload, 3, tmp_path)
    for owner, attr, original in before:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert traced["correct"] and traced_info["originals_restored"]
    assert traced_info["digests"] == traced_info["digests_untraced"]

    untraced, untraced_info = measure.run_untraced(workload, 3, 0.01, tmp_path)
    assert untraced["correct"]
    assert untraced_info["digests"] == traced_info["digests"]
    assert set(traced["metrics"]) == {name for name, _, _ in measure.PER_LAYER}
    assert set(untraced["metrics"]) == {name for name, _, _ in measure.END_TO_END}
    assert traced["metrics"]["trace.spans"]["value"] > 0


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner() + Box.inner()

    tracer.wrap(Box, "inner", "box.inner")
    tracer.wrap(Box, "outer", "box.outer")
    with tracer.span("op.test"):
        assert Box.outer() == 2
    assert tracer.restore()
    summary = tracer.summary()
    assert summary["box.inner"]["calls"] == 2
    assert tracer.child_count("box.inner", "box.outer") == 2
    outer = summary["box.outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["box.inner"]["total_s"])
    assert set(tracer.arrays()["op"]) == {0}


def _op_and_row(tmp_path):
    manifest, queries = harness.make_corpus(TINY, 5, tmp_path)
    corpus = harness.load_corpus(manifest, queries)
    labels = {s.slide_id: s.labels for s in corpus.db_slides}
    db = harness.experiment.build_engine_database("yottixel", corpus.db_slides)
    op = harness.engine_ops(TINY, "yottixel", db, corpus.query_slides)[0]
    rows = harness.run_op("yottixel", db, op)
    return op, rows, labels, corpus


def test_output_check_accepts_real_rows_and_catches_defects(tmp_path):
    op, rows, labels, corpus = _op_and_row(tmp_path)
    assert harness.check_rows("yottixel", op, rows, labels) is None
    row = rows[0]
    filled = [s for s in row.slots if s is not None]
    assert len(filled) >= 2

    own = next(s for s in corpus.db_slides if s.patient_id != op.query.patient_id)
    labels_own = dict(labels)
    labels_own[filled[0].target_id] = own.labels._replace(patient_id=op.query.patient_id)
    reversed_scores = [RetrievalSlot(s.target_id, s.site, s.subtype, -s.score - 1 if i else s.score)
                       for i, s in enumerate(filled)]
    gap = (None,) + row.slots[:-1]
    short = row.slots[:-1]
    cases = {
        "patient": ([row], labels_own),
        "order": ([dataclasses.replace(row, slots=tuple(reversed_scores) + row.slots[len(filled):])], labels),
        "gap": ([dataclasses.replace(row, slots=gap)], labels),
        "slots": ([dataclasses.replace(row, slots=short)], labels),
    }
    for name, (bad_rows, bad_labels) in cases.items():
        assert harness.check_rows("yottixel", op, bad_rows, bad_labels) is not None, name


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(measure.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)
