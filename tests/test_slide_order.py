"""One slide order: every engine lists slides by slide_id, so the order in
which slides arrive at a build changes no slide table and no result row."""
from __future__ import annotations

import random

import pytest

from wsisearch.experiment import (
    ENGINE_MODULES,
    TASK_PATCH,
    TASK_SITE,
    TASK_SUBTYPE,
    build_engine_database,
    query_rows_against_db,
)
from wsisearch.synth import SyntheticSpec, generate


@pytest.fixture(scope="module")
def corpus():
    """Database slides in generation order and shuffled, plus queries.  The
    32-dim slide hashes tie often, which once let HSHR's nearest-neighbour
    picks follow build order."""
    spec = SyntheticSpec(
        n_sites=2,
        subtypes_per_site=2,
        slides_per_subtype=4,
        patches_per_slide=24,
        dim=32,
        queries_per_subtype=1,
        seed=0,
    )
    db_slides, queries = generate(spec)
    shuffled = list(db_slides)
    random.Random(3).shuffle(shuffled)
    assert shuffled != db_slides
    return db_slides, shuffled, queries


@pytest.mark.parametrize("engine", sorted(ENGINE_MODULES))
def test_build_order_changes_no_row(engine, corpus):
    db_slides, shuffled, queries = corpus
    in_order = build_engine_database(engine, db_slides)
    again = build_engine_database(engine, shuffled)
    assert in_order.slide_ids == again.slide_ids == sorted(s.slide_id for s in db_slides)
    assert in_order.labels == again.labels
    tasks = [TASK_SITE, TASK_SUBTYPE] + ([] if engine == "hshr" else [TASK_PATCH])
    for task in tasks:
        rows = query_rows_against_db(engine, in_order, queries, task)
        assert query_rows_against_db(engine, again, queries, task) == rows, task
        assert any(row.slots[0] is not None for row in rows), task
