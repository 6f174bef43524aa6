"""Barcode engine: bag construction and Hamming ranking."""
from __future__ import annotations

import numpy as np
import pytest

from wsisearch.errors import DimensionError, EmptyInputError, ValidationError
from wsisearch.model import hamming_distance
from wsisearch.yottixel import (
    YottixelParams,
    build_database,
    median_min_hamming,
    prepare_query,
    query_patch_set,
    query_patches,
    query_slides,
)

from util import gaussian_slides, make_slide, patch_at


@pytest.fixture(scope="module")
def two_cluster_db():
    rng = np.random.default_rng(17)
    mean_a = rng.normal(size=24)
    mean_b = rng.normal(size=24)
    slides = gaussian_slides(
        rng, 4, 30, 24, mean=mean_a, sigma=0.4, prefix="a", site="brain", subtype="gbm"
    )
    slides += gaussian_slides(
        rng, 4, 30, 24, mean=mean_b, sigma=0.4, prefix="b", site="lung", subtype="luad"
    )
    return slides, build_database(slides, YottixelParams(seed=1))


class TestBuild:
    def test_all_slides_indexed(self, two_cluster_db):
        slides, db = two_cluster_db
        assert len(db) == len(slides)
        assert db.slide_ids == [s.slide_id for s in slides]
        assert db.unprocessed == []
        assert db.code_length == 23

    def test_mixed_dims_rejected(self):
        rng = np.random.default_rng(0)
        a = make_slide("a", rng.normal(size=(5, 8)))
        b = make_slide("b", rng.normal(size=(5, 9)))
        with pytest.raises(DimensionError):
            build_database([a, b])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            build_database([])

    def test_bags_use_mosaic_subset(self, two_cluster_db):
        slides, db = two_cluster_db
        assert db.packed.shape == (len(db.coords), 3)  # 23 bits per row
        assert db.starts[0] == 0 and np.all(np.diff(db.starts) > 0)
        for slide, coords in zip(slides, np.split(db.coords, db.starts[1:])):
            assert 1 <= len(coords) <= len(slide.coords)
            assert set(map(tuple, coords.tolist())) <= set(map(tuple, slide.coords.tolist()))


class TestMedianMinHamming:
    def test_identical_bags_score_zero(self, two_cluster_db):
        _, db = two_cluster_db
        bag = np.split(db.packed, db.starts[1:])[0]
        assert median_min_hamming(bag, db.packed, db.starts)[0] == 0.0

    def test_matches_slow_formula(self, two_cluster_db):
        _, db = two_cluster_db
        bags = np.split(db.packed, db.starts[1:])
        query = np.concatenate([bags[0][:2], bags[5]])
        expected = [
            float(np.median([min(hamming_distance(q, t) for t in bag) for q in query]))
            for bag in bags
        ]
        assert median_min_hamming(query, db.packed, db.starts).tolist() == expected

    def test_one_kernel_call_per_query(self, two_cluster_db, monkeypatch):
        import wsisearch.yottixel as yottixel

        slides, db = two_cluster_db
        calls = []
        kernel = yottixel.hamming_matrix
        monkeypatch.setattr(yottixel, "hamming_matrix", lambda a, b: calls.append(1) or kernel(a, b))
        query_slides(db, prepare_query(db, slides[0]), k=3)
        query_patches(db, patch_at(slides[0], 0), k=3)
        assert len(calls) == 2


class TestSlideQuery:
    def test_self_query_ranks_self_first(self, two_cluster_db):
        slides, db = two_cluster_db
        res = query_slides(db, slides[0], k=3)
        assert res.entries[0].target_id == slides[0].slide_id
        assert res.entries[0].score == 0.0

    def test_scores_ascending(self, two_cluster_db):
        slides, db = two_cluster_db
        res = query_slides(db, slides[2], k=8)
        scores = [e.score for e in res.entries]
        assert scores == sorted(scores)

    def test_same_cluster_preferred(self, two_cluster_db):
        slides, db = two_cluster_db
        res = query_slides(db, slides[1], k=4)
        assert all(e.target_site == "brain" for e in res.entries)

    def test_candidate_filter_sees_labels(self, two_cluster_db):
        slides, db = two_cluster_db
        res = query_slides(db, slides[0], k=8, candidate_filter=lambda sid, lab: lab.site == "lung")
        assert len(res.entries) == 4
        assert all(e.target_site == "lung" for e in res.entries)

    def test_prepared_bag_can_query(self, two_cluster_db):
        slides, db = two_cluster_db
        codes = prepare_query(db, slides[3])
        assert codes.dtype == np.uint8 and codes.shape[1] == 3
        res = query_slides(db, codes, k=2)
        assert res.entries[0].target_id == slides[3].slide_id

    def test_k_validated(self, two_cluster_db):
        slides, db = two_cluster_db
        with pytest.raises(ValidationError):
            query_slides(db, slides[0], k=0)

    def test_wrong_dim_query_rejected(self, two_cluster_db):
        _, db = two_cluster_db
        rng = np.random.default_rng(1)
        with pytest.raises(DimensionError):
            query_slides(db, make_slide("q", rng.normal(size=(6, 7))), k=2)


class TestPatchQuery:
    def test_patch_targets_are_patch_refs(self, two_cluster_db):
        slides, db = two_cluster_db
        patch = patch_at(slides[0], 0)
        res = query_patches(db, patch, k=5)
        assert len(res.entries) == 5
        for e in res.entries:
            slide_part, coord_part = e.target_id.rsplit(":", 1)
            assert any(s.slide_id == slide_part for s in slides)
            x, y = coord_part.split(",")
            int(x), int(y)

    def test_distances_ascending_integers(self, two_cluster_db):
        slides, db = two_cluster_db
        res = query_patches(db, patch_at(slides[0], 3), k=10)
        scores = [e.score for e in res.entries]
        assert scores == sorted(scores)
        assert all(float(s).is_integer() for s in scores)

    def test_query_patch_set_is_mosaic(self, two_cluster_db):
        slides, db = two_cluster_db
        patches = query_patch_set(db, slides[0])
        assert 1 <= len(patches) <= len(slides[0].coords)
