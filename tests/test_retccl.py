"""Cosine-bag engine: bag construction, quality filtering, bag voting."""
from __future__ import annotations

import math

import numpy as np
import pytest

from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    UndefinedSimilarityError,
    ValidationError,
)
from wsisearch.model import PatchFeature, SlideLabels
from wsisearch.retccl import (
    QUALITY_MEDIAN,
    QUALITY_NONE,
    Bag,
    Hit,
    RetcclDatabase,
    RetcclParams,
    build_bags,
    build_database,
    filter_and_order_bags,
    query_patches,
    query_slides,
    vote_slides,
)

from util import make_slide


def label_db(slide_subtypes: dict[str, str]) -> RetcclDatabase:
    """Label-only database for exercising vote_slides in isolation."""
    return RetcclDatabase(
        params=RetcclParams(),
        dim=4,
        unit_features=np.zeros((0, 4)),
        patch_slides=[],
        patch_coords=[],
        slide_labels={
            sid: SlideLabels("brain", sub, f"pt-{sid}") for sid, sub in slide_subtypes.items()
        },
    )


@pytest.fixture(scope="module")
def axis_db():
    """Four slides whose patches hug distinct coordinate axes of R^8."""
    slides = []
    rng = np.random.default_rng(31)
    for i, subtype in enumerate(["gbm", "gbm", "lgg", "lgg"]):
        feats = np.zeros((12, 8))
        feats[:, i] = 1.0
        feats += 0.02 * rng.normal(size=feats.shape)
        slides.append(make_slide(f"s{i}", feats, subtype=subtype))
    return slides, build_database(slides, RetcclParams(fraction=1.0, seed=1))


class TestBuildBags:
    def test_stored_patch_scores_one_in_own_bag(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[0].features[:1])
        assert len(bags) == 1
        top = bags[0].hits[0]
        assert top.slide_id == "s0"
        assert top.score == pytest.approx(1.0, abs=1e-6)

    def test_all_hits_clear_threshold(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[1].features)
        for bag in bags:
            for hit in bag.hits:
                assert hit.score >= db.params.sim_threshold

    def test_orthogonal_query_gives_empty_bag(self, axis_db):
        _, db = axis_db
        lonely = np.zeros(8, dtype=np.float32)
        lonely[7] = 1.0  # the one axis no database slide occupies
        bags = build_bags(db, lonely[None, :])
        assert bags[0].hits == ()
        assert math.isinf(bags[0].entropy)

    def test_zero_patch_gives_empty_bag(self, axis_db):
        _, db = axis_db
        bags = build_bags(db, np.zeros((1, 8), dtype=np.float32))
        assert bags[0].hits == ()

    def test_hits_sorted_descending(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[2].features)
        for bag in bags:
            scores = [h.score for h in bag.hits]
            assert scores == sorted(scores, reverse=True)

    def test_empty_query_rejected(self, axis_db):
        _, db = axis_db
        with pytest.raises(EmptyInputError):
            build_bags(db, np.zeros((0, 8), dtype=np.float32))


class TestFilterAndOrder:
    def bag(self, ordinal, scores, labels):
        hits = tuple(
            Hit(f"s{i}", i, s, lab) for i, (s, lab) in enumerate(zip(scores, labels))
        )
        entropy = math.inf
        if hits:
            from wsisearch.model import label_entropy

            entropy = label_entropy(labels)
        return Bag(ordinal=ordinal, hits=hits, entropy=entropy)

    def test_entropy_ordering(self):
        noisy = self.bag(0, [0.9, 0.9], ["a", "b"])
        clean = self.bag(1, [0.9, 0.9], ["a", "a"])
        ordered = filter_and_order_bags([noisy, clean], QUALITY_NONE)
        assert [b.ordinal for b in ordered] == [1, 0]

    def test_single_bag_survives_median_rule(self):
        only = self.bag(0, [0.8], ["a"])
        assert filter_and_order_bags([only], QUALITY_MEDIAN) == [only]

    def test_weak_bag_removed_by_median_rule(self):
        weak = self.bag(0, [0.71, 0.70], ["a", "a"])
        strong = self.bag(1, [0.99, 0.98], ["a", "a"])
        ordered = filter_and_order_bags([weak, strong], QUALITY_MEDIAN)
        assert [b.ordinal for b in ordered] == [1]

    def test_quality_none_keeps_weak_bags(self):
        weak = self.bag(0, [0.71], ["a"])
        strong = self.bag(1, [0.99], ["a"])
        assert len(filter_and_order_bags([weak, strong], QUALITY_NONE)) == 2

    def test_empty_bags_always_dropped(self):
        assert filter_and_order_bags([Bag(0, (), math.inf)], QUALITY_NONE) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            filter_and_order_bags([self.bag(0, [0.9], ["a"])], "strictest")


class TestVoteSlides:
    def test_unanimous_bag_returns_top_hit(self):
        db = label_db({"w1": "gbm", "w2": "gbm"})
        bag = Bag(0, (Hit("w1", 0, 0.95, "gbm"), Hit("w2", 1, 0.90, "gbm")), 0.0)
        res = vote_slides([bag], db, k=2)
        assert res.target_ids() == ["w1", "w2"][:1] or res.target_ids() == ["w1"]
        assert res.entries[0].score == pytest.approx(0.95)

    def test_majority_label_picks_representative(self):
        db = label_db({"a": "gbm", "b": "lgg", "c": "lgg"})
        bag = Bag(
            0,
            (Hit("a", 0, 0.99, "gbm"), Hit("b", 1, 0.98, "lgg"), Hit("c", 2, 0.97, "lgg")),
            0.5,
        )
        res = vote_slides([bag], db, k=1)
        # lgg holds the majority, so its best hit wins despite a's higher score
        assert res.target_ids() == ["b"]

    def test_majority_tie_breaks_toward_higher_score(self):
        db = label_db({"a": "gbm", "b": "lgg", "c": "lgg", "d": "gbm"})
        bag = Bag(
            0,
            (
                Hit("a", 0, 0.99, "gbm"),
                Hit("b", 1, 0.98, "lgg"),
                Hit("c", 2, 0.97, "lgg"),
                Hit("d", 3, 0.96, "gbm"),
            ),
            0.5,
        )
        res = vote_slides([bag], db, k=1)
        assert res.target_ids() == ["a"]

    def test_duplicate_representatives_deduplicated(self):
        db = label_db({"a": "gbm", "b": "gbm"})
        first = Bag(0, (Hit("a", 0, 0.99, "gbm"),), 0.0)
        second = Bag(1, (Hit("a", 1, 0.98, "gbm"), Hit("b", 2, 0.97, "gbm")), 0.1)
        res = vote_slides([first, second], db, k=3)
        # the second bag's representative repeats slide a, so it adds nothing
        assert res.target_ids() == ["a"]

    def test_empty_bag_list_gives_empty_result(self):
        res = vote_slides([], label_db({}), k=4)
        assert len(res) == 0


class TestQueries:
    def test_patch_query_matches_linear_scan(self, axis_db):
        slides, db = axis_db
        rng = np.random.default_rng(4)
        q = PatchFeature(0, 0, rng.normal(size=8).astype(np.float32))
        res = query_patches(db, q, k=6)

        vec = q.feature.astype(np.float64)
        vec /= np.linalg.norm(vec)
        scores = db.unit_features @ vec
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], db.patch_slides[j], j))
        expected = [db.patch_slides[j] for j in order[:6]]
        assert [e.target_id.rsplit(":", 1)[0] for e in res.entries] == expected

    def test_zero_patch_query_rejected(self, axis_db):
        _, db = axis_db
        with pytest.raises(UndefinedSimilarityError):
            query_patches(db, PatchFeature(0, 0, np.zeros(8, dtype=np.float32)), k=3)

    def test_near_copy_slide_ranks_first(self, axis_db):
        slides, db = axis_db
        res = query_slides(db, slides[3], k=2)
        assert res.entries[0].target_id == "s3"

    def test_candidate_filter_restricts_hits(self, axis_db):
        slides, db = axis_db
        res = query_slides(
            db, slides[0], k=4, candidate_filter=lambda sid, lab: lab.subtype == "lgg"
        )
        assert all(e.target_subtype == "lgg" for e in res.entries)

    def test_dim_mismatch_rejected(self, axis_db):
        _, db = axis_db
        with pytest.raises(DimensionError):
            query_patches(db, PatchFeature(0, 0, np.ones(5, dtype=np.float32)), k=2)
