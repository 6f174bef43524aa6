"""Cosine-bag engine: bag construction, quality filtering, bag voting."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    UndefinedSimilarityError,
    ValidationError,
)
from wsisearch.model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideLabels,
    check_k,
    check_query_dim,
    label_entropy,
    patch_ref,
    ranked_result,
)
from wsisearch.retccl import (
    QUALITY_MEDIAN,
    QUALITY_NONE,
    Bag,
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


def label_db(slide_subtypes: dict[str, str], row_slides: list[str]) -> RetcclDatabase:
    """Label-only database for exercising vote_slides in isolation: row j
    belongs to slide row_slides[j]."""
    slide_ids = sorted(slide_subtypes)
    return RetcclDatabase(
        params=RetcclParams(),
        dim=4,
        slide_ids=slide_ids,
        labels=[SlideLabels("brain", slide_subtypes[sid], f"pt-{sid}") for sid in slide_ids],
        unit_features=np.zeros((len(row_slides), 4)),
        slide=np.array([slide_ids.index(sid) for sid in row_slides], dtype=np.int64),
        coords=np.zeros((len(row_slides), 2), dtype=np.int32),
    )


def bag(ordinal: int, rows: list[int], scores: list[float], entropy: float) -> Bag:
    return Bag(ordinal, np.array(rows, dtype=np.int64), np.array(scores, dtype=np.float64), entropy)


def hit_slide(db: RetcclDatabase, row) -> str:
    return db.slide_ids[db.slide[row]]


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


class TestBuild:
    def test_slide_table_and_rows_in_slide_id_order(self):
        rng = np.random.default_rng(5)
        names = ["s3", "s10", "b", "s1"]  # arrival order is not slide_id order
        slides = [
            make_slide(name, rng.normal(size=(4 + i, 6)), subtype=("gbm", "lgg")[i % 2])
            for i, name in enumerate(names)
        ]
        db = build_database(slides, RetcclParams(fraction=1.0, seed=2))
        assert db.slide_ids == sorted(names) == ["b", "s1", "s10", "s3"]
        by_id = {s.slide_id: s for s in slides}
        assert db.labels == [by_id[sid].labels for sid in db.slide_ids]
        assert db.slide.dtype == np.int64
        in_order = [by_id[sid] for sid in db.slide_ids]
        assert np.array_equal(db.slide, np.repeat(np.arange(4), [len(s.coords) for s in in_order]))
        rows = np.concatenate([s.features for s in in_order]).astype(np.float64)
        for unit, row in zip(db.unit_features, rows):
            assert np.array_equal(unit, row / np.linalg.norm(row))
        assert np.array_equal(db.coords, np.concatenate([s.coords for s in in_order]))
        assert len(db) == 4


class TestBuildBags:
    def test_stored_patch_scores_one_in_own_bag(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[0].features[:1])
        assert len(bags) == 1
        assert hit_slide(db, bags[0].hits[0]) == "s0"
        assert bags[0].scores[0] == pytest.approx(1.0, abs=1e-6)

    def test_all_hits_clear_threshold(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[1].features)
        for b in bags:
            assert (b.scores >= db.params.sim_threshold).all()

    def test_orthogonal_query_gives_empty_bag(self, axis_db):
        _, db = axis_db
        lonely = np.zeros(8, dtype=np.float32)
        lonely[7] = 1.0  # the one axis no database slide occupies
        bags = build_bags(db, lonely[None, :])
        assert len(bags[0].hits) == 0 and len(bags[0].scores) == 0
        assert math.isinf(bags[0].entropy)

    def test_zero_patch_gives_empty_bag(self, axis_db):
        _, db = axis_db
        bags = build_bags(db, np.zeros((1, 8), dtype=np.float32))
        assert len(bags[0].hits) == 0 and len(bags[0].scores) == 0

    def test_hits_sorted_descending(self, axis_db):
        slides, db = axis_db
        bags = build_bags(db, slides[2].features)
        for b in bags:
            scores = b.scores.tolist()
            assert scores == sorted(scores, reverse=True)

    def test_hits_are_rows_with_their_scores(self, axis_db):
        slides, db = axis_db
        for b in build_bags(db, slides[3].features):
            assert b.hits.dtype == np.int64 and b.scores.dtype == np.float64
            vec = slides[3].features[b.ordinal].astype(np.float64)
            expected = np.clip(db.unit_features @ (vec / np.linalg.norm(vec)), -1.0, 1.0)
            assert np.array_equal(b.scores, expected[b.hits])

    def test_empty_query_rejected(self, axis_db):
        _, db = axis_db
        with pytest.raises(EmptyInputError):
            build_bags(db, np.zeros((0, 8), dtype=np.float32))

    def test_one_dimensional_query_rejected(self, axis_db):
        slides, db = axis_db
        with pytest.raises(DimensionError):
            build_bags(db, slides[0].features[0])
        with pytest.raises(DimensionError):
            query_slides(db, slides[0].features[0], k=2)

    def test_cross_slide_tie_goes_to_lower_slide_id(self):
        feats = np.array([[1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        # "b" arrives first; "a" repeats its features, so cosines tie exactly
        slides = [make_slide("b", feats), make_slide("a", 2.0 * feats)]
        db = build_database(slides, RetcclParams(fraction=1.0, seed=0))
        (only,) = build_bags(db, feats[:1])
        assert only.scores[0] == only.scores[1]
        assert [hit_slide(db, j) for j in only.hits] == ["a", "b"]
        assert only.hits.tolist() == [0, 2]  # rows run in slide_id order


class TestFilterAndOrder:
    def bag(self, ordinal, scores, labels):
        entropy = label_entropy(labels) if labels else math.inf
        return bag(ordinal, list(range(len(scores))), scores, entropy)

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
        assert filter_and_order_bags([bag(0, [], [], math.inf)], QUALITY_NONE) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            filter_and_order_bags([self.bag(0, [0.9], ["a"])], "strictest")


class TestVoteSlides:
    def test_unanimous_bag_returns_top_hit(self):
        db = label_db({"w1": "gbm", "w2": "gbm"}, ["w1", "w2"])
        res = vote_slides([bag(0, [0, 1], [0.95, 0.90], 0.0)], db, k=2)
        assert res.target_ids() == ["w1", "w2"][:1] or res.target_ids() == ["w1"]
        assert res.entries[0].score == pytest.approx(0.95)

    def test_majority_label_picks_representative(self):
        db = label_db({"a": "gbm", "b": "lgg", "c": "lgg"}, ["a", "b", "c"])
        res = vote_slides([bag(0, [0, 1, 2], [0.99, 0.98, 0.97], 0.5)], db, k=1)
        # lgg holds the majority, so its best hit wins despite a's higher score
        assert res.target_ids() == ["b"]

    def test_majority_tie_breaks_toward_higher_score(self):
        db = label_db({"a": "gbm", "b": "lgg", "c": "lgg", "d": "gbm"}, ["a", "b", "c", "d"])
        res = vote_slides([bag(0, [0, 1, 2, 3], [0.99, 0.98, 0.97, 0.96], 0.5)], db, k=1)
        assert res.target_ids() == ["a"]

    def test_duplicate_representatives_deduplicated(self):
        db = label_db({"a": "gbm", "b": "gbm"}, ["a", "a", "b"])
        first = bag(0, [0], [0.99], 0.0)
        second = bag(1, [1, 2], [0.98, 0.97], 0.1)
        res = vote_slides([first, second], db, k=3)
        # the second bag's representative repeats slide a, so it adds nothing
        assert res.target_ids() == ["a"]

    def test_empty_bag_list_gives_empty_result(self):
        res = vote_slides([], label_db({}, []), k=4)
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
        order = sorted(range(len(scores)), key=lambda j: (-scores[j], hit_slide(db, j), j))
        expected = [hit_slide(db, j) for j in order[:6]]
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


# The engine as it stood before bags became row arrays: the code below is
# that version's, word for word, except that its names carry a legacy
# prefix.  It reads per-row slide ids and a label dict, which legacy_db
# derives from a database's columns.


@dataclass
class LegacyDatabase:
    params: RetcclParams
    dim: int
    unit_features: np.ndarray
    patch_slides: list[str]
    patch_coords: np.ndarray
    slide_labels: dict[str, SlideLabels]


def legacy_db(db: RetcclDatabase) -> LegacyDatabase:
    return LegacyDatabase(
        params=db.params,
        dim=db.dim,
        unit_features=db.unit_features,
        patch_slides=[db.slide_ids[s] for s in db.slide.tolist()],
        patch_coords=db.coords,
        slide_labels=dict(zip(db.slide_ids, db.labels)),
    )


def legacy_kept_slides(
    candidate_filter: CandidateFilter | None, slides: Iterable[tuple[str, SlideLabels]]
) -> list[bool]:
    """Per (slide_id, labels), whether the filter keeps it; no filter keeps
    all.  Engines take it once per query, so the filter runs once per
    database slide."""
    return [candidate_filter is None or candidate_filter(*slide) for slide in slides]


class LegacyHit(NamedTuple):
    slide_id: str
    ordinal: int  # position of the patch in the flat index
    score: float
    subtype: str


@dataclass(frozen=True)
class LegacyBag:
    """One query patch with everything the database matched to it."""

    ordinal: int
    hits: tuple[LegacyHit, ...]  # sorted by score descending
    entropy: float  # +inf for an empty bag, so it always filters out


def legacy_candidate_mask(db: LegacyDatabase, candidate_filter: CandidateFilter | None) -> np.ndarray:
    keep = dict(zip(db.slide_labels, legacy_kept_slides(candidate_filter, db.slide_labels.items())))
    return np.array([keep[sid] for sid in db.patch_slides], dtype=bool)


def legacy_build_bags(
    db: LegacyDatabase,
    query_features: np.ndarray,
    candidate_filter: CandidateFilter | None = None,
) -> list[LegacyBag]:
    """One bag per row of the (m, dim) query features: all candidates at
    cosine >= the threshold.

    A zero-vector query row yields an empty bag (entropy +inf) rather than
    an error, mirroring how zero vectors are invisible to the index.
    """
    if len(query_features) == 0:
        raise EmptyInputError("query mosaic has no patches")
    if query_features.shape[1] != db.dim:
        raise DimensionError(f"query dim {query_features.shape[1]} != database dim {db.dim}")
    mask = legacy_candidate_mask(db, candidate_filter)
    bags: list[LegacyBag] = []
    for i, row in enumerate(query_features):
        vec = row.astype(np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            bags.append(LegacyBag(ordinal=i, hits=(), entropy=math.inf))
            continue
        scores = np.clip(db.unit_features @ (vec / norm), -1.0, 1.0)
        picked = np.flatnonzero((scores >= db.params.sim_threshold) & mask)
        hits = [
            LegacyHit(
                slide_id=db.patch_slides[j],
                ordinal=int(j),
                score=float(scores[j]),
                subtype=db.slide_labels[db.patch_slides[j]].subtype,
            )
            for j in picked
        ]
        hits.sort(key=lambda h: (-h.score, h.slide_id, h.ordinal))
        entropy = label_entropy(h.subtype for h in hits) if hits else math.inf
        bags.append(LegacyBag(ordinal=i, hits=tuple(hits), entropy=entropy))
    return bags


def legacy_filter_and_order_bags(bags: Sequence[LegacyBag], quality_rule: str = QUALITY_MEDIAN) -> list[LegacyBag]:
    """Drop empty and weak bags, then order the rest by rising entropy.

    Weak means the mean of the bag's top-5 scores falls strictly below the
    median of those means across non-empty bags.
    """
    nonempty = [b for b in bags if b.hits]
    if not nonempty:
        return []
    if quality_rule == QUALITY_MEDIAN:
        means = [float(np.mean([h.score for h in b.hits[:5]])) for b in nonempty]
        cutoff = float(np.median(means))
        nonempty = [b for b, m in zip(nonempty, means) if m >= cutoff]
    elif quality_rule != QUALITY_NONE:
        raise ValidationError(f"unknown quality rule {quality_rule!r}")
    return sorted(nonempty, key=lambda b: (b.entropy, b.ordinal))


def legacy_vote_slides(bags: Sequence[LegacyBag], db: LegacyDatabase, k: int) -> RetrievalResult:
    """Each bag nominates its best hit carrying the bag's majority label;
    distinct slides are collected in bag order until k are found."""
    check_k(k)
    nominees: list[tuple[str, SlideLabels, float]] = []
    seen: set[str] = set()
    for bag in bags:
        if len(nominees) == k:
            break
        top = bag.hits[:5]
        counts = Counter(h.subtype for h in top)
        best = max(counts.values())
        # hits are score-descending, so the first hit whose label is tied
        # for the majority settles the tie toward the higher-scoring label
        majority = next(h.subtype for h in top if counts[h.subtype] == best)
        representative = next(h for h in bag.hits if h.subtype == majority)
        if representative.slide_id in seen:
            continue
        seen.add(representative.slide_id)
        nominees.append(
            (
                representative.slide_id,
                db.slide_labels[representative.slide_id],
                representative.score,
            )
        )
    return ranked_result(nominees, k, "cosine")


def legacy_query_patches(
    db: LegacyDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Global top-k patches by cosine, unthresholded, ties by (slide, ordinal)."""
    check_k(k)
    check_query_dim(db, patch)
    vec = patch.feature.astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    scores = np.clip(db.unit_features @ (vec / norm), -1.0, 1.0)
    mask = legacy_candidate_mask(db, candidate_filter)

    order = sorted(
        np.flatnonzero(mask),
        key=lambda j: (-scores[j], db.patch_slides[j], int(j)),
    )
    hits = (
        (
            patch_ref(db.patch_slides[j], *db.patch_coords[j].tolist()),
            db.slide_labels[db.patch_slides[j]],
            float(scores[j]),
        )
        for j in order
    )
    return ranked_result(hits, k, "cosine")


#: Feature rows that repeat across slides: equal rows, and rows that are
#: exact doubles, normalize to the same unit vector, so their cosines tie.
POOL = np.array(
    [
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [2, 0, 0, 0],
        [1, 1, 0, 0],
        [2, 2, 0, 0],
        [3, 1, 0, 0],
        [1, 1, 1, 0],
        [0, 1, 0, 0],
        [1, 2, 0, 1],
        [-1, 0, 0, 1],
    ],
    dtype=np.float32,
)
SLIDE_NAMES = ["s3", "s10", "s1", "b", "a2", "a10"]
SUBTYPES = ["gbm", "lgg", "luad"]


@st.composite
def tie_corpora(draw):
    """(database, query rows, candidate filter, k) over a pool of repeated
    feature rows; slides arrive in a drawn order, which is rarely slide_id
    order, and some rows (query rows too) are zero vectors."""
    names = draw(st.permutations(SLIDE_NAMES))[: draw(st.integers(1, len(SLIDE_NAMES)))]
    slides = [
        make_slide(
            name,
            POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=6))],
            subtype=draw(st.sampled_from(SUBTYPES)),
        )
        for name in names
    ]
    params = RetcclParams(
        sim_threshold=draw(st.sampled_from([0.5, 0.7, 0.9])),
        k_primary=draw(st.integers(1, 3)),
        fraction=1.0,
        seed=draw(st.integers(0, 3)),
    )
    try:
        db = build_database(slides, params)
    except EmptyInputError:  # every slide was all zero vectors
        db = build_database([make_slide("only", POOL[1:3])], params)
    query = POOL[draw(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=5))]
    dropped = draw(st.sampled_from([None, *SUBTYPES]))
    candidate_filter = None if dropped is None else (lambda sid, lab: lab.subtype != dropped)
    return db, query, candidate_filter, draw(st.integers(1, len(SLIDE_NAMES) + 1))


class TestEquivalenceWithHitObjects:
    @given(tie_corpora())
    @settings(max_examples=150, deadline=None)
    def test_bags_votes_and_patches_match(self, corpus):
        db, query, candidate_filter, k = corpus
        old_db = legacy_db(db)
        new_bags = build_bags(db, query, candidate_filter)
        old_bags = legacy_build_bags(old_db, query, candidate_filter)
        assert len(new_bags) == len(old_bags)
        for new, old in zip(new_bags, old_bags):
            assert new.ordinal == old.ordinal
            assert [
                (hit_slide(db, j), j, score)
                for j, score in zip(new.hits.tolist(), new.scores.tolist())
            ] == [(h.slide_id, h.ordinal, h.score) for h in old.hits]
            assert new.entropy.hex() == old.entropy.hex()
        for rule in (QUALITY_MEDIAN, QUALITY_NONE):
            new_order = filter_and_order_bags(new_bags, rule)
            old_order = legacy_filter_and_order_bags(old_bags, rule)
            assert [b.ordinal for b in new_order] == [b.ordinal for b in old_order]
            assert vote_slides(new_order, db, k) == legacy_vote_slides(old_order, old_db, k)
        assert query_slides(db, query, k, candidate_filter) == legacy_vote_slides(
            legacy_filter_and_order_bags(old_bags, db.params.quality_rule), old_db, k
        )
        for row in query:
            patch = PatchFeature(0, 0, row)
            if not row.any():
                with pytest.raises(UndefinedSimilarityError):
                    query_patches(db, patch, k, candidate_filter)
                continue
            assert query_patches(db, patch, k, candidate_filter) == legacy_query_patches(
                old_db, patch, k, candidate_filter
            )
