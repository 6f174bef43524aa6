"""Barcode engine: bag construction and Hamming ranking."""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.errors import DimensionError, EmptyInputError, ValidationError
from wsisearch.model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideLabels,
    SlideRecord,
    binarize_barcode,
    check_k,
    check_query_dim,
    hamming_distance,
    hamming_matrix,
    patch_ref,
    ranked_result,
)
from wsisearch.yottixel import (
    YottixelDatabase,
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

    def test_empty_prepared_query_rejected(self, two_cluster_db):
        # a median over zero query rows would be NaN for every slide
        _, db = two_cluster_db
        with pytest.raises(EmptyInputError):
            query_slides(db, np.zeros((0, 3), dtype=np.uint8), k=2)

    def test_one_dimensional_prepared_query_rejected(self, two_cluster_db):
        slides, db = two_cluster_db
        with pytest.raises(DimensionError):
            query_slides(db, prepare_query(db, slides[0])[0], k=2)


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


# Ranking as it stood before it became one lexsort: the code below is that
# version's, word for word, except that its names carry a legacy prefix.


def legacy_kept_slides(
    candidate_filter: CandidateFilter | None, slides: Iterable[tuple[str, SlideLabels]]
) -> list[bool]:
    """Per (slide_id, labels), whether the filter keeps it; no filter keeps
    all.  Engines take it once per query, so the filter runs once per
    database slide."""
    return [candidate_filter is None or candidate_filter(*slide) for slide in slides]


def legacy_query_slides(
    db: YottixelDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k slides by ascending median-of-minimum Hamming distance."""
    check_k(k)
    qpacked = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    scores = median_min_hamming(qpacked, db.packed, db.starts)
    kept = legacy_kept_slides(candidate_filter, zip(db.slide_ids, db.labels))
    order = sorted(
        (i for i in range(len(db)) if kept[i]), key=lambda i: (scores[i], db.slide_ids[i])
    )
    hits = ((db.slide_ids[i], db.labels[i], float(scores[i])) for i in order)
    return ranked_result(hits, k, "hamming")


def legacy_query_patches(
    db: YottixelDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k mosaic patches by ascending Hamming distance to one query patch;
    ties go to the lower slide_id, then to the earlier mosaic member."""
    check_k(k)
    check_query_dim(db, patch)
    dists = hamming_matrix(binarize_barcode(patch.feature[None, :]), db.packed)[0]
    owner = np.repeat(np.arange(len(db)), np.diff(db.starts, append=len(db.packed))).tolist()
    kept = legacy_kept_slides(candidate_filter, zip(db.slide_ids, db.labels))
    order = sorted(
        ((r, s) for r, s in enumerate(owner) if kept[s]),
        key=lambda rs: (dists[rs[0]], db.slide_ids[rs[1]], rs[0]),
    )
    hits = (
        (patch_ref(db.slide_ids[s], *db.coords[r].tolist()), db.labels[s], float(dists[r]))
        for r, s in order
    )
    return ranked_result(hits, k, "hamming")


#: Slide ids that numpy's fixed-width strings would confuse: a trailing NUL
#: is dropped there, so "a" and "a\x00" would compare equal.
TIE_NAMES = ["b", "a\x00", "a", "a10", "a2", "\x00"]
#: 8-bit codes; with so few, distances tie across slides all the time
TIE_CODES = np.array([[0b00000000], [0b00001111], [0b11110000], [0b00111100]], dtype=np.uint8)


@st.composite
def tie_databases(draw):
    """(database, query feature, prepared query rows, filter, k): slides
    arrive in a drawn order and share codes drawn from TIE_CODES."""
    names = draw(st.permutations(TIE_NAMES))[: draw(st.integers(1, len(TIE_NAMES)))]
    sizes = [draw(st.integers(1, 4)) for _ in names]
    codes = draw(st.lists(st.integers(0, 3), min_size=sum(sizes), max_size=sum(sizes)))
    subtypes = [draw(st.sampled_from(["gbm", "lgg"])) for _ in names]
    db = YottixelDatabase(
        params=YottixelParams(),
        dim=9,
        code_length=8,
        slide_ids=list(names),
        labels=[SlideLabels("brain", sub, f"pt-{i}") for i, sub in enumerate(subtypes)],
        packed=TIE_CODES[codes],
        coords=np.array([(j, 0) for n in sizes for j in range(n)], dtype=np.int32),
        starts=np.cumsum([0] + sizes[:-1]),
    )
    feature = np.array(draw(st.lists(st.integers(-2, 2), min_size=9, max_size=9)), dtype=np.float32)
    prepared = TIE_CODES[draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))]
    dropped = draw(st.sampled_from([None, "gbm", "lgg"]))
    candidate_filter = None if dropped is None else (lambda sid, lab: lab.subtype != dropped)
    return db, feature, prepared, candidate_filter, draw(st.integers(1, 12))


class TestEquivalenceWithSortedRanking:
    @given(tie_databases())
    @settings(max_examples=150, deadline=None)
    def test_patch_and_slide_rankings_match(self, case):
        db, feature, prepared, candidate_filter, k = case
        patch = PatchFeature(0, 0, feature)
        assert query_patches(db, patch, k, candidate_filter) == legacy_query_patches(
            db, patch, k, candidate_filter
        )
        assert query_slides(db, prepared, k, candidate_filter) == legacy_query_slides(
            db, prepared, k, candidate_filter
        )

    def test_trailing_nul_ids_keep_python_order(self):
        db = YottixelDatabase(
            params=YottixelParams(),
            dim=9,
            code_length=8,
            slide_ids=["a\x00", "a"],
            labels=[SlideLabels("brain", "gbm", "p0"), SlideLabels("brain", "gbm", "p1")],
            packed=TIE_CODES[[0, 0]],
            coords=np.zeros((2, 2), dtype=np.int32),
            starts=np.array([0, 1]),
        )
        res = query_slides(db, TIE_CODES[:1], k=2)
        assert res.target_ids() == ["a", "a\x00"]
        patch = PatchFeature(0, 0, np.zeros(9, dtype=np.float32))  # barcode of all zeros
        assert [e.target_id for e in query_patches(db, patch, k=2).entries] == ["a:0,0", "a\x00:0,0"]
