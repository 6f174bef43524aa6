"""Cosine-bag engine: bag construction, quality filtering, bag voting."""
from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.dataio import load_database, save_database
from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    UndefinedSimilarityError,
    ValidationError,
)
from wsisearch import retccl
from wsisearch.mosaic import SUBNORMAL_SLACK, UNIT_ROUNDOFF
from wsisearch.model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideLabels,
    check_k,
    check_query_dim,
    check_query_rows,
    label_entropy,
    patch_ref,
    subtype_codes,
)
from wsisearch.retccl import (
    QUALITY_MEDIAN,
    QUALITY_NONE,
    TOP_HITS,
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

from wsisearch.synth import SyntheticSpec, generate

from util import make_slide, ranked_patches, ranked_result


def reference_scores(db: RetcclDatabase, feature) -> np.ndarray:
    """The reference score of every database row against one query row,
    one pair at a time: ``clip((u * v).sum(), -1, 1)`` of the unit vectors."""
    vec = np.asarray(feature, dtype=np.float64)
    unit = vec / np.linalg.norm(vec)
    return np.array([np.clip((u * unit).sum(), -1.0, 1.0) for u in db.unit_features])


def reference_order(scores: np.ndarray, rows) -> list[int]:
    """``rows`` by descending score, ties by row."""
    return sorted((int(j) for j in rows), key=lambda j: (-scores[j], j))


def assert_bag(db: RetcclDatabase, bag: Bag, order: Sequence[int], scores) -> None:
    """``bag`` keeps the contract for the hits ``order``, given by reference
    score descending, then row: the same hit set, its first TOP_HITS rows in
    that order with their reference ``scores`` (indexed by row), the other
    rows ascending, and the entropy of their subtypes."""
    hits = bag.hits.tolist()
    assert sorted(hits) == sorted(order) and len(hits) == len(order)
    assert hits[:TOP_HITS] == list(order[:TOP_HITS])
    assert hits[TOP_HITS:] == sorted(hits[TOP_HITS:])
    assert bag.scores.tolist() == [scores[j] for j in order[:TOP_HITS]]
    codes = subtype_codes(db.labels)[db.slide[np.asarray(order, dtype=np.int64)]]
    assert bag.entropy.hex() == (label_entropy(codes) if len(order) else math.inf).hex()


def label_db(slide_subtypes: dict[str, str], row_slides: list[str]) -> RetcclDatabase:
    """Label-only database for exercising vote_slides in isolation: row j
    belongs to slide row_slides[j]."""
    slide_ids = sorted(slide_subtypes)
    return RetcclDatabase(
        params=RetcclParams(),
        dim=4,
        slide_ids=slide_ids,
        labels=[SlideLabels("brain", slide_subtypes[sid], f"pt-{sid}") for sid in slide_ids],
        features=np.zeros((len(row_slides), 4), dtype=np.float32),
        norms=np.ones(len(row_slides)),
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

    def test_store_is_row_major_after_build_and_reload(self, axis_db, tmp_path):
        slides, db = axis_db
        assert db.features.dtype == np.float32 and db.norms.dtype == np.float64
        assert db.features.flags.c_contiguous and not db.features.flags.f_contiguous
        # the stored rows are the mosaic's float32 rows themselves (fraction 1.0)
        rows = np.concatenate([s.features for s in slides])
        assert np.array_equal(db.features, rows)
        assert db.norms.tolist() == [np.linalg.norm(row.astype(np.float64)) for row in rows]
        save_database(tmp_path / "r.db", "retccl", db)
        _, loaded = load_database(tmp_path / "r.db")
        assert loaded.features.flags.c_contiguous
        assert loaded.features.tobytes() == db.features.tobytes()
        assert loaded.norms.tobytes() == db.norms.tobytes()
        assert "unit_features" not in vars(loaded)  # derived, never pickled
        # derived once, at build, and pickled with the rows
        for name in ("subtype_code", "starts", "centres", "cos_radius", "sin_radius", "min_norm"):
            assert name in vars(loaded)
            assert getattr(loaded, name).tobytes() == getattr(db, name).tobytes()

    def test_tiny_nonzero_rows_are_kept(self):
        """A row of components 1e-30 has a float32 norm of 0 but is no zero
        vector: build, query preparation and patch queries all keep it."""
        rng = np.random.default_rng(8)
        tiny = np.full((6, 16), 1e-30, dtype=np.float32)
        tiny[:, :4] += 1e-30 * rng.random((6, 4)).astype(np.float32)
        assert (np.linalg.norm(tiny, axis=1) == 0.0).all()
        slides = [make_slide("tiny", tiny), make_slide("plain", rng.normal(size=(6, 16)))]
        db = build_database(slides, RetcclParams(fraction=1.0, seed=0))
        assert db.n_patches == 12 and db.slide.tolist() == [0] * 6 + [1] * 6
        assert (db.norms[db.slide == 1] > 0.0).all()
        query = make_slide("q", tiny[:3])
        assert len(retccl.prepare_query(db, query)) == 3
        patches = retccl.query_patch_set(db, query)
        assert len(patches) == 3
        result = query_patches(db, patches[0], k=2)
        assert result.entries[0].target_id.startswith("tiny:")
        assert result.entries[0].score == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 7, 16, 64, 256, 512, 1000])
    def test_row_norms_are_per_row_norms_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        rows = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-12, 13, size=(40, 1))
        expected = [np.linalg.norm(vec) for vec in rows]
        assert retccl._row_norms(rows).tolist() == expected


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
            expected = reference_scores(db, slides[3].features[b.ordinal])
            order = reference_order(expected, np.flatnonzero(expected >= db.params.sim_threshold))
            assert len(order) > TOP_HITS
            assert_bag(db, b, order, expected)

    def test_entropy_does_not_depend_on_hit_order(self):
        """The entropy reads only the subtypes' hit counts: whichever
        subtype's hits score best, its bits are the same, though a sum in
        order of each subtype's best hit gives two values."""
        query = np.array([1.0, 0.0, 0.0, 0.0])

        def at(cosine, n):
            return [[cosine, np.sqrt(1 - cosine**2), 0.0, 0.0]] * n

        counts, cosines = [1, 2, 3, 5], [0.75, 0.80, 0.90, 0.99]
        want = label_entropy(np.repeat(np.arange(4), counts))
        in_hit_order = set()
        for ranks in itertools.permutations(range(4)):
            rows = [r for n, rank in zip(counts, ranks) for r in at(cosines[rank], n)]
            db = store_db(rows, np.repeat(np.arange(4), counts), ["a", "b", "c", "d"])
            (bag,) = build_bags(db, query[None, :])
            assert len(bag.hits) == 11 and bag.entropy.hex() == want.hex()
            by_best_hit = [n for _, n in sorted(zip(ranks, counts), reverse=True)]
            in_hit_order.add((-sum((n / 11) * math.log(n / 11) for n in by_best_hit)).hex())
        assert len(in_hit_order) == 2

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
    def bag(self, ordinal, scores, codes):
        entropy = label_entropy(np.array(codes)) if codes else math.inf
        return bag(ordinal, list(range(len(scores))), scores, entropy)

    def test_entropy_ordering(self):
        noisy = self.bag(0, [0.9, 0.9], [0, 1])
        clean = self.bag(1, [0.9, 0.9], [0, 0])
        ordered = filter_and_order_bags([noisy, clean], QUALITY_NONE)
        assert [b.ordinal for b in ordered] == [1, 0]

    def test_single_bag_survives_median_rule(self):
        only = self.bag(0, [0.8], [0])
        assert filter_and_order_bags([only], QUALITY_MEDIAN) == [only]

    def test_weak_bag_removed_by_median_rule(self):
        weak = self.bag(0, [0.71, 0.70], [0, 0])
        strong = self.bag(1, [0.99, 0.98], [0, 0])
        ordered = filter_and_order_bags([weak, strong], QUALITY_MEDIAN)
        assert [b.ordinal for b in ordered] == [1]

    def test_quality_none_keeps_weak_bags(self):
        weak = self.bag(0, [0.71], [0])
        strong = self.bag(1, [0.99], [0])
        assert len(filter_and_order_bags([weak, strong], QUALITY_NONE)) == 2

    def test_empty_bags_always_dropped(self):
        assert filter_and_order_bags([bag(0, [], [], math.inf)], QUALITY_NONE) == []

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError):
            filter_and_order_bags([self.bag(0, [0.9], [0])], "strictest")


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

    def test_k_checked_before_any_bag(self, axis_db, monkeypatch):
        slides, db = axis_db

        def refuse(*args, **kwargs):
            raise AssertionError("build_bags ran before k was checked")

        monkeypatch.setattr(retccl, "build_bags", refuse)
        with pytest.raises(ValidationError):
            query_slides(db, slides[0], k=0)

    def test_dim_mismatch_rejected(self, axis_db):
        _, db = axis_db
        with pytest.raises(DimensionError):
            query_patches(db, PatchFeature(0, 0, np.ones(5, dtype=np.float32)), k=2)


# The engine as it stood before bags became row arrays: the code below is
# that version's, word for word, except that its names carry a legacy
# prefix and that it scores with the reference formula (reference_scores).
# It reads per-row slide ids and a label dict, which legacy_db derives from
# a database's columns.


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
        scores = reference_scores(db, vec)
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
        codes = np.unique([h.subtype for h in hits], return_inverse=True)[1]
        entropy = label_entropy(codes) if hits else math.inf
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
    return ranked_result(nominees, k)


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
    scores = reference_scores(db, vec)
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
    return ranked_result(hits, k)


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
            # the legacy bag orders all hits; the new one keeps the contract
            scores = {h.ordinal: h.score for h in old.hits}
            assert_bag(db, new, [h.ordinal for h in old.hits], scores)
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


# The engine's scoring before one GEMM scored a whole query: one GEMV per
# query row over a row-major store, as that version's build_bags and
# query_patches did it.  In a GEMM over the store BLAS sums in another
# order, which can flip an exact tie the oracle's answer depends on.


def gemv_scores(db: RetcclDatabase, feature: np.ndarray) -> np.ndarray | None:
    vec = feature.astype(np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        return None
    return np.clip(np.ascontiguousarray(db.unit_features) @ (vec / norm), -1.0, 1.0)


def gemv_build_bags(
    db: RetcclDatabase, query_features: np.ndarray, candidate_filter: CandidateFilter | None = None
) -> list[Bag]:
    mask = db.kept(candidate_filter)[db.slide]
    codes = subtype_codes(db.labels)
    bags: list[Bag] = []
    for i, row in enumerate(query_features):
        scores = gemv_scores(db, row)
        if scores is None:
            bags.append(Bag(i, np.empty(0, dtype=np.int64), np.empty(0), math.inf))
            continue
        rows = np.flatnonzero((scores >= db.params.sim_threshold) & mask)
        hits = rows[np.argsort(-scores[rows], kind="stable")]
        entropy = label_entropy(codes[db.slide[hits]]) if len(hits) else math.inf
        bags.append(Bag(i, hits, scores[hits], entropy))
    return bags


def gemv_query_patches(
    db: RetcclDatabase, patch: PatchFeature, k: int, candidate_filter: CandidateFilter | None = None
) -> RetrievalResult:
    scores = gemv_scores(db, patch.feature)
    rows = np.flatnonzero(db.kept(candidate_filter)[db.slide])
    top = rows[np.argsort(-scores[rows], kind="stable")][:k]
    return ranked_patches(db, top, scores[top], k)


def reference_patches(db, patch, k, candidate_filter=None) -> RetrievalResult:
    scores = reference_scores(db, patch.feature)
    top = np.array(
        reference_order(scores, np.flatnonzero(db.kept(candidate_filter)[db.slide]))[:k],
        dtype=np.int64,
    )
    return ranked_patches(db, top, scores[top], k)


class TestAgainstPerRowGemv:
    @given(tie_corpora())
    @settings(max_examples=150, deadline=None)
    def test_same_hits_and_entropies_reference_scores(self, corpus):
        db, query, candidate_filter, k = corpus
        new_bags = build_bags(db, query, candidate_filter)
        old_bags = gemv_build_bags(db, query, candidate_filter)
        for new, old, row in zip(new_bags, old_bags, query, strict=True):
            expected = reference_scores(db, row) if row.any() else {}
            assert_bag(db, new, old.hits.tolist(), expected)
            assert new.entropy.hex() == old.entropy.hex()
        for row in query[query.any(axis=1)]:
            patch = PatchFeature(0, 0, row)
            new = query_patches(db, patch, k, candidate_filter)
            assert new.target_ids() == gemv_query_patches(db, patch, k, candidate_filter).target_ids()
            assert new == reference_patches(db, patch, k, candidate_filter)


# The engine before its store became float32: its _estimates, _reference,
# _ranked, build_bags and query_patches word for word, except that their names
# carry an oracle prefix and that they read a float64 unit store (the
# database's unit_features, made once per call) in place of the database.
# It ranks every hit of a bag; the engine orders only the top hits.


def oracle_estimates(store: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    units = features.astype(np.float64)
    norms = retccl._row_norms(units)
    np.divide(units, norms[:, None], out=units, where=norms[:, None] > 0.0)
    est = units @ store.T
    np.clip(est, -1.0, 1.0, out=est)
    d = units.shape[1]
    err = 4 * (d + 2) * UNIT_ROUNDOFF * np.sqrt((units * units).sum(axis=1)) + d * SUBNORMAL_SLACK
    return units, est, err


def oracle_reference(store: np.ndarray, rows: np.ndarray, unit: np.ndarray) -> np.ndarray:
    return np.clip((store[rows] * unit).sum(axis=1), -1.0, 1.0)


def oracle_ranked(
    store: np.ndarray, unit: np.ndarray, est: np.ndarray, err: float, rows: np.ndarray, limit: int
) -> np.ndarray:
    scores = est[rows]
    if limit < len(rows):
        near = ~(scores < np.partition(scores, len(rows) - limit)[len(rows) - limit] - 2 * err)
        rows, scores = rows[near], scores[near]
    order = np.argsort(-scores, kind="stable")
    ranked, key = rows[order], scores[order]
    apart = key[:-1] - key[1:] > 2 * err
    if not apart.all():
        doubt = np.append(~apart, False) | np.insert(~apart, 0, False)
        key[doubt] = oracle_reference(store, ranked[doubt], unit)
        ranked = ranked[np.lexsort((ranked, -key, np.concatenate(([0], np.cumsum(apart)))))]
    return ranked


def oracle_build_bags(
    db: RetcclDatabase, query_features: np.ndarray, candidate_filter: CandidateFilter | None = None
) -> list[Bag]:
    store = db.unit_features
    check_query_rows(query_features, db.dim)
    mask = db.kept(candidate_filter)[db.slide]
    codes = subtype_codes(db.labels)
    threshold = db.params.sim_threshold
    units, est, err = oracle_estimates(store, query_features)
    bags = []
    for i, (unit, scores, bound) in enumerate(zip(units, est, err)):
        rows = np.flatnonzero(~(scores + bound < threshold) & mask)
        drop = ~(scores[rows] - bound >= threshold)
        if drop.any():
            drop[drop] = oracle_reference(store, rows[drop], unit) < threshold
        hits = oracle_ranked(store, unit, scores, bound, rows[~drop], len(rows))
        entropy = label_entropy(codes[db.slide[hits]]) if len(hits) else math.inf
        bags.append(Bag(i, hits, oracle_reference(store, hits[:TOP_HITS], unit), entropy))
    return bags


def oracle_query_patches(
    db: RetcclDatabase, patch: PatchFeature, k: int, candidate_filter: CandidateFilter | None = None
) -> RetrievalResult:
    store = db.unit_features
    check_k(k)
    check_query_dim(db, patch)
    if not patch.feature.any():
        raise UndefinedSimilarityError("cosine similarity is undefined for a zero vector")
    (unit,), est, err = oracle_estimates(store, patch.feature[None, :])
    rows = np.flatnonzero(db.kept(candidate_filter)[db.slide])
    top = oracle_ranked(store, unit, est[0], err[0], rows, k)[:k]
    return ranked_patches(db, top, oracle_reference(store, top, unit), k)


def store_db(rows: np.ndarray, slide: Sequence[int], subtypes: Sequence[str]) -> RetcclDatabase:
    """A database over float32 ``rows`` as build_database stores them, row
    j in slide ``slide[j]`` (ascending); slide i is named ``s{i}`` and has
    subtype ``subtypes[i]``."""
    rows = np.asarray(rows, dtype=np.float32)
    return RetcclDatabase(
        params=RetcclParams(),
        dim=rows.shape[1],
        slide_ids=[f"s{i}" for i in range(len(subtypes))],
        labels=[SlideLabels("brain", subtype, f"pt-{i}") for i, subtype in enumerate(subtypes)],
        features=np.ascontiguousarray(rows),
        norms=retccl._row_norms(rows.astype(np.float64)),
        slide=np.asarray(slide, dtype=np.int64),
        coords=np.stack([np.arange(len(rows)), np.zeros(len(rows), dtype=int)], axis=1).astype(np.int32),
    )


#: row magnitudes: subnormal in float32, where products underflow, tiny,
#: plain, huge, and near float32's maximum, where float32 sums overflow
MAGNITUDES = [1e-40, 1e-30, 1.0, 1e30, "max"]


def scaled(vec: np.ndarray, magnitude) -> np.ndarray:
    """``vec`` in float32 at ``magnitude``; near float32's maximum, its largest
    component is 3e38."""
    if magnitude == "max":
        magnitude = 3e38 / np.abs(vec).max() if vec.any() else 1.0
    return (vec * magnitude).astype(np.float32)


@st.composite
def float32_stores(draw):
    """(database, query rows, candidate filter, k): database rows drawn from
    a few vectors, most of them at cosine 0.70 to the first query row to
    within 1e-6, and repeated across slides at one magnitude (exact ties) or
    several; query rows of every magnitude, zero rows among them."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = rng.normal(size=d)
    axis /= np.linalg.norm(axis)
    pool = []
    for _ in range(draw(st.integers(1, 6))):
        off = rng.normal(size=d)
        off -= (off @ axis) * axis
        off /= np.linalg.norm(off)
        near = 0.7 * axis + np.sqrt(0.51) * off + 1e-7 * rng.normal(size=d)
        pool.append(draw(st.sampled_from([near, near, rng.normal(size=d)])))
    magnitudes = st.sampled_from(MAGNITUDES)
    rows, slide, subtypes = [], [], []
    for i in range(draw(st.integers(1, 5))):
        subtypes.append(draw(st.sampled_from(SUBTYPES)))
        for j in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6)):
            rows.append(scaled(pool[j], draw(magnitudes)))
            slide.append(i)
    db = store_db(rows, slide, subtypes)
    query = [scaled(axis, draw(magnitudes))]
    for _ in range(draw(st.integers(0, 3))):
        vec = draw(st.sampled_from([axis, -axis, np.zeros(d), *pool]))
        query.append(scaled(vec + 1e-7 * rng.normal(size=d) * vec.any(), draw(magnitudes)))
    dropped = draw(st.sets(st.sampled_from(db.slide_ids)))
    candidate_filter = (lambda sid, lab: sid not in dropped) if dropped else None
    return db, np.stack(query), candidate_filter, draw(st.integers(1, len(rows) + 2))


class TestAgainstFloat64Oracle:
    @given(float32_stores())
    @settings(max_examples=300, deadline=None)
    def test_top_rows_scores_hit_sets_and_entropies_match(self, corpus):
        db, query, candidate_filter, k = corpus
        new_bags = build_bags(db, query, candidate_filter)
        old_bags = oracle_build_bags(db, query, candidate_filter)
        for new, old in zip(new_bags, old_bags, strict=True):
            assert len(new.hits) == len(old.hits)
            assert sorted(new.hits.tolist()) == sorted(old.hits.tolist())
            assert new.hits[:TOP_HITS].tolist() == old.hits[:TOP_HITS].tolist()
            assert new.scores.tobytes() == old.scores.tobytes()
            assert new.entropy.hex() == old.entropy.hex()
        assert query_slides(db, query, k, candidate_filter) == vote_slides(
            filter_and_order_bags(old_bags, db.params.quality_rule), db, k
        )
        for row in query[query.any(axis=1)]:
            patch = PatchFeature(0, 0, row)
            assert query_patches(db, patch, k, candidate_filter) == oracle_query_patches(
                db, patch, k, candidate_filter
            )

    def test_overflowing_rows_are_scored_by_the_reference(self):
        rng = np.random.default_rng(3)
        vec = np.abs(rng.normal(size=32)) + 1.0
        rows = [scaled(vec, "max"), scaled(-vec, "max"), scaled(vec, 1.0)]
        db = store_db(rows, [0, 0, 1], ["gbm", "lgg"])
        units = retccl._unit_rows(vec[None, :].astype(np.float32))
        rows, est, _ = retccl._estimates(db, units, np.arange(len(db)))
        assert rows.tolist() == [0, 1, 2]
        with np.errstate(over="ignore"):
            assert not np.isfinite(units.astype(np.float32) @ db.features[:2].T).any()
        assert est[0, :2].tolist() == retccl._reference(db, np.arange(2), units[0]).tolist()
        (bag,) = build_bags(db, vec[None, :])
        assert sorted(bag.hits.tolist()) == [0, 2] and bag.scores[0] == pytest.approx(1.0)


def edge_query(db: RetcclDatabase, s: int, angle: float) -> np.ndarray:
    """A unit float64 row at ``angle`` beyond the edge of slide ``s``'s cone:
    in the plane of its direction c and its row v furthest from c, on the far
    side of c from v, at angle r + ``angle`` from c (r the angle of v to c),
    so at ``angle`` from v."""
    c = db.centres[s]
    units = db.unit_features[db.starts[s]:db.starts[s + 1]]
    v = units[np.argmin(units @ c)]
    r = math.acos(min(1.0, float(v @ c)))
    w = v - (v @ c) * c
    if not np.linalg.norm(w) > 1e-12:  # v lies along c: any orthogonal direction
        w = np.roll(c, 1) - (np.roll(c, 1) @ c) * c
    w /= np.linalg.norm(w)
    return math.cos(r + angle) * c + math.sin(r + angle) * w


@st.composite
def cone_stores(draw):
    """(database, query rows, candidate filter, k): slides whose rows spread
    around one direction each, at assorted magnitudes, and query rows at
    arccos(threshold) beyond a slide's cone edge, whose edge row scores the
    threshold itself, next to rows near a slide and random rows."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = st.sampled_from(MAGNITUDES)
    rows, slide, subtypes = [], [], []
    for i in range(draw(st.integers(1, 5))):
        subtypes.append(draw(st.sampled_from(SUBTYPES)))
        axis = rng.normal(size=d)
        spread = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
        for _ in range(draw(st.integers(1, 6))):
            rows.append(scaled(axis / np.linalg.norm(axis) + spread * rng.normal(size=d),
                               draw(magnitudes)))
            slide.append(i)
    db = store_db(rows, slide, subtypes)
    beyond = math.acos(db.params.sim_threshold)
    query = []
    for _ in range(draw(st.integers(1, 4))):
        s = draw(st.integers(0, len(subtypes) - 1))
        kind = draw(st.sampled_from(["edge", "edge", "inside", "random"]))
        if kind == "edge":
            vec = edge_query(db, s, beyond + draw(st.sampled_from([0.0, 1e-9, -1e-9])))
        elif kind == "inside":
            vec = edge_query(db, s, draw(st.floats(-1.0, 1.0)))
        else:
            vec = rng.normal(size=d)
        query.append(scaled(vec, draw(magnitudes)))
    dropped = draw(st.sets(st.sampled_from(db.slide_ids)))
    candidate_filter = (lambda sid, lab: sid not in dropped) if dropped else None
    return db, np.stack(query), candidate_filter, draw(st.integers(1, len(rows) + 2))


def clustered_db() -> tuple[RetcclDatabase, np.ndarray]:
    """Eight slides of 40 rows, each spread about its own direction of
    R^64, and query rows near slide 3's direction."""
    rng = np.random.default_rng(17)
    axes = rng.normal(size=(8, 64))
    rows = np.concatenate([a + 0.3 * np.linalg.norm(a) / 8 * rng.normal(size=(40, 64)) for a in axes])
    db = store_db(rows, np.repeat(np.arange(8), 40), SUBTYPES * 2 + SUBTYPES[:2])
    return db, (axes[3] + 0.5 * rng.normal(size=(5, 64))).astype(np.float32)


class TestConePruning:
    """A slide is screened only where its cone bound reaches the threshold
    or the floor under the k-th score, and pruning changes no result."""

    @given(cone_stores())
    @settings(max_examples=300, deadline=None)
    def test_pruned_queries_match_the_float64_oracle(self, corpus):
        db, query, candidate_filter, k = corpus
        new_bags = build_bags(db, query, candidate_filter)
        old_bags = oracle_build_bags(db, query, candidate_filter)
        for new, old in zip(new_bags, old_bags, strict=True):
            assert sorted(new.hits.tolist()) == sorted(old.hits.tolist())
            assert new.hits[:TOP_HITS].tolist() == old.hits[:TOP_HITS].tolist()
            assert new.scores.tobytes() == old.scores.tobytes()
            assert new.entropy.hex() == old.entropy.hex()
        for row in query[query.any(axis=1)]:
            patch = PatchFeature(0, 0, row)
            assert query_patches(db, patch, k, candidate_filter) == oracle_query_patches(
                db, patch, k, candidate_filter
            )

    def test_rows_lie_inside_their_cones(self):
        db, _ = clustered_db()
        for s in range(len(db)):
            rows = np.arange(db.starts[s], db.starts[s + 1])
            assert (retccl._reference(db, rows, db.centres[s]) >= db.cos_radius[s]).all()
        assert db.cos_radius.min() > 0.5

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64))
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_at_the_exact_radius(self, seed, d):
        """With cos r the least exact cosine of c with a row (taken in long
        double and rounded down), without the margins of the float32 screen,
        every query row at the cone's edge still gets a bound at or above
        each row's reference score."""
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=d)
        rows = axis + rng.uniform(0.01, 1.0) * np.linalg.norm(axis) * rng.normal(size=(6, d))
        db = store_db(rows / math.sqrt(d), np.zeros(6, dtype=int), ["gbm"])
        f = db.features.astype(np.longdouble)
        c = db.centres[0].astype(np.longdouble)
        least = ((f @ c) / np.sqrt((f * f).sum(axis=1) * (c @ c))).min()
        cos_r = np.nextafter(np.nextafter(np.float64(least), -2.0), -2.0)
        db.cos_radius = np.array([cos_r])
        db.sin_radius = np.sqrt((1.0 - db.cos_radius) * (1.0 + db.cos_radius))
        for angle in rng.uniform(0.0, math.pi, size=8):
            unit = retccl._unit_rows(edge_query(db, 0, angle)[None, :])
            bound = retccl._cone_bounds(db, unit)[0, 0]
            assert bound >= retccl._reference(db, np.arange(6), unit[0]).max()

    def test_bound_holds_opposite_the_cone_at_the_exact_radius(self):
        """The slack on u . c: with c = e1 and the query row u = (-1, 1e-9),
        u . c is -1 exactly, while the exact cosine of u and c is
        -1 + 5e-19, so the angle it gives is off by 1e-9 where the bound is
        steepest in it.  Without the slack the bound falls 1e-9 below the
        score of the edge row nearest u, and the bag at that score is empty."""
        rows = np.array([[8.0, 0.0], [-1.0, 4.0], [-1.0, -4.0]])  # w * 4 is exact, so c = e1
        db = store_db(rows, np.zeros(3, dtype=int), ["gbm"])
        assert db.centres[0].tolist() == [1.0, 0.0]
        cos_r = np.nextafter(np.float64(-1 / np.sqrt(np.longdouble(17))), -2.0)
        db.cos_radius = np.array([cos_r])
        db.sin_radius = np.sqrt((1.0 - db.cos_radius) * (1.0 + db.cos_radius))
        query = np.array([[-1.0, 1e-9]])
        unit = retccl._unit_rows(query)
        score = retccl._reference(db, np.array([1]), unit[0])[0]
        assert (unit @ db.centres.T).tolist() == [[-1.0]]
        assert retccl._cone_bounds(db, unit)[0, 0] >= score
        db.params = RetcclParams(sim_threshold=float(score))
        (bag,) = build_bags(db, query)
        assert bag.hits.tolist() == [1]

    def test_cos_radius_holds_below_the_exact_cosine(self, monkeypatch):
        """The e in ``_cones``' cos r: for rows (a, +-2^j) c is e1 exactly
        and the screen a / norm is exact, so its bound may be taken as 0.
        The float64 score can then round above the exact cosine
        a / sqrt(a^2 + 4^j); cos r must not."""
        monkeypatch.setattr(retccl, "_query_err", lambda units: np.zeros(len(units)))
        monkeypatch.setattr(retccl, "_slide_err", lambda d, min_norm: np.zeros_like(min_norm))
        pairs = [(5, 1), (8, 1), (22, 1), (7, 1), (3, 2)]
        rows = [[a, sign * b] for a, b in pairs for sign in (1, -1)]
        db = store_db(rows, np.repeat(np.arange(len(pairs)), 2), ["gbm"] * len(pairs))
        assert db.centres.tolist() == [[1.0, 0.0]] * len(pairs)
        above = 0
        for (a, b), cos_r, norm in zip(pairs, db.cos_radius, db.norms[::2]):
            exact_squared = Fraction(a * a, a * a + b * b)
            above += Fraction(a / norm) ** 2 > exact_squared
            assert cos_r > 0 and Fraction(float(cos_r)) ** 2 <= exact_squared
        assert above >= 3  # scores that round above the exact cosine

    def test_edge_row_at_the_threshold_is_a_hit(self):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=16)
        rows = axis + 0.3 * np.linalg.norm(axis) / 4 * rng.normal(size=(12, 16))
        db = store_db(rows, np.zeros(12, dtype=int), ["gbm"])
        query = edge_query(db, 0, math.acos(0.7) - 1e-6)
        bound = retccl._cone_bounds(db, query[None, :])[0, 0]
        assert 0.7 <= bound < 0.7 + 1e-5
        (bag,) = build_bags(db, query[None, :])
        scores = reference_scores(db, query)
        assert len(bag.hits) == 1 and scores[bag.hits[0]] >= 0.7

    def test_fewer_rows_screened_than_stored(self, monkeypatch):
        db, query = clustered_db()
        screened = []
        estimates = retccl._estimates

        def spy(db, units, slides):
            out = estimates(db, units, slides)
            screened.append(len(out[0]))
            return out

        monkeypatch.setattr(retccl, "_estimates", spy)
        bags = build_bags(db, query)
        assert screened == [40] and sum(len(b.hits) for b in bags) > 0
        for row in query:
            screened.clear()
            result = query_patches(db, PatchFeature(0, 0, row), 10)
            assert sum(screened) < db.n_patches
            assert result == oracle_query_patches(db, PatchFeature(0, 0, row), 10)
        for new, old in zip(bags, oracle_build_bags(db, query), strict=True):
            assert sorted(new.hits.tolist()) == sorted(old.hits.tolist())
            assert new.hits[:TOP_HITS].tolist() == old.hits[:TOP_HITS].tolist()


class TestPerSlideUnderflowTerm:
    def test_subnormal_slide_leaves_other_slides_alone(self, recomputed):
        """One slide of 1e-40 rows widens the screen's bound of its own rows
        only: the other slides keep their bounds and reference calls."""
        rng = np.random.default_rng(8)
        d = 256
        query = rng.normal(size=d)
        query /= np.linalg.norm(query)
        rows = []
        for delta in rng.uniform(-1e-3, 1e-3, size=60):
            off = rng.normal(size=d)
            off -= (off @ query) * query
            off /= np.linalg.norm(off)
            cos = 0.7 + delta
            rows.append(cos * query + math.sqrt(1 - cos * cos) * off)
        tiny = [scaled(r, 1e-40) for r in rows[:10]]
        plain = store_db(rows, np.repeat([0, 1], 30), ["gbm", "lgg"])
        grown = store_db(rows + tiny, np.repeat([0, 1, 2], [30, 30, 10]), ["gbm", "lgg", "luad"])
        units = retccl._unit_rows(query[None, :])
        _, _, err = retccl._estimates(plain, units, np.arange(2))
        _, _, grown_err = retccl._estimates(grown, units, np.arange(3))
        assert grown_err[0, :60].tolist() == err[0].tolist()
        assert grown_err[0, 60:].min() > 10 * err[0].max()

        def calls(db):
            recomputed.clear()
            build_bags(db, query[None, :])
            query_patches(db, PatchFeature(0, 0, query), 7)
            return sorted(j for call in recomputed for j in call if j < 60)

        assert calls(grown) == calls(plain) and len(calls(plain)) < 30


@pytest.fixture
def recomputed(monkeypatch):
    """Every row the engine scores with the reference formula, per call."""
    calls: list[list[int]] = []
    reference = retccl._reference

    def spy(db, rows, unit):
        calls.append(np.asarray(rows).tolist())
        return reference(db, rows, unit)

    monkeypatch.setattr(retccl, "_reference", spy)
    return calls


def near_tie_db() -> tuple[RetcclDatabase, np.ndarray]:
    """200 float32 rows, four slides of 50, that differ from one vector in
    the last bits, plus a query row whose reference scores against them lie
    within 1e-6 of each other: far closer than the float32 screen can tell
    apart."""
    rng = np.random.default_rng(12)
    base = rng.normal(size=64)
    rows = (base + 1e-6 * np.abs(base) * rng.normal(size=(200, 64))).astype(np.float32)
    slide_ids = ["s0", "s1", "s2", "s3"]
    db = RetcclDatabase(
        params=RetcclParams(sim_threshold=0.5),
        dim=64,
        slide_ids=slide_ids,
        labels=[SlideLabels("brain", ("gbm", "lgg")[i % 2], f"pt-{i}") for i in range(4)],
        features=np.ascontiguousarray(rows),
        norms=retccl._row_norms(rows.astype(np.float64)),
        slide=np.repeat(np.arange(4), 50),
        coords=np.stack([np.arange(200) % 50, np.zeros(200, dtype=int)], axis=1).astype(np.int32),
    )
    return db, base + 0.4 * rng.normal(size=64)


class TestCertifiedRechecks:
    def test_near_tied_hits_follow_the_reference(self, recomputed):
        db, query = near_tie_db()
        scores = reference_scores(db, query)
        assert len(np.unique(scores)) > 10  # distinct scores, a few ulps apart
        assert np.ptp(scores) < 1e-6
        (bag,) = build_bags(db, query[None, :])
        assert_bag(db, bag, reference_order(scores, range(200)), scores)
        assert set(sum(recomputed, [])) == set(range(200))
        for k in (1, 7, 60):
            patch = PatchFeature(0, 0, query)
            assert query_patches(db, patch, k) == reference_patches(db, patch, k)

    def test_threshold_equal_to_an_attained_score(self, recomputed):
        db, query = near_tie_db()
        scores = reference_scores(db, query)
        threshold = float(np.sort(scores)[100])  # half the rows reach it exactly or above
        db = dataclasses.replace(db, params=RetcclParams(sim_threshold=threshold))
        (bag,) = build_bags(db, query[None, :])
        expected = reference_order(scores, np.flatnonzero(scores >= threshold))
        assert_bag(db, bag, expected, scores)
        assert len(expected) >= 100 and scores[expected[-1]] == threshold
        assert set(recomputed[0]) == set(range(200))  # every row sat within the bound

    def test_duplicated_slides_tie_exactly_lower_slide_id_first(self, recomputed):
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(10, 48)).astype(np.float32)
        slides = [
            make_slide("copy-b", feats),
            make_slide("copy-a", feats, subtype="lgg"),
            make_slide("other", rng.normal(size=(10, 48))),
        ]
        db = build_database(slides, RetcclParams(sim_threshold=0.3, fraction=1.0, seed=0))
        n = len(feats)
        query = feats[:4] + 0.3 * rng.normal(size=(4, 48)).astype(np.float32)
        for bag, row in zip(build_bags(db, query), query):
            scores = reference_scores(db, row)
            order = reference_order(scores, np.flatnonzero(scores >= 0.3))
            copies = [j for j in order if j < 2 * n]
            # each copy-a row (rows 0..n-1) ties with its copy-b twin and comes first
            assert copies[0::2] == [j - n for j in copies[1::2]] and max(copies[0::2]) < n
            assert_bag(db, bag, order, scores)
        tied = {j for call in recomputed for j in call}
        top = build_bags(db, query)
        assert tied >= {j for bag in top for j in bag.hits[:TOP_HITS].tolist() if j < 2 * n}
        for k in (1, 3):  # the cut falls inside a tie
            patch = PatchFeature(0, 0, query[0])
            result = query_patches(db, patch, k)
            assert result == reference_patches(db, patch, k)
            assert result.entries[0].target_id.startswith("copy-a:")


def answers(db: RetcclDatabase, query: np.ndarray, candidate_filter, ks) -> list:
    """Every bag (hits, score bits, entropy), slide vote and patch result
    of ``query`` against ``db``."""
    out: list = [
        (b.hits.tolist(), b.scores.tobytes(), b.entropy.hex())
        for b in build_bags(db, query, candidate_filter)
    ]
    for k in ks:
        out.append(query_slides(db, query, k, candidate_filter))
        out += [
            query_patches(db, PatchFeature(0, 0, row), k, candidate_filter)
            for row in query[query.any(axis=1)]
        ]
    return out


def in_layouts(db: RetcclDatabase) -> list[RetcclDatabase]:
    """``db`` with its store row-major and dim-major."""
    return [
        dataclasses.replace(db, features=layout(db.features))
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]


class TestStoreLayout:
    """Scores, bags and votes do not depend on the store's memory order."""

    @given(tie_corpora())
    @settings(max_examples=100, deadline=None)
    def test_tie_corpora(self, corpus):
        db, query, candidate_filter, k = corpus
        row_major, dim_major = in_layouts(db)
        assert answers(row_major, query, candidate_filter, [k]) == answers(
            dim_major, query, candidate_filter, [k]
        )

    def test_near_ties(self):
        db, query = near_tie_db()
        row_major, dim_major = in_layouts(db)
        queries = np.stack([query, -query, query + 1e-13])
        assert answers(row_major, queries, None, [1, 7, 60]) == answers(
            dim_major, queries, None, [1, 7, 60]
        )


class TestPositionIndependence:
    """A pair's score, and with it every bag, is the same wherever the two
    rows sit: adding a slide that sorts first shifts every database row."""

    def test_extra_slide_changes_no_other_hit_or_score(self):
        spec = SyntheticSpec(
            n_sites=2,
            subtypes_per_site=2,
            slides_per_subtype=6,
            patches_per_slide=40,
            dim=256,
            sigma=0.5,
            queries_per_subtype=2,
            seed=3,
        )
        db_slides, queries = generate(spec)
        extra = make_slide("0-extra", queries[0].features, subtype=queries[0].subtype)
        params = RetcclParams(fraction=0.5, seed=4)
        base = build_database(db_slides, params)
        grown = build_database([*db_slides, extra], params)
        assert grown.slide_ids[0] == "0-extra" and grown.n_patches > base.n_patches

        def keyed(db, rows, scores=np.empty(0)):
            """(slide_id, mosaic member, score or None) per row, leaving out
            the extra slide's rows."""
            first = np.searchsorted(db.slide, db.slide)
            out = []
            for j, score in zip(rows.tolist(), [*scores.tolist(), *[None] * len(rows)]):
                sid = db.slide_ids[db.slide[j]]
                if sid != "0-extra":
                    out.append((sid, j - int(first[j]), score))
            return out

        checked = 0
        for query in queries:
            features = retccl.prepare_query(base, query)
            for small, big in zip(build_bags(base, features), build_bags(grown, features)):
                kept = keyed(grown, big.hits, big.scores)
                assert sorted(h[:2] for h in kept) == sorted(h[:2] for h in keyed(base, small.hits))
                top = keyed(base, small.hits[:TOP_HITS], small.scores)
                scored = [h for h in kept if h[2] is not None]
                assert scored == top[: len(scored)]
                checked += len(scored)
            for patch in retccl.query_patch_set(base, query):
                small = query_patches(base, patch, 10)
                big = [e for e in query_patches(grown, patch, 10).entries
                       if not e.target_id.startswith("0-extra:")]
                assert big == list(small.entries[: len(big)])
        assert checked > 100


class TestNonFiniteQuery:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_prepared_query_rejected(self, axis_db, bad):
        slides, db = axis_db
        features = slides[0].features.astype(np.float64)
        features[1, 2] = bad
        with pytest.raises(ValidationError):
            build_bags(db, features)
        with pytest.raises(ValidationError):
            query_slides(db, features, k=2)
