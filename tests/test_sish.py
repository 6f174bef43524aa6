"""Integer-index engine: encoding, guided tree search, weighted ranking."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.errors import DegenerateFeatureError, DimensionError, EmptyInputError, ValidationError
from wsisearch.model import SlideLabels
from wsisearch.sish import (
    COARSE_DIGIT_UNIT,
    SishDatabase,
    SishEntry,
    SishParams,
    build_database,
    guided_search,
    index_encode,
    prepare_query,
    query_patches,
    query_slides,
    rank_slides,
)
from wsisearch.veb import VebTree

from util import gaussian_slides, make_slide, packed, patch_at


def handmade_db(entries_at: dict[int, list[tuple[str, str]]], code_bits: str = "00000"):
    """Database with chosen indices; entry tuples are (slide_id, subtype)."""
    tree = VebTree(universe_bits=48)
    db = SishDatabase(
        params=SishParams(),
        dim=len(code_bits) + 1,
        code_length=len(code_bits),
        lo=np.zeros(len(code_bits) + 1),
        hi=np.ones(len(code_bits) + 1),
        tree=tree,
    )
    slide_subtype: dict[str, str] = {}
    for index, members in entries_at.items():
        tree.insert(index)
        bucket = db.buckets.setdefault(index, [])
        for ordinal, (slide_id, subtype) in enumerate(members):
            bucket.append(
                SishEntry(
                    slide_id=slide_id,
                    ordinal=ordinal,
                    x=0,
                    y=0,
                    code=packed(code_bits),
                    index=index,
                )
            )
            slide_subtype[slide_id] = subtype
    for slide_id, subtype in slide_subtype.items():
        db.slide_labels[slide_id] = SlideLabels("brain", subtype, f"pt-{slide_id}")
    counts: dict[str, int] = {}
    for subtype in slide_subtype.values():
        counts[subtype] = counts.get(subtype, 0) + 1
    total = len(slide_subtype)
    db.subtype_freq = {s: c / total for s, c in counts.items()}
    return db


class TestIndexEncode:
    def test_all_min_is_zero(self):
        assert index_encode(np.zeros(6), np.zeros(6), np.ones(6)) == 0

    def test_all_max_saturates(self):
        assert index_encode(np.ones(6), np.zeros(6), np.ones(6)) == 2**48 - 1

    def test_fits_universe(self):
        rng = np.random.default_rng(2)
        lo, hi = -np.ones(31), np.ones(31)
        for _ in range(50):
            idx = index_encode(rng.uniform(-1, 1, size=31), lo, hi)
            assert 0 <= idx < 2**48

    def test_equal_after_quantization_means_equal_index(self):
        # components sitting inside the same rounding cell share an index
        lo, hi = np.zeros(12), np.full(12, 255.0)
        base = np.arange(12, dtype=float) * 3.0
        assert index_encode(base + 0.2, lo, hi) == index_encode(base + 0.3, lo, hi)

    def test_out_of_range_values_clip(self):
        lo, hi = np.zeros(6), np.ones(6)
        assert index_encode(np.full(6, 99.0), lo, hi) == 2**48 - 1
        assert index_encode(np.full(6, -99.0), lo, hi) == 0

    def test_all_flat_ranges_degenerate(self):
        with pytest.raises(DegenerateFeatureError):
            index_encode(np.ones(6), np.ones(6), np.ones(6))

    def test_pads_non_multiple_of_six(self):
        lo, hi = np.zeros(7), np.ones(7)
        idx = index_encode(np.linspace(0, 1, 7), lo, hi)
        assert 0 <= idx < 2**48

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matrix_call_is_row_by_row(self, m, dim, seed):
        # features partly outside the ranges, some components flat
        rng = np.random.default_rng(seed)
        lo = rng.normal(size=dim)
        hi = lo + rng.uniform(0.0, 3.0, dim) * (rng.random(dim) < 0.8)
        live = rng.integers(dim)
        hi[live] = lo[live] + 1.0  # at least one component is not flat
        feats = (rng.normal(size=(m, dim)) * 2.0).astype(np.float32)
        got = index_encode(feats, lo, hi)
        assert got.shape == (m,)
        assert got.tolist() == [index_encode(row, lo, hi) for row in feats]

    def test_matrix_width_must_match_ranges(self):
        with pytest.raises(DimensionError):
            index_encode(np.zeros((3, 5)), np.zeros(6), np.ones(6))


class TestGuidedSearch:
    def test_probe_order_prefers_near_indices(self):
        db = handmade_db({100: [("near-lo", "x")], 105: [("near-hi", "x")], 200: [("far", "x")]})
        query = SishEntry("", 0, 0, 0, packed("00000"), 101)
        # 3 member probes + succ(101) + pred(101) + one dead walker probe
        hits = guided_search(db, query, probe_budget=6)
        assert {e.slide_id for e, _ in hits} == {"near-lo", "near-hi"}
        # two more probes let the far seed's predecessor reach 200
        hits = guided_search(db, query, probe_budget=8)
        assert {e.slide_id for e, _ in hits} == {"near-lo", "near-hi", "far"}

    def test_exact_match_found_with_hamming_zero(self):
        db = handmade_db({500: [("target", "x")], 900: [("other", "x")]})
        db.buckets[900][0] = SishEntry("other", 0, 0, 0, packed("01100"), 900)
        query = SishEntry("", 0, 0, 0, packed("00000"), 500)
        hits = guided_search(db, query, probe_budget=500)
        assert hits[0][0].slide_id == "target"
        assert hits[0][1] == 0

    def test_threshold_excludes_distant_codes(self):
        db = handmade_db({500: [("a", "x")]}, code_bits="0" * 200)
        query = SishEntry("", 0, 0, 0, packed("1" * 200), 500)
        assert guided_search(db, query, probe_budget=500) == []

    def test_results_ascend_in_hamming(self):
        db = handmade_db({10: [("a", "x")], 11: [("b", "x")]}, code_bits="0000")
        db.buckets[11][0] = SishEntry("b", 0, 0, 0, packed("0011"), 11)
        query = SishEntry("", 0, 0, 0, packed("0001"), 10)
        hams = [h for _, h in guided_search(db, query, probe_budget=500)]
        assert hams == sorted(hams)

    def test_budget_validated(self):
        db = handmade_db({1: [("a", "x")]})
        query = SishEntry("", 0, 0, 0, packed("00000"), 1)
        with pytest.raises(ValidationError):
            guided_search(db, query, probe_budget=0)

    def test_seed_offset_is_coarse_digit(self):
        assert COARSE_DIGIT_UNIT == 256**5


class TestRankSlides:
    def entry(self, slide_id):
        return SishEntry(slide_id, 0, 0, 0, packed("00000"), 0)

    def test_single_clean_patch_scores_one(self):
        db = handmade_db({0: [("only", "x")]})
        res = rank_slides([[(self.entry("only"), 0)]], db, k=3)
        assert res.target_ids() == ["only"]
        assert res.entries[0].score == pytest.approx(1.0)

    def test_rare_label_outranks_common_on_equal_votes(self):
        db = handmade_db({0: [("a", "x"), ("c", "x"), ("b", "y")]})
        hits = [[(self.entry("a"), 0), (self.entry("b"), 0)]]
        res = rank_slides(hits, db, k=2)
        assert res.target_ids() == ["b", "a"]

    def test_high_entropy_patches_dropped(self):
        db = handmade_db({0: [("a", "x"), ("b", "y"), ("c", "x")]})
        clean = [(self.entry("a"), 0), (self.entry("c"), 0)]
        noisy = [(self.entry("a"), 0), (self.entry("b"), 0)]
        res = rank_slides([clean, noisy], db, k=3)
        # the noisy patch's exclusive candidate never receives a vote
        assert "b" not in res.target_ids()

    def test_all_empty_patches_give_empty_result(self):
        db = handmade_db({0: [("a", "x")]})
        res = rank_slides([[], []], db, k=3)
        assert len(res) == 0

    def test_needs_at_least_one_patch(self):
        db = handmade_db({0: [("a", "x")]})
        with pytest.raises(EmptyInputError):
            rank_slides([], db, k=3)


@pytest.fixture(scope="module")
def corpus_db():
    rng = np.random.default_rng(23)
    mean_a = rng.normal(size=160)
    mean_b = -mean_a
    slides = gaussian_slides(
        rng, 4, 30, 160, mean=mean_a, sigma=0.05, prefix="a", site="brain", subtype="gbm"
    )
    slides += gaussian_slides(
        rng, 4, 30, 160, mean=mean_b, sigma=0.05, prefix="b", site="lung", subtype="luad"
    )
    return slides, build_database(slides, SishParams(seed=3))


class TestEndToEnd:

    def test_build_freezes_ranges(self, corpus_db):
        slides, db = corpus_db
        assert db.lo.shape == (160,)
        assert np.all(db.lo <= db.hi)
        assert len(db) == 8

    def test_constant_slide_unprocessed(self):
        rng = np.random.default_rng(5)
        flat = make_slide("flat", np.ones((10, 8)))
        ok = make_slide("ok", rng.normal(size=(10, 8)))
        db = build_database([flat, ok])
        assert [sid for sid, _ in db.unprocessed] == ["flat"]
        assert list(db.slide_labels) == ["ok"]

    def test_self_query_hits_own_slide(self, corpus_db):
        slides, db = corpus_db
        res = query_slides(db, slides[0], k=3)
        assert slides[0].slide_id in res.target_ids()

    def test_same_cluster_preferred(self, corpus_db):
        slides, db = corpus_db
        res = query_slides(db, slides[5], k=3)
        assert all(e.target_site == "lung" for e in res.entries)

    def test_patch_query_scores_within_threshold(self, corpus_db):
        slides, db = corpus_db
        res = query_patches(db, patch_at(slides[0], 0), k=8)
        assert len(res) >= 1
        assert all(e.score <= db.params.hamming_threshold for e in res.entries)

    def test_candidate_filter_applies(self, corpus_db):
        slides, db = corpus_db
        res = query_slides(
            db, slides[0], k=5, candidate_filter=lambda sid, lab: lab.site == "lung"
        )
        assert all(e.target_site == "lung" for e in res.entries)

    def test_prepare_query_entries_have_codes(self, corpus_db):
        slides, db = corpus_db
        entries = prepare_query(db, slides[1])
        assert entries
        for e in entries:
            assert e.code.dtype == np.uint8
            assert e.code.shape == (-(-db.code_length // 8),)
            assert 0 <= e.index < 2**48
