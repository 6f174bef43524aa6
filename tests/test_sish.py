"""Integer-index engine: encoding, guided key walk, weighted ranking."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.errors import DegenerateFeatureError, DimensionError, EmptyInputError, ValidationError
from wsisearch.model import SlideLabels, hamming_matrix
from wsisearch.sish import (
    COARSE_DIGIT_UNIT,
    INDEX_MAX,
    SishDatabase,
    SishParams,
    SishProbe,
    build_database,
    guided_search,
    index_encode,
    prepare_query,
    query_patches,
    query_slides,
    rank_slides,
    visited_ranges,
)
from wsisearch.veb import VebTree

from util import gaussian_slides, make_slide, packed, patch_at


def handmade_db(entries_at: dict[int, list[tuple[str, str]]], code_bits: str = "00000"):
    """Database with chosen indices; entry tuples are (slide_id, subtype),
    and an entry's ordinal is its position in its index's list."""
    subtype_of = {sid: subtype for members in entries_at.values() for sid, subtype in members}
    slide_ids = sorted(subtype_of)
    rank = {sid: i for i, sid in enumerate(slide_ids)}
    rows = sorted(
        (index, rank[sid], ordinal)
        for index, members in entries_at.items()
        for ordinal, (sid, _) in enumerate(members)
    )
    index = np.array([r[0] for r in rows], dtype=np.int64)
    keys, first = np.unique(index, return_index=True)
    counts: dict[str, int] = {}
    for subtype in subtype_of.values():
        counts[subtype] = counts.get(subtype, 0) + 1
    return SishDatabase(
        params=SishParams(),
        dim=len(code_bits) + 1,
        code_length=len(code_bits),
        lo=np.zeros(len(code_bits) + 1),
        hi=np.ones(len(code_bits) + 1),
        slide_ids=slide_ids,
        labels=[SlideLabels("brain", subtype_of[sid], f"pt-{sid}") for sid in slide_ids],
        keys=keys,
        starts=np.append(first, len(rows)),
        slide=np.array([r[1] for r in rows], dtype=np.int64),
        ordinal=np.array([r[2] for r in rows], dtype=np.int64),
        coords=np.zeros((len(rows), 2), dtype=np.int32),
        codes=np.stack([packed(code_bits)] * len(rows)),
        subtype_freq={s: c / len(subtype_of) for s, c in counts.items()},
    )


def row_of(db: SishDatabase, slide_id: str) -> int:
    """The first row of a slide in a database."""
    return int(np.flatnonzero(db.slide == db.slide_ids.index(slide_id))[0])


def probe(index: int, bits: str = "00000") -> SishProbe:
    return SishProbe(index, packed(bits))


def hit_rows(*pairs: tuple[int, int]) -> np.ndarray:
    """A per-patch search result as ``guided_search`` returns it."""
    return np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)


def pairs(hits: np.ndarray) -> list[tuple[int, int]]:
    """(row, hamming) tuples of a ``guided_search`` result."""
    assert hits.dtype == np.int64 and hits.ndim == 2 and hits.shape[1] == 2
    return [tuple(hit) for hit in hits.tolist()]


def tree_walk(tree: VebTree, m: int, c: int, budget: int) -> list[int]:
    """The guided walk as it ran over a van Emde Boas tree, one successor or
    predecessor call per probe; the reference for the array walk."""
    top = tree.universe_size - 1
    seeds = list(dict.fromkeys(min(max(v, 0), top) for v in (m, m + c, m - c)))

    probes = 0
    hit_indices: list[int] = []
    seen: set[int] = set()

    def visit(idx: int) -> None:
        if idx not in seen:
            seen.add(idx)
            hit_indices.append(idx)

    for seed in seeds:
        if probes >= budget:
            break
        probes += 1
        if tree.member(seed):
            visit(seed)

    # walker = [position, step]; a walker dies when its step returns None
    walkers: list[list | None] = []
    for seed in seeds:
        walkers.append([seed, tree.successor])
        walkers.append([seed, tree.predecessor])
    alive = len(walkers)
    while alive and probes < budget:
        for wi in range(len(walkers)):
            walker = walkers[wi]
            if walker is None or probes >= budget:
                continue
            position, step = walker
            probes += 1
            nxt = step(position)
            if nxt is None:
                walkers[wi] = None
                alive -= 1
            else:
                walker[0] = nxt
                visit(nxt)
    return hit_indices


def tree_guided_search(db: SishDatabase, query: SishProbe, probe_budget=None, candidate_filter=None):
    """Guided search as it ran over a tree and per-key buckets of entries,
    on this database's rows: the reference for ``guided_search``."""
    budget = db.params.probe_budget if probe_budget is None else probe_budget
    tree = VebTree(48)
    buckets: dict[int, list[int]] = {}
    for key, start, stop in zip(db.keys.tolist(), db.starts[:-1].tolist(), db.starts[1:].tolist()):
        tree.insert(key)
        buckets[key] = list(range(start, stop))
    hit_indices = tree_walk(tree, query.index, db.params.seed_offset, budget)
    candidates = [
        row
        for idx in hit_indices
        for row in buckets.get(idx, ())
        if candidate_filter is None
        or candidate_filter(db.slide_ids[db.slide[row]], db.labels[db.slide[row]])
    ]
    if not candidates:
        return []
    hams = hamming_matrix(query.code[None, :], np.stack([db.codes[r] for r in candidates]))[0]
    results = [
        (row, int(ham)) for row, ham in zip(candidates, hams) if ham <= db.params.hamming_threshold
    ]
    results.sort(key=lambda t: (t[1], db.slide_ids[db.slide[t[0]]], db.ordinal[t[0]]))
    return results


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

    @given(st.integers(1, 40), st.integers(2, 30), st.integers(0, 2**32 - 1))
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

    def test_dim_one_rejected(self):
        # one column cannot fill three thirds; the pooled digit would be NaN
        for feats in (np.zeros(1), np.zeros((3, 1))):
            with pytest.raises(DimensionError):
                index_encode(feats, np.zeros(1), np.ones(1))

    def test_matrix_width_must_match_ranges(self):
        with pytest.raises(DimensionError):
            index_encode(np.zeros((3, 5)), np.zeros(6), np.ones(6))


class TestGuidedSearch:
    def test_probe_order_prefers_near_indices(self):
        db = handmade_db({100: [("near-lo", "x")], 105: [("near-hi", "x")], 200: [("far", "x")]})
        query = probe(101)
        # 3 member probes + succ(101) + pred(101) + one dead walker probe
        hits = guided_search(db, query, probe_budget=6)
        assert {db.slide_ids[db.slide[r]] for r, _ in hits} == {"near-lo", "near-hi"}
        # two more probes let the far seed's predecessor reach 200
        hits = guided_search(db, query, probe_budget=8)
        assert {db.slide_ids[db.slide[r]] for r, _ in hits} == {"near-lo", "near-hi", "far"}

    def test_exact_match_found_with_hamming_zero(self):
        db = handmade_db({500: [("target", "x")], 900: [("other", "x")]})
        db.codes[row_of(db, "other")] = packed("01100")
        hits = guided_search(db, probe(500), probe_budget=500)
        assert db.slide_ids[db.slide[hits[0][0]]] == "target"
        assert hits[0][1] == 0

    def test_threshold_excludes_distant_codes(self):
        db = handmade_db({500: [("a", "x")]}, code_bits="0" * 200)
        assert pairs(guided_search(db, probe(500, "1" * 200), probe_budget=500)) == []

    def test_results_ascend_in_hamming(self):
        db = handmade_db({10: [("a", "x")], 11: [("b", "x")]}, code_bits="0000")
        db.codes[row_of(db, "b")] = packed("0011")
        hams = [h for _, h in guided_search(db, probe(10, "0001"), probe_budget=500)]
        assert hams == sorted(hams)

    def test_budget_validated(self):
        db = handmade_db({1: [("a", "x")]})
        with pytest.raises(ValidationError):
            guided_search(db, probe(1), probe_budget=0)

    def test_seed_offset_is_coarse_digit(self):
        assert COARSE_DIGIT_UNIT == 256**5

    def test_kept_mask_drops_rows_of_excluded_slides(self):
        db = handmade_db({10: [("a", "x"), ("b", "x")], 12: [("c", "x")]})
        kept = np.array([sid != "b" for sid in db.slide_ids])
        hits = guided_search(db, probe(10), kept=kept)
        assert [db.slide_ids[db.slide[r]] for r, _ in hits] == ["a", "c"]


@st.composite
def walks(draw):
    """(sorted distinct keys, query index, seed offset, budget) with keys
    packed near 0, near the top of the universe, or anywhere, so walkers
    die at either end, seeds clamp (m + c onto m at the top), and budgets
    run out mid-round."""
    span = draw(st.integers(1, 2_000))
    base = draw(st.sampled_from([0, INDEX_MAX - span, None]))
    if base is None:
        base = draw(st.integers(0, INDEX_MAX - span))
    offsets = draw(st.lists(st.integers(0, span), min_size=1, max_size=300, unique=True))
    keys = sorted(base + o for o in offsets)
    index = draw(st.one_of(
        st.sampled_from(keys),
        st.sampled_from([0, INDEX_MAX]),
        st.integers(max(base - span, 0), min(base + 2 * span, INDEX_MAX)),
    ))
    offset = draw(st.one_of(st.integers(1, span), st.just(COARSE_DIGIT_UNIT)))
    budget = draw(st.one_of(st.integers(1, 40), st.integers(1, 20_000)))
    return keys, index, offset, budget


class TestArrayWalk:
    @given(walks())
    @settings(max_examples=300, deadline=None)
    def test_visits_the_keys_the_tree_walk_visits(self, walk):
        keys, index, offset, budget = walk
        tree = VebTree(48)
        for key in keys:
            tree.insert(key)
        expected = tree_walk(tree, index, offset, budget)
        arr = np.array(keys, dtype=np.int64)
        got = [k for a, b in visited_ranges(arr, index, offset, budget) for k in arr[a:b].tolist()]
        assert sorted(set(got)) == sorted(expected)

    @pytest.mark.parametrize("budget", [1, 2, 3, 4, 6, 9, 17, 40, 120, 500, 20_000])
    def test_guided_search_equals_tree_search(self, corpus_db, budget):
        slides, db = corpus_db
        lung = np.array([lab.site == "lung" for lab in db.labels])
        for slide in slides[::3]:
            for q in prepare_query(db, slide):
                assert pairs(guided_search(db, q, budget)) == tree_guided_search(db, q, budget)
                assert pairs(guided_search(db, q, budget, kept=lung)) == tree_guided_search(
                    db, q, budget, candidate_filter=lambda sid, lab: lab.site == "lung"
                )

    def test_build_is_independent_of_slide_order(self, corpus_db):
        slides, db = corpus_db
        again = build_database(slides[::-1], SishParams(seed=3))
        assert again.slide_ids == db.slide_ids == sorted(db.slide_ids)
        for name in ("keys", "starts", "slide", "ordinal", "coords", "codes", "lo", "hi"):
            assert np.array_equal(getattr(again, name), getattr(db, name)), name

    def test_rows_within_a_key_run_in_slide_then_ordinal_order(self, corpus_db):
        _, db = corpus_db
        assert np.all(np.diff(db.keys) > 0)
        key_of_row = np.repeat(db.keys, np.diff(db.starts))
        order = np.lexsort((db.ordinal, db.slide, key_of_row))
        assert np.array_equal(order, np.arange(len(order)))


class TestRankSlides:
    def test_single_clean_patch_scores_one(self):
        db = handmade_db({0: [("only", "x")]})
        res = rank_slides([hit_rows((row_of(db, "only"), 0))], db, k=3)
        assert res.target_ids() == ["only"]
        assert res.entries[0].score == pytest.approx(1.0)

    def test_rare_label_outranks_common_on_equal_votes(self):
        db = handmade_db({0: [("a", "x"), ("c", "x"), ("b", "y")]})
        hits = [hit_rows((row_of(db, "a"), 0), (row_of(db, "b"), 0))]
        res = rank_slides(hits, db, k=2)
        assert res.target_ids() == ["b", "a"]

    def test_high_entropy_patches_dropped(self):
        db = handmade_db({0: [("a", "x"), ("b", "y"), ("c", "x")]})
        clean = hit_rows((row_of(db, "a"), 0), (row_of(db, "c"), 0))
        noisy = hit_rows((row_of(db, "a"), 0), (row_of(db, "b"), 0))
        res = rank_slides([clean, noisy], db, k=3)
        # the noisy patch's exclusive candidate never receives a vote
        assert "b" not in res.target_ids()

    def test_all_empty_patches_give_empty_result(self):
        db = handmade_db({0: [("a", "x")]})
        res = rank_slides([hit_rows(), hit_rows()], db, k=3)
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
        assert db.slide_ids == ["ok"]

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
