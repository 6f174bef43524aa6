"""Integer-index engine: encoding, guided key walk, weighted ranking."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch import sish
from wsisearch.errors import DegenerateFeatureError, DimensionError, EmptyInputError, ValidationError
from wsisearch.model import SlideLabels, hamming_matrix
from wsisearch.mosaic import histogram_mosaics
from wsisearch.sish import (
    COARSE_DIGIT_UNIT,
    INDEX_MAX,
    SishDatabase,
    SishParams,
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
    """Database with chosen indices; entry tuples are (slide_id, subtype).
    A slide's members run in (index, place in the index's list) order."""
    subtype_of = {sid: subtype for members in entries_at.values() for sid, subtype in members}
    slide_ids = sorted(subtype_of)
    slide_rank = {sid: i for i, sid in enumerate(slide_ids)}
    rows = sorted(
        (index, slide_rank[sid], place)
        for index, members in entries_at.items()
        for place, (sid, _) in enumerate(members)
    )
    index = np.array([r[0] for r in rows], dtype=np.int64)
    slide = np.array([r[1] for r in rows], dtype=np.int64)
    rank = np.empty(len(rows), dtype=np.int64)
    rank[np.argsort(slide, kind="stable")] = np.arange(len(rows))
    keys, first = np.unique(index, return_index=True)
    counts: dict[str, int] = {}
    for subtype in subtype_of.values():
        counts[subtype] = counts.get(subtype, 0) + 1
    return SishDatabase(
        params=SishParams(),
        dim=len(code_bits) + 1,
        lo=np.zeros(len(code_bits) + 1),
        hi=np.ones(len(code_bits) + 1),
        slide_ids=slide_ids,
        labels=[SlideLabels("brain", subtype_of[sid], f"pt-{sid}") for sid in slide_ids],
        keys=keys,
        starts=np.append(first, len(rows)),
        slide=slide,
        rank=rank,
        coords=np.zeros((len(rows), 2), dtype=np.int32),
        codes=np.stack([packed(code_bits)] * len(rows)),
        freq=np.array([counts[subtype_of[sid]] / len(subtype_of) for sid in slide_ids]),
    )


def row_of(db: SishDatabase, slide_id: str) -> int:
    """The first row of a slide in a database."""
    return int(np.flatnonzero(db.slide == db.slide_ids.index(slide_id))[0])


def probe(index: int, bits: str = "00000") -> tuple[int, np.ndarray]:
    """(index, code) of one query patch, the arguments ``guided_search`` takes."""
    return index, packed(bits)


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


def tree_guided_search(db: SishDatabase, index: int, code: np.ndarray, candidate_filter=None):
    """Guided search as it ran over a tree and per-key buckets of entries,
    on this database's rows: the reference for ``guided_search``."""
    budget = db.params.probe_budget
    tree = VebTree(48)
    buckets: dict[int, list[int]] = {}
    for key, start, stop in zip(db.keys.tolist(), db.starts[:-1].tolist(), db.starts[1:].tolist()):
        tree.insert(key)
        buckets[key] = list(range(start, stop))
    hit_indices = tree_walk(tree, index, db.params.seed_offset, budget)
    candidates = [
        row
        for idx in hit_indices
        for row in buckets.get(idx, ())
        if candidate_filter is None
        or candidate_filter(db.slide_ids[db.slide[row]], db.labels[db.slide[row]])
    ]
    if not candidates:
        return []
    hams = hamming_matrix(code[None, :], np.stack([db.codes[r] for r in candidates]))[0]
    results = [
        (row, int(ham)) for row, ham in zip(candidates, hams) if ham <= db.params.hamming_threshold
    ]
    results.sort(key=lambda t: (t[1], db.slide_ids[db.slide[t[0]]], db.rank[t[0]]))
    return results


def sort_guided_search(db: SishDatabase, index: int, code: np.ndarray, kept=None):
    """Guided search as it ran with a sorted union of the visited rows and a
    3-key lexsort: the reference for the merged ranges and one order key."""
    budget = db.params.probe_budget
    ranges = visited_ranges(db.keys, index, db.params.seed_offset, budget)
    rows = np.unique(np.concatenate([np.arange(db.starts[a], db.starts[b]) for a, b in ranges]))
    if kept is not None:
        rows = rows[kept[db.slide[rows]]]
    hams = hamming_matrix(code[None, :], db.codes[rows])[0]
    near = hams <= db.params.hamming_threshold
    rows, hams = rows[near], hams[near]
    order = np.lexsort((db.rank[rows], db.slide[rows], hams))
    return np.stack((rows[order], hams[order]), axis=1)


def assert_rank_is_slide_order(db: SishDatabase) -> None:
    """``rank`` numbers the rows 0..N-1, and a lower slide ranks lower."""
    by_rank = np.argsort(db.rank)
    assert np.array_equal(db.rank[by_rank], np.arange(len(db.rank)))
    assert np.all(np.diff(db.slide[by_rank]) >= 0)


def column_db(index, slide, codes, code_length: int, params: SishParams) -> SishDatabase:
    """Database from per-row keys, slides and packed codes, listed in
    (slide, row) order so that each row's rank is its place in that list."""
    index, slide = np.asarray(index, dtype=np.int64), np.asarray(slide, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    keys, first = np.unique(index[order], return_index=True)
    n_slides = int(slide.max()) + 1
    return SishDatabase(
        params=params,
        dim=code_length + 1,
        lo=np.zeros(code_length + 1),
        hi=np.ones(code_length + 1),
        slide_ids=[f"s{i:03d}" for i in range(n_slides)],
        labels=[SlideLabels("brain", "x", f"pt-{i}") for i in range(n_slides)],
        keys=keys,
        starts=np.append(first, len(order)),
        slide=slide[order],
        rank=order,
        coords=np.zeros((len(order), 2), dtype=np.int32),
        codes=np.asarray(codes, dtype=np.uint8)[order],
        freq=np.ones(n_slides),
    )


def pooled_mean_index_encode(features, lo, hi):
    """The index as six sliced ``.mean()`` pools and a digit loop, for one
    feature vector or a (m, dim) matrix: the reference for ``index_encode``."""
    f = np.asarray(features, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = hi - lo
    live = span > 0
    rows = np.atleast_2d(f)
    q = np.zeros(rows.shape, dtype=np.float64)
    q[:, live] = np.clip(np.rint(255.0 * (rows[:, live] - lo[live]) / span[live]), 0, 255)
    if q.shape[1] % 6:
        pad = 6 - q.shape[1] % 6
        q = np.concatenate([q, q[:, :pad]], axis=1)
    half = q.shape[1] // 2
    third = q.shape[1] // 3
    pools = (
        q.mean(axis=1),
        q[:, :half].mean(axis=1),
        q[:, half:].mean(axis=1),
        q[:, :third].mean(axis=1),
        q[:, third : 2 * third].mean(axis=1),
        q[:, 2 * third :].mean(axis=1),
    )
    index = np.zeros(rows.shape[0], dtype=np.int64)
    for value in pools:
        index = (index << 8) | np.clip(np.rint(value), 0, 255).astype(np.int64)
    return int(index[0]) if f.ndim == 1 else index


@st.composite
def encodings(draw):
    """(features, lo, hi) with some components flat, features partly
    outside the ranges, and some on quantization half-steps, where rint
    rounds half to even; one feature vector or a matrix."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.one_of(st.integers(2, 69), st.sampled_from([64, 256, 512, 1024])))
    m = draw(st.sampled_from([None, 1, 2, 10]))
    lo = rng.normal(size=dim)
    hi = lo + rng.uniform(0.0, 3.0, dim) * (rng.random(dim) < draw(st.sampled_from([0.2, 0.8, 1.0])))
    live = rng.integers(dim)
    hi[live] = lo[live] + 1.0  # at least one component is not flat
    shape = (dim,) if m is None else (m, dim)
    feats = lo + (hi - lo) * rng.uniform(-0.2, 1.2, shape)
    if draw(st.booleans()):
        # components on whole and half steps of 1/255 of their range
        steps = rng.integers(0, 256, shape) + 0.5 * rng.integers(0, 2, shape)
        feats = lo + (hi - lo) * steps / 255.0
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return feats.astype(dtype), lo, hi


class TestIndexEncode:
    def test_all_min_is_zero(self):
        assert index_encode(np.zeros((1, 6)), np.zeros(6), np.ones(6)).tolist() == [0]

    def test_all_max_saturates(self):
        assert index_encode(np.ones((1, 6)), np.zeros(6), np.ones(6)).tolist() == [2**48 - 1]

    def test_fits_universe(self):
        rng = np.random.default_rng(2)
        lo, hi = -np.ones(31), np.ones(31)
        idx = index_encode(rng.uniform(-1, 1, size=(50, 31)), lo, hi)
        assert idx.dtype == np.int64
        assert ((0 <= idx) & (idx < 2**48)).all()

    def test_equal_after_quantization_means_equal_index(self):
        # components sitting inside the same rounding cell share an index
        lo, hi = np.zeros(12), np.full(12, 255.0)
        base = np.arange(12, dtype=float) * 3.0
        idx = index_encode(np.stack([base + 0.2, base + 0.3]), lo, hi)
        assert idx[0] == idx[1]

    def test_out_of_range_values_clip(self):
        lo, hi = np.zeros(6), np.ones(6)
        idx = index_encode(np.stack([np.full(6, 99.0), np.full(6, -99.0)]), lo, hi)
        assert idx.tolist() == [2**48 - 1, 0]

    def test_all_flat_ranges_degenerate(self):
        with pytest.raises(DegenerateFeatureError):
            index_encode(np.ones((1, 6)), np.ones(6), np.ones(6))

    def test_pads_non_multiple_of_six(self):
        lo, hi = np.zeros(7), np.ones(7)
        idx = index_encode(np.linspace(0, 1, 7)[None, :], lo, hi)
        assert 0 <= idx[0] < 2**48

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
        assert got.tolist() == [index_encode(row[None, :], lo, hi)[0] for row in feats]

    @given(encodings())
    @settings(max_examples=300, deadline=None)
    def test_prefix_sum_pools_match_the_pooled_means(self, case):
        feats, lo, hi = case
        want = pooled_mean_index_encode(feats, lo, hi)
        got = index_encode(np.atleast_2d(feats), lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == np.atleast_1d(want).tolist()

    def test_dim_two_pools_its_four_padded_columns(self):
        # padded bytes (255, 0, 255, 0): whole 127.5 -> 128 (half to even),
        # halves 127.5 -> 128 each, thirds 255, 0 and 127.5 -> 128
        idx = index_encode(np.array([[1.0, 0.0]]), np.zeros(2), np.ones(2))
        assert idx.tolist() == [int.from_bytes(bytes([128, 128, 128, 255, 0, 128]), "big")]
        assert idx.tolist() == [pooled_mean_index_encode(np.array([1.0, 0.0]), np.zeros(2), np.ones(2))]

    def test_dim_one_rejected(self):
        # one column cannot fill three thirds; the pooled digit would be NaN
        for feats in (np.zeros((1, 1)), np.zeros((3, 1))):
            with pytest.raises(DimensionError):
                index_encode(feats, np.zeros(1), np.ones(1))

    def test_matrix_width_must_match_ranges(self):
        with pytest.raises(DimensionError):
            index_encode(np.zeros((3, 5)), np.zeros(6), np.ones(6))

    def test_vector_rejected(self):
        # a single feature vector is a (1, dim) matrix
        with pytest.raises(DimensionError):
            index_encode(np.zeros(6), np.zeros(6), np.ones(6))


class TestGuidedSearch:
    def test_probe_order_prefers_near_indices(self):
        db = handmade_db({100: [("near-lo", "x")], 105: [("near-hi", "x")], 200: [("far", "x")]})
        query = probe(101)
        # 3 member probes + succ(101) + pred(101) + one dead walker probe
        db.params = dataclasses.replace(db.params, probe_budget=6)
        hits = guided_search(db, *query)
        assert {db.slide_ids[db.slide[r]] for r, _ in hits} == {"near-lo", "near-hi"}
        # two more probes let the far seed's predecessor reach 200
        db.params = dataclasses.replace(db.params, probe_budget=8)
        hits = guided_search(db, *query)
        assert {db.slide_ids[db.slide[r]] for r, _ in hits} == {"near-lo", "near-hi", "far"}

    def test_exact_match_found_with_hamming_zero(self):
        db = handmade_db({500: [("target", "x")], 900: [("other", "x")]})
        db.codes[row_of(db, "other")] = packed("01100")
        hits = guided_search(db, *probe(500))
        assert db.slide_ids[db.slide[hits[0][0]]] == "target"
        assert hits[0][1] == 0

    def test_threshold_excludes_distant_codes(self):
        db = handmade_db({500: [("a", "x")]}, code_bits="0" * 200)
        assert pairs(guided_search(db, *probe(500, "1" * 200))) == []

    def test_results_ascend_in_hamming(self):
        db = handmade_db({10: [("a", "x")], 11: [("b", "x")]}, code_bits="0000")
        db.codes[row_of(db, "b")] = packed("0011")
        hams = [h for _, h in guided_search(db, *probe(10, "0001"))]
        assert hams == sorted(hams)

    def test_budget_validated(self):
        # guided_search reads its budget from the params, which reject it
        with pytest.raises(ValidationError):
            SishParams(probe_budget=0)

    def test_seed_offset_is_coarse_digit(self):
        assert COARSE_DIGIT_UNIT == 256**5

    def test_kept_mask_drops_rows_of_excluded_slides(self):
        db = handmade_db({10: [("a", "x"), ("b", "x")], 12: [("c", "x")]})
        kept = np.array([sid != "b" for sid in db.slide_ids])
        hits = guided_search(db, *probe(10), kept=kept)
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


@st.composite
def searches(draw):
    """(database, (index, code), budget, kept) where few keys carry many rows, a few
    distinct codes make Hamming ties within and across slides, and a small
    seed offset makes the three seeds' walkers overlap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    n_keys = draw(st.integers(1, 12))
    span = draw(st.integers(n_keys, 300))
    base = draw(st.sampled_from([0, INDEX_MAX - span, 2**40]))
    key_set = base + np.sort(rng.choice(span + 1, n_keys, replace=False))
    code_length = draw(st.integers(1, 20))
    palette = rng.integers(0, 2, (draw(st.integers(1, 4)), code_length)).astype(bool)
    n = sum(sizes)
    # skewed draws, so the first keys and codes carry most rows
    index = key_set[np.minimum(rng.geometric(0.4, n) - 1, n_keys - 1)]
    codes = np.packbits(palette[np.minimum(rng.geometric(0.5, n) - 1, len(palette) - 1)], axis=1)
    params = SishParams(
        hamming_threshold=draw(st.integers(0, code_length)),
        seed_offset=draw(st.one_of(st.integers(1, span), st.just(COARSE_DIGIT_UNIT))),
    )
    db = column_db(index, np.repeat(np.arange(len(sizes)), sizes), codes, code_length, params)
    query_index = draw(st.one_of(
        st.sampled_from(key_set.tolist()), st.integers(max(base - span, 0), base + 2 * span)
    ))
    query_bits = draw(st.one_of(
        st.sampled_from(range(len(palette))).map(lambda i: palette[i]),
        st.lists(st.booleans(), min_size=code_length, max_size=code_length).map(np.array),
    ))
    budget = draw(st.one_of(st.integers(1, 40), st.integers(1, 20_000)))
    kept = draw(st.sampled_from([None, "none", "some"]))
    if kept == "none":
        kept = np.zeros(len(db), dtype=bool)
    elif kept == "some":
        kept = rng.random(len(db)) < 0.5
    return db, (query_index, np.packbits(query_bits)), budget, kept


class TestArrayWalk:
    @given(searches())
    @settings(max_examples=300, deadline=None)
    def test_guided_search_equals_sort_search(self, search):
        db, query, budget, kept = search
        assert_rank_is_slide_order(db)
        db.params = dataclasses.replace(db.params, probe_budget=budget)
        got = guided_search(db, *query, kept=kept)
        want = sort_guided_search(db, *query, kept=kept)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        if kept is not None and not kept.any():
            assert got.shape == (0, 2)

    def test_order_key_at_largest_distance_and_many_rows_per_slide(self):
        # one slide holds nearly every row, so its ranks run near N,
        # and most rows sit at the largest distance, code_length
        code_length = 255
        sizes = [3, 60_000, 3]
        slide = np.repeat(np.arange(3), sizes)
        rng = np.random.default_rng(11)
        bits = np.zeros((len(slide), code_length), dtype=bool)
        bits[rng.random(len(slide)) < 0.1, 0] = True  # distance code_length - 1
        params = SishParams(hamming_threshold=code_length, seed_offset=1)
        db = column_db(rng.integers(0, 4, len(slide)), slide, np.packbits(bits, axis=1),
                       code_length, params)
        query = (1, np.packbits(np.ones(code_length, dtype=bool)))
        got = guided_search(db, *query)
        assert len(got) == len(slide)
        assert set(got[:, 1].tolist()) == {code_length - 1, code_length}
        assert np.array_equal(got, sort_guided_search(db, *query))
        top = code_length * len(slide) + db.rank.max()
        assert top < (code_length + 1) * len(slide) <= 9 * db.codes.nbytes

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
    def test_guided_search_equals_tree_search(self, corpus_db, budget, monkeypatch):
        slides, db = corpus_db
        monkeypatch.setattr(db, "params", dataclasses.replace(db.params, probe_budget=budget))
        lung = np.array([lab.site == "lung" for lab in db.labels])
        for slide in slides[::3]:
            for q in zip(*prepare_query(db, slide)):
                assert pairs(guided_search(db, *q)) == tree_guided_search(db, *q)
                assert pairs(guided_search(db, *q, kept=lung)) == tree_guided_search(
                    db, *q, candidate_filter=lambda sid, lab: lab.site == "lung"
                )

    def test_build_is_independent_of_slide_order(self, corpus_db):
        slides, db = corpus_db
        again = build_database(slides[::-1], SishParams(seed=3))
        assert again.slide_ids == db.slide_ids == sorted(db.slide_ids)
        for name in ("keys", "starts", "slide", "rank", "coords", "codes", "lo", "hi"):
            assert np.array_equal(getattr(again, name), getattr(db, name)), name

    def test_rows_within_a_key_run_in_slide_then_ordinal_order(self, corpus_db):
        _, db = corpus_db
        assert np.all(np.diff(db.keys) > 0)
        key_of_row = np.repeat(db.keys, np.diff(db.starts))
        order = np.lexsort((db.rank, db.slide, key_of_row))
        assert np.array_equal(order, np.arange(len(order)))
        assert_rank_is_slide_order(db)

    def test_rank_is_the_place_in_slide_then_mosaic_member_order(self, corpus_db):
        slides, db = corpus_db
        by_rank = np.argsort(db.rank)
        members = [sish._mosaic_rows(m)[0] for m in histogram_mosaics(slides, db.params)]
        order = np.argsort([slide.slide_id for slide in slides], kind="stable")
        assert np.array_equal(db.coords[by_rank], np.concatenate([members[i] for i in order]))


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

    def test_patch_with_the_median_counts_votes_in_any_order(self):
        """Two patches hit subtypes with one count multiset, in two orders
        whose first-occurrence entropy sums differ in the last bit; the
        median patch is one of them, so both tie the median and vote."""
        counts = [16, 17, 19, 23, 32, 32, 36, 37, 42, 43, 45]

        def first_occurrence_sum(order):
            """The entropy with its terms summed over ``counts`` in ``order``."""
            total = sum(counts)
            return -sum((counts[i] / total) * math.log(counts[i] / total) for i in order)

        orders = itertools.permutations(range(len(counts)))
        first = next(orders)
        second = next(o for o in orders if first_occurrence_sum(o) != first_occurrence_sum(first))
        median, other = sorted((first, second), key=first_occurrence_sum)
        assert first_occurrence_sum(median) < first_occurrence_sum(other)
        # slides "a03" and "b03" both carry subtype "t03" and hold 23 rows each
        db = handmade_db({0: [(f"{side}{i:02d}", f"t{i:02d}") for side in "ab"
                              for i, c in enumerate(counts) for _ in range(c)]})

        def patch(side, order):
            """Every row of each of the side's slides, subtypes in ``order``."""
            slides = [db.slide_ids.index(f"{side}{i:02d}") for i in order]
            rows = np.concatenate([np.flatnonzero(db.slide == s) for s in slides])
            return np.stack([rows, np.zeros_like(rows)], axis=1)

        clean = hit_rows((row_of(db, "a00"), 0))
        res = rank_slides([clean, patch("a", median), patch("b", other)], db, k=len(db))
        assert set(res.target_ids()) == set(db.slide_ids)

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
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prepared_query_rejected(self, corpus_db, bad):
        slides, db = corpus_db
        indices, codes = prepare_query(db, slides[0])
        codes = codes.astype(np.float64)
        codes[-1, 0] = bad
        with pytest.raises(ValidationError):
            query_slides(db, (indices, codes), k=3)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_prepared_codes_must_be_uint8(self, corpus_db, dtype):
        slides, db = corpus_db
        indices, codes = prepare_query(db, slides[0])
        with pytest.raises(ValidationError):
            query_slides(db, (indices, codes.astype(dtype)), k=3)

    @pytest.mark.parametrize("where", ["middle", "every"])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_width_code_rejected(self, corpus_db, where, extra):
        # "middle": a query of the middle patch alone; "every": all patches
        slides, db = corpus_db
        indices, _ = prepare_query(db, slides[0])
        if where == "middle":
            indices = indices[len(indices) // 2 :][:1]
        codes = np.zeros((len(indices), db.codes.shape[1] + extra), np.uint8)
        with pytest.raises(DimensionError):
            query_slides(db, (indices, codes), k=3)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_index_count_must_match_code_rows(self, corpus_db, extra):
        slides, db = corpus_db
        indices, codes = prepare_query(db, slides[0])
        indices = np.resize(indices, len(indices) + extra)
        with pytest.raises(DimensionError):
            query_slides(db, (indices, codes), k=3)
        with pytest.raises(DimensionError):
            query_slides(db, (indices[:len(codes)][:, None], codes), k=3)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_indices_must_be_integers(self, corpus_db, dtype):
        slides, db = corpus_db
        indices, codes = prepare_query(db, slides[0])
        with pytest.raises(ValidationError):
            query_slides(db, (indices.astype(dtype), codes), k=3)

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

    def test_k_checked_before_any_search(self, corpus_db, monkeypatch):
        slides, db = corpus_db

        def refuse(*args, **kwargs):
            raise AssertionError("guided_search ran before k was checked")

        monkeypatch.setattr(sish, "guided_search", refuse)
        with pytest.raises(ValidationError):
            query_slides(db, slides[0], 0)

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
        indices, codes = prepare_query(db, slides[1])
        assert len(indices) > 0
        assert indices.dtype == np.int64 and indices.shape == (len(codes),)
        assert codes.dtype == np.uint8
        assert codes.shape == (len(indices), -(-(db.dim - 1) // 8))
        assert ((0 <= indices) & (indices < 2**48)).all()
