"""Hypergraph engine: signatures, incidence construction, ranked scoring."""
from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch import hshr, mosaic
from wsisearch.errors import UnsupportedOperationError, ValidationError
from wsisearch.hshr import (
    HshrDatabase,
    HshrParams,
    SlideSignature,
    _knn_columns,
    build_database,
    build_hypergraph,
    prepare_query,
    query_patches,
    query_patch_set,
    query_slides,
    ranked_scores,
    slide_signature,
)
from wsisearch.model import (
    CandidateFilter,
    RetrievalResult,
    SlideLabels,
    binarize_barcode,
    check_k,
    hamming_matrix,
    kept_slides,
    ranked_result,
    SlideRecord,
    slide_seed,
)
from wsisearch.mosaic import build_mosaic_fixed
from wsisearch.synth import SyntheticSpec, generate

from util import make_slide, packed


def signature_with_hash(slide_id: str, bits: str):
    return SlideSignature(slide_id=slide_id, slide_hash=packed(bits))


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(41)
    mean_a = rng.normal(size=48)
    mean_b = -mean_a
    slides = []
    for i in range(15):
        mean = mean_a if i < 8 else mean_b
        site = "brain" if i < 8 else "lung"
        feats = mean + 0.3 * rng.normal(size=(25, 48))
        slides.append(make_slide(f"s{i:02d}", feats, site=site))
    return slides, build_database(slides, HshrParams(seed=5))


def mosaic_signature(slide: SlideRecord, k_fixed: int, seed: int) -> SlideSignature:
    """The signature as HSHR first computed it: the barcode of population
    attention over a k-means fixed-centroid mosaic, sizes / N @ centroids,
    with the centroids rounded to float32.  The reference for
    ``slide_signature`` wherever no two neighbouring mean components lie
    within that rounding of each other."""
    fixed = build_mosaic_fixed(slide, k_fixed=k_fixed, seed=seed)
    sizes = np.asarray(fixed.cluster_sizes, dtype=np.float64)
    attention = sizes / sizes.sum()
    weighted_mean = attention @ fixed.features.astype(np.float64)
    return SlideSignature(slide_id=slide.slide_id, slide_hash=binarize_barcode(weighted_mean))


@st.composite
def integer_slides(draw):
    """(slide, its integer feature matrix): small counts, so column sums
    are exact and neighbouring components tie all the time."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).integers(0, draw(st.integers(1, 6)), size=(n, dim))
    return make_slide(draw(st.text(min_size=1, max_size=4)), values), values


class TestSignature:
    def test_identical_patches_hash_as_one_patch(self):
        slide = make_slide("flat", np.tile(np.arange(6.0), (10, 1)))
        sig = slide_signature(slide)
        assert sig.slide_id == "flat"
        assert np.array_equal(sig.slide_hash, binarize_barcode(np.arange(6.0)))

    def test_slide_hash_is_barcode_of_mean_feature(self, corpus):
        slides, db = corpus
        for i, slide in enumerate(slides):
            mean = slide.features.mean(axis=0, dtype=np.float64)
            # summed in float64 without a float64 copy, bit for bit the copy's mean
            assert mean.tobytes() == slide.features.astype(np.float64).mean(axis=0).tobytes()
            assert np.array_equal(db.hashes[i], binarize_barcode(mean))
            assert np.array_equal(slide_signature(slide).slide_hash, db.hashes[i])

    @pytest.mark.parametrize("n, dim", [(1, 2), (9000, 16), (3, 20000)])
    def test_mean_without_copy_matches_float64_copy(self, n, dim):
        # 9,000 rows exceed numpy's 8,192-element cast buffer
        feats = np.random.default_rng(n).normal(scale=300.0, size=(n, dim)).astype(np.float32)
        assert (
            feats.mean(axis=0, dtype=np.float64).tobytes()
            == feats.astype(np.float64).mean(axis=0).tobytes()
        )

    def test_duplicate_slides_share_signature(self, corpus):
        slides, db = corpus
        twin = make_slide(
            slides[0].slide_id, slides[0].features, site=slides[0].site, patient_id="someone-else"
        )
        sig = prepare_query(db, twin)
        assert sig.slide_id == db.slide_ids[0]
        assert np.array_equal(db.hashes[0], sig.slide_hash)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_matches_fixed_mosaic_attention(self, seed, dim):
        # k_fixed 20 and per-slide seeds: the mosaic HSHR used to build
        db_slides, query_slides = generate(
            SyntheticSpec(n_sites=2, slides_per_subtype=4, dim=dim, seed=seed)
        )
        expected = {
            slide.slide_id: mosaic_signature(slide, 20, slide_seed(seed, slide.slide_id)).slide_hash
            for slide in db_slides + query_slides
        }
        db = build_database(db_slides, HshrParams(seed=seed))
        assert db.hashes.tobytes() == np.stack([expected[s] for s in db.slide_ids]).tobytes()
        for slide in query_slides:
            assert np.array_equal(prepare_query(db, slide).slide_hash, expected[slide.slide_id])

    @given(integer_slides(), st.integers(0, 2**32 - 1), st.integers(-(2**31), 2**31))
    @settings(max_examples=200, deadline=None)
    def test_integer_slide_hash_is_exact_ascent_of_column_sums(self, case, order_seed, seed):
        slide, values = case
        expected = np.packbits(np.diff(values.sum(axis=0)) > 0)
        assert np.array_equal(slide_signature(slide).slide_hash, expected)
        # patch order, slide id and engine seed do not enter the hash
        shuffled = make_slide(
            "other", values[np.random.default_rng(order_seed).permutation(len(values))]
        )
        db = build_database([slide], HshrParams(seed=seed))
        assert np.array_equal(db.hashes[0], expected)
        assert np.array_equal(prepare_query(db, shuffled).slide_hash, expected)

    def test_no_kmeans_in_build_or_query(self, corpus, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("HSHR must not cluster")

        monkeypatch.setattr(mosaic, "kmeans", refuse)
        slides, db = corpus
        rebuilt = build_database(slides, db.params)
        assert rebuilt.hashes.tobytes() == db.hashes.tobytes()
        assert np.array_equal(prepare_query(rebuilt, slides[4]).slide_hash, db.hashes[4])


class TestHypergraph:
    # incidence entries are affinities in units of 1/L: L - hamming

    def test_single_vertex_self_loop(self):
        H = build_hypergraph(packed("0101")[None, :], 4, knn_k=10)
        assert H.dtype == np.int32
        assert H.tolist() == [[4]]

    def test_identical_hashes_enter_at_affinity_one(self):
        H = build_hypergraph(np.stack([packed("0101"), packed("0101")]), 4, knn_k=4)
        assert H[0, 1] == 4
        assert H[1, 0] == 4

    def test_affinity_is_one_minus_hamming_over_code_length(self):
        # 10-bit codes: the six pad bits of the second byte must not count
        hashes = np.stack([packed("0000000000"), packed("0000000011")])
        H = build_hypergraph(hashes, 10, knn_k=1)
        assert H[1, 0] == 8
        assert H[0, 1] == 8

    def test_entries_bounded_and_diagonal_one(self, corpus):
        _, db = corpus
        H = db.incidence
        assert H.dtype == np.int32
        assert np.all(H >= 0) and np.all(H <= db.code_length)
        assert np.all(np.diagonal(H) == db.code_length)

    def test_column_support_is_knn_plus_self(self, corpus):
        _, db = corpus
        H = db.incidence
        expected = min(db.params.knn_k, H.shape[0] - 1) + 1
        for s in range(H.shape[1]):
            assert np.count_nonzero(H[:, s]) <= expected

    def test_affinity_symmetry(self, corpus):
        # where incidence is mutual the stored affinities must agree
        _, db = corpus
        H = db.incidence
        mutual = (H > 0) & (H.T > 0)
        assert np.array_equal(H[mutual], H.T[mutual])


def loop_knn_columns(ham: np.ndarray, k: int, skip_self: bool) -> list[np.ndarray]:
    """Per column of a pairwise Hamming matrix, the k nearest row indices
    (ascending distance, index as tie-break): the per-column loop that
    ``_knn_columns`` replaced, its reference."""
    t = ham.shape[0]
    columns = []
    for s in range(ham.shape[1]):
        order = np.lexsort((np.arange(t), ham[:, s]))
        if skip_self:
            order = order[order != s]
        columns.append(order[:k])
    return columns


def dense_build_hypergraph(hashes: np.ndarray, code_length: int, knn_k: int) -> np.ndarray:
    """``build_hypergraph`` as it was before the blocked build: one (T, T)
    Hamming matrix and a stable argsort of every column.  The reference for
    the blocked build's incidence, bit for bit."""
    t = hashes.shape[0]
    ham = hamming_matrix(hashes, hashes)
    incidence = np.zeros((t, t), dtype=np.int32)
    edges = np.arange(t)
    order = np.argsort(ham, axis=0, kind="stable").T
    neighbors = order[order != edges[:, None]].reshape(t, t - 1)[:, : min(knn_k, t - 1)]
    incidence[neighbors, edges[:, None]] = code_length - ham[neighbors, edges[:, None]]
    incidence[edges, edges] = code_length
    return incidence


@st.composite
def hamming_matrices(draw):
    """Square Hamming matrices with heavy ties: pairwise distances of a few
    short codes, or arbitrary small counts (the diagonal need not be 0)."""
    t = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        codes = rng.integers(0, 2, size=(t, draw(st.integers(1, 6)))).astype(bool)
        return hamming_matrix(np.packbits(codes, axis=1), np.packbits(codes, axis=1))
    return rng.integers(0, 4, size=(t, t))


class TestKnnColumns:
    @given(hamming_matrices(), st.integers(0, 14))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_column_loop(self, ham, k):
        t = ham.shape[0]
        got = _knn_columns(ham.T, k, 0)
        expected = loop_knn_columns(ham, k, skip_self=True)
        assert got.shape == (t, min(k, t - 1))
        assert [row.tolist() for row in got] == [col.tolist() for col in expected]
        # a column block: column j is slide first + j
        first = t // 2
        block = _knn_columns(ham.T[first:], k, first)
        assert [row.tolist() for row in block] == [col.tolist() for col in expected[first:]]
        # the query's neighbor order in ranked_scores: one stable argsort
        for s in range(t):
            assert np.array_equal(
                np.argsort(ham[:, s], kind="stable"), np.lexsort((np.arange(t), ham[:, s]))
            )

    @given(st.integers(1, 12), st.integers(1, 9), st.integers(1, 14), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_incidence_matches_per_column_assignment(self, t, bits, knn_k, seed):
        codes = np.random.default_rng(seed).integers(0, 2, size=(t, bits)).astype(bool)
        hashes = np.packbits(codes, axis=1)
        ham = hamming_matrix(hashes, hashes)
        incidence = np.zeros((t, t), dtype=np.int32)
        for s, neighbors in enumerate(loop_knn_columns(ham, min(knn_k, t - 1), skip_self=True)):
            incidence[neighbors, s] = bits - ham[neighbors, s]
            incidence[s, s] = bits
        assert build_hypergraph(hashes, bits, knn_k).tobytes() == incidence.tobytes()

    @given(
        st.integers(1, 40),
        st.integers(1, 9),
        st.integers(1, 45),
        st.integers(1, 17),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocked_build_matches_dense_build(self, t, bits, knn_k, block, seed):
        codes = np.random.default_rng(seed).integers(0, 2, size=(t, bits)).astype(bool)
        hashes = np.packbits(codes, axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hshr, "HYPERGRAPH_BLOCK", block)
            got = build_hypergraph(hashes, bits, knn_k)
        assert got.tobytes() == dense_build_hypergraph(hashes, bits, knn_k).tobytes()

    @pytest.mark.parametrize("bits", [5, 255])
    def test_blocked_build_matches_dense_build_across_blocks(self, bits):
        # 300 slides span five blocks; 5-bit hashes tie almost everywhere
        t = 300
        rng = np.random.default_rng(bits)
        hashes = np.packbits(rng.integers(0, 2, size=(t, bits)).astype(bool), axis=1)
        for knn_k in (1, 10, t - 1, t + 5):
            expected = dense_build_hypergraph(hashes, bits, knn_k)
            assert build_hypergraph(hashes, bits, knn_k).tobytes() == expected.tobytes()

    def test_build_memory_is_bounded_by_blocks(self):
        # T = 2,000: the dense (T, T, bytes) xor block peaked at 274.7 MiB;
        # the (T, T) int32 incidence itself is 15.3 MiB
        rng = np.random.default_rng(5)
        hashes = np.packbits(rng.integers(0, 2, size=(2000, 255)).astype(bool), axis=1)
        tracemalloc.start()
        try:
            incidence = build_hypergraph(hashes, 255, knn_k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert np.all(np.count_nonzero(incidence, axis=0) == 11)


class TestScoring:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prepared_query_rejected(self, corpus, bad):
        slides, db = corpus
        signature = prepare_query(db, slides[0])
        slide_hash = signature.slide_hash.astype(np.float64)
        slide_hash[0] = bad
        with pytest.raises(ValidationError):
            query_slides(db, SlideSignature(signature.slide_id, slide_hash), k=3)

    def test_self_retrieval_twin_first(self, corpus):
        slides, db = corpus
        twin = make_slide("twin", slides[3].features, site=slides[3].site, patient_id="someone-else")
        res = query_slides(db, twin, k=3)
        assert res.entries[0].target_id == slides[3].slide_id

    def test_scores_finite_and_descending(self, corpus):
        slides, db = corpus
        order, scores = ranked_scores(db, prepare_query(db, slides[6]))
        assert sorted(order.tolist()) == list(range(len(db)))
        assert np.all(np.isfinite(scores))
        assert np.all(np.diff(scores[order]) <= 0)

    def test_far_query_is_ordered_without_error(self, corpus):
        slides, db = corpus
        bits = np.unpackbits(db.hashes[0], count=db.code_length)
        flipped = "".join("0" if b else "1" for b in bits)
        far = signature_with_hash("far", flipped)
        order, scores = ranked_scores(db, far)
        assert len(order) == len(scores) == len(db)
        assert np.all(np.isfinite(scores))

    def test_query_slides_slices_top_k(self, corpus):
        slides, db = corpus
        sig = prepare_query(db, slides[2])
        res = query_slides(db, sig, k=4)
        assert len(res) == 4
        order, _ = ranked_scores(db, sig)
        assert res.target_ids() == [db.slide_ids[s] for s in order[:4]]

    def test_candidate_filter_respected(self, corpus):
        slides, db = corpus
        res = query_slides(
            db, slides[0], k=5, candidate_filter=lambda sid, lab: lab.site == "lung"
        )
        assert all(e.target_site == "lung" for e in res.entries)

    def test_same_cluster_preferred(self, corpus):
        slides, db = corpus
        res = query_slides(db, slides[12], k=5)
        assert all(e.target_site == "lung" for e in res.entries)


class TestPatchRefusal:
    def test_patch_query_unsupported(self, corpus):
        _, db = corpus
        with pytest.raises(UnsupportedOperationError, match="hshr"):
            query_patches(db, None, 5)

    def test_patch_set_unsupported(self, corpus):
        slides, db = corpus
        with pytest.raises(UnsupportedOperationError, match="hshr"):
            query_patch_set(db, slides[0])


# Ranking as it stood when ties fell to (score, slide_id) tuples sorted in
# Python: the code below is that version's, word for word, except that its
# names carry a legacy prefix, it reads knn_k from the database's params
# (the graph kept a copy of it), it rebuilds the float incidence and the
# hyperedge weights from the integer incidence, and legacy_query_slides
# takes its ranked list as an argument.  That version broke neighbour ties
# by build position, so it is the reference only for slides built in
# slide_id order.  Its scores carry floating-point noise from the matrix
# products, so it is the reference for scores within a relative 1e-12 and
# for the result assembly, not for the order of near-equal scores.


def legacy_graph(db: HshrDatabase) -> tuple[np.ndarray, np.ndarray]:
    """(float incidence, hyperedge weights) as the graph used to store them."""
    incidence = db.incidence / float(db.code_length)
    weights = np.array(
        [incidence[:, s][incidence[:, s] > 0].mean() for s in range(len(db))]
    )
    return incidence, weights


def legacy_ranked_scores(db: HshrDatabase, query: SlideSignature) -> list[tuple[float, str]]:
    """Scores of every database slide against the query, best first.

    The query becomes vertex/hyperedge T in a copy of the incidence matrix;
    scoring reads row T of the row-normalized weighted products.  Returns
    (score, slide_id) sorted descending, ties by slide_id; the caller slices
    its top-k after any candidate filtering.
    """
    t = len(db)
    ham = hamming_matrix(query.slide_hash[None, :], db.hashes)[0]
    affinity = 1.0 - ham / float(db.code_length)

    extended = np.zeros((t + 1, t + 1), dtype=np.float64)
    incidence, edge_weights = legacy_graph(db)
    extended[:t, :t] = incidence
    neighbors = np.argsort(ham, kind="stable")[: min(db.params.knn_k, t)]
    extended[neighbors, t] = affinity[neighbors]
    extended[t, t] = 1.0

    q_column = extended[:, t]
    q_weight = q_column[q_column > 0].mean()
    weights = np.concatenate([edge_weights, [q_weight]])

    adjacency = extended @ np.diag(weights) @ extended.T
    vertex_sim = adjacency / adjacency.sum(axis=1, keepdims=True)
    overlap = extended.T @ extended
    edge_sim = overlap / overlap.sum(axis=1, keepdims=True)
    scores = db.params.alpha * vertex_sim[t, :t] + db.params.beta * edge_sim[t, :t]

    ranked = sorted(
        ((float(scores[i]), db.slide_ids[i]) for i in range(t)),
        key=lambda pair: (-pair[0], pair[1]),
    )
    return ranked


def legacy_query_slides(
    db: HshrDatabase,
    ranked: list[tuple[float, str]],
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k database slides by combined vertex and hyperedge similarity."""
    check_k(k)
    kept = kept_slides(candidate_filter, db)
    slide_of = {slide_id: s for s, slide_id in enumerate(db.slide_ids)}
    hits = (
        (slide_id, db.labels[slide_of[slide_id]], score)
        for score, slide_id in ranked
        if kept[slide_of[slide_id]]
    )
    return ranked_result(hits, k, "hypergraph")


#: dim-5 integer rows: 4-bit hashes, so hash distances tie all the time,
#: and slides built from the same rows share their hash exactly
TIE_POOL = np.array(
    [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [0, 2, 1, 3, 2], [1, 1, 1, 1, 2], [3, 0, 3, 0, 3]],
    dtype=np.float32,
)
TIE_NAMES = ["s3", "s10", "s1", "b", "a2", "a10", "a", "a\x00"]


@st.composite
def tie_corpora(draw):
    """(slides in a drawn order, query signatures, filter, k, params)."""
    names = draw(st.permutations(TIE_NAMES))[: draw(st.integers(1, len(TIE_NAMES)))]
    rows = st.lists(st.integers(0, len(TIE_POOL) - 1), min_size=1, max_size=3)
    slides = [
        make_slide(name, TIE_POOL[draw(rows)], site=draw(st.sampled_from(["brain", "lung"])))
        for name in names
    ]
    params = HshrParams(knn_k=draw(st.integers(1, 9)))
    queries = [
        SlideSignature("q", binarize_barcode(TIE_POOL[i])) for i in draw(st.lists(
            st.integers(0, len(TIE_POOL) - 1), min_size=1, max_size=3))
    ]
    site = draw(st.sampled_from([None, "brain", "lung"]))
    candidate_filter = None if site is None else (lambda sid, lab: lab.site == site)
    return slides, queries, candidate_filter, draw(st.integers(1, len(TIE_NAMES) + 1)), params


class TestEquivalenceWithSortedTuples:
    @given(tie_corpora())
    @settings(max_examples=150, deadline=None)
    def test_any_build_order_ranks_as_sorted_build(self, case):
        slides, queries, candidate_filter, k, params = case
        db = build_database(slides, params)
        by_id = build_database(sorted(slides, key=lambda s: s.slide_id), params)
        assert db.slide_ids == by_id.slide_ids == sorted(s.slide_id for s in slides)
        assert db.incidence.tobytes() == by_id.incidence.tobytes()
        for sig in queries:
            order, scores = ranked_scores(db, sig)
            by_id_order, by_id_scores = ranked_scores(by_id, sig)
            assert order.tolist() == by_id_order.tolist()
            assert scores.tobytes() == by_id_scores.tobytes()
            legacy = {slide_id: score for score, slide_id in legacy_ranked_scores(by_id, sig)}
            assert scores.tolist() == pytest.approx(
                [legacy[slide_id] for slide_id in db.slide_ids], rel=1e-12
            )
            ranked = [(float(scores[s]), db.slide_ids[s]) for s in order.tolist()]
            assert ranked == sorted(ranked, key=lambda pair: (-pair[0], pair[1]))
            assert query_slides(db, sig, k, candidate_filter) == legacy_query_slides(
                by_id, ranked, k, candidate_filter
            )

    def test_equal_scores_rank_by_slide_id(self):
        # identical slides share a hash, and with every slide in every
        # hyperedge the graph is symmetric, so all four scores tie exactly
        slides = [make_slide(name, TIE_POOL[:2]) for name in ["d", "c", "a\x00", "a"]]
        db = build_database(slides, HshrParams(knn_k=10))
        sig = prepare_query(db, make_slide("q", TIE_POOL[:2]))
        order, scores = ranked_scores(db, sig)
        assert len(set(scores.tolist())) == 1
        assert query_slides(db, sig, k=4).target_ids() == ["a", "a\x00", "c", "d"]


def fraction_scores(
    ham_db: np.ndarray, ham_q: np.ndarray, length: int, knn_k: int, alpha: float, beta: float
) -> list[Fraction]:
    """HSHR scores from the definition, in exact arithmetic: the query as
    vertex and hyperedge T of the full incidence matrix, hyperedge weights
    the mean of each column's positive entries, and row T of the
    row-normalized products H W Hᵀ and Hᵀ H."""
    t = len(ham_q)
    H = [[Fraction(0)] * (t + 1) for _ in range(t + 1)]
    for s, neighbors in enumerate(loop_knn_columns(ham_db, min(knn_k, t - 1), skip_self=True)):
        for v in neighbors.tolist():
            H[v][s] = Fraction(length - int(ham_db[v, s]), length)
        H[s][s] = Fraction(1)
    for v in np.lexsort((np.arange(t), ham_q))[: min(knn_k, t)].tolist():
        H[v][t] = Fraction(length - int(ham_q[v]), length)
    H[t][t] = Fraction(1)
    weights = []
    for e in range(t + 1):
        positive = [H[v][e] for v in range(t + 1) if H[v][e] > 0]
        weights.append(sum(positive) / len(positive))
    adjacency = [sum(H[t][e] * weights[e] * H[v][e] for e in range(t + 1)) for v in range(t + 1)]
    overlap = [sum(H[v][t] * H[v][e] for v in range(t + 1)) for e in range(t + 1)]
    return [
        Fraction(alpha) * adjacency[s] / sum(adjacency)
        + Fraction(beta) * overlap[s] / sum(overlap)
        for s in range(t)
    ]


def coded_database(hashes: np.ndarray, code_length: int, params: HshrParams) -> HshrDatabase:
    """A database over given slide hashes, without mosaics or signatures."""
    t = len(hashes)
    return HshrDatabase(
        params=params,
        dim=code_length + 1,
        code_length=code_length,
        slide_ids=[f"s{i:04d}" for i in range(t)],
        labels=[SlideLabels("brain", "gbm", f"pt{i}") for i in range(t)],
        incidence=build_hypergraph(hashes, code_length, params.knn_k),
        hashes=hashes,
    )


#: (alpha, beta) pairs whose products with integers below 2**50 are exact
EXACT_WEIGHTS = [(a, b) for a in (0.0, 0.5, 1.0, 2.0) for b in (0.0, 0.5, 1.0, 2.0) if a or b]


class TestExactScores:
    @given(
        st.integers(1, 13),
        st.integers(1, 8),
        st.integers(1, 14),
        st.sampled_from(EXACT_WEIGHTS),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_order_and_ties_match_fraction_oracle(self, t, bits, knn_k, weights, seed):
        # few short codes: hash distances and scores tie all the time
        alpha, beta = weights
        codes = np.random.default_rng(seed).integers(0, 2, size=(t + 1, bits)).astype(bool)
        hashes = np.packbits(codes, axis=1)
        db = coded_database(hashes[:t], bits, HshrParams(knn_k=knn_k, alpha=alpha, beta=beta))
        order, scores = ranked_scores(db, SlideSignature("q", hashes[t]))

        exact = fraction_scores(
            hamming_matrix(hashes[:t], hashes[:t]),
            hamming_matrix(hashes[t:], hashes[:t])[0],
            bits, knn_k, alpha, beta,
        )
        assert order.tolist() == sorted(range(t), key=lambda s: (-exact[s], s))
        for a in range(t):
            assert math.isclose(scores[a], float(exact[a]), rel_tol=1e-15, abs_tol=1e-300)
            for b in range(a):
                assert (scores[a] == scores[b]) == (exact[a] == exact[b])

    def test_memory_is_linear_in_slides(self):
        # T = 2,000: the (T+1)² float products peaked at ~150 MiB; the
        # query row needs the query's k incidence rows and nothing square
        rng = np.random.default_rng(3)
        hashes = np.packbits(rng.integers(0, 2, size=(2001, 63)).astype(bool), axis=1)
        db = coded_database(hashes[:2000], 63, HshrParams())
        query = SlideSignature("q", hashes[2000])
        tracemalloc.start()
        try:
            order, scores = ranked_scores(db, query)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert sorted(order.tolist()) == list(range(2000))


class TestParams:
    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (math.nan, 1.0),
            (1.0, math.nan),
            (math.inf, 1.0),
            (1.0, -math.inf),
            (-0.5, 1.0),
            (1.0, -1e-9),
            (0.0, 0.0),
        ],
    )
    def test_bad_weights_rejected(self, alpha, beta):
        with pytest.raises(ValidationError):
            HshrParams(alpha=alpha, beta=beta)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 0.0), (0.3, 2.5)])
    def test_good_weights_accepted(self, alpha, beta):
        assert HshrParams(alpha=alpha, beta=beta).alpha == alpha
