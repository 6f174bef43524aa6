"""Hypergraph engine: signatures, incidence construction, ranked scoring."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch.errors import UnsupportedOperationError, ValidationError
from wsisearch.hshr import (
    HshrParams,
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
from wsisearch.model import binarize_barcode, hamming_matrix, slide_seed
from wsisearch.mosaic import build_mosaic_fixed, build_mosaic_percent, histogram_matrix

from util import make_slide, packed


def signature_with_hash(slide_id: str, bits: str):
    from wsisearch.hshr import SlideSignature

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


class TestSignature:
    def test_identical_patches_collapse_to_one_centroid(self):
        slide = make_slide("flat", np.tile(np.arange(6.0), (10, 1)))
        mosaic = build_mosaic_fixed(slide, k_fixed=20, seed=0)
        assert len(mosaic) == 1
        assert mosaic.cluster_sizes == (10,)
        assert mosaic.features.tolist() == [list(range(6))]
        sig = slide_signature(slide, mosaic)
        assert np.array_equal(sig.slide_hash, binarize_barcode(np.arange(6.0)))

    def test_slide_hash_is_barcode_of_weighted_centroid_mean(self, corpus):
        slides, db = corpus
        for i, slide in enumerate(slides):
            mosaic = build_mosaic_fixed(slide, db.params.k_fixed, slide_seed(5, slide.slide_id))
            sizes = np.array(mosaic.cluster_sizes, dtype=np.float64)
            assert sizes.sum() == len(slide.features)
            weighted = (sizes[:, None] * mosaic.features.astype(np.float64)).sum(axis=0)
            mean = weighted / sizes.sum()
            # a weighted sum, not the engine's attention-vector product: the
            # two round differently, but on this corpus no successive
            # difference of the mean is near enough to zero to flip a bit
            assert np.array_equal(db.hashes[i], binarize_barcode(mean))
            assert np.array_equal(slide_signature(slide, mosaic).slide_hash, db.hashes[i])

    def test_duplicate_slides_share_signature(self, corpus):
        slides, db = corpus
        twin = make_slide(
            slides[0].slide_id, slides[0].features, site=slides[0].site, patient_id="someone-else"
        )
        sig = prepare_query(db, twin)
        assert sig.slide_id == db.slide_ids[0]
        assert np.array_equal(db.hashes[0], sig.slide_hash)

    def test_percent_mosaic_rejected(self):
        rng = np.random.default_rng(1)
        slide = make_slide("p", rng.normal(size=(12, 8)))
        mosaic = build_mosaic_percent(slide, histogram_matrix(slide), 3, 0.5, seed=0)
        with pytest.raises(ValidationError):
            slide_signature(slide, mosaic)


class TestHypergraph:
    def test_single_vertex_self_loop(self):
        g = build_hypergraph(packed("0101")[None, :], 4, knn_k=10)
        assert g.incidence.tolist() == [[1.0]]
        assert g.edge_weights.tolist() == [1.0]

    def test_identical_hashes_enter_at_affinity_one(self):
        g = build_hypergraph(np.stack([packed("0101"), packed("0101")]), 4, knn_k=4)
        assert g.incidence[0, 1] == 1.0
        assert g.incidence[1, 0] == 1.0

    def test_affinity_is_one_minus_hamming_over_code_length(self):
        # 10-bit codes: the six pad bits of the second byte must not count
        hashes = np.stack([packed("0000000000"), packed("0000000011")])
        g = build_hypergraph(hashes, 10, knn_k=1)
        assert g.incidence[1, 0] == pytest.approx(0.8)
        assert g.incidence[0, 1] == pytest.approx(0.8)

    def test_entries_bounded_and_diagonal_one(self, corpus):
        _, db = corpus
        H = db.graph.incidence
        assert np.all(H >= 0.0) and np.all(H <= 1.0)
        assert np.allclose(np.diag(H), 1.0)

    def test_column_support_is_knn_plus_self(self, corpus):
        _, db = corpus
        H = db.graph.incidence
        expected = min(db.params.knn_k, H.shape[0] - 1) + 1
        for s in range(H.shape[1]):
            assert np.count_nonzero(H[:, s]) <= expected

    def test_affinity_symmetry(self, corpus):
        # where incidence is mutual the stored affinities must agree
        _, db = corpus
        H = db.graph.incidence
        mutual = (H > 0) & (H.T > 0)
        assert np.allclose(H[mutual], H.T[mutual])


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
        got = _knn_columns(ham, k)
        expected = loop_knn_columns(ham, k, skip_self=True)
        assert got.shape == (t, min(k, t - 1))
        assert [row.tolist() for row in got] == [col.tolist() for col in expected]
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
        graph = build_hypergraph(hashes, bits, knn_k)
        ham = hamming_matrix(hashes, hashes)
        affinity = 1.0 - ham / float(bits)
        incidence = np.zeros((t, t))
        for s, neighbors in enumerate(loop_knn_columns(ham, min(knn_k, t - 1), skip_self=True)):
            incidence[neighbors, s] = affinity[neighbors, s]
            incidence[s, s] = 1.0
        assert graph.incidence.tobytes() == incidence.tobytes()


class TestScoring:
    def test_self_retrieval_twin_first(self, corpus):
        slides, db = corpus
        twin = make_slide("twin", slides[3].features, site=slides[3].site, patient_id="someone-else")
        res = query_slides(db, twin, k=3)
        assert res.entries[0].target_id == slides[3].slide_id

    def test_scores_finite_and_descending(self, corpus):
        slides, db = corpus
        ranked = ranked_scores(db, prepare_query(db, slides[6]))
        scores = [s for s, _ in ranked]
        assert all(np.isfinite(scores))
        assert scores == sorted(scores, reverse=True)

    def test_far_query_is_ordered_without_error(self, corpus):
        slides, db = corpus
        bits = np.unpackbits(db.hashes[0], count=db.code_length)
        flipped = "".join("0" if b else "1" for b in bits)
        far = signature_with_hash("far", flipped)
        ranked = ranked_scores(db, far)
        assert len(ranked) == len(db)
        assert all(np.isfinite(s) for s, _ in ranked)

    def test_query_slides_slices_top_k(self, corpus):
        slides, db = corpus
        sig = prepare_query(db, slides[2])
        res = query_slides(db, sig, k=4)
        assert len(res) == 4
        full = ranked_scores(db, sig)
        assert res.target_ids() == [sid for _, sid in full[:4]]

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
