"""Clustering and mosaic selection."""
from __future__ import annotations

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch import mosaic as mosaic_module
from wsisearch.errors import EmptyInputError, ValidationError
from wsisearch.mosaic import (
    FIXED_CENTROIDS,
    PERCENT_OF_CLUSTERS,
    build_mosaic_fixed,
    build_mosaic_percent,
    histogram_matrix,
    kmeans,
)

from util import make_slide


def blob_points(rng, centers, per_center, spread=0.05):
    pts = [c + spread * rng.normal(size=(per_center, len(c))) for c in np.asarray(centers, float)]
    return np.concatenate(pts)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(1)
        pts = blob_points(rng, [[0, 0], [10, 0], [0, 10]], 20)
        res = kmeans(pts, 3, seed=5)
        assert res.effective_k == 3
        # every blob lands in exactly one cluster
        for start in range(0, 60, 20):
            assert len(set(res.assignments[start : start + 20])) == 1

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 6))
        a = kmeans(pts, 5, seed=9)
        b = kmeans(pts, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def test_k_clamps_to_point_count(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        res = kmeans(pts, 10, seed=0)
        assert res.effective_k <= 3
        assert res.assignments.shape == (3,)

    def test_duplicate_points_collapse(self):
        pts = np.zeros((8, 3))
        res = kmeans(pts, 4, seed=0)
        assert res.effective_k == 1
        assert res.centroids.tolist() == [[0.0, 0.0, 0.0]]

    def test_invalid_k_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((4, 2)), 0, seed=0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_assignments_always_valid(self, seed, k):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 3))
        res = kmeans(pts, k, seed=seed)
        assert res.assignments.min() >= 0
        assert res.assignments.max() < res.effective_k
        assert res.centroids.shape == (res.effective_k, 3)


class TestPercentMosaic:
    def make(self, n=40, fraction=0.15, k_primary=4, seed=3):
        rng = np.random.default_rng(11)
        slide = make_slide("m1", rng.normal(size=(n, 12)))
        return slide, build_mosaic_percent(
            slide, histogram_matrix(slide), k_primary=k_primary, fraction=fraction, seed=seed
        )

    def test_members_are_real_patches(self):
        slide, mosaic = self.make()
        originals = {
            (x, y, f.tobytes()) for (x, y), f in zip(slide.coords.tolist(), slide.features)
        }
        assert mosaic.method == PERCENT_OF_CLUSTERS
        assert mosaic.features.dtype == np.float32
        for (x, y), f in zip(mosaic.coords.tolist(), mosaic.features):
            assert (x, y, f.tobytes()) in originals

    def test_members_keep_slide_row_order(self):
        slide, mosaic = self.make()
        rows = [slide.coords.tolist().index(c) for c in mosaic.coords.tolist()]
        assert rows == sorted(rows)
        assert mosaic.features.tobytes() == slide.features[rows].tobytes()

    def test_selection_respects_fraction_per_cluster(self):
        # ceil(fraction * size) per primary cluster bounds the total
        slide, mosaic = self.make(n=60, fraction=0.15, k_primary=5)
        upper = sum(math.ceil(0.15 * 60) for _ in range(5))
        assert 1 <= len(mosaic) <= upper

    def test_deterministic(self):
        _, a = self.make(seed=21)
        _, b = self.make(seed=21)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.coords.tobytes() == b.coords.tobytes()

    def test_fraction_one_keeps_everything_reachable(self):
        slide, mosaic = self.make(n=20, fraction=1.0, k_primary=2)
        assert len(mosaic) == 20

    def test_bad_fraction_rejected(self):
        rng = np.random.default_rng(0)
        slide = make_slide("m2", rng.normal(size=(10, 4)))
        with pytest.raises(ValidationError):
            build_mosaic_percent(slide, histogram_matrix(slide), 2, fraction=0.0, seed=0)


class TestFixedMosaic:
    def test_member_count_and_sizes(self):
        rng = np.random.default_rng(5)
        slide = make_slide("f1", rng.normal(size=(50, 8)))
        mosaic = build_mosaic_fixed(slide, k_fixed=6, seed=2)
        assert mosaic.method == FIXED_CENTROIDS
        assert len(mosaic) == len(mosaic.cluster_sizes)
        assert mosaic.features.dtype == np.float32
        assert sum(mosaic.cluster_sizes) == 50

    def test_k_clamps_to_patch_count(self):
        rng = np.random.default_rng(6)
        slide = make_slide("f2", rng.normal(size=(4, 8)))
        mosaic = build_mosaic_fixed(slide, k_fixed=20, seed=2)
        assert len(mosaic) <= 4

    def test_coordinates_borrowed_from_real_patches(self):
        rng = np.random.default_rng(7)
        slide = make_slide("f3", rng.normal(size=(30, 8)))
        mosaic = build_mosaic_fixed(slide, k_fixed=5, seed=2)
        coords = set(map(tuple, slide.coords.tolist()))
        assert all(tuple(c) in coords for c in mosaic.coords.tolist())


class TestHistograms:
    def test_histogram_normalized(self):
        # the slide spans [0, 1]: 0.5 opens bin 2, the right edge falls in bin 3
        slide = make_slide("h0", [[0.0, 0.5, 1.0, 1.0]])
        assert histogram_matrix(slide, bins=4).tolist() == [[0.25, 0.0, 0.25, 0.5]]

    def test_matrix_rows_are_histograms(self):
        rng = np.random.default_rng(8)
        slide = make_slide("h1", rng.normal(size=(12, 20)))
        mat = histogram_matrix(slide, bins=10)
        assert mat.shape == (12, 10)
        assert np.allclose(mat.sum(axis=1), 1.0)

    def test_constant_slide_does_not_crash(self):
        slide = make_slide("h2", np.ones((5, 6)))
        mat = histogram_matrix(slide, bins=4)
        assert mat.shape == (5, 4)


def reference_histograms(slide, bins):
    """The per-patch loop histogram_matrix replaces: one np.histogram per
    row over the slide-wide range."""
    feats = slide.features.astype(np.float64)
    lo, hi = float(feats.min()), float(feats.max())
    if lo == hi:
        hi = lo + 1.0
    rows = [np.histogram(row, bins=bins, range=(lo, hi))[0] for row in feats]
    return np.stack([r.astype(np.float64) / max(1, r.sum()) for r in rows])


def _slide_features(draw_kind, rng, n, dim):
    if draw_kind == "constant":
        return np.full((n, dim), rng.normal())
    if draw_kind == "integer":  # values land on the bin edges of bins 1, 3, 16
        return rng.integers(-3, 4, (n, dim)).astype(float) * rng.choice([1.0, 0.5, 48.0])
    if draw_kind == "near-constant":
        return 1.0 + rng.normal(size=(n, dim)) * 1e-6
    return rng.normal(size=(n, dim)) * rng.uniform(0.01, 100.0)


class TestHistogramEquivalence:
    @given(
        st.sampled_from(["constant", "integer", "near-constant", "normal"]),
        st.sampled_from([1, 3, 16]),
        st.integers(1, 12),
        st.integers(1, 20),
        st.sampled_from([mosaic_module.HISTOGRAM_BLOCK, 40, 1]),  # one block, a few, one row each
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_np_histogram(self, kind, bins, n, dim, block, seed):
        rng = np.random.default_rng(seed)
        slide = make_slide("eq", _slide_features(kind, rng, n, dim))
        with patch.object(mosaic_module, "HISTOGRAM_BLOCK", block):
            got = histogram_matrix(slide, bins=bins)
        assert got.tobytes() == reference_histograms(slide, bins).tobytes()

    @pytest.mark.parametrize(
        "row, bins",
        [
            # a value within an ulp of a linspace edge, where the scaled
            # index lands one bin off and np.histogram corrects it (down in
            # some of these cases, up in others); bins 1, 3 and 16 never
            # needed a correction in a search over random float32 ranges
            ([-20.450703, 8.495117, -5.97779274], 28),
            ([0.0018665044, -0.00038623868, 0.00130332], 36),
            ([7.348144e-06, -5.0646944e-05, -1.11048384e-05], 22),
            ([0.0010661274, 0.00015600228, 0.00087944], 39),
        ],
    )
    def test_edge_corrections_match_np_histogram(self, row, bins):
        slide = make_slide("edge", [row])
        got = histogram_matrix(slide, bins=bins)
        assert got.tobytes() == reference_histograms(slide, bins).tobytes()
