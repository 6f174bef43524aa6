"""Clustering and mosaic selection."""
from __future__ import annotations

import math
import tracemalloc
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsisearch import mosaic as mosaic_module
from wsisearch.errors import DimensionError, EmptyInputError, ValidationError
from wsisearch.model import SlideRecord
from wsisearch.mosaic import (
    MAX_LLOYD_ITERATIONS,
    KMeansResult,
    Mosaic,
    _spawn_seeds,
    build_mosaic_fixed,
    build_mosaic_percent,
    check_mosaic_params,
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
        (mosaic,) = build_mosaic_percent(
            [slide], [histogram_matrix(slide)], k_primary=k_primary, fraction=fraction, seeds=[seed]
        )
        return slide, mosaic

    def test_members_are_real_patches(self):
        slide, mosaic = self.make()
        originals = {
            (x, y, f.tobytes()) for (x, y), f in zip(slide.coords.tolist(), slide.features)
        }
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
            build_mosaic_percent([slide], [histogram_matrix(slide)], 2, fraction=0.0, seeds=[0])


class TestFixedMosaic:
    def test_member_count_and_sizes(self):
        rng = np.random.default_rng(5)
        slide = make_slide("f1", rng.normal(size=(50, 8)))
        mosaic = build_mosaic_fixed(slide, k_fixed=6, seed=2)
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
        for bins in (0, -1):
            with pytest.raises(ValidationError, match="bins must be >= 1"):
                histogram_matrix(slide, bins=bins)

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


# The k-means that the GEMM kernel replaced, kept word for word as the
# reference: the (n, k, d) broadcast, rng.choice seeding and per-cluster means.
def reference_plus_plus_seeding(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at distance zero: duplicate points
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def reference_kmeans(points, k: int, seed: int) -> KMeansResult:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise EmptyInputError("k-means needs at least one point")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, pts.shape[0])

    rng = np.random.default_rng(seed)
    centers = reference_plus_plus_seeding(pts, k, rng)
    assign = np.full(pts.shape[0], -1, dtype=np.int64)
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            mask = assign == j
            if mask.any():
                centers[j] = pts[mask].mean(axis=0)
            # empty clusters keep their previous position; dropped below

    counts = np.bincount(assign, minlength=k)
    keep = np.flatnonzero(counts > 0)
    remap = np.full(k, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    assign = remap[assign]
    centers = centers[keep]
    return KMeansResult(assignments=assign, centroids=centers)


def _near_equidistant(rng, n, d):
    """Midpoints of pairs of a few anchors, some nudged one ulp in one
    component, with the anchors themselves repeated so that seeds land on
    them: points that sit exactly or within an ulp of two centres."""
    anchors = rng.normal(size=(4, d)).astype(np.float32).astype(np.float64)
    i = rng.integers(0, 4, n)
    j = (i + rng.integers(1, 4, n)) % 4
    pts = (anchors[i] + anchors[j]) / 2
    nudged = np.flatnonzero(rng.random(n) < 0.5)
    comp = rng.integers(0, d, nudged.size)
    toward = rng.choice([-np.inf, np.inf], nudged.size)
    pts[nudged, comp] = np.nextafter(pts[nudged, comp], toward)
    return np.concatenate([pts, anchors[rng.integers(0, 4, n // 2)]])


def _kmeans_input(kind, rng):
    """(points, k) of one family the mosaics cluster, or an adversarial one."""
    if kind == "grid":  # spatial clustering: small integer grids, many exact ties
        n = int(rng.integers(1, 40))
        return rng.integers(0, 6, (n, 2)).astype(np.float64), int(rng.integers(1, 7))
    if kind == "histogram":  # histogram surrogate rows: multiples of 1/16
        return rng.integers(0, 5, (100, 16)) / 16.0, int(rng.integers(1, 10))
    if kind == "float32":  # raw float32 patch features
        pts = rng.normal(size=(600, 512)).astype(np.float32).astype(np.float64)
        return pts, int(rng.integers(2, 6))
    if kind == "duplicates":
        base = rng.normal(size=(int(rng.integers(1, 6)), 24))
        return base[rng.integers(0, len(base), 150)], int(rng.integers(1, 9))
    return _near_equidistant(rng, 120, int(rng.choice([2, 16, 64]))), int(rng.integers(2, 6))


KINDS = ["grid", "histogram", "float32", "duplicates", "equidistant"]


@contextmanager
def _kernel_sizes(force_gemm: bool):
    """Send every shape through the GEMM path and the direct formula through
    one-point blocks, or leave the size thresholds as they are."""
    if not force_gemm:
        yield
        return
    with patch.multiple(mosaic_module, GEMM_MIN_DIFFERENCES=0, DIRECT_BLOCK=1):
        yield


class TestKMeansEquivalence:
    """The GEMM kernel, the certified argmin, the cdf seeding and the sorted
    centroid update reproduce the reference loop byte for byte."""

    @given(
        st.sampled_from(KINDS),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_bytes(self, kind, force_gemm, data_seed, seed):
        pts, k = _kmeans_input(kind, np.random.default_rng(data_seed))
        with _kernel_sizes(force_gemm):
            got = kmeans(pts, k, seed)
        want = reference_kmeans(pts, k, seed)
        assert got.assignments.dtype == want.assignments.dtype
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert got.centroids.shape == want.centroids.shape
        assert got.centroids.tobytes() == want.centroids.tobytes()

    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seeding_draws_what_rng_choice_draws(self, kind, data_seed, seed):
        # alone, and beside two other groups seeded in one lockstep pass
        pts, k = _kmeans_input(kind, np.random.default_rng(data_seed))
        k = max(2, min(k, len(pts)))
        if len(pts) < k:
            pts = np.concatenate([pts, pts + 1.0])
        want = reference_plus_plus_seeding(pts, k, np.random.default_rng(seed))
        pts_sq = np.einsum("ij,ij->i", pts, pts)
        with _kernel_sizes(force_gemm=True):
            alone = mosaic_module._plus_plus_centers(
                pts, pts_sq, np.array([len(pts)]), np.array([k]), [seed]
            )
        assert alone.tobytes() == want.tobytes()
        together = mosaic_module._plus_plus_centers(
            np.concatenate([pts, pts[::-1], pts]), None, np.array([len(pts)] * 3),
            np.array([k, k, 1]), [seed, seed + 1, seed],
        )
        other = reference_plus_plus_seeding(pts[::-1], k, np.random.default_rng(seed + 1))
        assert together[:k].tobytes() == want.tobytes()
        assert together[k : 2 * k].tobytes() == other.tobytes()

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cdf_draw_is_rng_choice(self, n, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n) * (rng.random(n) < 0.7)
        weights[rng.integers(n)] += 1.0
        p = weights / weights.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        a, b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(5):
            assert int(cdf.searchsorted(a.random(), side="right")) == int(b.choice(n, p=p))

    @given(
        st.sampled_from([2, 16, 64, 512]),
        st.integers(2, 12),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_nearest_is_direct_argmin(self, d, k, integer, seed):
        # the GEMM path on exact ties and 1-ulp near-ties
        rng = np.random.default_rng(seed)
        if integer:
            centers = rng.integers(-3, 4, (k, d)).astype(np.float64)
            pts = rng.integers(-3, 4, (400, d)).astype(np.float64)
        else:
            pts = _near_equidistant(rng, 400, d)
            centers = pts[rng.choice(len(pts), k, replace=False)]
        want = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        with _kernel_sizes(force_gemm=True):
            assert np.array_equal(mosaic_module._nearest(pts, centers), want)
        # two groups in turn, each against its own set of centers: this one
        # or a shifted copy, through the batched GEMM and the direct formula
        sets = np.stack([centers, centers + 1.0])
        owner = np.arange(len(pts)) >= 150
        shifted = ((pts[:, None, :] - sets[1][None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
        for force_gemm in (True, False):
            with _kernel_sizes(force_gemm):
                got = mosaic_module._nearest(pts, sets, np.array([150, len(pts) - 150]))
            assert np.array_equal(got, np.where(owner, shifted, want))

    def test_nearest_non_finite_rows_take_direct_formula(self):
        pts = np.random.default_rng(3).normal(size=(200, 32))
        pts[5, 3] = np.inf
        pts[9, 0] = np.nan
        centers = pts[[0, 1, 2]].copy()
        with np.errstate(invalid="ignore", over="ignore"):
            want = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)
            got = mosaic_module._nearest(pts, centers)
        assert np.array_equal(got, want)

    @given(st.sampled_from(["float32", "duplicates"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fixed_anchors_are_per_centroid_nearest_points(self, kind, seed):
        rng = np.random.default_rng(seed)
        feats = (rng.normal(size=(300, 64)) if kind == "float32" else
                 rng.normal(size=(4, 64))[rng.integers(0, 4, 300)])
        slide = make_slide("anchors", feats)
        mosaic = build_mosaic_fixed(slide, k_fixed=20, seed=seed)
        points = slide.features.astype(np.float64)
        result = kmeans(points, 20, seed)
        anchors = [_nearest_point_index(points, c) for c in result.centroids]
        assert mosaic.coords.tobytes() == slide.coords[anchors].tobytes()


class TestTieBreaking:
    """Exact ties resolve to the lowest index: pinned behaviour, not noise."""

    @pytest.mark.parametrize("dim", [1, 8])
    def test_equidistant_point_joins_lower_centroid(self, dim):
        # seeds land on one copy of 0 and one of 4 e_0, in either order; the
        # midpoint 2 e_0 ties between them and joins centroid 0, the first
        # seed's cluster, and stays there once the means move
        pts = np.zeros((1001, dim))
        pts[500:1000, 0] = 4.0
        pts[1000, 0] = 2.0
        for seed in range(6):
            first = reference_plus_plus_seeding(pts, 2, np.random.default_rng(seed))[0]
            res = kmeans(pts, 2, seed)
            assert res.assignments[1000] == 0
            assert res.assignments[0 if first[0] == 0.0 else 500] == 0

    def test_nearest_point_lowest_row_among_ties(self):
        # one spatial cluster centered on its mean (0, 0): rows 1 to 4 all
        # lie at distance 1, and the lowest row is picked in either order
        points = [(2, 0), (1, 0), (0, -1), (-1, 0), (0, 1), (-2, 0)]
        for coords in (points, points[::-1]):
            slide = SlideRecord(
                slide_id="ties", patient_id="pt", site="brain", subtype="gbm",
                magnification="20x", coords=coords, features=np.ones((6, 3), dtype=np.float32),
            )
            (mosaic,) = build_mosaic_percent([slide], [np.ones(6)], 1, 0.1, [0])
            assert mosaic.coords.tolist() == [list(coords[1])]

    def test_grid_tie_picks_lowest_row(self):
        # a 4 x 4 grid clustered into one spatial cluster: the centroid
        # (1.5, 1.5) is equidistant from (1, 1), (1, 2), (2, 1) and (2, 2),
        # which sit at rows 9, 4, 12 and 6; the lowest row, 4, is kept
        grid = [(x, y) for x in range(4) for y in range(4)]
        order = [0, 3, 12, 15, 6, 1, 10, 2, 13, 5, 14, 7, 9, 11, 8, 4]
        coords = [grid[i] for i in order]
        slide = SlideRecord(
            slide_id="ties", patient_id="pt", site="brain", subtype="gbm",
            magnification="20x", coords=coords,
            features=np.ones((16, 3), dtype=np.float32),
        )
        (mosaic,) = build_mosaic_percent(
            [slide], [np.ones((16, 1))], k_primary=1, fraction=1 / 16, seeds=[0]
        )
        assert mosaic.coords.tolist() == [list(coords[4])]
        assert coords[4] == (1, 2)


@st.composite
def ragged_batches(draw):
    """Groups of float points sharing d, mixing k values, k = 1 groups,
    one-point groups and groups of a few repeated rows, where k above the
    distinct rows forces the zero-total index draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 16, 256]))
    groups, ks = [], []
    kinds = draw(st.lists(st.sampled_from(["normal", "repeats", "one"]), min_size=1, max_size=7))
    for kind in kinds:
        n = 1 if kind == "one" else int(rng.integers(2, 60))
        if kind == "repeats":
            base = rng.normal(size=(int(rng.integers(1, 4)), d))
            pts = base[rng.integers(0, len(base), n)]
        else:
            pts = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
        groups.append(pts)
        ks.append(int(rng.integers(1, min(n, 8) + 1)))
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, len(groups))]
    return groups, ks, seeds


#: size thresholds that send every group through the GEMM (and the direct
#: formula through one-point blocks), every group of 8 or more columns
#: through the lockstep pass's batched GEMM in blocks of a few groups,
#: every GEMM estimate into doubt (a roundoff so large that the direct
#: formula decides every point), every group through the direct formula in
#: the lockstep pass, most groups alone through the direct formula with
#: short padded-cdf blocks, and each centroid sum down either path
SOLVER_MODES = {
    "gemm": dict(GEMM_MIN_DIFFERENCES=0, DIRECT_BLOCK=1),
    "gemm, lockstep blocks": dict(
        GEMM_MIN_DIFFERENCES=0, ALONE_COLUMNS=2**62, PAIR_BLOCK=512, DIRECT_BLOCK=64
    ),
    "gemm, every point in doubt": dict(
        GEMM_MIN_DIFFERENCES=0, GEMM_MIN_COLUMNS=1, ALONE_COLUMNS=2**62, UNIT_ROUNDOFF=1e100
    ),
    "direct": dict(GEMM_MIN_DIFFERENCES=2**62),
    "direct, short runs": dict(GEMM_MIN_DIFFERENCES=2**62, PAIR_BLOCK=64),
    "gemm, per-cluster sums": dict(GEMM_MIN_DIFFERENCES=0, WIDE_ROWS=2),
    "direct, add.at sums": dict(GEMM_MIN_DIFFERENCES=2**62, WIDE_ROWS=2**62),
}


class TestClusterGroups:
    """Every group of one solver call against reference_kmeans on that group
    alone."""

    @given(ragged_batches(), st.sampled_from(sorted(SOLVER_MODES)))
    @settings(max_examples=120, deadline=None)
    def test_each_group_matches_reference(self, batch, mode):
        groups, ks, seeds = batch
        with patch.multiple(mosaic_module, **SOLVER_MODES[mode]):
            assign, centers = mosaic_module._cluster_groups(groups, ks, seeds)
        first_row, first_center = 0, 0
        for pts, k, seed in zip(groups, ks, seeds):
            own = assign[first_row : first_row + len(pts)] - first_center
            full = np.bincount(own, minlength=k) > 0
            want = reference_kmeans(pts, k, seed)
            assert ((np.cumsum(full) - 1)[own]).tobytes() == want.assignments.tobytes()
            got_centers = centers[first_center : first_center + k][full]
            assert got_centers.tobytes() == want.centroids.tobytes()
            first_row, first_center = first_row + len(pts), first_center + k
        assert first_row == len(assign) and first_center == len(centers)

    def test_zero_total_draws_an_index(self):
        # two distinct rows and k = 4: the third and fourth draws see every
        # point on a center and take rng.integers, not rng.random
        pts = np.array([[0.5, 1.5]] * 5 + [[2.25, -1.0]] * 5)
        for seed in range(5):
            got = mosaic_module._plus_plus_centers(pts, None, np.array([10]), np.array([4]), [seed])
            want = reference_plus_plus_seeding(pts, 4, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


class TestKMeansScale:
    def test_memory_is_linear_in_points_at_real_feature_size(self):
        # n = 3000, d = 1024, k = 20: the (n, k, d) broadcast peaked at
        # ~470 MB here; the GEMM kernel keeps to O(n k + n d)
        rng = np.random.default_rng(0)
        blobs = rng.normal(size=(20, 1024))
        pts = blobs[rng.integers(0, 20, 3000)] + 0.3 * rng.normal(size=(3000, 1024))
        tracemalloc.start()
        try:
            got = kmeans(pts, 20, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * pts.nbytes + 8 * 2**20
        want = reference_kmeans(pts, 20, seed=4)
        assert np.array_equal(got.assignments, want.assignments)

    def test_lockstep_build_memory_is_linear_in_input(self):
        # 2,000 slides of 100 16-bin histograms, every one in the lockstep
        # pass: its float64 copy of the rows, one gathered copy of the rows
        # still moving and blocks of PAIR_BLOCK pairs peak at about 3.0x the
        # input here; one padded (groups, k, rows) estimate of the whole
        # build would add about 0.8x
        rng = np.random.default_rng(0)
        groups = [rng.integers(0, 40, (100, 16)) / 256.0 for _ in range(2000)]
        tracemalloc.start()
        try:
            assign, _ = mosaic_module._cluster_groups(groups, [9] * 2000, list(range(2000)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4 * sum(pts.nbytes for pts in groups)
        for g in (0, 1999):
            want = reference_kmeans(groups[g], 9, g).assignments
            own = assign[100 * g : 100 * (g + 1)] - 9 * g
            assert ((np.cumsum(np.bincount(own, minlength=9) > 0) - 1)[own]).tobytes() == want.tobytes()


# The per-slide, per-group loop that the batched percent mosaic replaced, kept
# as the reference with reference_kmeans in place of kmeans: one k-means per
# slide, one per primary cluster and one _nearest_point_index call per spatial
# cluster.
def _nearest_point_index(points: np.ndarray, target: np.ndarray) -> int:
    # ties resolve to the lowest index via argmin
    return int(((points - target) ** 2).sum(axis=1).argmin())


def reference_build_mosaic_percent(
    slide: SlideRecord,
    cluster_features: np.ndarray,
    k_primary: int,
    fraction: float,
    seed: int,
) -> Mosaic:
    """Percent mosaic: feature clustering, then per-cluster spatial selection.

    Within each primary cluster a spatial k-means with
    k = ceil(fraction * cluster size) runs on the (x, y) coordinates and the
    member nearest each spatial centroid is kept, so every non-empty primary
    cluster contributes at least one patch.
    """
    feats = np.asarray(cluster_features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    if feats.shape[0] != len(slide.coords):
        raise DimensionError(
            f"cluster_features rows ({feats.shape[0]}) must match patch count ({len(slide.coords)})"
        )
    check_mosaic_params(k_primary, fraction)

    primary_seed, *spatial_seeds = _spawn_seeds(seed, 1 + k_primary)
    primary = reference_kmeans(feats, k_primary, primary_seed)

    coords = slide.coords.astype(np.float64)
    selected: list[int] = []
    for ci in range(primary.effective_k):
        group = np.flatnonzero(primary.assignments == ci)
        k_spatial = math.ceil(fraction * group.size)
        spatial = reference_kmeans(coords[group], k_spatial, spatial_seeds[ci])
        for sj in range(spatial.effective_k):
            members = group[spatial.assignments == sj]
            pick = members[_nearest_point_index(coords[members], spatial.centroids[sj])]
            selected.append(int(pick))

    selected.sort()
    return Mosaic(
        slide_id=slide.slide_id,
        coords=slide.coords[selected],
        features=slide.features[selected],
    )


def _distinct_cells(layout: str, n: int, rng) -> np.ndarray:
    """n distinct non-negative (x, y) cells: a grid, a line or a scatter,
    the shapes that put spatial centroids equidistant from members."""
    if layout == "grid":
        width = int(rng.integers(1, 31))
        cells = np.arange(n)
        return np.stack([cells % width, cells // width], axis=1)
    if layout == "collinear":
        step = int(rng.integers(1, 4))
        return np.stack([np.arange(n) * step, np.full(n, 7)], axis=1)
    side = int(np.ceil(np.sqrt(2 * n)))
    cells = rng.choice(side * side, n, replace=False)
    return np.stack([cells % side, cells // side], axis=1)


def _scaled(cells: np.ndarray, scale: str) -> np.ndarray:
    """Cells as they are, spread to about 2**26 (k-means++ totals about
    2**53, so some groups sum above the exact-integer range), or spread
    over all of int32 (distances beyond 2**53, rounded)."""
    top = int(cells.max()) + 1
    if scale == "unit":
        return cells
    if scale == "bound":
        return cells * max(1, 2**26 // top)
    return cells * ((2**32 - 1) // top) - 2**31


def _grouped_slide(slide_id, sizes, layout, scale, rng):
    """A slide whose patches fall in groups of the given sizes, interleaved
    in row order, plus cluster features that make each group one primary
    cluster: k-means++ on len(sizes) distinct values seeds every value."""
    cells = _scaled(_distinct_cells(layout, sum(sizes), rng), scale)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes)).astype(np.float64)
    slide = SlideRecord(
        slide_id=slide_id, patient_id="pt", site="brain", subtype="gbm",
        magnification="20x", coords=cells, features=rng.normal(size=(len(cells), 3)),
    )
    return slide, labels


class TestBatchedPercentMosaic:
    """The batched spatial stage against the per-group loop it replaced."""

    @given(
        st.lists(st.lists(st.integers(1, 200), min_size=1, max_size=4), min_size=1, max_size=3),
        st.sampled_from(["grid", "collinear", "scatter"]),
        st.sampled_from(["unit", "bound", "int32"]),
        st.sampled_from([0.001, 0.15, 0.2, 0.5, 1.0]),  # 0.001: k = 1 in every group
        st.sampled_from([1, 3, 64, mosaic_module.PAIR_BLOCK]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_group_loop(self, batch, layout, scale, fraction, block, seed):
        rng = np.random.default_rng(seed)
        groups = len(batch[0])
        batch = [(sizes * groups)[:groups] for sizes in batch]  # one k_primary per batch
        slides, features = zip(
            *(_grouped_slide(f"g{i}", sizes, layout, scale, rng) for i, sizes in enumerate(batch))
        )
        seeds = [int(s) for s in rng.integers(0, 2**63 - 1, len(slides))]
        with patch.object(mosaic_module, "PAIR_BLOCK", block):
            got = build_mosaic_percent(slides, features, groups, fraction, seeds)
        for slide, feats, s, mosaic in zip(slides, features, seeds, got):
            want = reference_build_mosaic_percent(slide, feats, groups, fraction, s)
            assert mosaic.slide_id == want.slide_id
            assert mosaic.coords.tobytes() == want.coords.tobytes()
            assert mosaic.features.tobytes() == want.features.tobytes()

    def test_large_totals_draw_as_kmeans_sums(self):
        # distances beyond 2**53 are rounded, so a k-means++ total hangs on
        # the order of summation: a group's sum differs from the sum of its
        # distances zero-padded to a longer group's length.  Seeded in one
        # pass with a longer group, the short group still draws what
        # reference_plus_plus_seeding draws from it alone.
        order_mattered = False
        for seed in range(4):
            rng = np.random.default_rng(seed)
            short = rng.integers(2**30, 2**31, (13, 1)).astype(np.float64) * [1.0, -1.0]
            long = rng.integers(0, 10, (40, 2)).astype(np.float64)
            d2 = ((short - short[0]) ** 2).sum(axis=1)
            order_mattered |= bool(np.pad(d2, (0, 27))[None].sum(axis=1)[0] != d2.sum())
            got = mosaic_module._plus_plus_centers(
                np.concatenate([long, short]), None, np.array([40, 13]), np.array([5, 5]),
                [seed, seed + 7],
            )
            for centers, pts, s in ((got[:5], long, seed), (got[5:], short, seed + 7)):
                want = reference_plus_plus_seeding(pts, 5, np.random.default_rng(s))
                assert centers.tobytes() == want.tobytes()
        assert order_mattered

    def test_slide_alone_equals_slide_in_batch(self):
        rng = np.random.default_rng(8)
        slides = [make_slide(f"b{i:02d}", rng.normal(size=(int(rng.integers(5, 150)), 16)))
                  for i in range(50)]
        features = [histogram_matrix(slide) for slide in slides]
        seeds = list(range(50))
        batch = build_mosaic_percent(slides, features, 9, 0.15, seeds)
        assert [m.slide_id for m in batch] == [s.slide_id for s in slides]
        for slide, feats, seed, mosaic in zip(slides, features, seeds, batch):
            (alone,) = build_mosaic_percent([slide], [feats], 9, 0.15, [seed])
            assert mosaic.coords.tobytes() == alone.coords.tobytes()
            assert mosaic.features.tobytes() == alone.features.tobytes()

    def test_no_per_slide_kmeans_call(self):
        # one solver call clusters every slide's primaries, one every
        # spatial group; kmeans itself is never called
        rng = np.random.default_rng(2)
        slides = [make_slide(f"c{i}", rng.normal(size=(80, 8))) for i in range(4)]
        calls = []
        real = mosaic_module._cluster_groups

        def counting(groups, ks, seeds):
            calls.append(len(groups))
            return real(groups, ks, seeds)

        def refuse(*args, **kwargs):
            raise AssertionError("kmeans called per slide")

        with patch.object(mosaic_module, "_cluster_groups", counting), \
                patch.object(mosaic_module, "kmeans", refuse):
            build_mosaic_percent(slides, [histogram_matrix(s) for s in slides], 9, 0.5, [1] * 4)
        assert len(calls) == 2
        assert calls[0] == 4  # the four slides' primaries

    def test_empty_batch_and_mismatched_lengths(self):
        assert build_mosaic_percent([], [], 9, 0.15, []) == []
        slide = make_slide("m", np.ones((4, 3)))
        with pytest.raises(ValueError):
            build_mosaic_percent([slide], [np.ones(4), np.ones(4)], 2, 0.5, [0])
        with pytest.raises(DimensionError):
            build_mosaic_percent([slide], [np.ones(5)], 2, 0.5, [0])

    def test_peak_memory_no_higher_than_per_group_loop(self):
        # a 10^4-patch slide: the loop's largest temporary is one group's
        # (points, k) distance matrix; the batch forms PAIR_BLOCK pairs at once
        rng = np.random.default_rng(0)
        slide = make_slide("big", rng.normal(size=(10_000, 16)))
        hist = histogram_matrix(slide)

        def peak(build):
            tracemalloc.start()
            try:
                mosaic = build()
                return tracemalloc.get_traced_memory()[1], mosaic
            finally:
                tracemalloc.stop()

        got_peak, (got,) = peak(lambda: build_mosaic_percent([slide], [hist], 9, 0.15, [3]))
        want_peak, want = peak(lambda: reference_build_mosaic_percent(slide, hist, 9, 0.15, 3))
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got_peak <= want_peak
