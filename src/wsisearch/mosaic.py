"""Two-stage clustering that reduces a slide's patch grid to a mosaic.

Two recipes exist.  The percent recipe clusters patches by an arbitrary
per-patch feature (the caller chooses raw features or a histogram
surrogate), then keeps a fixed fraction of each cluster by running a second
k-means on the spatial coordinates and picking the patch nearest each
spatial centroid.  The fixed recipe clusters patch features into a fixed
number of classes and keeps the centroids themselves as synthetic patches.
A mosaic is columnar like its slide: row i of coords and features is member i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, EmptyInputError, ValidationError
from .model import SlideRecord, slide_seed

PERCENT_OF_CLUSTERS = "percent_of_clusters"
FIXED_CENTROIDS = "fixed_centroids"

MAX_LLOYD_ITERATIONS = 100
HISTOGRAM_BLOCK = 65536


@dataclass(frozen=True)
class KMeansResult:
    """Cluster assignment with empty clusters already dropped."""

    assignments: np.ndarray  # (n,) int, indices into centroids
    centroids: np.ndarray    # (k_effective, d)

    @property
    def effective_k(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.effective_k)


@dataclass(frozen=True, eq=False)
class Mosaic:
    slide_id: str
    coords: np.ndarray  # (m, 2) int32, one (x, y) per member
    features: np.ndarray  # (m, dim) float32, one feature per member
    method: str
    # populated only for fixed-centroid mosaics: patches per centroid
    cluster_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in (PERCENT_OF_CLUSTERS, FIXED_CENTROIDS):
            raise ValidationError(f"unknown mosaic method {self.method!r}")
        if len(self) == 0:
            raise EmptyInputError(f"mosaic for slide {self.slide_id!r} is empty")

    def __len__(self) -> int:
        return int(self.features.shape[0])


def _plus_plus_seeding(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def kmeans(points: Sequence[Sequence[float]] | np.ndarray, k: int, seed: int) -> KMeansResult:
    """Deterministic Lloyd k-means with k-means++ seeding.

    Iterates to an assignment fixpoint or MAX_LLOYD_ITERATIONS.  k larger
    than the point count is clamped; clusters that end up empty are dropped
    and the remaining centroid indices compacted, so the requested and
    effective k can differ.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise EmptyInputError("k-means needs at least one point")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, pts.shape[0])

    rng = np.random.default_rng(seed)
    centers = _plus_plus_seeding(pts, k, rng)
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


def _nearest_point_index(points: np.ndarray, target: np.ndarray) -> int:
    # ties resolve to the lowest index via argmin
    return int(((points - target) ** 2).sum(axis=1).argmin())


def _spawn_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


def check_mosaic_params(k_primary: int, fraction: float, bins: int = 1) -> None:
    """Reject percent-mosaic settings that no slide could satisfy; ``bins``
    is the histogram surrogate's, left at 1 by recipes without one."""
    if k_primary < 1:
        raise ValidationError(f"k_primary must be >= 1, got {k_primary}")
    if not (0.0 < fraction <= 1.0):
        raise ValidationError(f"fraction must lie in (0, 1], got {fraction}")
    if bins < 1:
        raise ValidationError(f"histogram_bins must be >= 1, got {bins}")


def build_mosaic_percent(
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
    primary = kmeans(feats, k_primary, primary_seed)

    coords = slide.coords.astype(np.float64)
    selected: list[int] = []
    for ci in range(primary.effective_k):
        group = np.flatnonzero(primary.assignments == ci)
        k_spatial = math.ceil(fraction * group.size)
        spatial = kmeans(coords[group], k_spatial, spatial_seeds[ci])
        for sj in range(spatial.effective_k):
            members = group[spatial.assignments == sj]
            pick = members[_nearest_point_index(coords[members], spatial.centroids[sj])]
            selected.append(int(pick))

    selected.sort()
    return Mosaic(
        slide_id=slide.slide_id,
        coords=slide.coords[selected],
        features=slide.features[selected],
        method=PERCENT_OF_CLUSTERS,
    )


def histogram_mosaic(
    slide: SlideRecord, k_primary: int, fraction: float, bins: int, seed: int
) -> Mosaic:
    """Percent mosaic clustered on the per-patch histogram surrogate.

    ``seed`` is the engine's base seed; each slide draws its own from it, so
    a slide's mosaic does not depend on which other slides are indexed.
    """
    return build_mosaic_percent(
        slide,
        histogram_matrix(slide, bins=bins),
        k_primary=k_primary,
        fraction=fraction,
        seed=slide_seed(seed, slide.slide_id),
    )


def build_mosaic_fixed(slide: SlideRecord, k_fixed: int, seed: int) -> Mosaic:
    """Fixed mosaic: k-means centroids of the patch features themselves.

    Members are synthetic patches: the float32 centroid vectors, each at the
    coordinate of its nearest real patch; k clamps to the patch count and
    degenerate slides collapse to fewer centroids.
    """
    feats = slide.features.astype(np.float64)
    result = kmeans(feats, min(k_fixed, feats.shape[0]), seed)

    anchors = [_nearest_point_index(feats, centroid) for centroid in result.centroids]
    sizes = tuple(int(s) for s in result.cluster_sizes())
    return Mosaic(
        slide_id=slide.slide_id,
        coords=slide.coords[anchors],
        features=result.centroids.astype(np.float32),
        method=FIXED_CENTROIDS,
        cluster_sizes=sizes,
    )


def histogram_matrix(slide: SlideRecord, bins: int = 16) -> np.ndarray:
    """Per-patch normalized histogram of the feature components over the
    slide-wide value range, a stand-in for the color histograms some recipes
    cluster on.  Uses ``np.histogram``'s arithmetic (edges, index corrections,
    right edge in the last bin) on blocks of whole rows, about HISTOGRAM_BLOCK
    components each as np.histogram blocks its input, to bound temporaries."""
    lo, hi = float(slide.features.min()), float(slide.features.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    n, dim = slide.features.shape
    step = max(1, HISTOGRAM_BLOCK // dim)
    counts = np.empty((n, bins))
    for start in range(0, n, step):
        feats = slide.features[start : start + step].astype(np.float64)
        index = ((feats - lo) / (hi - lo) * bins).astype(np.intp)
        index[index == bins] -= 1
        index[feats < edges[index]] -= 1
        index[(feats >= edges[index + 1]) & (index != bins - 1)] += 1
        index += np.arange(len(feats))[:, None] * bins  # one run of bins per row
        block = np.bincount(index.ravel(), minlength=len(feats) * bins)
        counts[start : start + step] = block.reshape(-1, bins)
    return counts / dim
