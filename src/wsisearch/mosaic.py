"""Two-stage clustering that reduces a slide's patch grid to a mosaic.

Two recipes exist.  The percent recipe clusters patches by an arbitrary
per-patch feature (the caller chooses raw features or a histogram
surrogate), then keeps a fixed fraction of each cluster by running a second
k-means on the spatial coordinates and picking the patch nearest each
spatial centroid.  The fixed recipe clusters patch features into a fixed
number of classes and keeps the centroids themselves as synthetic patches.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, EmptyInputError, ValidationError
from .model import PatchFeature, SlideRecord, slide_seed

PERCENT_OF_CLUSTERS = "percent_of_clusters"
FIXED_CENTROIDS = "fixed_centroids"

MAX_LLOYD_ITERATIONS = 100


@dataclass(frozen=True)
class KMeansResult:
    """Cluster assignment with empty clusters already dropped."""

    assignments: np.ndarray  # (n,) int, indices into centroids
    centroids: np.ndarray    # (k_effective, d)
    inertia: float
    requested_k: int

    @property
    def effective_k(self) -> int:
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.effective_k)


@dataclass(frozen=True)
class Mosaic:
    slide_id: str
    members: tuple[PatchFeature, ...]
    method: str
    params: dict = field(default_factory=dict)
    # populated only for fixed-centroid mosaics: patches per centroid
    cluster_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in (PERCENT_OF_CLUSTERS, FIXED_CENTROIDS):
            raise ValidationError(f"unknown mosaic method {self.method!r}")
        if not self.members:
            raise EmptyInputError(f"mosaic for slide {self.slide_id!r} is empty")

    def __len__(self) -> int:
        return len(self.members)

    def feature_matrix(self) -> np.ndarray:
        return np.stack([m.feature for m in self.members])


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
    requested = k
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
    inertia = float(((pts - centers[assign]) ** 2).sum())
    return KMeansResult(assignments=assign, centroids=centers, inertia=inertia, requested_k=requested)


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
    if not slide.patches:
        raise EmptyInputError(f"slide {slide.slide_id!r} has no patches")
    feats = np.asarray(cluster_features, dtype=np.float64)
    if feats.ndim == 1:
        feats = feats[:, None]
    if feats.shape[0] != len(slide.patches):
        raise DimensionError(
            f"cluster_features rows ({feats.shape[0]}) must match patch count ({len(slide.patches)})"
        )
    check_mosaic_params(k_primary, fraction)

    primary_seed, *spatial_seeds = _spawn_seeds(seed, 1 + k_primary)
    primary = kmeans(feats, k_primary, primary_seed)

    coords = np.array([[p.x, p.y] for p in slide.patches], dtype=np.float64)
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
        members=tuple(slide.patches[i] for i in selected),
        method=PERCENT_OF_CLUSTERS,
        params={"k_primary": k_primary, "fraction": fraction, "seed": seed},
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

    Members are synthetic patches whose feature is the centroid vector and
    whose coordinate is borrowed from the nearest real patch; k clamps to
    the patch count and degenerate slides collapse to fewer centroids.
    """
    if not slide.patches:
        raise EmptyInputError(f"slide {slide.slide_id!r} has no patches")
    feats = slide.feature_matrix().astype(np.float64)
    result = kmeans(feats, min(k_fixed, feats.shape[0]), seed)

    members = []
    for centroid in result.centroids:
        anchor = slide.patches[_nearest_point_index(feats, centroid)]
        members.append(PatchFeature(anchor.x, anchor.y, centroid.astype(np.float32)))
    sizes = tuple(int(s) for s in result.cluster_sizes())
    return Mosaic(
        slide_id=slide.slide_id,
        members=tuple(members),
        method=FIXED_CENTROIDS,
        params={"k_fixed": k_fixed, "seed": seed},
        cluster_sizes=sizes,
    )


def feature_histogram(feature: np.ndarray, bins: int, value_range: tuple[float, float]) -> np.ndarray:
    """Normalized histogram of a feature's components, a stand-in for the
    color histograms some recipes cluster on."""
    counts, _ = np.histogram(np.asarray(feature, dtype=np.float64), bins=bins, range=value_range)
    return counts.astype(np.float64) / max(1, counts.sum())


def histogram_matrix(slide: SlideRecord, bins: int = 16) -> np.ndarray:
    """Per-patch histogram surrogate over a slide-wide value range."""
    feats = slide.feature_matrix()
    lo, hi = float(feats.min()), float(feats.max())
    if lo == hi:
        hi = lo + 1.0
    return np.stack([feature_histogram(p.feature, bins, (lo, hi)) for p in slide.patches])
