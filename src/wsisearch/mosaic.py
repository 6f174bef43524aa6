"""Two-stage clustering that reduces a slide's patch grid to a mosaic.

Two recipes exist.  The percent recipe clusters patches by an arbitrary
per-patch feature (the caller chooses raw features or a histogram
surrogate), then keeps a fixed fraction of each cluster by running a second
k-means on the spatial coordinates and picking the patch nearest each
spatial centroid; it takes a batch of slides, whose spatial clusterings
all run in one lockstep pass.  The fixed recipe clusters patch features into
a fixed number of classes and keeps the centroids themselves as synthetic
patches.  A mosaic is columnar like its slide: row i of coords and features
is member i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, EmptyInputError, ValidationError
from .model import Encoding, SlideRecord, encode_slides, slide_seed

PERCENT_OF_CLUSTERS = "percent_of_clusters"
FIXED_CENTROIDS = "fixed_centroids"

MAX_LLOYD_ITERATIONS = 100
HISTOGRAM_BLOCK = 65536
#: below this many differences (points x centers x dims) the direct distance
#: formula costs less than the GEMM and its certificate
GEMM_MIN_DIFFERENCES = 4096
#: differences the direct formula forms at once, to bound its temporaries
DIRECT_BLOCK = 16384
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
#: per dimension, more than the absolute error that underflowing products add
#: to the two distance forms together
SUBNORMAL_SLACK = 8 * np.finfo(np.float64).smallest_subnormal
#: (point, center) pairs, or padded distances, the spatial stage of the
#: percent mosaic forms at once, to bound its temporaries
PAIR_BLOCK = 16384
#: sums of integers below this are exact in any order
EXACT_SUM = 2.0**53


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


def _direct_sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``((x - c) ** 2).sum()`` for every (point, center) pair, the reference
    arithmetic, over blocks of points of about DIRECT_BLOCK differences."""
    step = max(1, DIRECT_BLOCK // centers.size)
    return np.concatenate(
        [
            ((points[start : start + step, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            for start in range(0, points.shape[0], step)
        ]
    )


def _gemm_sq_distances(
    points: np.ndarray, centers: np.ndarray, points_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``|x|^2 - 2 x.c + |c|^2`` for every (point, center) pair from one GEMM,
    and per point a bound on how far each of its estimates may lie from the
    direct formula's value.

    Both forms lie within 4(d+3)u(|x|^2 + |c|^2) of the exact squared
    distance (u the unit roundoff; the direct one from its d subtractions,
    d squares and d - 1 additions, the GEMM one from the norms, the dot
    product and the two additions), so they differ by at most twice that.
    A non-finite norm or estimate in a row makes its bound infinite or NaN,
    which no comparison the callers make passes.
    """
    d = points.shape[1]
    centers_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += points_sq[:, None]
    d2 += centers_sq
    err = 8 * (d + 3) * UNIT_ROUNDOFF * (points_sq + centers_sq.max()) + SUBNORMAL_SLACK * d
    err[~np.isfinite(d2).all(axis=1)] = np.inf  # an overflow voids the bound
    return d2, err


def _nearest(
    points: np.ndarray, centers: np.ndarray, points_sq: np.ndarray | None = None
) -> np.ndarray:
    """Row index into ``centers`` of the center nearest each point.

    The result is the argmin of the direct ``((x - c) ** 2).sum()``, the
    lowest center index among ties.  Inputs of fewer than
    GEMM_MIN_DIFFERENCES differences take the direct formula outright.
    Larger ones take the (n, k) GEMM estimate: a point whose two smallest
    estimates lie further apart than twice the estimate's error bound has
    the same argmin under the direct formula, and the other points (ties,
    near-ties, non-finite values) are recomputed with it.  ``points_sq``
    holds the points' squared norms when the caller reuses them.  Memory is
    O(n k) plus a copy of the rows recomputed.
    """
    n, d = points.shape
    if n * centers.shape[0] * d < GEMM_MIN_DIFFERENCES:
        return _direct_sq_distances(points, centers).argmin(axis=1)
    if points_sq is None:
        points_sq = np.einsum("ij,ij->i", points, points)
    d2, err = _gemm_sq_distances(points, centers, points_sq)
    rows = np.arange(n)
    best = d2.argmin(axis=1)
    first = d2[rows, best]
    d2[rows, best] = np.inf
    doubt = np.flatnonzero(~(d2.min(axis=1) - first > 2 * err))
    if doubt.size:
        best[doubt] = _direct_sq_distances(points[doubt], centers).argmin(axis=1)
    return best


def _lower_to_center(
    d2: np.ndarray, points: np.ndarray, points_sq: np.ndarray, center: np.ndarray
) -> None:
    """Lower ``d2`` in place to each point's direct distance to ``center``
    where that is smaller, taking the direct formula only for the points
    whose GEMM estimate cannot rule it out."""
    n, d = points.shape
    center = center[None, :]
    if n * d < GEMM_MIN_DIFFERENCES:
        np.minimum(d2, _direct_sq_distances(points, center)[:, 0], out=d2)
        return
    est, err = _gemm_sq_distances(points, center, points_sq)
    maybe = np.flatnonzero(~(est[:, 0] - err > d2))
    d2[maybe] = np.minimum(d2[maybe], _direct_sq_distances(points[maybe], center)[:, 0])


def _plus_plus_seeding(
    points: np.ndarray, points_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = _direct_sq_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at distance zero: duplicate points
            idx = int(rng.integers(n))
        else:
            # the draw rng.choice(n, p=d2 / total) makes, without its checks
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centers[i] = points[idx]
        _lower_to_center(d2, points, points_sq, centers[i])
    return centers


def _move_centers(centers: np.ndarray, points: np.ndarray, assign: np.ndarray) -> None:
    """Move each non-empty cluster's center to its points' mean, in place;
    empty clusters keep their previous position (kmeans drops them).

    A stable sort by cluster makes each cluster one block of rows in their
    original order, and the block's ``add.reduce`` over its size is the
    arithmetic of ``points[assign == j].mean(axis=0)``, bit for bit.
    """
    grouped = points[np.argsort(assign, kind="stable")]
    start = 0
    for j, end in enumerate(np.bincount(assign, minlength=len(centers)).cumsum().tolist()):
        if end > start:
            centers[j] = np.add.reduce(grouped[start:end], axis=0) / (end - start)
        start = end


def kmeans(points: Sequence[Sequence[float]] | np.ndarray, k: int, seed: int) -> KMeansResult:
    """Deterministic Lloyd k-means with k-means++ seeding.

    Iterates to an assignment fixpoint or MAX_LLOYD_ITERATIONS.  k larger
    than the point count is clamped; clusters that end up empty are dropped
    and the remaining centroid indices compacted, so the requested and
    effective k can differ.

    Exact: every assignment is the argmin of the direct
    ``((x - c) ** 2).sum()`` with ties to the lowest centroid index (see
    _nearest), every k-means++ draw weighs the points by that formula's
    distances, and every centroid is its cluster's ``mean(axis=0)``, so
    assignments and centroids are bit for bit those of the Lloyd loop that
    forms every difference.  Memory is O(n k + n d): no (n, k, d) tensor
    is formed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    # C order: the k == 1 mean must add whole rows in turn, as a mean over
    # a cluster's copied rows does
    pts = np.ascontiguousarray(pts)
    if pts.shape[0] == 0:
        raise EmptyInputError("k-means needs at least one point")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, pts.shape[0])
    if k == 1:
        # one cluster holds every point whatever the seed: no draw, one mean
        return KMeansResult(
            assignments=np.zeros(pts.shape[0], dtype=np.int64),
            centroids=pts.mean(axis=0)[None, :],
        )

    rng = np.random.default_rng(seed)
    pts_sq = np.einsum("ij,ij->i", pts, pts)
    centers = _plus_plus_seeding(pts, pts_sq, k, rng)
    assign = np.full(pts.shape[0], -1, dtype=np.int64)
    for _ in range(MAX_LLOYD_ITERATIONS):
        new_assign = _nearest(pts, centers, pts_sq)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        _move_centers(centers, pts, assign)

    counts = np.bincount(assign, minlength=k)
    keep = np.flatnonzero(counts > 0)
    remap = np.full(k, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    assign = remap[assign]
    centers = centers[keep]
    return KMeansResult(assignments=assign, centroids=centers)


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


def _sq_distances(px, py, cx, cy) -> np.ndarray:
    """``((p - c) ** 2).sum()`` of 2-D points, the reference arithmetic: one
    square per coordinate difference, then one addition."""
    dx = px - cx
    dy = py - cy
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _next_centers(
    d2: np.ndarray,
    start: np.ndarray,
    group: np.ndarray,
    pos: np.ndarray,
    first: int,
    last: int,
    u: np.ndarray,
) -> np.ndarray:
    """Position within its group of the next k-means++ center of each group
    ``first`` up to ``last``, from each group's distances ``d2`` and its
    uniform draw ``u``: the ``(d2 / total).cumsum()`` search kmeans makes.

    The groups' distances fill one zero-padded row each, longest first, so
    a row-wise cumsum adds each group's terms in its own order.  The
    distances are integers, and so is every partial sum of a total below
    2**53, whatever the order; a larger total is the group's own ``sum()``.
    """
    span = slice(start[first], start[last])
    sizes = start[first + 1 : last + 1] - start[first:last]
    rows = np.zeros((last - first, sizes[0]))
    rows[group[span] - first, pos[span]] = d2[span]
    totals = rows.sum(axis=1)
    for j in np.flatnonzero(totals >= EXACT_SUM).tolist():
        totals[j] = d2[start[first + j] : start[first + j + 1]].sum()
    rows /= totals[:, None]
    cdf = np.cumsum(rows, axis=1)
    # padding repeats a row's last sum, which normalizes to 1 > u
    cdf /= cdf[np.arange(last - first), sizes - 1][:, None]
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _seeding_draws(seed: int, size: int, k: int) -> tuple[int, np.ndarray]:
    """What kmeans draws to seed k centers among ``size`` distinct points."""
    rng = np.random.default_rng(seed)
    return int(rng.integers(size)), rng.random(k - 1)


def _seed_centers(
    px: np.ndarray,
    py: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    start: np.ndarray,
    group: np.ndarray,
    k: np.ndarray,
    seeds: list[int],
) -> None:
    """k-means++ seeding of groups 0 up to len(seeds), whose k > 1, into
    centers ``cx``, ``cy``, one center per group per step.

    Group g draws what kmeans draws from ``default_rng(seeds[g])``: the
    first center's index, then one uniform per further center.

    Group g owns points start[g] up to start[g + 1] and centers from
    (k[:g]).sum() on; groups run longest first, so the groups still drawing
    at step i are a prefix.
    """
    seeded = len(seeds)
    n = np.diff(start[: seeded + 1])
    cstart = np.cumsum(k[:seeded]) - k[:seeded]
    live = int(start[seeded])
    pos = np.arange(live) - start[group[:live]]
    firsts, uniforms = zip(*map(_seeding_draws, seeds, n.tolist(), k[:seeded].tolist()))
    chosen = start[:seeded] + np.array(firsts)
    uniforms = np.concatenate(uniforms)
    ustart = cstart - np.arange(seeded)  # k - 1 uniforms per group
    cx[cstart], cy[cstart] = px[chosen], py[chosen]
    d2 = _sq_distances(
        px[:live], py[:live], np.repeat(px[chosen], n), np.repeat(py[chosen], n)
    )
    for i in range(1, int(k[0])):
        drawing = int(np.count_nonzero(k > i))
        picked = np.empty(drawing, dtype=np.int64)
        a = 0
        while a < drawing:
            b = min(drawing, a + max(1, PAIR_BLOCK // int(n[a])))
            u = uniforms[ustart[a:b] + i - 1]
            picked[a:b] = _next_centers(d2, start, group, pos, a, b, u)
            a = b
        chosen = start[:drawing] + picked
        cx[cstart[:drawing] + i], cy[cstart[:drawing] + i] = px[chosen], py[chosen]
        span = int(start[drawing])
        near = _sq_distances(
            px[:span], py[:span], np.repeat(px[chosen], n[:drawing]),
            np.repeat(py[chosen], n[:drawing]),
        )
        np.minimum(d2[:span], near, out=d2[:span])


def _nearest_centers(
    px: np.ndarray, py: np.ndarray, cx: np.ndarray, cy: np.ndarray,
    points: np.ndarray, first_center: np.ndarray, k: np.ndarray,
) -> np.ndarray:
    """Per point, the index within its group of the nearest of the group's
    k centers, the lowest index on ties; a point's group has centers
    ``first_center`` up to ``first_center + k``, and ``k`` never rises
    along ``points``.

    Points of one k form a run, whose (point, center) pairs are one
    (points, k) block; blocks hold at most PAIR_BLOCK pairs.
    """
    nearest = np.empty(len(points), dtype=np.int64)
    bounds = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), len(points)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        width = int(k[a])
        step = max(1, PAIR_BLOCK // width)
        for lo in range(a, b, step):
            hi = min(b, lo + step)
            p = points[lo:hi]
            centers = first_center[lo:hi, None] + np.arange(width)
            d = _sq_distances(px[p, None], py[p, None], cx[centers], cy[centers])
            nearest[lo:hi] = d.argmin(axis=1)
    return nearest


def _to_means(
    cx: np.ndarray, cy: np.ndarray, center: np.ndarray, px: np.ndarray, py: np.ndarray
) -> None:
    """Move each center that has points to their mean, in place; bincount
    adds a center's points in their order, as kmeans's mean does."""
    counts = np.bincount(center, minlength=len(cx))
    full = np.flatnonzero(counts)
    cx[full] = np.bincount(center, px, len(cx))[full] / counts[full]
    cy[full] = np.bincount(center, py, len(cy))[full] / counts[full]


def _spatial_picks(
    points: np.ndarray, sizes: np.ndarray, seeds: Sequence[int], fraction: float
) -> np.ndarray:
    """Rows of ``points`` kept by the spatial stage of the percent mosaic.

    ``points`` holds the (x, y) of every group, one group after another and
    each in slide row order; group g has sizes[g] points, which must be
    distinct.  For each group the result is what
    ``kmeans(group, ceil(fraction * size), seeds[g])`` followed by a pick
    of the member nearest each non-empty cluster's centroid (the lowest row
    on ties) gives, bit for bit; every group is processed at once, in
    lockstep.

    - Groups are laid out longest first, so k = ceil(fraction * size) never
      rises along the layout: the groups still drawing centers, and the
      groups of one k, are contiguous.
    - A group of k = 1 is one cluster whatever its seed, centered on its
      mean.  Each other group draws from its own ``default_rng(seeds[g])``
      what kmeans draws: the first center's index, then one uniform per
      further center.  Distinct points keep every k-means++ total
      positive, so kmeans's duplicate-point redraw never happens.
    - Distances are formed by kmeans's own operations.  Sums of integer
      coordinates and distances are exact while below 2**53; the centroid
      sums also add each cluster's members in row order, as kmeans does,
      and a larger k-means++ total is summed as kmeans sums it.
    - A group leaves the Lloyd loop at its assignment fixpoint, or after
      MAX_LLOYD_ITERATIONS, as kmeans does.
    """
    by_size = np.argsort(-sizes, kind="stable")
    n = sizes[by_size]
    end = np.cumsum(n)
    start = np.concatenate(([0], end))
    group = np.repeat(np.arange(len(n)), n)
    perm = np.repeat(np.cumsum(sizes)[by_size] - end, n) + np.arange(end[-1])  # layout -> row
    px, py = points[perm].T.copy()
    k = np.ceil(fraction * n).astype(np.int64)  # fraction <= 1 keeps k <= size
    first_center = (np.cumsum(k) - k)[group]
    cx, cy = np.empty(int(k.sum())), np.empty(int(k.sum()))
    assign = np.zeros(len(perm), dtype=np.int64)

    seeded = int(np.count_nonzero(k > 1))
    live = int(start[seeded])  # points of the groups of k > 1
    if seeded:
        group_seeds = [seeds[g] for g in by_size[:seeded].tolist()]
        _seed_centers(px, py, cx, cy, start, group, k, group_seeds)
        # Lloyd iterations; members holds the points of the groups still moving
        members = np.arange(live)
        assign[:live] = -1
        for _ in range(MAX_LLOYD_ITERATIONS):
            nearest = _nearest_centers(
                px, py, cx, cy, members, first_center[members], k[group[members]]
            )
            moved = np.zeros(seeded, dtype=bool)
            moved[group[members[nearest != assign[members]]]] = True
            keep = moved[group[members]]
            members = members[keep]
            if not members.size:
                break
            assign[members] = nearest[keep]
            _to_means(cx, cy, first_center[members] + assign[members], px[members], py[members])
    # each group of k = 1 is one cluster, centered on its mean
    _to_means(cx, cy, first_center[live:], px[live:], py[live:])

    # per non-empty cluster, the member nearest its centroid, lowest row on ties
    center = first_center + assign
    d = _sq_distances(px, py, cx[center], cy[center])
    order = np.lexsort((d, center))
    return perm[order[np.diff(center[order], prepend=-1) != 0]]


def build_mosaic_percent(
    slides: Sequence[SlideRecord],
    cluster_features: Iterable[np.ndarray],
    k_primary: int,
    fraction: float,
    seeds: Sequence[int],
) -> list[Mosaic]:
    """Percent mosaics of ``slides``: slide i is clustered on the rows of
    ``cluster_features[i]`` with seed ``seeds[i]``.

    Per slide, one feature k-means makes the primary clusters.  Within
    each primary cluster a spatial k-means with
    k = ceil(fraction * cluster size) runs on the (x, y) coordinates and the
    member nearest each spatial centroid is kept, so every non-empty
    primary cluster contributes at least one patch.  The spatial stage of
    every slide runs as one batch (``_spatial_picks``), yet each cluster
    draws from its own seed, so a slide's mosaic does not depend on the
    other slides in the batch.  ``cluster_features`` may be a generator:
    each slide's features are read once, before the spatial stage.
    """
    check_mosaic_params(k_primary, fraction)
    if not slides:
        return []
    rows, sizes, spatial_seeds = [], [], []
    for slide, features, seed in zip(slides, cluster_features, seeds, strict=True):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim == 1:
            feats = feats[:, None]
        if feats.shape[0] != len(slide.coords):
            raise DimensionError(
                f"cluster_features rows ({feats.shape[0]}) must match patch count "
                f"({len(slide.coords)}) of slide {slide.slide_id!r}"
            )
        primary_seed, *cluster_seeds = _spawn_seeds(seed, 1 + k_primary)
        primary = kmeans(feats, k_primary, primary_seed)
        # each primary cluster's members in turn, each in slide row order
        rows.append(np.argsort(primary.assignments, kind="stable"))
        sizes.append(primary.cluster_sizes())
        spatial_seeds += cluster_seeds[: primary.effective_k]

    points = np.concatenate([s.coords[r] for s, r in zip(slides, rows)]).astype(np.float64)
    picks = _spatial_picks(points, np.concatenate(sizes), spatial_seeds, fraction)
    slide_of = np.repeat(np.arange(len(slides)), [len(r) for r in rows])[picks]
    row_of = np.concatenate(rows)[picks]
    order = np.lexsort((row_of, slide_of))
    bounds = np.cumsum(np.bincount(slide_of, minlength=len(slides)))[:-1]
    return [
        Mosaic(
            slide_id=slide.slide_id,
            coords=slide.coords[selected],
            features=slide.features[selected],
            method=PERCENT_OF_CLUSTERS,
        )
        for slide, selected in zip(slides, np.split(row_of[order], bounds))
    ]


def histogram_mosaics(
    slides: Sequence[SlideRecord], k_primary: int, fraction: float, bins: int, seed: int
) -> list[Mosaic]:
    """Percent mosaics clustered on the per-patch histogram surrogate.

    ``seed`` is the engine's base seed; each slide draws its own from it, so
    a slide's mosaic does not depend on which other slides are indexed.
    """
    return build_mosaic_percent(
        slides,
        (histogram_matrix(slide, bins=bins) for slide in slides),
        k_primary=k_primary,
        fraction=fraction,
        seeds=[slide_seed(seed, slide.slide_id) for slide in slides],
    )


def encode_mosaics(
    slides: Sequence[SlideRecord],
    mosaics: Callable[[Sequence[SlideRecord]], list[Mosaic]],
    encode: Callable[[Mosaic], Encoding],
) -> tuple[list[tuple[SlideRecord, Encoding]], list[tuple[str, str]]]:
    """``encode_slides`` for an engine that indexes percent mosaics: every
    slide's mosaic comes from one ``mosaics`` call, then ``encode`` turns
    each mosaic into its slide's encoding."""
    built = {mosaic.slide_id: mosaic for mosaic in mosaics(slides)}
    return encode_slides(slides, lambda slide: encode(built[slide.slide_id]))


def build_mosaic_fixed(slide: SlideRecord, k_fixed: int, seed: int) -> Mosaic:
    """Fixed mosaic: k-means centroids of the patch features themselves.

    Members are synthetic patches: the float32 centroid vectors, each at the
    coordinate of its nearest real patch; k clamps to the patch count and
    degenerate slides collapse to fewer centroids.  No engine calls it: HSHR
    hashes the slide's mean feature, which population attention over this
    mosaic equals.  perfbench's tracer binds it by name, and HSHR's tests use
    it as the oracle of that hash.
    """
    feats = slide.features.astype(np.float64)
    result = kmeans(feats, min(k_fixed, feats.shape[0]), seed)

    anchors = _nearest(result.centroids, feats)
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
