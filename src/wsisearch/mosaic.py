"""Two-stage clustering that reduces a slide's patch grid to a mosaic.

Two recipes exist.  The percent recipe clusters patches by an arbitrary
per-patch feature (RetCCL passes the raw features; Yottixel and SISH share
histogram_mosaics, the histogram surrogate under their own params), then
keeps a fixed fraction of each cluster by running a second k-means on the
spatial coordinates and picking the patch nearest each spatial centroid.
The fixed recipe clusters patch features into a fixed number of classes and
keeps the centroids themselves as synthetic patches; no engine indexes it.
A mosaic holds only its members, not its recipe, and is columnar like its
slide: row i of coords and features is member i.

Every clustering runs through one exact k-means over ragged groups of
points that share d (_cluster_groups): a batch of percent mosaics, a
query's one-slide batch included, makes two calls, one for every slide's
primaries and one for every spatial group; kmeans is the one-group call.
Only a group that fills a GEMM by itself runs alone: rows of ALONE_COLUMNS
columns or more (RetCCL's 256- and 512-dim features) or PAIR_BLOCK pairs.
All others, a build's 16-bin histogram primaries among them, run in one
lockstep pass, where rows of GEMM_MIN_COLUMNS columns or more take batched
GEMM estimates, (groups, k, d) @ (groups, d, rows) over groups zero-padded
a block of PAIR_BLOCK pairs at a time, and narrower rows (the spatial
groups) the direct formula.  Each group's result is bit for bit the
reference loop's on that group alone: every GEMM estimate carries an error
bound, and a point it cannot decide takes the direct
``((x - c) ** 2).sum()``; each k-means++ total is the group's own ``sum()``
(a sum padded to another group's length rounds differently on floats); and
each centroid sums its rows in the order ``mean(axis=0)`` does.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, EmptyInputError, ValidationError
from .model import Encoding, SlideRecord, database_dim, encode_slides, slide_seed

MAX_LLOYD_ITERATIONS = 100
HISTOGRAM_BLOCK = 65536
#: below this many differences (points x centers x dims) the direct distance
#: formula costs less than the GEMM and its certificate: one group's nearest
#: centers broke even at 9,000-16,000 (25 x 1 x 256: 23 us direct, 48 us on
#: the GEMM), so a k-means++ step, one new center, of a RetCCL query's 25 x
#: 256 primaries runs direct, while their 25 x 9 x 256 Lloyd steps keep the
#: GEMM (at 65,536 they left it, and the query mosaic slowed again)
GEMM_MIN_DIFFERENCES = 16384
#: differences the direct formula forms at once, to bound its temporaries
DIRECT_BLOCK = 65536
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
#: per dimension, more than the absolute error that underflowing products add
#: to the two distance forms together
SUBNORMAL_SLACK = 8 * np.finfo(np.float64).smallest_subnormal
#: columns from which a gather and a sum per cluster cost less than np.add.at
#: over every element (about 0.1 us a row and 1 ns an element against 3 ns)
WIDE_ROWS = 64
#: (point, center) pairs a GEMM block, or cells of padded k-means++ cdfs,
#: formed at once, to bound their temporaries; a group of this many pairs
#: clusters alone
PAIR_BLOCK = 65536
#: columns from which a padded, batched GEMM over many groups costs less
#: than the direct formula (at 2 columns it slowed the spatial stage)
GEMM_MIN_COLUMNS = 8
#: columns from which a group clusters alone: on 16 slides of 600 rows its
#: own GEMMs and the lockstep pass break even at 64 columns, and at 512 the
#: lockstep pass took 0.30 s against 0.25 s
ALONE_COLUMNS = 64


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
    # populated only for fixed-centroid mosaics: patches per centroid
    cluster_sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self) == 0:
            raise EmptyInputError(f"mosaic for slide {self.slide_id!r} is empty")

    def __len__(self) -> int:
        return int(self.features.shape[0])


def _sq_distances(
    points: np.ndarray, centers: np.ndarray, first: np.ndarray | None = None
) -> np.ndarray:
    """(n, k) ``((x - c) ** 2).sum()`` of each point and each of its k
    centers, the reference arithmetic, over blocks of points of about
    DIRECT_BLOCK differences.  ``centers`` is (k, d), every point's, or
    (r, k, d) sets of k, of which point i takes set first[i]."""
    k, d = centers.shape[-2:]
    step = max(1, DIRECT_BLOCK // (k * d))
    if len(points) > step:
        return np.concatenate([
            _sq_distances(
                points[lo : lo + step], centers, None if first is None else first[lo : lo + step]
            )
            for lo in range(0, len(points), step)
        ])
    if d >= 8:
        own = centers if first is None else centers[first]
        return ((points[:, None, :] - own) ** 2).sum(axis=-1)
    out = 0.0  # numpy's sum adds fewer than 8 terms in turn from 0, as this loop does, but slower
    for j in range(d):
        sq = points[:, j, None] - (centers[..., j] if first is None else centers[..., j][first])
        sq *= sq
        out += sq
    return out


def _gemm_sq_distances(
    points: np.ndarray, centers: np.ndarray, points_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``|x|^2 - 2 x.c + |c|^2`` for every (center, point) pair from one
    GEMM, laid out (k, n), and per point a bound on how far each of its
    estimates may lie from the direct formula's value.  ``points`` is
    (n, d) and ``centers`` (k, d), or (g, n, d) and (g, k, d) for g groups,
    each point paired with its own group's centers: (g, k, n) estimates.

    Both forms lie within 4(d+3)u(|x|^2 + |c|^2) of the exact squared
    distance (u the unit roundoff; the direct one from its d subtractions,
    d squares and d - 1 additions, the GEMM one from the norms, the dot
    product and the two additions, in whatever order they are summed), so
    they differ by at most twice that.  A non-finite norm or estimate in a
    point's column makes its bound infinite or NaN, which no comparison the
    callers make passes.
    """
    d = points.shape[-1]
    centers_sq = np.einsum("...ij,...ij->...i", centers, centers)
    d2 = centers @ points.swapaxes(-1, -2)
    d2 *= -2.0
    d2 += points_sq[..., None, :]
    d2 += centers_sq[..., None]
    err = 8 * (d + 3) * UNIT_ROUNDOFF * (points_sq + centers_sq.max(axis=-1)[..., None])
    err += SUBNORMAL_SLACK * d
    err[~np.isfinite(d2).all(axis=-2)] = np.inf  # an overflow voids the bound
    return d2, err


def _as_groups(values: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, tuple | slice]:
    """``values``, rows of groups of sizes[i] in turn, as a (groups, longest,
    ...) array, zero-padded unless the groups are all as long, and the index
    that takes back out of such an array a (groups, longest) one's rows."""
    width = int(sizes.max())
    if sizes.min() == width:
        return values.reshape(len(sizes), width, *values.shape[1:]), np.s_[:]
    at = (
        np.repeat(np.arange(len(sizes)), sizes),
        np.arange(len(values)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
    )
    padded = np.zeros((len(sizes), width, *values.shape[1:]))
    padded[at] = values
    return padded, at


def _gemm_blocks(
    points: np.ndarray, points_sq: np.ndarray, sizes: np.ndarray, centers: np.ndarray
) -> Iterable[tuple[int, tuple | slice, np.ndarray, np.ndarray]]:
    """_gemm_sq_distances of groups laid out in turn, group i of sizes[i]
    rows against its k centers centers[i], a block at a time: as many
    consecutive groups as come to at most PAIR_BLOCK pairs once zero-padded
    to the block's longest (or one group alone), in one batched
    ``(groups, k, d) @ (groups, d, rows)`` GEMM.  Yields per block its first
    row, the index that takes its rows out of a (groups, rows) array (see
    _as_groups), its (groups, k, rows) estimates and its (groups, rows)
    bounds."""
    starts, k, a = (np.cumsum(sizes) - sizes).tolist(), centers.shape[1], 0
    while a < len(sizes):
        padded = np.maximum.accumulate(sizes[a:]) * np.arange(1, len(sizes) - a + 1) * k
        b = a + max(1, int(np.searchsorted(padded, PAIR_BLOCK, side="right")))
        lo, rows = starts[a], sizes[a:b]
        x, at = _as_groups(points[lo : lo + rows.sum()], rows)
        x_sq, _ = _as_groups(points_sq[lo : lo + rows.sum()], rows)
        yield lo, at, *_gemm_sq_distances(x, centers[a:b], x_sq)
        a = b


def _gemm_pays(pairs: int, d: int, groups: int) -> bool:
    """Whether GEMM estimates, with the direct formula for the points in
    doubt, cost less than the direct formula: from GEMM_MIN_DIFFERENCES
    differences on, for one group's points or for groups of
    GEMM_MIN_COLUMNS columns or more."""
    return pairs * d >= GEMM_MIN_DIFFERENCES and (groups == 1 or d >= GEMM_MIN_COLUMNS)


def _nearest(
    points: np.ndarray,
    centers: np.ndarray,
    sizes: np.ndarray | None = None,
    points_sq: np.ndarray | None = None,
) -> np.ndarray:
    """Position among its k centers of the center nearest each point: the
    argmin of the direct ``((x - c) ** 2).sum()``, the lowest position among
    ties.  ``centers`` is (k, d), every point's, or (g, k, d) for points
    laid out as g groups in turn: group i, sizes[i] rows, takes centers[i].

    Where _gemm_pays, GEMM estimates decide, a block of about PAIR_BLOCK
    pairs at a time: blocks of rows against shared centers, or the batched
    GEMMs of _gemm_blocks.  A point whose two smallest estimates lie
    further apart than twice the estimate's error bound has the same argmin
    under the direct formula, and the other points (ties, near-ties,
    non-finite values) are recomputed with it.  Everything else takes the
    direct formula outright.  ``points_sq`` holds the points' squared norms
    when the caller reuses them.
    """
    n, d = points.shape
    k = centers.shape[-2]
    owner = None if centers.ndim == 2 else np.repeat(np.arange(len(centers)), sizes)
    if not _gemm_pays(n * k, d, 1 if owner is None else len(centers)):
        return _sq_distances(points, centers, owner).argmin(axis=1)
    if points_sq is None:
        points_sq = np.einsum("ij,ij->i", points, points)
    if owner is None:  # shared centers: (k, rows) estimates a block of rows at a time,
        # apart from _gemm_blocks, whose padding and bookkeeping cost a lone
        # group's small calls (RetCCL's query primaries) 10-20 us more each
        step = max(1, PAIR_BLOCK // k)
        if n > step:
            return np.concatenate([
                _nearest(points[lo : lo + step], centers, None, points_sq[lo : lo + step])
                for lo in range(0, n, step)
            ])
        d2, err = _gemm_sq_distances(points, centers, points_sq)
        lowest = d2.min(axis=0)
        best = (d2 == lowest).argmax(axis=0)
        d2[best, np.arange(n)] = np.inf
        doubt = np.flatnonzero(~(d2.min(axis=0) - lowest > 2 * err))
        if doubt.size:
            best[doubt] = _sq_distances(points[doubt], centers).argmin(axis=1)
        return best
    best = np.empty(n, dtype=np.int64)
    for lo, at, d2, err in _gemm_blocks(points, points_sq, sizes, centers):
        # per point the lowest estimate, its first center, and the next lowest
        lowest = d2.min(axis=1)
        near = (d2 == lowest[:, None]).argmax(axis=1)
        d2[np.arange(len(d2))[:, None], near, np.arange(d2.shape[2])] = np.inf
        gap = d2.min(axis=1) - lowest
        near, doubt = near[at].ravel(), np.flatnonzero(~(gap[at].ravel() > 2 * err[at].ravel()))
        if doubt.size:
            rows = lo + doubt
            near[doubt] = _sq_distances(points[rows], centers, owner[rows]).argmin(axis=1)
        best[lo : lo + len(near)] = near
    return best


def _draws(dist: np.ndarray, sizes: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row of ``dist`` of each group's next k-means++ center.

    Group g holds the next sizes[g] entries of ``dist``, its points'
    distances to their nearest center, and draws from rngs[g] what the
    reference's ``rng.choice(n, p=d2 / total)`` draws, or an index when the
    distances total zero (every point on a center, as duplicate rows can
    leave them).  Each total is the group's own ``sum()``, as the
    reference's.  The cdfs of several groups are the row-wise cumsum of
    their weights zero-padded to the longest group, about PAIR_BLOCK cells
    at a time, which adds each group's terms in its own order.
    """
    if len(rngs) == 1:  # one group: its cdf as the reference forms it
        (rng,), total = rngs, dist.sum()
        if total <= 0.0:
            return np.array([rng.integers(len(dist))])
        cdf = (dist / total).cumsum()
        cdf /= cdf[-1]
        return np.array([cdf.searchsorted(rng.random(), side="right")])
    start = np.cumsum(sizes) - sizes
    spans = list(zip(start.tolist(), sizes.tolist()))
    # each run of equal sizes as one (groups, size) block, whose row sums
    # add each row as its own sum() does
    runs = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    totals = np.concatenate([
        dist[start[a] : start[b - 1] + sizes[b - 1]].reshape(b - a, -1).sum(axis=1)
        for a, b in zip(runs, runs[1:])
    ])
    flat = totals <= 0.0
    draws = np.array([
        rng.integers(n) if f else rng.random() for rng, (_, n), f in zip(rngs, spans, flat.tolist())
    ])
    owner = np.repeat(np.arange(len(spans)), sizes)
    weights = dist / np.where(flat, 1.0, totals)[owner]
    pos = np.arange(len(dist)) - start[owner]
    width = int(sizes.max())
    found = np.empty(len(spans), dtype=np.int64)
    step = max(1, PAIR_BLOCK // width)
    for a in range(0, len(spans), step):
        b = min(a + step, len(spans))
        rows = slice(start[a], start[b - 1] + sizes[b - 1])
        cdf = np.zeros((b - a, width))
        cdf[owner[rows] - a, pos[rows]] = weights[rows]
        cdf = np.cumsum(cdf, axis=1)
        cdf /= np.where(flat[a:b], 1.0, cdf[np.arange(b - a), sizes[a:b] - 1])[:, None]
        found[a:b] = np.count_nonzero(cdf <= draws[a:b, None], axis=1)
    return start + np.where(flat, draws, found).astype(np.int64)


def _plus_plus_centers(
    points: np.ndarray,
    points_sq: np.ndarray | None,
    sizes: np.ndarray,
    ks: np.ndarray,
    seeds: Sequence[int],
) -> np.ndarray:
    """k-means++ centers of groups laid out in turn in ``points``: group g
    holds sizes[g] rows and gets ks[g] centers, rows first_center[g] onward
    of the returned (sum(ks), d) array, first_center = cumsum(ks) - ks.

    ks never rises, so the groups still drawing at each step are a prefix,
    and one distance pass per step serves them all.  Group g draws from
    ``default_rng(seeds[g])`` (see _draws); a group of k = 1 draws nothing,
    as its one cluster is its mean whatever the seed (see _lloyd).  Where
    _gemm_pays (``points_sq`` holds the squared norms), each step takes GEMM
    estimates of the distances to the new centers, one GEMM for a lone
    group, batched GEMMs over the drawing groups otherwise (see
    _gemm_blocks), and the direct formula only for the points whose
    estimate cannot rule out a distance below their current one.
    """
    start, kmax = np.cumsum(sizes) - sizes, int(ks[0])
    centers = np.empty((len(sizes), kmax, points.shape[1]))  # group g's first ks[g] rows serve
    if kmax == 1:
        return centers[:, 0]
    # at step i the groups of k > max(i, 1) draw: a prefix of the groups and of the rows
    drawing = np.searchsorted(-ks, -np.maximum(np.arange(kmax), 1), side="left").tolist()
    bounds = [*start.tolist(), len(points)]
    rows = [bounds[g] for g in drawing]
    rngs = [np.random.default_rng(seed) for seed in seeds[: drawing[0]]]
    d = points.shape[1]
    single = len(sizes) == 1
    base = None if single else kmax * np.repeat(np.arange(len(sizes)), sizes)  # group's center 0
    for i, (g, m) in enumerate(zip(drawing, rows)):
        if i:
            chosen = _draws(dist[:m], sizes[:g], rngs[:g])
        else:
            firsts = [rng.integers(n) for rng, n in zip(rngs, sizes.tolist())]
            chosen = start[:g] + np.array(firsts, dtype=np.int64)
        centers[:g, i] = points[chosen]
        if single:
            own, first = centers[0, i : i + 1], None
        else:
            own, first = centers.reshape(-1, 1, d), base[:m] + i
        if not i:
            dist = _sq_distances(points[:m], own, first)[:, 0]
        elif points_sq is not None and _gemm_pays(m, d, g):
            if single:
                est, err = _gemm_sq_distances(points, own, points_sq)
                est = est[0]
            else:  # each drawing group against its new center, a block of groups at a time
                blocks = _gemm_blocks(points[:m], points_sq[:m], sizes[:g], centers[:g, i : i + 1])
                est, err = map(np.concatenate, zip(*(
                    (est[:, 0][at].ravel(), err[at].ravel()) for _, at, est, err in blocks
                )))
            # the direct formula where the estimate cannot rule out a closer center
            maybe = np.flatnonzero(~(est - err > dist[:m]))
            near = _sq_distances(points[maybe], own, None if single else first[maybe])[:, 0]
            dist[maybe] = np.minimum(dist[maybe], near)
        else:
            np.minimum(dist[:m], _sq_distances(points[:m], own, first)[:, 0], out=dist[:m])
    if ks[-1] < kmax:  # drop the rows past each group's k
        return centers[np.arange(kmax) < ks[:, None]]
    return centers.reshape(-1, points.shape[1])


def _mean_centers(centers: np.ndarray, points: np.ndarray, labels: np.ndarray) -> None:
    """Move each center that has points to their mean, in place; empty
    clusters keep their previous position (kmeans drops them).

    Each mean is its cluster's ``mean(axis=0)``.  Over two or more columns
    that adds the rows one after another from 0.0, as ``np.add.at`` over the
    rows in order does, a block at a time and without copying them.  Over
    one column numpy sums pairwise, and from WIDE_ROWS columns on gathering
    rows costs less than ``np.add.at``: then each cluster's rows are summed
    on their own, as the mean sums them.
    """
    k, d = centers.shape
    counts = np.bincount(labels, minlength=k)
    full = np.flatnonzero(counts)
    if 1 < d < WIDE_ROWS:
        sums = np.zeros(k * d)
        step = max(1, DIRECT_BLOCK // d)
        for lo in range(0, len(points), step):
            cells = labels[lo : lo + step, None] * d + np.arange(d)
            np.add.at(sums, cells.ravel(), points[lo : lo + step].ravel())
        sums = sums.reshape(k, d)[full]
    else:  # rows in cluster order, gathered a DIRECT_BLOCK of whole clusters at a time
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(counts)[full].tolist()
        sums, top = np.empty((len(full), d)), 0
        for i, (end, size) in enumerate(zip(ends, counts[full].tolist())):
            if end > top:
                base = end - size
                top = max(end, ends[bisect_right(ends, base + DIRECT_BLOCK // d) - 1])
                rows = points[order[base:top]]
            np.add.reduce(rows[end - size - base : end - base], axis=0, out=sums[i])
    centers[full] = sums / counts[full, None]


def _lloyd(
    points: np.ndarray,
    points_sq: np.ndarray,
    sizes: np.ndarray,
    ks: np.ndarray,
    centers: np.ndarray,
) -> np.ndarray:
    """Lloyd iterations of the groups _plus_plus_centers seeded, moving
    ``centers`` in place; returns each point's cluster as a row of
    ``centers``.  A group leaves at its assignment fixpoint, or after
    MAX_LLOYD_ITERATIONS, as the reference's loop does; a group of k = 1,
    which the reference's first step puts whole in one cluster, takes its
    mean at once.  ``points_sq`` holds the points' squared norms."""
    first, d = np.cumsum(ks) - ks, points.shape[1]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    assign = first[owner]
    m = int(sizes[ks > 1].sum())  # rows of the groups of k > 1, a prefix
    if m < len(points):
        _mean_centers(centers, points[m:], assign[m:])
    if not m:
        return assign
    assign[:m] = -1
    single = len(sizes) == 1
    moving = np.flatnonzero(ks > 1)  # the groups still moving
    live = slice(0, m)  # and their rows, and x those rows' points
    # per k, the windows of k consecutive centers: a group's from its first on
    windows = {} if single else {
        k: sliding_window_view(centers, (k, d))[:, 0] for k in set(ks[moving].tolist())
    }
    x, x_sq, layout = points[live], points_sq[live], None
    for _ in range(MAX_LLOYD_ITERATIONS):
        if single:
            new = _nearest(x, centers, None, x_sq)
        else:
            if layout is None:  # per k (ks[moving] never rises) its groups and their rows
                n = sizes[moving]
                ends = np.cumsum(n)
                cuts = [0, *(np.flatnonzero(np.diff(ks[moving])) + 1).tolist(), len(moving)]
                layout = [(moving[a:b], ends[a] - n[a], ends[b - 1]) for a, b in zip(cuts, cuts[1:])]
                base = np.repeat(first[moving], n)
            new = base.copy()
            for own, lo, hi in layout:
                sets = windows[int(ks[own[0]])][first[own]]
                new[lo:hi] += _nearest(x[lo:hi], sets, sizes[own], x_sq[lo:hi])
        moved = new != assign[live]
        if not moved.any():
            break
        assign[live] = new
        _mean_centers(centers, x, new)  # a group that did not move gets the same means
        if not single:  # and leaves
            still = np.logical_or.reduceat(moved, ends - n)
            if not still.all():
                live, moving = np.arange(m)[live][np.repeat(still, n)], moving[still]
                x = x_sq = layout = None  # one copy of the rows still moving at a time
                x, x_sq = points[live], points_sq[live]
    return assign


def _cluster_groups(
    groups: Sequence[np.ndarray], ks: Sequence[int], seeds: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """k-means of every group at once: group g, an (n, d) array of points (d
    shared by all), into ks[g] clusters, 1 <= ks[g] <= n, seeded from
    seeds[g].  Each group's result is ``reference_kmeans(group, k, seed)``'s
    before empty clusters are dropped, bit for bit, whatever the other
    groups (see kmeans).

    Groups run in order of k, largest first, then longest first (so padded
    blocks stay tight).  A group that fills a GEMM by itself runs alone,
    against its own centers with no padding or gathering: one of PAIR_BLOCK
    pairs, or one of ALONE_COLUMNS columns or more, such as RetCCL's
    feature primaries.  All other groups run in one lockstep pass, where
    groups of GEMM_MIN_COLUMNS columns or more, such as a build's histogram
    primaries, take batched GEMM estimates (see _gemm_blocks) and narrower
    ones, such as the spatial groups, the direct formula.  Returns each
    point's cluster, groups in turn, as a row of the returned centers, where
    group g's ks[g] centers follow those of groups 0 to g - 1.
    """
    sizes, ks = np.array([len(points) for points in groups]), np.asarray(ks, dtype=np.int64)
    d = groups[0].shape[1]
    order = np.lexsort((-sizes, -ks))
    alone = (sizes[order] * ks[order] >= PAIR_BLOCK) | (d >= ALONE_COLUMNS)
    batches = [[g] for g in order[alone].tolist()] + ([order[~alone]] if not alone.all() else [])
    first_row, first_center = np.cumsum(sizes) - sizes, np.cumsum(ks) - ks
    assign, centers = np.empty(sizes.sum(), dtype=np.int64), np.empty((ks.sum(), d))
    for batch in batches:
        n, k = sizes[batch], ks[batch]
        if len(batch) == 1:
            points = np.ascontiguousarray(groups[batch[0]], dtype=np.float64)
        else:
            points = np.concatenate([groups[g] for g in batch], dtype=np.float64)
        points_sq = np.einsum("ij,ij->i", points, points)
        batch_centers = _plus_plus_centers(points, points_sq, n, k, [seeds[g] for g in batch])
        # a group's rows and centers, from the batch's layout to the callers'
        shift = first_center[batch] - (np.cumsum(k) - k)
        rows = np.repeat(first_row[batch] - (np.cumsum(n) - n), n) + np.arange(len(points))
        assign[rows] = _lloyd(points, points_sq, n, k, batch_centers) + np.repeat(shift, n)
        centers[np.repeat(shift, k) + np.arange(len(batch_centers))] = batch_centers
    return assign, centers


def kmeans(points: Sequence[Sequence[float]] | np.ndarray, k: int, seed: int) -> KMeansResult:
    """Deterministic Lloyd k-means with k-means++ seeding: the one-group
    call of _cluster_groups.

    Iterates to an assignment fixpoint or MAX_LLOYD_ITERATIONS.  k larger
    than the point count is clamped; clusters that end up empty are dropped
    and the remaining centroid indices compacted, so the requested and
    effective k can differ.

    Exact: every assignment is the argmin of the direct
    ``((x - c) ** 2).sum()`` with ties to the lowest centroid index (see
    _nearest), every k-means++ draw weighs the points by that formula's
    distances, and every centroid is its cluster's ``mean(axis=0)``, so
    assignments and centroids are bit for bit those of the Lloyd loop that
    forms every difference.  Memory is O(n d) plus bounded blocks: no
    (n, k, d) tensor is formed.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise EmptyInputError("k-means needs at least one point")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    k = min(k, pts.shape[0])
    assign, centers = _cluster_groups([pts], [k], [seed])
    full = np.bincount(assign, minlength=k) > 0
    return KMeansResult(assignments=(np.cumsum(full) - 1)[assign], centroids=centers[full])


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
    slides: Sequence[SlideRecord],
    cluster_features: Iterable[np.ndarray],
    k_primary: int,
    fraction: float,
    seeds: Sequence[int],
) -> list[Mosaic]:
    """Percent mosaics of ``slides``: slide i is clustered on the rows of
    ``cluster_features[i]`` with seed ``seeds[i]``.

    A feature k-means per slide makes the primary clusters.  Within each
    primary cluster a spatial k-means with k = ceil(fraction * cluster size)
    runs on the (x, y) coordinates and the member nearest each spatial
    centroid is kept (the lowest row on ties), so every non-empty primary
    cluster contributes at least one patch.  Two ``_cluster_groups`` calls
    do all of it: one for every slide's primaries, one for every spatial
    group.  Each group draws from its own seed, so a slide's mosaic does not
    depend on the other slides in the batch.  ``cluster_features`` may be a
    generator: each slide's features are read once.
    """
    check_mosaic_params(k_primary, fraction)
    if not slides:
        return []
    features, primary_seeds, cluster_seeds = [], [], []
    for slide, feats, seed in zip(slides, cluster_features, seeds, strict=True):
        feats = np.asarray(feats)
        if feats.ndim == 1:
            feats = feats[:, None]
        if feats.shape[0] != len(slide.coords):
            raise DimensionError(
                f"cluster_features rows ({feats.shape[0]}) must match patch count "
                f"({len(slide.coords)}) of slide {slide.slide_id!r}"
            )
        primary_seed, *spatial = _spawn_seeds(seed, 1 + k_primary)
        features.append(feats)
        primary_seeds.append(primary_seed)
        cluster_seeds.append(spatial)
    patches = np.array([len(slide.coords) for slide in slides])
    k = np.minimum(k_primary, patches)
    primary, _ = _cluster_groups(features, k, primary_seeds)

    # every slide's non-empty primary clusters in turn, each in slide row order
    rows = np.argsort(primary, kind="stable")
    sizes = np.bincount(primary, minlength=int(k.sum()))
    kept_k = np.add.reduceat(sizes > 0, np.cumsum(k) - k).tolist()
    spatial_seeds = [seed for own, n in zip(cluster_seeds, kept_k) for seed in own[:n]]
    sizes = sizes[sizes > 0]
    points = np.concatenate([slide.coords for slide in slides])[rows].astype(np.float64)
    ends = np.cumsum(sizes).tolist()
    spatial, centers = _cluster_groups(
        [points[end - size : end] for end, size in zip(ends, sizes.tolist())],
        np.ceil(fraction * sizes).astype(np.int64),  # fraction <= 1 keeps k <= size
        spatial_seeds,
    )

    # per non-empty spatial cluster, the member nearest its centroid, lowest row on ties
    order = np.lexsort((((points - centers[spatial]) ** 2).sum(axis=1), spatial))
    kept = np.sort(rows[order[np.diff(spatial[order], prepend=-1) != 0]])
    first_row = np.cumsum(patches) - patches
    return [
        Mosaic(
            slide_id=slide.slide_id,
            coords=slide.coords[selected - first],
            features=slide.features[selected - first],
        )
        for slide, selected, first in zip(
            slides, np.split(kept, np.searchsorted(kept, first_row[1:])), first_row
        )
    ]


def histogram_mosaics(slides: Sequence[SlideRecord], params) -> list[Mosaic]:
    """Percent mosaics clustered on the per-patch histogram surrogate, under
    an engine's ``params`` (its k_primary, fraction, histogram_bins and seed).

    ``params.seed`` is the engine's base seed; each slide draws its own from
    it, so a slide's mosaic does not depend on which other slides are indexed.
    """
    return build_mosaic_percent(
        slides,
        (histogram_matrix(slide, bins=params.histogram_bins) for slide in slides),
        k_primary=params.k_primary,
        fraction=params.fraction,
        seeds=[slide_seed(params.seed, slide.slide_id) for slide in slides],
    )


def encode_mosaics(
    slides: Sequence[SlideRecord],
    mosaics: Callable[[Sequence[SlideRecord]], list[Mosaic]],
    encode: Callable[[Mosaic], Encoding],
    min_dim: int = 1,
) -> tuple[dict, list[Encoding]]:
    """``encode_slides`` for an engine that indexes percent mosaics: every
    slide's mosaic comes from one ``mosaics`` call, made once the slides'
    dimension has passed its check, then ``encode`` turns each mosaic into
    its slide's encoding."""
    database_dim(slides, min_dim)
    built = {mosaic.slide_id: mosaic for mosaic in mosaics(slides)}
    return encode_slides(slides, lambda slide: encode(built[slide.slide_id]), min_dim)


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
        cluster_sizes=sizes,
    )


def histogram_matrix(slide: SlideRecord, bins: int = 16) -> np.ndarray:
    """Per-patch normalized histogram of the feature components over the
    slide-wide value range, a stand-in for the color histograms some recipes
    cluster on.  Uses ``np.histogram``'s arithmetic (edges, index corrections,
    right edge in the last bin) on blocks of whole rows, about HISTOGRAM_BLOCK
    components each as np.histogram blocks its input, to bound temporaries."""
    if bins < 1:
        raise ValidationError(f"histogram bins must be >= 1, got {bins}")
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
