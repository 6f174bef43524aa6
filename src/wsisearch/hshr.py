"""Hypergraph retrieval over per-slide hash signatures.  Slide-level only.

A slide's hash is the barcode of its mean feature, which population
attention over a fixed-centroid mosaic equals; a prepared query is that
bare packed hash.  Each database slide spans one hyperedge containing its
K nearest slides by hash distance; a query joins the graph as a fresh
vertex and hyperedge, and scores combine vertex-level and hyperedge-level
similarity: the query's row of the weighted incidence products, in closed
form from integer Hamming counts.

Slides are listed in slide_id order, so ties broken by slide index (equal
hash distances to nearest neighbours, equal scores) go to the lower
slide_id whatever order the slides arrive in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    UnsupportedOperationError,
    ValidationError,
)
from .model import (
    CandidateFilter,
    PatchFeature,
    RetrievalResult,
    SlideRecord,
    SlideTable,
    binarize_barcode,
    check_k,
    check_query_dim,
    check_query_rows,
    encode_slides,
    hamming_matrix,
)

#: hyperedges whose Hamming rows build_hypergraph forms at once, to bound temporaries
HYPERGRAPH_BLOCK = 64


@dataclass(frozen=True)
class HshrParams:
    """HSHR draws nothing at random: ``seed`` has no effect, kept for the shared --seed."""

    knn_k: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.knn_k < 1:
            raise ValidationError("knn_k must be >= 1")
        # a NaN weight makes every score NaN, which ranks as a tie
        for name, weight in (("alpha", self.alpha), ("beta", self.beta)):
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValidationError(f"{name} must be finite and >= 0, got {weight}")
        if self.alpha == self.beta == 0.0:
            raise ValidationError("alpha and beta cannot both be 0")


@dataclass
class HshrDatabase(SlideTable):
    params: HshrParams
    code_length: int
    incidence: np.ndarray  # (T, T) int32, entries in units of 1/code_length
    hashes: np.ndarray  # (T, ceil(L / 8)) uint8, row i the hash of slide_ids[i]


def slide_signature(slide: SlideRecord) -> np.ndarray:
    """The slide's packed (ceil(L / 8),) uint8 hash: the barcode of its
    float64 mean feature, which population attention over a fixed-centroid
    mosaic, sum_j (n_j / N) c_j, equals since each centroid c_j is the mean
    of its n_j members.  Exact ties between components read 0.  Sums float32
    features in float64 without a copy."""
    return binarize_barcode(slide.features.mean(axis=0, dtype=np.float64))


def _knn_columns(ham: np.ndarray, k: int, first: int) -> np.ndarray:
    """Row j: the k nearest indices other than first + j by row j of a (b, T)
    block of Hamming distances (k clamps to T - 1).  The key ham * T + index
    is unique within a row, so a partition and a sort of k keys give the
    stable (distance, index) order."""
    b, t = ham.shape
    k = min(k, t - 1)
    key = ham * t + np.arange(t)
    key[np.arange(b), first + np.arange(b)] = np.iinfo(np.int64).max
    near = np.argpartition(key, k - 1, axis=1)[:, :k]
    by_key = np.argsort(np.take_along_axis(key, near, axis=1), axis=1)
    return np.take_along_axis(near, by_key, axis=1)


def build_hypergraph(hashes: np.ndarray, code_length: int, knn_k: int) -> np.ndarray:
    """Square incidence in units of 1/code_length: column s is slide s's
    hyperedge, holding its knn_k nearest slides at code_length - hamming
    (affinity 1 - hamming/L) and slide s itself at code_length.

    ``hashes`` holds one packed slide hash of ``code_length`` bits per row.
    Hyperedges come HYPERGRAPH_BLOCK at a time from their rows of the
    symmetric Hamming matrix, so no (T, T) distance matrix is formed.
    """
    t = hashes.shape[0]
    if t == 0:
        raise EmptyInputError("cannot build a hypergraph from zero slide hashes")
    incidence = np.zeros((t, t), dtype=np.int32)
    for first in range(0, t, HYPERGRAPH_BLOCK):
        ham = hamming_matrix(hashes[first : first + HYPERGRAPH_BLOCK], hashes)
        edges = np.arange(first, first + len(ham))[:, None]
        neighbors = _knn_columns(ham, knn_k, first)
        incidence[neighbors, edges] = code_length - np.take_along_axis(ham, neighbors, axis=1)
    np.fill_diagonal(incidence, code_length)
    return incidence


def build_database(
    slides: Sequence[SlideRecord], params: HshrParams | None = None
) -> HshrDatabase:
    params = params or HshrParams()
    table, signatures = encode_slides(slides, slide_signature, min_dim=2)
    hashes = np.stack(signatures)
    code_length = table["dim"] - 1
    return HshrDatabase(
        **table,
        params=params,
        code_length=code_length,
        incidence=build_hypergraph(hashes, code_length, params.knn_k),
        hashes=hashes,
    )


def prepare_query(db: HshrDatabase, slide: SlideRecord) -> np.ndarray:
    check_query_dim(db, slide)
    return slide_signature(slide)


def ranked_scores(db: HshrDatabase, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores of every database slide against the query's packed hash, best first.

    The query joins the graph as vertex and hyperedge T and lies only in its
    own hyperedge, so row T of the vertex product H W Hᵀ is the query's
    hyperedge weight times its column (the weight cancels in the row
    normalization) and row T of the hyperedge product Hᵀ H is h_qᵀ H.  In
    units of 1/L both rows and their sums are integers, and each score is
    one division of its numerator by the common integer denominator.  With
    weights that scale integers exactly (the default 1 and 1, or any power
    of two) the numerators are exact, so equal scores are equal floats and
    the stable sort leaves them in slide index (slide_id) order.  Returns (order, scores): ``scores[s]`` is slide
    s's score and ``order`` lists every slide index by descending score;
    the caller slices its top-k after any candidate filtering.
    """
    t, length = len(db), db.code_length
    ham = hamming_matrix(query[None, :], db.hashes)[0]
    near = np.argsort(ham, kind="stable")[: min(db.params.knn_k, t)]
    q = length - ham[near]
    rows = db.incidence[near].astype(np.int64)

    vertex = np.zeros(t, dtype=np.int64)
    vertex[near] = q
    vertex_total = q.sum() + length
    edge = q @ rows
    edge_total = q @ (rows.sum(axis=1) + q) + length * length
    numerator = (
        db.params.alpha * (vertex * edge_total) + db.params.beta * (edge * vertex_total)
    )
    scores = numerator / float(vertex_total * edge_total)
    return np.argsort(-scores, kind="stable"), scores


def query_slides(
    db: HshrDatabase,
    query: SlideRecord | np.ndarray,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Top-k database slides by combined vertex and hyperedge similarity."""
    check_k(k)
    slide_hash = prepare_query(db, query) if isinstance(query, SlideRecord) else query
    check_query_rows(slide_hash[None, :], db.hashes.shape[1])
    order, scores = ranked_scores(db, slide_hash)
    top = order[db.kept(candidate_filter)[order]][:k]
    return db.result(top, scores[top], k)


def query_patches(
    db: HshrDatabase,
    patch: PatchFeature,
    k: int,
    candidate_filter: CandidateFilter | None = None,
) -> RetrievalResult:
    """Always unsupported: hash signatures exist per slide, not per patch."""
    raise UnsupportedOperationError("hshr does not support patch retrieval")


def query_patch_set(db: HshrDatabase, slide: SlideRecord) -> list[PatchFeature]:
    """Always unsupported: hash signatures exist per slide, not per patch."""
    raise UnsupportedOperationError("hshr does not support patch retrieval")
