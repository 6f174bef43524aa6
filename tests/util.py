"""Shared builders for test corpora."""
from __future__ import annotations

from itertools import islice
from typing import Iterable

import numpy as np

from wsisearch.model import (
    PatchFeature,
    RetrievalEntry,
    RetrievalResult,
    SlideLabels,
    SlideRecord,
    as_patches,
    patch_ref,
)


def packed(bits: str) -> np.ndarray:
    """Packed barcode row of a '0'/'1' string, as binarize_barcode lays it out."""
    return np.packbits(np.array([c == "1" for c in bits], dtype=bool))


def grid_coords(n: int, width: int = 8) -> list[tuple[int, int]]:
    return [(i % width, i // width) for i in range(n)]


def make_slide(
    slide_id: str,
    features,
    *,
    site: str = "brain",
    subtype: str = "gbm",
    patient_id: str | None = None,
    magnification: str = "20x",
) -> SlideRecord:
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise AssertionError("make_slide wants a (n, dim) feature matrix")
    return SlideRecord(
        slide_id=slide_id,
        patient_id=patient_id if patient_id is not None else f"pt-{slide_id}",
        site=site,
        subtype=subtype,
        magnification=magnification,
        coords=grid_coords(len(features)),
        features=features,
    )


def gaussian_slides(
    rng: np.random.Generator,
    count: int,
    patches: int,
    dim: int,
    *,
    mean=None,
    sigma: float = 0.1,
    prefix: str = "s",
    site: str = "brain",
    subtype: str = "gbm",
) -> list[SlideRecord]:
    """Slides whose patches cluster around a shared mean vector."""
    if mean is None:
        mean = rng.normal(size=dim)
    out = []
    for i in range(count):
        feats = mean + sigma * rng.normal(size=(patches, dim))
        out.append(
            make_slide(f"{prefix}{i:03d}", feats, site=site, subtype=subtype)
        )
    return out


def patch_at(slide: SlideRecord, i: int) -> PatchFeature:
    """Row i of a slide as the single-patch object patch queries take."""
    return as_patches(slide.coords, slide.features)[i]


def first_repeat_oracle(coords) -> tuple[int, int] | None:
    """The first (x, y) row that repeats an earlier one, by the row-wise
    ``np.unique(axis=0)`` check ``SlideRecord`` once made; None if every
    row is distinct."""
    coords = np.asarray(coords, dtype=np.int32)
    _, first = np.unique(coords, axis=0, return_index=True)
    if len(first) == len(coords):
        return None
    return tuple(coords[np.setdiff1d(np.arange(len(coords)), first)[0]].tolist())


def ranked_result(hits: Iterable[tuple[str, SlideLabels, float]], k: int) -> RetrievalResult:
    """Oracle result of the first k (target_id, labels, score) hits, best
    first.  Only k hits are drawn, so ``hits`` may be a lazy filter over a
    longer ranking."""
    return RetrievalResult(tuple(
        RetrievalEntry(target_id, labels.site, labels.subtype, score)
        for target_id, labels, score in islice(hits, k)
    ))


def ranked_patches(db, rows: np.ndarray, scores: np.ndarray, k: int) -> RetrievalResult:
    """Oracle result of the first k ``rows`` (database rows, best first, read
    through the ``slide`` and ``coords`` columns) as patch hits;
    ``scores[i]`` is the score of ``rows[i]``."""
    rows = rows[:k]
    hits = (
        (patch_ref(db.slide_ids[s], x, y), db.labels[s], float(score))
        for s, (x, y), score in zip(
            db.slide[rows].tolist(), db.coords[rows].tolist(), scores[:k].tolist()
        )
    )
    return ranked_result(hits, k)
