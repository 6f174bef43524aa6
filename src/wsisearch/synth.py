"""Synthetic slide corpora with controllable class structure.

Every (site, subtype) class gets a mean vector: a shared per-site draw plus
a per-subtype draw, both unit Gaussian scaled by the separation factor.
Slides sample their patches from Normal(class_mean, sigma^2 I) on a square
coordinate grid, so sigma against separation dials retrieval difficulty
from trivial to hopeless.  Everything is a pure function of the generator
parameters, including the slide and patient identifiers.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import ManifestRow, write_features, write_manifest
from .errors import ValidationError
from .model import MAGNIFICATIONS, SlideRecord, as_patches

SITE_NAMES = (
    "brain",
    "lung",
    "breast",
    "liver",
    "colon",
    "kidney",
    "skin",
    "stomach",
    "prostate",
    "thyroid",
)

# loosely TCGA-flavored study codes, purely cosmetic
SUBTYPE_NAMES = {
    "brain": ("gbm", "lgg", "meng"),
    "lung": ("luad", "lusc", "meso"),
    "breast": ("idc", "ilc", "mbc"),
    "liver": ("lihc", "chol", "hepb"),
    "colon": ("coad", "read", "mucs"),
    "kidney": ("kirc", "kirp", "kich"),
    "skin": ("skcm", "bcc", "scc"),
    "stomach": ("stad", "gist", "mala"),
    "prostate": ("prad", "scpc", "duct"),
    "thyroid": ("thca", "ftc", "atc"),
}


@dataclass(frozen=True)
class SyntheticSpec:
    n_sites: int = 5
    #: one count for every site, or a per-site tuple of counts
    subtypes_per_site: int | tuple[int, ...] = 2
    slides_per_subtype: int = 10
    patches_per_slide: int = 48
    dim: int = 64
    separation: float = 1.0
    sigma: float = 0.1
    queries_per_subtype: int = 2
    magnification: str = "20x"
    seed: int = 0

    def __post_init__(self) -> None:
        counts = self.subtype_counts()
        if self.n_sites < 1 or min(counts) < 1:
            raise ValidationError("site and subtype counts must be >= 1")
        if self.slides_per_subtype < 1 or self.patches_per_slide < 1:
            raise ValidationError("slide and patch counts must be >= 1")
        if self.dim < 2:
            raise ValidationError("dim must be >= 2 for barcoding to exist")
        if self.sigma <= 0:
            raise ValidationError("sigma must be > 0")
        if self.queries_per_subtype < 0:
            raise ValidationError("queries_per_subtype must be >= 0")
        if self.magnification not in MAGNIFICATIONS:
            raise ValidationError(f"magnification must be one of {MAGNIFICATIONS}")
        if self.n_sites > len(SITE_NAMES):
            raise ValidationError(f"at most {len(SITE_NAMES)} sites are nameable")

    def subtype_counts(self) -> tuple[int, ...]:
        if isinstance(self.subtypes_per_site, int):
            return (self.subtypes_per_site,) * self.n_sites
        if len(self.subtypes_per_site) != self.n_sites:
            raise ValidationError(
                f"subtypes_per_site has {len(self.subtypes_per_site)} entries for {self.n_sites} sites"
            )
        return tuple(self.subtypes_per_site)

    @property
    def n_subtypes(self) -> int:
        return sum(self.subtype_counts())


def _subtype_name(site: str, j: int) -> str:
    known = SUBTYPE_NAMES.get(site, ())
    return known[j] if j < len(known) else f"{site}-t{j}"


def _class_means(spec: SyntheticSpec, rng: np.random.Generator) -> list[tuple[str, str, np.ndarray]]:
    classes = []
    for s in range(spec.n_sites):
        site = SITE_NAMES[s]
        site_mean = rng.normal(0.0, 1.0, spec.dim) * spec.separation
        for j in range(spec.subtype_counts()[s]):
            subtype_mean = rng.normal(0.0, 1.0, spec.dim) * spec.separation
            classes.append((site, _subtype_name(site, j), site_mean + subtype_mean))
    return classes


def _make_slide(
    slide_id: str,
    patient_id: str,
    site: str,
    subtype: str,
    mean: np.ndarray,
    spec: SyntheticSpec,
    rng: np.random.Generator,
) -> SlideRecord:
    width = int(np.ceil(np.sqrt(spec.patches_per_slide)))
    feats = rng.normal(0.0, 1.0, (spec.patches_per_slide, spec.dim)) * spec.sigma + mean
    cells = np.arange(spec.patches_per_slide)
    return SlideRecord(
        slide_id=slide_id,
        patient_id=patient_id,
        site=site,
        subtype=subtype,
        magnification=spec.magnification,
        coords=np.stack([cells % width, cells // width], axis=1),
        features=feats,
    )


def generate(spec: SyntheticSpec) -> tuple[list[SlideRecord], list[SlideRecord]]:
    """Build (database slides, query slides) in memory.

    Query slides come from the same class means as database slides but from
    disjoint patients, so patient-level self-exclusion never empties a
    candidate set.
    """
    rng = np.random.default_rng(spec.seed)
    classes = _class_means(spec, rng)

    db_slides: list[SlideRecord] = []
    query_slides: list[SlideRecord] = []
    patient = 0
    for site, subtype, mean in classes:
        for i in range(spec.slides_per_subtype):
            patient += 1
            db_slides.append(
                _make_slide(
                    slide_id=f"{subtype}-{i:03d}",
                    patient_id=f"P{patient:05d}",
                    site=site,
                    subtype=subtype,
                    mean=mean,
                    spec=spec,
                    rng=rng,
                )
            )
        for i in range(spec.queries_per_subtype):
            patient += 1
            query_slides.append(
                _make_slide(
                    slide_id=f"q-{subtype}-{i:03d}",
                    patient_id=f"P{patient:05d}",
                    site=site,
                    subtype=subtype,
                    mean=mean,
                    spec=spec,
                    rng=rng,
                )
            )
    return db_slides, query_slides


def synth_generate(spec: SyntheticSpec, out_dir: str | Path) -> tuple[Path, Path]:
    """Write feature files plus manifest.csv (database) and queries.csv.

    Returns the two manifest paths.  Output is byte-identical for equal
    specs: records are emitted in generation order and the files carry no
    timestamps.
    """
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)

    db_slides, query_slides = generate(spec)

    def emit(slides: list[SlideRecord]) -> list[ManifestRow]:
        rows = []
        for slide in slides:
            rel = Path("features") / f"{slide.slide_id}.psf"
            write_features(out_dir / rel, as_patches(slide.coords, slide.features))
            rows.append(
                ManifestRow(
                    slide_id=slide.slide_id,
                    patient_id=slide.patient_id,
                    site=slide.site,
                    subtype=slide.subtype,
                    magnification=slide.magnification,
                    features_path=str(rel),
                )
            )
        return rows

    manifest_path = out_dir / "manifest.csv"
    queries_path = out_dir / "queries.csv"
    write_manifest(manifest_path, emit(db_slides))
    write_manifest(queries_path, emit(query_slides))
    return manifest_path, queries_path
