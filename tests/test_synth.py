"""Synthetic corpus generator: determinism, counts, class structure."""
import numpy as np
import pytest

from wsisearch.dataio import load_slides, parse_manifest
from wsisearch.errors import ValidationError
from wsisearch.synth import SITE_NAMES, SyntheticSpec, generate, synth_generate


def tiny_spec(**kw):
    base = dict(
        n_sites=2,
        subtypes_per_site=2,
        slides_per_subtype=3,
        patches_per_slide=12,
        dim=8,
        separation=1.5,
        sigma=0.2,
        queries_per_subtype=1,
        seed=42,
    )
    base.update(kw)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_zero_sites_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec(n_sites=0)

    def test_zero_subtypes_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec(subtypes_per_site=0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec(sigma=0.0)

    def test_dim_one_rejected(self):
        # a 1-d feature has no adjacent pair to compare
        with pytest.raises(ValidationError):
            tiny_spec(dim=1)

    def test_bad_magnification_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec(magnification="12x")

    def test_tuple_length_must_match_sites(self):
        with pytest.raises(ValidationError):
            tiny_spec(subtypes_per_site=(2, 2, 2)).subtype_counts()

    def test_too_many_sites_rejected(self):
        with pytest.raises(ValidationError):
            tiny_spec(n_sites=len(SITE_NAMES) + 1)

    def test_subtype_counts_scalar_broadcast(self):
        assert tiny_spec(n_sites=2, subtypes_per_site=3).subtype_counts() == (3, 3)

    def test_subtype_counts_tuple_kept(self):
        spec = tiny_spec(n_sites=2, subtypes_per_site=(1, 3))
        assert spec.subtype_counts() == (1, 3)
        assert spec.n_subtypes == 4


class TestGenerate:
    def test_counts(self):
        spec = tiny_spec()
        db, queries = generate(spec)
        assert len(db) == spec.n_subtypes * spec.slides_per_subtype
        assert len(queries) == spec.n_subtypes * spec.queries_per_subtype
        assert all(s.features.shape == (spec.patches_per_slide, spec.dim) for s in db + queries)
        assert all(s.coords.shape == (spec.patches_per_slide, 2) for s in db + queries)

    def test_ids_unique_and_patients_disjoint(self):
        db, queries = generate(tiny_spec())
        ids = [s.slide_id for s in db + queries]
        assert len(set(ids)) == len(ids)
        db_patients = {s.patient_id for s in db}
        q_patients = {s.patient_id for s in queries}
        assert not db_patients & q_patients

    def test_every_class_present_on_both_sides(self):
        db, queries = generate(tiny_spec())
        assert {(s.site, s.subtype) for s in db} == {(s.site, s.subtype) for s in queries}

    def test_deterministic(self):
        a_db, a_q = generate(tiny_spec())
        b_db, b_q = generate(tiny_spec())
        for xs, ys in ((a_db, b_db), (a_q, b_q)):
            assert [s.slide_id for s in xs] == [s.slide_id for s in ys]
            for x, y in zip(xs, ys):
                assert x.features.tobytes() == y.features.tobytes()
                assert x.coords.tobytes() == y.coords.tobytes()

    def test_seed_changes_features(self):
        a_db, _ = generate(tiny_spec(seed=1))
        b_db, _ = generate(tiny_spec(seed=2))
        assert a_db[0].features[0].tobytes() != b_db[0].features[0].tobytes()

    def test_low_sigma_classes_separate(self):
        # with sigma far below separation, per-class patch means must be
        # closer to their own class mean than to any other class's
        spec = tiny_spec(sigma=0.01, separation=3.0, dim=16)
        db, _ = generate(spec)
        means = {}
        for s in db:
            key = (s.site, s.subtype)
            means.setdefault(key, []).append(s.features.mean(axis=0))
        centers = {k: np.mean(v, axis=0) for k, v in means.items()}
        for key, per_slide in means.items():
            for m in per_slide:
                dists = {k: float(np.linalg.norm(m - c)) for k, c in centers.items()}
                assert min(dists, key=dists.get) == key

    def test_queries_share_class_means(self):
        spec = tiny_spec(sigma=0.01, separation=3.0)
        db, queries = generate(spec)
        by_class = {}
        for s in db:
            by_class.setdefault((s.site, s.subtype), []).append(s.features.mean(axis=0))
        centers = {k: np.mean(v, axis=0) for k, v in by_class.items()}
        for q in queries:
            qm = q.features.mean(axis=0)
            dists = {k: float(np.linalg.norm(qm - c)) for k, c in centers.items()}
            assert min(dists, key=dists.get) == (q.site, q.subtype)


class TestSynthGenerate:
    def test_writes_both_manifests(self, tmp_path):
        m, q = synth_generate(tiny_spec(), tmp_path)
        assert m.exists() and q.exists()
        db = load_slides(parse_manifest(m))
        queries = load_slides(parse_manifest(q))
        spec = tiny_spec()
        assert len(db) == spec.n_subtypes * spec.slides_per_subtype
        assert len(queries) == spec.n_subtypes * spec.queries_per_subtype

    def test_round_trip_matches_memory(self, tmp_path):
        spec = tiny_spec()
        m, _ = synth_generate(spec, tmp_path)
        mem_db, _ = generate(spec)
        disk_db = load_slides(parse_manifest(m))
        assert [s.slide_id for s in disk_db] == [s.slide_id for s in mem_db]
        for d, m_ in zip(disk_db, mem_db):
            assert d.patient_id == m_.patient_id
            assert d.site == m_.site and d.subtype == m_.subtype
            assert d.coords.tobytes() == m_.coords.tobytes()
            assert d.features.tobytes() == m_.features.tobytes()

    def test_byte_identical_across_runs(self, tmp_path):
        spec = tiny_spec()
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        synth_generate(spec, dir_a)
        synth_generate(spec, dir_b)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_zero_queries_allowed(self, tmp_path):
        spec = tiny_spec(queries_per_subtype=0)
        _, q = synth_generate(spec, tmp_path)
        assert load_slides(parse_manifest(q)) == []
