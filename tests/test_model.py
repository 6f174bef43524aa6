"""Core data model: barcodes, distances, packing, identity helpers."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    UndefinedSimilarityError,
    ValidationError,
)
from wsisearch.model import (
    BagOfBarcodes,
    Barcode,
    PatchFeature,
    SlideRecord,
    binarize_barcode,
    cosine_similarity,
    hamming_distance,
    hamming_matrix,
    label_entropy,
    pack_bit_rows,
    patch_ref,
    slide_seed,
)

from util import make_slide


def bits_of(feature) -> list[int]:
    return binarize_barcode(np.asarray(feature)).as_array().tolist()


class TestBinarize:
    def test_rising_run_is_ones(self):
        assert bits_of([0.0, 1.0, 2.0, 3.0]) == [1, 1, 1]

    def test_threshold_is_strict(self):
        # equal neighbours produce 0, only a strict rise produces 1
        assert bits_of([1.0, 1.0, 0.5, 2.0]) == [0, 0, 1]

    def test_length_is_dim_minus_one(self):
        rng = np.random.default_rng(0)
        assert len(binarize_barcode(rng.normal(size=17))) == 16

    def test_scalar_feature_rejected(self):
        with pytest.raises(DimensionError):
            binarize_barcode(np.array([3.0]))

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 40),
            # coarse grid so the +2.5 shift cannot absorb tiny differences
            elements=st.floats(-5, 5).map(lambda v: round(v, 3)),
        )
    )
    def test_shift_invariance(self, feat):
        # adding a constant never changes successive differences
        assert bits_of(feat) == bits_of(feat + 2.5)


class TestHamming:
    def test_known_distance(self):
        assert hamming_distance(Barcode("1011"), Barcode("0010")) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            hamming_distance(Barcode("0000"), Barcode("00000"))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
    def test_matches_bit_count(self, bits, data):
        other = data.draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits)))
        a = Barcode("".join(map(str, bits)))
        b = Barcode("".join(map(str, other)))
        assert hamming_distance(a, b) == sum(x != y for x, y in zip(bits, other))

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=(5, 19)).astype(np.uint8)
        b = rng.integers(0, 2, size=(7, 19)).astype(np.uint8)
        mat = hamming_matrix(pack_bit_rows(a), pack_bit_rows(b))
        assert mat.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == int(np.sum(a[i] != b[j]))

    def test_pack_requires_2d(self):
        with pytest.raises(DimensionError):
            pack_bit_rows(np.zeros(8, dtype=np.uint8))


class TestCosine:
    def test_parallel_is_one(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, 4 * v) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == pytest.approx(0.0)

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine_similarity(np.zeros(3), np.ones(3))

    @given(
        hnp.arrays(np.float64, 8, elements=st.floats(-3, 3)),
        hnp.arrays(np.float64, 8, elements=st.floats(-3, 3)),
    )
    def test_bounded(self, a, b):
        if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
            return
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestLabelEntropy:
    def test_uniform_two_labels(self):
        assert label_entropy(["a", "b"]) == pytest.approx(np.log(2))

    def test_single_label_is_zero(self):
        assert label_entropy(["a", "a", "a"]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            label_entropy([])


class TestBarcodeTypes:
    def test_barcode_int_round_trip(self):
        b = Barcode(bits="1011")
        assert b.as_int() == 0b1011
        assert b.as_array().tolist() == [1, 0, 1, 1]

    def test_barcode_rejects_junk(self):
        with pytest.raises(Exception):
            Barcode(bits="10x1")

    def test_bag_bit_matrix_shape(self):
        bag = BagOfBarcodes(
            slide_id="s",
            barcodes=((Barcode(bits="101"), (0, 0)), (Barcode(bits="010"), (1, 0))),
        )
        assert bag.code_length == 3
        assert bag.bit_matrix().shape == (2, 3)

    def test_patch_feature_frozen(self):
        p = PatchFeature(x=0, y=0, feature=np.arange(3.0))
        assert p.feature.dtype == np.float32
        with pytest.raises(ValueError):
            p.feature[0] = 9.0


class TestIdentityHelpers:
    def test_patch_ref_format(self):
        assert patch_ref("slide-7", 3, 11) == "slide-7:3,11"

    def test_slide_seed_deterministic_and_distinct(self):
        assert slide_seed(0, "a") == slide_seed(0, "a")
        assert slide_seed(0, "a") != slide_seed(0, "b")
        assert slide_seed(0, "a") != slide_seed(1, "a")

    def test_make_slide_helper_dims(self):
        s = make_slide("x", np.zeros((4, 6)) + np.arange(6))
        assert s.dim == 6
        assert s.feature_matrix().shape == (4, 6)


class TestSlideRecord:
    def test_repeated_coordinate_rejected(self):
        rng = np.random.default_rng(3)
        patches = tuple(
            PatchFeature(x=x, y=y, feature=rng.normal(size=4))
            for x, y in ((0, 0), (1, 0), (0, 0))
        )
        with pytest.raises(ValidationError, match=r"'s0'.*\(0, 0\)"):
            SlideRecord(
                slide_id="s0",
                patient_id="p0",
                site="brain",
                subtype="gbm",
                magnification="20x",
                patches=patches,
            )
