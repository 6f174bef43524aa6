"""Core data model: packed barcodes, distances, identity helpers."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    ValidationError,
)
from wsisearch.model import (
    PatchFeature,
    SlideRecord,
    binarize_barcode,
    hamming_distance,
    hamming_matrix,
    label_entropy,
    patch_ref,
    slide_seed,
)

from util import make_slide, packed

#: feature dimensions whose code lengths L = dim - 1 (1, 8, 9, 16, 63, 256)
#: fall on both sides of byte boundaries, so the last packed byte is either
#: full or zero-padded
PADDED_DIMS = (2, 9, 10, 17, 64, 257)


def bits_of(feature) -> list[int]:
    feature = np.asarray(feature)
    return np.unpackbits(binarize_barcode(feature))[: feature.shape[0] - 1].tolist()


def brute_force_hamming(a: np.ndarray, b: np.ndarray) -> list[list[int]]:
    """Pairwise count of differing ascent bits, straight from the features."""
    bits_a, bits_b = np.diff(a, axis=1) > 0, np.diff(b, axis=1) > 0
    return [[int(np.sum(ra != rb)) for rb in bits_b] for ra in bits_a]


class TestBinarize:
    def test_rising_run_is_ones(self):
        assert bits_of([0.0, 1.0, 2.0, 3.0]) == [1, 1, 1]

    def test_threshold_is_strict(self):
        # equal neighbours produce 0, only a strict rise produces 1
        assert bits_of([1.0, 1.0, 0.5, 2.0]) == [0, 0, 1]

    def test_length_is_dim_minus_one(self):
        rng = np.random.default_rng(0)
        assert binarize_barcode(rng.normal(size=17)).shape == (2,)
        code = binarize_barcode(rng.normal(size=18))
        assert code.dtype == np.uint8 and code.shape == (3,)
        # 17 bits: the last byte holds one code bit and seven zero pad bits
        assert code[-1] & 0x7F == 0

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
        assert hamming_distance(packed("1011"), packed("0010")) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DimensionError):
            hamming_distance(packed("0" * 8), packed("0" * 9))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
    def test_matches_bit_count(self, bits, data):
        other = data.draw(st.lists(st.integers(0, 1), min_size=len(bits), max_size=len(bits)))
        a = packed("".join(map(str, bits)))
        b = packed("".join(map(str, other)))
        assert hamming_distance(a, b) == sum(x != y for x, y in zip(bits, other))

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=(5, 19)).astype(np.uint8)
        b = rng.integers(0, 2, size=(7, 19)).astype(np.uint8)
        mat = hamming_matrix(np.packbits(a, axis=1), np.packbits(b, axis=1))
        assert mat.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == int(np.sum(a[i] != b[j]))

    def test_pack_requires_2d(self):
        # packing takes one feature vector or a matrix of them, nothing deeper
        with pytest.raises(DimensionError):
            binarize_barcode(np.zeros((2, 3, 4)))


class TestPackedKernel:
    """binarize_barcode + hamming_matrix against a count over np.diff bits."""

    @given(
        st.sampled_from(PADDED_DIMS),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_brute_force(self, dim, rows_a, rows_b, seed):
        rng = np.random.default_rng(seed)
        # small integers make equal neighbours (0 bits) common
        a = rng.integers(-3, 4, size=(rows_a, dim)).astype(np.float32)
        b = rng.integers(-3, 4, size=(rows_b, dim)).astype(np.float32)
        got = hamming_matrix(binarize_barcode(a), binarize_barcode(b))
        assert got.tolist() == brute_force_hamming(a, b)

    @given(st.sampled_from(PADDED_DIMS), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matrix_rows_equal_vector_codes(self, dim, rows, seed):
        features = np.random.default_rng(seed).normal(size=(rows, dim))
        codes = binarize_barcode(features)
        assert codes.dtype == np.uint8
        assert codes.shape == (rows, -(-(dim - 1) // 8))
        for i in range(rows):
            assert np.array_equal(codes[i], binarize_barcode(features[i]))


class TestLabelEntropy:
    def test_uniform_two_labels(self):
        assert label_entropy(["a", "b"]) == pytest.approx(np.log(2))

    def test_single_label_is_zero(self):
        assert label_entropy(["a", "a", "a"]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            label_entropy([])


class TestBarcodeTypes:
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
        assert s.features.shape == (4, 6)
        assert s.coords.shape == (4, 2)


def slide_of(coords, features, slide_id="s0"):
    return SlideRecord(
        slide_id=slide_id,
        patient_id="p0",
        site="brain",
        subtype="gbm",
        magnification="20x",
        coords=coords,
        features=features,
    )


class TestSlideRecord:
    def test_repeated_coordinate_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError, match=r"'s0'.*\(0, 0\)"):
            slide_of([(0, 0), (1, 0), (0, 0)], rng.normal(size=(3, 4)))

    def test_first_repeat_is_named(self):
        coords = [(5, 5), (2, 1), (7, 0), (2, 1), (5, 5)]
        with pytest.raises(ValidationError, match=r"repeats patch coordinate \(2, 1\)"):
            slide_of(coords, np.zeros((5, 3)))

    def test_columns_are_typed_read_only_copies(self):
        coords = np.array([[0, 0], [1, 0]])
        features = np.arange(6.0).reshape(2, 3)
        s = slide_of(coords, features)
        assert s.coords.dtype == np.int32 and s.features.dtype == np.float32
        with pytest.raises(ValueError):
            s.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            s.coords[0, 0] = 9
        features[0, 0] = 9.0  # the slide owns its copy
        assert s.features[0, 0] == 0.0

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            slide_of([(0, 0), (1, 0)], np.zeros((3, 4)))

    def test_non_2d_features_rejected(self):
        with pytest.raises(DimensionError):
            slide_of([(0, 0), (1, 0)], np.zeros(2))
        with pytest.raises(DimensionError):
            slide_of([(0, 0), (1, 0)], np.zeros((2, 2, 2)))

    def test_non_2d_coords_rejected(self):
        with pytest.raises(DimensionError):
            slide_of([0, 1], np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.zeros((2, 4))
        features[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            slide_of([(0, 0), (1, 0)], features)

    def test_empty_slide_rejected(self):
        with pytest.raises(EmptyInputError):
            slide_of(np.zeros((0, 2)), np.zeros((0, 4)))
        with pytest.raises(EmptyInputError):
            slide_of([(0, 0)], np.zeros((1, 0)))
