"""Core data model: packed barcodes, distances, identity helpers."""
from __future__ import annotations

import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsisearch.errors import (
    DimensionError,
    EmptyInputError,
    NothingIndexedError,
    ValidationError,
)
from wsisearch.model import (
    PatchFeature,
    SlideRecord,
    binarize_barcode,
    encode_slides,
    hamming_distance,
    hamming_matrix,
    SlideLabels,
    SlideTable,
    label_entropy,
    patch_ref,
    slide_seed,
    subtype_codes,
)

from util import first_repeat_oracle, make_slide, packed, ranked_patches, ranked_result

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

    def test_every_byte_pair_counts_its_differing_bits(self):
        byte = np.arange(256, dtype=np.uint8)[:, None]
        expected = [[bin(x ^ y).count("1") for y in range(256)] for x in range(256)]
        assert hamming_matrix(byte, byte).tolist() == expected

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


def oracle_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel before counting in place: bit counts summed in int64."""
    return np.bitwise_count(a[:, None, :] ^ b[None, :, :]).sum(axis=2, dtype=np.int64)


class TestKernelOracle:
    """hamming_matrix against the int64-sum formula it replaced."""

    @given(st.data(), st.integers(0, 6), st.integers(0, 6), st.integers(1, 80))
    def test_matches_oracle(self, data, rows_a, rows_b, width):
        a = data.draw(hnp.arrays(np.uint8, (rows_a, width)))
        b = data.draw(hnp.arrays(np.uint8, (rows_b, width)))
        got = hamming_matrix(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_hamming(a, b))

    def test_wide_codes_do_not_wrap(self):
        # 8,200 bytes of all ones against all zeros: 65,600 differing bits,
        # more than a uint16 sum can hold
        ones = np.full((1, 8200), 255, dtype=np.uint8)
        zeros = np.zeros((1, 8200), dtype=np.uint8)
        assert hamming_matrix(ones, zeros).tolist() == [[65600]]
        assert oracle_hamming(ones, zeros).tolist() == [[65600]]

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16, np.int8, np.bool_])
    def test_codes_must_be_uint8(self, dtype):
        codes = np.ones((2, 3), dtype=np.uint8)
        with pytest.raises(ValidationError):
            hamming_matrix(codes.astype(dtype), codes)
        with pytest.raises(ValidationError):
            hamming_matrix(codes, codes.astype(dtype))


class TestLabelEntropy:
    def test_uniform_two_labels(self):
        assert label_entropy(np.array([0, 1])) == pytest.approx(np.log(2))

    def test_single_label_is_zero(self):
        assert label_entropy(np.array([2, 2, 2])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            label_entropy(np.empty(0, dtype=np.int64))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    def test_codes_match_counter_form_bit_for_bit(self, codes):
        # few distinct labels, so counts tie often; the terms run over the
        # counts sorted ascending
        counts = sorted(Counter(codes).values())
        total = sum(counts)
        want = -sum((c / total) * math.log(c / total) for c in counts)
        assert label_entropy(np.array(codes)).hex() == want.hex()

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=80), st.randoms(use_true_random=False))
    def test_bits_ignore_order_and_relabelling(self, codes, rng):
        codes = np.array(codes)
        relabel = list(range(7))
        rng.shuffle(relabel)
        shuffled = np.array(relabel)[codes]
        rng.shuffle(shuffled)
        assert label_entropy(shuffled).hex() == label_entropy(codes).hex()

    def test_subtype_codes_follow_labels(self):
        labels = [SlideLabels("brain", sub, "p") for sub in ["gbm", "lgg", "gbm", "oligo"]]
        assert subtype_codes(labels).tolist() == [0, 1, 0, 2]

    def test_slide_table_codes_its_subtypes_once(self):
        labels = [SlideLabels("brain", sub, "p") for sub in ["gbm", "lgg", "gbm", "oligo"]]
        table = SlideTable(dim=2, slide_ids=["a", "b", "c", "d"], labels=labels)
        assert table.subtype_code.tolist() == [0, 1, 0, 2]
        loaded = pickle.loads(pickle.dumps(table))
        assert "subtype_code" in vars(loaded) and loaded.subtype_code.tolist() == [0, 1, 0, 2]


SCORES = {
    "int64": st.integers(-(2**40), 2**40),
    "float32": st.floats(width=32, allow_nan=False),
    "float64": st.floats(allow_nan=False),
}


class TestSlideTableResult:
    """``SlideTable.result`` against the lazy hit-by-hit assembly it replaced."""

    @staticmethod
    def table(n_slides: int, rows_slide, rows_coords) -> SlideTable:
        labels = [SlideLabels(f"site{i % 2}", f"sub{i % 3}", "p") for i in range(n_slides)]
        table = SlideTable(dim=2, slide_ids=[f"s{i}" for i in range(n_slides)], labels=labels)
        # the database row columns engines read patch hits through
        table.slide, table.coords = rows_slide, rows_coords
        return table

    @pytest.mark.parametrize("k_vs_hits", ["below", "equal", "above"])
    @pytest.mark.parametrize("patches", [False, True])
    @pytest.mark.parametrize("dtype", sorted(SCORES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, k_vs_hits, patches, dtype, data):
        if k_vs_hits == "below":
            n_hits = data.draw(st.integers(2, 12), label="hits")
            k = data.draw(st.integers(1, n_hits - 1), label="k")
        elif k_vs_hits == "equal":
            n_hits = k = data.draw(st.integers(1, 12), label="hits")
        else:
            n_hits = data.draw(st.integers(0, 12), label="hits")
            k = data.draw(st.integers(n_hits + 1, n_hits + 4), label="k")
        n_slides = data.draw(st.integers(1, 5), label="slides")
        n_rows = n_hits + data.draw(st.integers(0, 4), label="extra rows")
        table = self.table(
            n_slides,
            data.draw(hnp.arrays(np.int64, n_rows, elements=st.integers(0, n_slides - 1))),
            data.draw(hnp.arrays(np.int32, (n_rows, 2), elements=st.integers(-3, 500))),
        )
        scores = data.draw(hnp.arrays(np.dtype(dtype), n_hits, elements=SCORES[dtype]))
        if patches:
            rows = data.draw(st.permutations(range(n_rows)))[:n_hits]
            rows = np.array(rows, dtype=np.int64)
            want = ranked_patches(table, rows, scores, k)
            got = table.result(table.slide[rows], scores, k, table.coords[rows])
        else:
            slides = table.slide[:n_hits]
            want = ranked_result(
                ((table.slide_ids[s], table.labels[s], float(x))
                 for s, x in zip(slides.tolist(), scores.tolist())),
                k,
            )
            # engines pass slide hits as arrays or as lists
            if data.draw(st.booleans(), label="as lists"):
                slides, scores = slides.tolist(), scores.tolist()
            got = table.result(slides, scores, k)
        assert got == want
        assert len(got) == min(k, n_hits)
        assert all(type(e.score) is float for e in got.entries)

    @pytest.mark.parametrize("patches", [False, True])
    @pytest.mark.parametrize("k", [1, 3])
    def test_zero_hits_give_an_empty_result(self, patches, k):
        table = self.table(2, np.array([0, 1]), np.array([[0, 0], [1, 0]], dtype=np.int32))
        none = np.empty(0, dtype=np.int64)
        if patches:
            got = table.result(none, np.empty(0), k, table.coords[none])
            assert got == ranked_patches(table, none, np.empty(0), k)
        else:
            # SISH's result when no query patch found a hit
            got = table.result((), (), k)
            assert got == ranked_result(iter(()), k)
        assert got.entries == ()


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


class TestEncodeSlides:
    def test_kept_in_slide_id_order_unprocessed_in_input_order(self):
        # Python string order: a trailing NUL sorts after the bare id
        names = ["b", "x2", "a\x00", "x1", "a", "\x00"]
        slides = [make_slide(name, np.arange(6.0)[None, :]) for name in names]

        def encode(slide):
            if slide.slide_id.startswith("x"):
                raise ValidationError(f"cannot encode {slide.slide_id}")
            return slide.slide_id.upper()

        table, codes = encode_slides(slides, encode)
        assert table["slide_ids"] == ["\x00", "a", "a\x00", "b"]
        assert codes == ["\x00", "A", "A\x00", "B"]
        assert table["labels"] == [SlideLabels("brain", "gbm", f"pt-{sid}") for sid in table["slide_ids"]]
        assert table["dim"] == 6
        assert table["unprocessed"] == [("x2", "cannot encode x2"), ("x1", "cannot encode x1")]

    def test_nothing_indexed_names_every_slide(self):
        slides = [make_slide(name, np.arange(6.0)[None, :]) for name in ("b", "a")]

        def encode(slide):
            raise ValidationError(f"cannot encode {slide.slide_id}")

        with pytest.raises(NothingIndexedError, match="none of 2 slides") as info:
            encode_slides(slides, encode)
        assert info.value.unprocessed == [("b", "cannot encode b"), ("a", "cannot encode a")]

    def test_dimension_checked_before_encoding(self):
        slides = [make_slide("a", np.arange(6.0)[None, :]), make_slide("b", np.arange(4.0)[None, :])]
        with pytest.raises(DimensionError, match="mix feature dimensions"):
            encode_slides(slides, pytest.fail)
        with pytest.raises(DimensionError, match="dimension >= 7"):
            encode_slides(slides[:1], pytest.fail, min_dim=7)


#: int32 coordinates, weighted towards a few values so that rows repeat
INT32_VALUES = st.one_of(
    st.sampled_from((-2**31, -2**31 + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1)),
    st.integers(-2**31, 2**31 - 1),
)


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

    @given(
        rows=st.lists(st.tuples(INT32_VALUES, INT32_VALUES), min_size=1, max_size=24),
        swapped=st.booleans(),
        fortran=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_repeat_check_matches_row_unique_oracle(self, rows, swapped, fortran):
        if swapped:
            rows = rows + [(y, x) for x, y in rows]
        coords = np.array(rows, dtype=np.int32)
        if fortran:
            coords = np.asfortranarray(coords)
        repeat = first_repeat_oracle(coords)
        features = np.zeros((len(coords), 2))
        if repeat is None:
            stored = slide_of(coords, features).coords
            assert stored.flags.c_contiguous and stored.tolist() == coords.tolist()
        else:
            with pytest.raises(ValidationError) as exc:
                slide_of(coords, features)
            assert str(exc.value) == f"slide 's0' repeats patch coordinate {repeat}"

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
