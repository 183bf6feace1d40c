import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_float_model
from intelm import data
from intelm.cli import main
from intelm.data import (
    DataFormatError,
    RawDataset,
    check_steps,
    extract_patches,
    in_range,
    integer_rows,
    limit_rows,
    load_cifar10,
    load_csv,
    load_csv_samples,
    load_idx,
    load_idx_images,
    preprocess,
    split_train_val,
    synthetic_texture_image,
    synthetic_textures,
    write_cifar10_batch,
    write_idx,
)
from intelm.elm import FloatModel, gen_weights_continuous, gen_weights_ternary, hidden_features, one_hot, train
from intelm.experiments import ConfigError, ExperimentConfig, select_model
from intelm.intinfer import QuantizedModel
from intelm.linalg import SpdSystem
from intelm.quantize import IntegerBeta
from intelm.seeding import make_rng


class TestIdx:
    def test_byte_level_fixture_roundtrip(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
        labels = np.array([2, 0, 1], dtype=np.uint8)
        write_idx(images, labels, tmp_path / "img", tmp_path / "lbl")
        ds = load_idx(tmp_path / "img", tmp_path / "lbl")
        np.testing.assert_array_equal(ds.samples, images.reshape(3, 16))
        assert ds.samples.dtype == np.uint8  # the file's own width, no int64 copy
        np.testing.assert_array_equal(ds.labels, labels)
        # write-then-read-then-write is identity at byte level
        write_idx(ds.samples.astype(np.uint8), ds.labels, tmp_path / "img2", tmp_path / "lbl2")
        assert (tmp_path / "img").read_bytes() == (tmp_path / "img2").read_bytes()
        assert (tmp_path / "lbl").read_bytes() == (tmp_path / "lbl2").read_bytes()

    def test_single_image_fixture_bytes(self, tmp_path):
        import struct

        pixels = bytes(range(9))
        (tmp_path / "img").write_bytes(struct.pack(">4I", 0x00000803, 1, 3, 3) + pixels)
        (tmp_path / "lbl").write_bytes(struct.pack(">2I", 0x00000801, 1) + b"\x05")
        ds = load_idx(tmp_path / "img", tmp_path / "lbl")
        np.testing.assert_array_equal(ds.samples[0], list(range(9)))
        assert ds.labels[0] == 5

    def test_bad_magic_names_offset(self, tmp_path):
        import struct

        (tmp_path / "img").write_bytes(struct.pack(">4I", 0xDEAD, 1, 1, 1) + b"\x00")
        (tmp_path / "lbl").write_bytes(struct.pack(">2I", 0x00000801, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="bad magic 0x0000dead at offset 0"):
            load_idx(tmp_path / "img", tmp_path / "lbl")

    def test_truncated_payload(self, tmp_path):
        import struct

        (tmp_path / "img").write_bytes(struct.pack(">4I", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        (tmp_path / "lbl").write_bytes(struct.pack(">2I", 0x00000801, 2) + b"\x00\x01")
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(tmp_path / "img", tmp_path / "lbl")
        # a header claiming ~2**64 bytes is read only as far as the file goes
        (tmp_path / "img").write_bytes(struct.pack(">4I", 0x00000803, 2**32 - 1, 2**16, 2**16))
        with pytest.raises(DataFormatError, match="truncated image payload at offset 16"):
            load_idx(tmp_path / "img", tmp_path / "lbl")

    def test_header_shorter_than_its_size_names_the_header(self, tmp_path):
        import struct

        (tmp_path / "img").write_bytes(struct.pack(">3I", 0x00000803, 1, 2))
        (tmp_path / "lbl").write_bytes(struct.pack(">I", 0x00000801) + b"\x00")
        (tmp_path / "img1").write_bytes(struct.pack(">4I", 0x00000803, 1, 1, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="truncated image header at offset 12"):
            load_idx(tmp_path / "img", tmp_path / "lbl")
        with pytest.raises(DataFormatError, match="truncated label header at offset 5"):
            load_idx(tmp_path / "img1", tmp_path / "lbl")

    def test_hostile_header_reads_only_as_far_as_the_file_goes(self, tmp_path):
        import struct

        # the header claims (2**32 - 1) * 2**16 * 2**16 payload bytes; the file has none
        (tmp_path / "img").write_bytes(struct.pack(">4I", 0x00000803, 2**32 - 1, 2**16, 2**16))
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="truncated image payload at offset 16"):
                load_idx_images(tmp_path / "img")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bytes_after_the_payload_are_ignored(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.array([0, 1, 0], dtype=np.uint8)
        write_idx(images, labels, tmp_path / "img", tmp_path / "lbl")
        for name in ("img", "lbl"):
            (tmp_path / name).write_bytes((tmp_path / name).read_bytes() + b"\xff" * 7)
        ds = load_idx(tmp_path / "img", tmp_path / "lbl")
        np.testing.assert_array_equal(ds.samples, images.reshape(3, 4))
        np.testing.assert_array_equal(ds.labels, labels)

    def test_images_are_a_read_only_view_of_the_file_bytes(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        write_idx(images, np.zeros(3, np.uint8), tmp_path / "img", tmp_path / "lbl")
        samples = load_idx_images(tmp_path / "img")
        assert samples.dtype == np.uint8 and not samples.flags.writeable
        base = samples
        while isinstance(base, np.ndarray):
            base = base.base
        assert base == (tmp_path / "img").read_bytes()
        assert samples.ctypes.data == np.frombuffer(base, np.uint8).ctypes.data + 16  # past the header

    def test_count_mismatch(self, rng, tmp_path):
        images = rng.integers(0, 256, size=(2, 2, 2)).astype(np.uint8)
        write_idx(images, np.array([0, 1], dtype=np.uint8), tmp_path / "img", tmp_path / "lbl")
        write_idx(images[:1], np.array([0], dtype=np.uint8), tmp_path / "img1", tmp_path / "lbl1")
        with pytest.raises(DataFormatError, match="image count 2 != label count 1"):
            load_idx(tmp_path / "img", tmp_path / "lbl1")

    def test_training_inputs_stay_near_the_u8_payload_in_memory(self, tmp_path):
        """Reading, l2-normalizing and projecting 2,000 MNIST-shaped images peaks below 2x their bytes.

        That is the u8 payload itself plus one block of linalg.BLOCK_ROWS
        rows cast to float32 by linalg.FloatKernel, with H and the scale
        beside them: about 1.5x measured at L=16. A float32 copy of all the
        samples, which a few-row path chosen by output size alone would
        make at this narrow L, would alone be 4x, an int64 copy 8x.
        """
        N, side = 2000, 28
        images = make_rng(5).integers(0, 256, size=(N, side, side)).astype(np.uint8)
        write_idx(images, np.arange(N) % 10, tmp_path / "img", tmp_path / "lbl")
        W = gen_weights_ternary(side * side, 16, seed=1)
        tracemalloc.start()
        try:
            norm = preprocess(load_idx(tmp_path / "img", tmp_path / "lbl"), ["l2_normalize"])
            hidden_features(W, norm.rows, norm.row_scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * images.nbytes


class TestCifar10:
    def test_synthetic_batch_roundtrip(self, rng, tmp_path):
        samples = rng.integers(0, 256, size=(2, 3072)).astype(np.uint8)
        labels = np.array([4, 7], dtype=np.uint8)  # deer, horse
        write_cifar10_batch(samples, labels, tmp_path / "batch.bin")
        ds = load_cifar10([tmp_path / "batch.bin"], class_filter=None)
        np.testing.assert_array_equal(ds.samples, samples)
        assert ds.samples.dtype == np.uint8
        np.testing.assert_array_equal(ds.labels, labels)
        write_cifar10_batch(
            ds.samples.astype(np.uint8), ds.labels.astype(np.uint8), tmp_path / "b2.bin"
        )
        assert (tmp_path / "batch.bin").read_bytes() == (tmp_path / "b2.bin").read_bytes()

    def test_deer_horse_filter_relabels(self, rng, tmp_path):
        samples = rng.integers(0, 256, size=(6, 3072)).astype(np.uint8)
        labels = np.array([4, 7, 0, 4, 9, 7], dtype=np.uint8)
        write_cifar10_batch(samples, labels, tmp_path / "batch.bin")
        ds = load_cifar10([tmp_path / "batch.bin"], class_filter=("deer", "horse"))
        assert ds.N == 4
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])
        assert ds.class_count == 2

    def test_bad_size_rejected(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(DataFormatError, match="multiple of 3073"):
            load_cifar10([tmp_path / "bad.bin"])

    def test_unknown_class_name(self, rng, tmp_path):
        write_cifar10_batch(
            rng.integers(0, 256, size=(1, 3072)).astype(np.uint8),
            np.array([4], dtype=np.uint8),
            tmp_path / "b.bin",
        )
        with pytest.raises(DataFormatError, match=r"class_filter must be two different CIFAR-10 classes, "
                                                  r"got \('deer', 'unicorn'\)"):
            load_cifar10([tmp_path / "b.bin"], class_filter=("deer", "unicorn"))


class TestPatches:
    def test_left_half_containment(self, rng):
        # paint the right half with a sentinel; left-half patches never see it
        image = np.zeros((24, 24), dtype=np.uint8)
        image[:, 12:] = 255
        patches = extract_patches(image, patch_size=12, count=40, region="left", seed=1)
        assert patches.max() == 0

    def test_constant_image_gives_identical_patches(self):
        image = np.full((30, 30), 7, dtype=np.uint8)
        patches = extract_patches(image, patch_size=12, count=10, region="right", seed=2)
        assert np.all(patches == 7)

    def test_deterministic(self, rng):
        image = rng.integers(0, 256, size=(40, 40)).astype(np.uint8)
        a = extract_patches(image, 12, 25, "left", seed=9)
        b = extract_patches(image, 12, 25, "left", seed=9)
        np.testing.assert_array_equal(a, b)

    def test_too_small_half_rejected(self):
        with pytest.raises(DataFormatError, match="cannot fit"):
            extract_patches(np.zeros((20, 20), dtype=np.uint8), 12, 5, "left", seed=0)

    def test_synthetic_textures_halves_disjoint(self):
        train, test = synthetic_textures(patch_size=12, count=50, seed=0, size=64)
        assert train.N == test.N == 100
        assert train.n == 144
        assert train.class_count == test.class_count == 2

    def test_texture_image_deterministic(self):
        a = synthetic_texture_image("rows", 4, seed=3, size=32)
        b = synthetic_texture_image("rows", 4, seed=3, size=32)
        np.testing.assert_array_equal(a, b)


class TestPreprocess:
    def _raw(self, samples, labels=None, m=2):
        samples = np.asarray(samples)
        if labels is None:
            labels = np.arange(samples.shape[0]) % m
        return RawDataset(samples, labels, class_count=m, value_range=(-1000, 1000))

    def test_l2_only(self):
        ds = preprocess(self._raw([[3, 4], [1, 0]]), ["l2_normalize"])
        np.testing.assert_allclose(ds.samples[0], [0.6, 0.8])

    def test_zero_mean_then_l2(self):
        ds = preprocess(self._raw([[1, 3], [0, 1]]), ["zero_mean", "l2_normalize"])
        np.testing.assert_allclose(ds.samples[0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_post_invariants_on_random_rows(self, rng):
        samples = rng.integers(1, 256, size=(30, 10))
        ds = preprocess(self._raw(samples), ["zero_mean", "l2_normalize"])
        np.testing.assert_allclose(np.linalg.norm(ds.samples, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(ds.samples.sum(axis=1), 0.0, atol=1e-9)

    def test_zero_row_rejected(self):
        with pytest.raises(DataFormatError, match=r"all-zero rows: \[1\]"):
            preprocess(self._raw([[1, 2], [0, 0]]), ["l2_normalize"])

    def test_labels_untouched(self, rng):
        raw = self._raw(rng.integers(1, 256, size=(12, 5)))
        ds = preprocess(raw, ["l2_normalize"])
        np.testing.assert_array_equal(ds.labels, raw.labels)
        assert (ds.N, ds.n) == (raw.N, raw.n)

    def test_rows_are_exact_integers_times_a_positive_scale(self):
        raw = self._raw([[3, 4], [1, 0]])
        ds = preprocess(raw, ["l2_normalize"])
        # uncentred rows are the samples themselves, in their own dtype
        assert ds.rows.dtype == raw.samples.dtype and ds.rows.tolist() == [[3, 4], [1, 0]]
        assert ds.row_scale.tolist() == [0.2, 1.0]
        ds = preprocess(self._raw([[1, 3], [0, 1], [5, 5]]), ["zero_mean"])
        assert ds.rows.tolist() == [[-2, 2], [-1, 1], [0, 0]]  # n*x - sum(x)
        assert ds.row_scale.tolist() == [0.5, 0.5, 0.5]
        np.testing.assert_array_equal(ds.samples, [[-1, 1], [-0.5, 0.5], [0, 0]])

    def test_constant_row_rejected_by_l2_after_zero_mean(self):
        with pytest.raises(DataFormatError, match=r"all-zero rows: \[1\]"):
            preprocess(self._raw([[1, 2], [7, 7]]), ["zero_mean", "l2_normalize"])
        # Beyond 2**53 a float64 copy of a constant row centres to rounding noise, not to 0.
        big = 108086391056904249
        for n in (11, 100):
            samples = np.array([np.arange(n), np.full(n, big)])
            raw = RawDataset(samples, [0, 1], class_count=2, value_range=(0, big))
            with pytest.raises(DataFormatError, match=r"all-zero rows: \[1\]"):
                preprocess(raw, ["zero_mean", "l2_normalize"])

    def test_non_blank_row_that_float64_rows_round_to_zero_rejected(self):
        # 2n * max|x| passes 2**63, so integer_rows centres in float64, where 2**62 + 1 is 2**62.
        n = 100
        samples = np.array([np.arange(n), [2**62] * (n - 1) + [2**62 + 1]])
        raw = RawDataset(samples, [0, 1], class_count=2, value_range=(0, 2**62 + 1))
        with pytest.raises(DataFormatError, match=r"all-zero rows: \[1\]"):
            preprocess(raw, ["zero_mean", "l2_normalize"])

    def test_values_beyond_u8_keep_the_integer_rows(self):
        big = 2**40
        raw = RawDataset(np.array([[big, 1], [3, big]]), [0, 1], class_count=2, value_range=(0, big))
        ds = preprocess(raw, ["zero_mean", "l2_normalize"])
        assert ds.rows.dtype == np.int64  # centred rows are int64
        np.testing.assert_array_equal(ds.rows, integer_rows(raw.samples, ["zero_mean", "l2_normalize"]))
        np.testing.assert_allclose(ds.samples, [[2**-0.5, -(2**-0.5)], [-(2**-0.5), 2**-0.5]])

    def test_unknown_step(self):
        with pytest.raises(ValueError, match="unknown preprocessing step"):
            preprocess(self._raw([[1, 2]], labels=[0], m=1), ["whiten"])

    @pytest.mark.parametrize(
        "steps, match",
        [("zero_mean", "must be a list"), (7, "must be a list"), (["whiten"], "unknown"),
         ([["zero_mean"]], "unknown"), (["l2_normalize", "l2_normalize"], "repeated")],
    )
    def test_check_steps_rejects(self, steps, match):
        with pytest.raises(ValueError, match=match):
            check_steps(steps)

    def test_check_steps_returns_a_tuple(self):
        assert check_steps(["zero_mean", "l2_normalize"]) == ("zero_mean", "l2_normalize")
        assert check_steps(()) == ()

    @pytest.mark.parametrize("steps", [[], ["l2_normalize"], ["zero_mean"], ["zero_mean", "l2_normalize"]])
    def test_rows_are_the_shared_integer_row_transform(self, rng, steps):
        samples = rng.integers(0, 256, size=(20, 7)).astype(np.uint8)
        rows = preprocess(self._raw(samples), steps).rows
        np.testing.assert_array_equal(rows, integer_rows(samples, steps))
        np.testing.assert_array_equal(integer_rows(samples[3], steps), rows[3])  # one sample
        centred = "zero_mean" in steps
        expected = 7 * samples.astype(np.int64) - samples.sum(axis=1, keepdims=True) if centred else samples
        np.testing.assert_array_equal(rows, expected)
        assert rows.dtype == (np.int64 if centred else np.uint8)  # u8 samples stay u8 uncentred
        # beyond u8: the int64 sum of squares would overflow, the rows stay integer_rows
        big = samples.astype(np.int64) * 2**40 + 1
        raw = RawDataset(big, np.arange(20) % 2, class_count=2, value_range=(0, 2**48))
        rows = preprocess(raw, steps).rows
        np.testing.assert_array_equal(rows, integer_rows(big, steps))
        assert rows.dtype == np.int64  # int64 samples, centred or not

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int16, np.int32, np.int64, np.uint64])
    @pytest.mark.parametrize("steps", [[], ["l2_normalize"], ["zero_mean"], ["zero_mean", "l2_normalize"]])
    def test_row_dtype_is_the_narrowest_exact_one(self, rng, dtype, steps):
        values = rng.integers(0, 256, size=(12, 6))
        if np.issubdtype(dtype, np.signedinteger):
            values -= 128
        samples = values.astype(dtype)
        centred = "zero_mean" in steps
        rows = integer_rows(samples, steps)
        if dtype == np.uint64:  # does not cast to int64: the float64 fallback
            expected_dtype = np.float64
        else:
            expected_dtype = np.int64 if centred else dtype
        assert rows.dtype == expected_dtype
        assert (rows is samples) == (not centred and dtype != np.uint64)  # no copy
        np.testing.assert_array_equal(rows, integer_rows(values, steps))
        raw = RawDataset(samples, np.arange(12) % 2, class_count=2, value_range=(-128, 255))
        ds, reference = preprocess(raw, steps), preprocess(self._raw(values), steps)
        assert ds.rows.dtype == expected_dtype
        np.testing.assert_array_equal(ds.rows, reference.rows)
        assert ds.row_scale.tobytes() == reference.row_scale.tobytes()
        assert ds.samples.tobytes() == reference.samples.tobytes()

    def test_integer_rows_leave_int64_only_when_centring_would_overflow(self):
        assert integer_rows(np.array([[2**61, 0]]), ["zero_mean"]).dtype == np.float64
        assert integer_rows(np.array([[2**62 + 1, 0]]), []).tolist() == [[2**62 + 1, 0]]
        assert integer_rows(np.array([[2**63]], dtype=np.uint64), []).dtype == np.float64
        assert integer_rows(np.array([[2**61 - 1, 0]]), ["zero_mean"]).tolist() == [[2**61 - 1, -(2**61 - 1)]]
        assert integer_rows(np.array([[0.5, 1.5]]), ["zero_mean"]).tolist() == [[-1.0, 1.0]]

    def test_steps_act_as_a_set(self, rng):
        raw = self._raw(rng.integers(0, 256, size=(10, 5)))
        a = preprocess(raw, ["zero_mean", "l2_normalize"])
        b = preprocess(raw, ["l2_normalize", "zero_mean"])
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.row_scale, b.row_scale)


class TestSplit:
    def _balanced(self, rng, N=10, m=2):
        return RawDataset(
            rng.integers(0, 256, size=(N, 4)),
            np.arange(N) % m,
            class_count=m,
        )

    def test_stratified_80_20(self, rng):
        train, val = split_train_val(self._balanced(rng), fraction=0.8, seed=0)
        assert (train.N, val.N) == (8, 2)
        assert set(np.unique(train.labels)) == set(np.unique(val.labels)) == {0, 1}

    def test_disjoint_union(self, rng):
        ds = self._balanced(rng, N=20)
        train, val = split_train_val(ds, 0.7, seed=3)
        combined = np.concatenate([train.samples, val.samples])
        assert train.N + val.N == ds.N
        assert sorted(map(tuple, combined)) == sorted(map(tuple, ds.samples))

    def test_fraction_one_rejected(self, rng):
        with pytest.raises(ValueError, match="fraction"):
            split_train_val(self._balanced(rng), fraction=1.0, seed=0)

    def test_deterministic(self, rng):
        ds = self._balanced(rng, N=30)
        a = split_train_val(ds, 0.8, seed=5)
        b = split_train_val(ds, 0.8, seed=5)
        np.testing.assert_array_equal(a[0].samples, b[0].samples)
        np.testing.assert_array_equal(a[1].samples, b[1].samples)

    def test_tiny_class_rejected(self, rng):
        ds = RawDataset(rng.integers(0, 256, size=(3, 2)), [0, 0, 1], class_count=2)
        with pytest.raises(DataFormatError, match="class 1"):
            split_train_val(ds, 0.8, seed=0)


class TestLimitRows:
    @pytest.mark.parametrize("limit", [1, 3, 7, 25, 59])
    def test_keeps_exactly_limit_rows(self, limit):
        train, _ = synthetic_textures(count=30, size=64)
        assert train.N == 60
        kept = limit_rows(train, limit, seed=4)
        assert kept.N == limit
        np.testing.assert_array_equal(kept.samples, limit_rows(train, limit, seed=4).samples)
        # the same cut of a dataset whose samples are their own row numbers: distinct rows, in file order
        numbered = RawDataset(np.arange(60)[:, None], train.labels, train.class_count)
        idx = limit_rows(numbered, limit, seed=4).samples[:, 0]
        assert idx.tolist() == sorted(set(idx.tolist()))
        np.testing.assert_array_equal(kept.samples, train.samples[idx])

    def test_no_limit_or_a_larger_one_keeps_the_dataset(self):
        train, _ = synthetic_textures(count=30, size=64)
        assert limit_rows(train, None, seed=0) is train and limit_rows(train, 60, seed=0) is train


class TestCsv:
    def test_load_with_label_column(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b,label\n1,2,0\n3,4,1\n")
        ds = load_csv(tmp_path / "d.csv", "label")
        np.testing.assert_array_equal(ds.samples, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    @pytest.mark.parametrize(
        "blob, match",
        [(b"a,label\n99999999999999999999,0\n", "64-bit"), (b"a,label\n1,0\n\xff\xfe,1\n", "byte 12 is not UTF-8"),
         (b"a,label\n1,0\n1_0,1\n", "line 3"), ("a,label\n\u0663,0\n".encode(), "line 2"),
         ("a,label\n1,0\n\u00a0\n".encode(), "line 3")],
        ids=["beyond_int64", "not_utf8", "underscore_digits", "non_ascii_digit", "non_ascii_blank_line"],
    )
    def test_unparseable_values_rejected(self, tmp_path, blob, match):
        (tmp_path / "d.csv").write_bytes(blob)
        with pytest.raises(DataFormatError, match=match):
            load_csv(tmp_path / "d.csv", "label")

    def test_signs_and_ascii_whitespace_around_fields_allowed(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b,label\n 1,\t-2 ,+0\r\n")
        ds = load_csv(tmp_path / "d.csv", "label")
        np.testing.assert_array_equal(ds.samples, [[1, -2]])
        np.testing.assert_array_equal(ds.labels, [0])

    def test_missing_label_column(self, tmp_path):
        (tmp_path / "d.csv").write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError, match="no column named 'label'"):
            load_csv(tmp_path / "d.csv", "label")


class TestRawDatasetInvariants:
    def test_missing_class_detected(self, rng):
        ds = RawDataset(rng.integers(0, 256, size=(4, 2)), [0, 1, 0, 1], class_count=3)
        with pytest.raises(DataFormatError, match=r"classes with no samples: \[2\]"):
            ds.check_all_classes_present()

    def test_out_of_range_values_rejected(self):
        with pytest.raises(DataFormatError, match="declared range"):
            RawDataset(np.array([[300]]), [0], class_count=1, value_range=(0, 255))


# --- malformed training inputs -------------------------------------------------


# file name of each valid training input, and how to parse it from a directory
PARSERS = {
    "idx_images": ("img.idx", lambda p, d: load_idx(p, d / "lbl.idx")),
    "idx_labels": ("lbl.idx", lambda p, d: load_idx(d / "img.idx", p)),
    "cifar10": ("batch.bin", lambda p, d: load_cifar10([p])),
    "csv": ("labeled.csv", lambda p, d: load_csv(p, "label")),
    "csv_samples": ("samples.csv", lambda p, d: load_csv_samples(p)),
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Directory holding one valid file of every training-input format."""
    d = tmp_path_factory.mktemp("valid")
    rng = make_rng(21)
    write_idx(rng.integers(0, 256, size=(3, 4, 4)), [0, 2, 1], d / "img.idx", d / "lbl.idx")
    write_cifar10_batch(rng.integers(0, 256, size=(2, 3072)), [3, 9], d / "batch.bin")
    (d / "labeled.csv").write_text("a,b,label\n12,250,0\n7,0,1\n\n-3,44,2\n")
    (d / "samples.csv").write_text("12,250,3\n7,0,1\n-3,44,2\n")
    for name, (file, parse) in PARSERS.items():
        parse(d / file, d)
    return d


@st.composite
def damaged_input(draw):
    """One valid training input cut short, or with a few bytes changed."""
    name = draw(st.sampled_from(sorted(PARSERS)))
    cut = draw(st.none() | st.integers(0, 7000))
    flips = draw(st.lists(st.tuples(st.integers(0, 7000), st.integers(1, 255)), max_size=4))
    return name, cut, flips


@settings(max_examples=600, deadline=None, database=None)
@given(damaged_input())
def test_damaged_input_parses_or_raises_data_format_error(valid_inputs, tmp_path_factory, case):
    name, cut, flips = case
    file, parse = PARSERS[name]
    blob = bytearray((valid_inputs / file).read_bytes())
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    if cut is not None:
        blob = blob[: cut % len(blob)]
    path = tmp_path_factory.getbasetemp() / f"damaged-{name}"
    path.write_bytes(bytes(blob))
    try:
        parsed = parse(path, valid_inputs)
    except DataFormatError:
        return
    assert isinstance(parsed, (RawDataset, np.ndarray))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda d: RawDataset(np.zeros((2, 3), np.uint8), [0], class_count=1), DataFormatError,
         "2 samples but 1 labels"),
        (lambda d: RawDataset(np.zeros((2, 3), np.uint8), [0, 2], class_count=2), DataFormatError,
         r"labels outside \[0, 2\)"),
        (lambda d: RawDataset(np.zeros((1, 3), np.uint8), [-1], class_count=2), DataFormatError,
         r"labels outside \[0, 2\)"),
        (lambda d: write_idx(np.zeros((1, 5)), [0], d / "i", d / "l"), DataFormatError,
         "flattened images must be square to write IDX"),
        (lambda d: write_cifar10_batch(np.zeros((1, 10)), [0], d / "b.bin"), DataFormatError,
         "record length 11 != 3073"),
        (lambda d: extract_patches(np.zeros((8, 8)), 2, 1, region="top"), ValueError, "unknown region 'top'"),
        (lambda d: synthetic_texture_image("diagonal", 4, seed=0), ValueError, "unknown axis 'diagonal'"),
    ],
    ids=["count_mismatch", "label_above", "label_below", "idx_not_square", "cifar_record", "region", "axis"],
)
def test_typed_errors(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def refuses(param: str, call) -> bool:
    """Whether call raises the ValueError of param's range; any warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except ValueError as e:
            assert f"{param} must be {data.RANGES[param][1]}, got " in str(e)
            return True
    return False


def small_task():
    """Positive rows through positive weights: a full-rank hidden layer, solvable at any ridge."""
    rng = make_rng(3)
    return rng.random((12, 4)) + 0.5, one_hot(np.arange(12) % 2, 2), rng.random((4, 3)) + 0.5


def fit(gamma=1.0, seed=0):
    X, targets, W = small_task()
    return train(X, targets, W, gamma, seed=seed)


def ternary_model(gamma=1.0, seed=0):
    return FloatModel(np.ones((2, 2), np.int8), np.ones((2, 1)), gamma, "ternary", seed)


def quantized_model(seed=0, metadata=None):
    return QuantizedModel(np.ones((2, 2), np.int8), IntegerBeta(np.ones((2, 1), np.int64), tau=1.0), seed=seed,
                          metadata=metadata or {})


def cifar_batch(path):
    labels = np.array([3, 5, 0, 3], np.uint8)  # cat, dog, airplane, cat
    write_cifar10_batch(np.zeros((4, 3072), np.uint8), labels, path)
    return path


def split_input():
    return RawDataset(np.arange(20).reshape(10, 2), np.arange(10) % 2, class_count=2)


def candidates():
    rng = make_rng(4)
    return [(random_float_model(rng), 0.9), (random_float_model(rng), 0.8)]


GAMMAS = {"0": 0, "-1": -1, "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "5e-324": 5e-324,
          "1e-320": 1e-320, "1e-300": 1e-300, "1.0": 1.0, "float_max": sys.float_info.max,
          "np.float64(1e-320)": np.float64(1e-320), "10**400": 10**400, "'1.0'": "1.0"}
# (test id, parameter, value, entry point, whether the range refuses the value)
RANGE_CASES = [
    *((f"gamma-{entry}-{name}", "gamma", v, entry, name not in ("1e-300", "1.0", "float_max"))
      for name, v in GAMMAS.items() for entry in ("FloatModel", "QuantizedModel", "add_ridge", "train")),
    *((f"split_fraction-{v}", "split_fraction", v, "split_train_val", v != 0.5) for v in (0, 1, -0.5, float("nan"), 0.5)),
    *((f"class_filter-{v}", "class_filter", v, "load_cifar10", v != ("cat", "dog"))
      for v in (("cat", "cat"), ("cat", "unicorn"), ("cat", "dog"))),
    *((f"seed-{entry}-{v}", "seed", v, entry, v in (-1, 2**64)) for v in (-1, 0, 2**64 - 1, 2**64)
      for entry in ("FloatModel", "QuantizedModel", "train")),
    *((f"selection_threshold-{v}", "selection_threshold", v, "select_model", v not in (0.5, 1))
      for v in (0, -1, 0.5, 1, 1.5)),
    *((f"{param}-{entry}-{v}", param, v, entry, v < 1) for param in ("n", "L") for v in (-1, 0, 1)
      for entry in ("gen_weights_continuous", "gen_weights_ternary")),
]
ENTRY_POINTS = {
    ("gamma", "FloatModel"): lambda v, d: ternary_model(gamma=v),
    ("gamma", "QuantizedModel"): lambda v, d: quantized_model(metadata={"gamma": v}),
    ("gamma", "add_ridge"): lambda v, d: SpdSystem(np.eye(2), np.zeros((2, 1))).add_ridge(v),
    ("gamma", "train"): lambda v, d: fit(gamma=v),
    ("split_fraction", "split_train_val"): lambda v, d: split_train_val(split_input(), v),
    ("class_filter", "load_cifar10"): lambda v, d: load_cifar10([cifar_batch(d / "b.bin")], v),
    ("seed", "FloatModel"): lambda v, d: ternary_model(seed=v),
    ("seed", "QuantizedModel"): lambda v, d: quantized_model(seed=v),
    ("seed", "train"): lambda v, d: fit(seed=v),
    ("selection_threshold", "select_model"): lambda v, d: select_model(candidates(), v),
    **{("n", f.__name__): lambda v, d, f=f: f(v, 2, 0) for f in (gen_weights_continuous, gen_weights_ternary)},
    **{("L", f.__name__): lambda v, d, f=f: f(2, v, 0) for f in (gen_weights_continuous, gen_weights_ternary)},
}


class TestRanges:
    """Every library function that takes a parameter refuses exactly what data.RANGES refuses."""

    @pytest.mark.parametrize("param, value, entry, refused", [case[1:] for case in RANGE_CASES],
                             ids=[case[0] for case in RANGE_CASES])
    def test_entry_point_refuses_exactly_what_the_table_refuses(self, tmp_path, param, value, entry, refused):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bool(in_range(param, value)) != refused
        assert refuses(param, lambda: ENTRY_POINTS[param, entry](value, tmp_path)) == refused

    def test_class_filter_refusal_is_a_data_format_error(self, tmp_path):
        path = cifar_batch(tmp_path / "b.bin")
        for pair in (("cat", "cat"), ("cat", "unicorn"), ("cat", "dog", "frog"), ("cat",)):
            with pytest.raises(DataFormatError, match="class_filter must be two different CIFAR-10 classes"):
                load_cifar10([path], pair)
        cats_and_dogs = load_cifar10([path], ("cat", "dog"))
        assert cats_and_dogs.labels.tolist() == [0, 1, 0] and cats_and_dogs.class_count == 2

    def test_config_options_and_library_read_one_table(self, tmp_path, monkeypatch, capsys):
        """A range changed in data.RANGES changes the config check, the CLI check and the library's."""
        missing = str(tmp_path / "missing" / "m.ielm")
        argv = ["train", "--images", missing, "--labels", missing, "--L", "4", "--out", missing, "--gamma", "2"]
        assert main(argv) == 1  # in range: the missing output directory is the first error
        monkeypatch.setitem(data.RANGES, "gamma", (lambda v: v != 2, "not 2"))
        assert main(argv) == 4
        assert {"reason=invalid_option", "option=--gamma"} <= set(capsys.readouterr().err.split())
        with pytest.raises(ConfigError, match="gamma must be not 2") as err:
            ExperimentConfig(mode="size_sweep", dataset={"kind": "textures"}, gamma=2)
        assert err.value.key == "gamma"
        for entry in ("FloatModel", "add_ridge", "train"):
            assert refuses("gamma", lambda: ENTRY_POINTS["gamma", entry](2, tmp_path))
            assert not refuses("gamma", lambda: ENTRY_POINTS["gamma", entry](3, tmp_path))
