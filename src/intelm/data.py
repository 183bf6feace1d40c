"""Dataset loading, patch extraction, preprocessing, and splitting.

Parsers cover the IDX container (MNIST), CIFAR-10 binary batches and a
generic labeled CSV; the binary formats have matching writers so fixtures
round-trip at byte level. IDX and IELM model files are read once through
BoundedReader. A synthetic two-texture generator stands in for texture
images that cannot be shipped with the repository.
"""

from __future__ import annotations

import math
import re
import struct
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from intelm.seeding import make_rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CIFAR10_CLASSES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)
CIFAR10_RECORD = 3073  # 1 label byte + 32*32*3 pixels
# A CSV row: ASCII decimal integers, each with an optional sign and ASCII whitespace around it.
_INT_ROW = re.compile(r"\s*[+-]?\d+\s*(,\s*[+-]?\d+\s*)*", re.ASCII)


class DataFormatError(ValueError):
    pass


class InputError(ValueError):
    """Sample violates the model's input contract."""


@dataclass
class RawDataset:
    """Integer samples with class labels in [0, class_count)."""

    samples: np.ndarray  # (N, n) integer
    labels: np.ndarray  # (N,) integer
    class_count: int
    source: str = "csv"
    value_range: tuple[int, int] = (0, 255)

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.samples.shape[0]} samples but {self.labels.shape[0]} labels"
            )
        if self.samples.shape[0] == 0:
            raise DataFormatError("the dataset has no samples")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise DataFormatError(f"labels outside [0, {self.class_count})")
        lo, hi = self.value_range
        if self.samples.size and (self.samples.min() < lo or self.samples.max() > hi):
            raise DataFormatError(
                f"sample values in [{self.samples.min()}, {self.samples.max()}] "
                f"outside declared range [{lo}, {hi}]"
            )

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    def check_all_classes_present(self) -> None:
        """Required before training/evaluation; file fixtures may be sparser."""
        present = set(np.unique(self.labels).tolist())
        missing = sorted(set(range(self.class_count)) - present)
        if missing:
            raise DataFormatError(f"classes with no samples: {missing}")


@dataclass
class NormalizedDataset:
    """Preprocessed samples, each an integer row times a positive scale.

    Sample i is rows[i] * row_scale[i]. Since the scale is positive and ReLU
    with zero bias commutes with it, training projects the exact rows and
    scales the hidden layer afterwards; samples is the float matrix.
    """

    rows: np.ndarray  # (N, n) integer_rows(samples, steps): the samples' dtype, int64 centred, or float64
    row_scale: np.ndarray  # (N,) float64, positive
    labels: np.ndarray
    class_count: int
    preprocessing: list[str] = field(default_factory=list)
    source: str = "csv"

    @property
    def samples(self) -> np.ndarray:
        """(N, n) float64 preprocessed samples, computed on each access."""
        return self.rows * self.row_scale[:, None]

    @property
    def N(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


# --- IDX (MNIST) -----------------------------------------------------------


class BoundedReader:
    """A binary file read once, whose fields are taken in order; none may run past its end.

    The one bounds check of IDX and IELM files: a field claimed past the end
    raises the caller's error type, naming the path, the field and the file's end.
    """

    def __init__(self, path, error: type[ValueError]):
        self.path, self.error = path, error
        self.data, self.offset = Path(path).read_bytes(), 0

    def take(self, count: int, what: str, dtype=np.uint8) -> np.ndarray:
        """The next count items of dtype (bytes by default), as a read-only view of the file's bytes."""
        size = np.dtype(dtype).itemsize * count
        if size > len(self.data) - self.offset:
            raise self.error(f"{self.path}: truncated {what} at offset {len(self.data)}")
        self.offset += size
        return np.frombuffer(self.data, dtype, count, self.offset - size)


def _read_idx(path, magic: int, ndim: int, what: str) -> np.ndarray:
    """Unsigned-byte IDX payload as (count, product of the other dimensions); later bytes are ignored."""
    file = BoundedReader(path, DataFormatError)
    found, count, *dims = file.take(1 + ndim, f"{what} header", ">u4").tolist()
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})")
    width = math.prod(dims)
    return file.take(count * width, f"{what} payload").reshape(count, width)


def load_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into (count, rows * cols) read-only uint8 samples."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3, "image")


def load_idx(images_path, labels_path) -> RawDataset:
    """Parse big-endian IDX image/label file pair."""
    images = load_idx_images(images_path)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")[:, 0]
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]} "
            f"({images_path} vs {labels_path})"
        )
    return RawDataset(
        samples=images,
        labels=labels,
        class_count=int(labels.max()) + 1 if labels.size else 0,
        source="mnist",
    )


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write an IDX image/label pair (fixture generation and round-trip tests)."""
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim == 2:
        side = int(np.sqrt(images.shape[1]))
        if side * side != images.shape[1]:
            raise DataFormatError("flattened images must be square to write IDX")
        images = images.reshape(-1, side, side)
    labels = np.asarray(labels, dtype=np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGES_MAGIC, *images.shape))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


# --- CIFAR-10 ---------------------------------------------------------------


def load_cifar10(batch_paths, class_filter: tuple[str, str] | None = None) -> RawDataset:
    """Parse CIFAR-10 binary batches; optionally keep two classes relabeled {0, 1}."""
    check_range("class_filter", class_filter, DataFormatError)
    samples, labels = [], []
    for path in map(Path, batch_paths):
        blob = path.read_bytes()
        if len(blob) % CIFAR10_RECORD != 0:
            raise DataFormatError(
                f"{path}: size {len(blob)} is not a multiple of {CIFAR10_RECORD}"
            )
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
        labels.append(records[:, 0])
        samples.append(records[:, 1:])
    samples = np.concatenate(samples) if samples else np.zeros((0, 3072), dtype=np.uint8)
    labels = np.concatenate(labels) if labels else np.zeros(0, dtype=np.uint8)
    if class_filter is None:
        return RawDataset(samples, labels, class_count=10, source="cifar10")
    wanted = [CIFAR10_CLASSES.index(name) for name in class_filter]
    keep = np.isin(labels, wanted)
    relabeled = (labels[keep] == wanted[1]).astype(np.int64)
    return RawDataset(samples[keep], relabeled, class_count=2, source="cifar10")


def write_cifar10_batch(samples: np.ndarray, labels: np.ndarray, path) -> None:
    samples = np.asarray(samples, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    records = np.concatenate([labels[:, None], samples], axis=1)
    if records.shape[1] != CIFAR10_RECORD:
        raise DataFormatError(f"record length {records.shape[1]} != {CIFAR10_RECORD}")
    Path(path).write_bytes(records.tobytes())


# --- texture patches --------------------------------------------------------


def extract_patches(
    image: np.ndarray,
    patch_size: int = 12,
    count: int = 500,
    region: str = "left",
    seed: int = 0,
) -> np.ndarray:
    """Random patches from the left or right half of a grayscale image, flattened to rows.

    Positions are drawn uniformly with replacement, so patches may overlap;
    the two halves are spatially disjoint, which is what keeps train and
    test patches from sharing pixels.
    """
    if region not in ("left", "right"):
        raise ValueError(f"unknown region {region!r}")
    image = np.asarray(image)
    half = image.shape[1] // 2
    sub = image[:, :half] if region == "left" else image[:, half:]
    if sub.shape[0] < patch_size or sub.shape[1] < patch_size:
        raise DataFormatError(f"{region} half of shape {sub.shape} cannot fit a {patch_size}x{patch_size} patch")
    rng = make_rng(seed)
    out = np.empty((count, patch_size * patch_size), dtype=np.int64)
    for k in range(count):
        r = int(rng.integers(0, sub.shape[0] - patch_size + 1))
        c = int(rng.integers(0, sub.shape[1] - patch_size + 1))
        out[k] = sub[r : r + patch_size, c : c + patch_size].ravel()
    return out


def synthetic_texture_image(
    axis: str,
    period: int,
    seed: int,
    size: int = 256,
    brightness: float = 0.5,
    contrast: float = 0.22,
    ramp: float = 0.0,
) -> np.ndarray:
    """Striped grating under a vertical lighting ramp, plus noise, as u8.

    Stand-in for texture photographs that cannot ship with the repository.
    The ramp mimics directional lighting in a photograph: `ramp` is the
    top-to-bottom brightness change across the whole image, so every patch
    inherits the same faint within-patch gradient regardless of where it was
    cut. That gradient is the one patch statistic (besides mean level) that
    survives random patch positions, which is what lets first-order methods
    tell the two textures apart the way they can with real photographs.
    brightness/contrast set the mean level and stripe modulation depth.
    """
    if axis not in ("rows", "cols"):
        raise ValueError(f"unknown axis {axis!r}")
    rng = make_rng(seed)
    coord = np.arange(size)
    angle = 2.0 * np.pi * coord / period
    wave = np.sin(angle) + 0.35 * np.sin(2.0 * angle + 1.0)
    wave = wave / np.abs(wave).max()
    grating = wave[:, None] if axis == "rows" else wave[None, :]
    lighting = ramp * (coord / (size - 1) - 0.5)[:, None]
    noisy = (
        brightness
        + lighting
        + contrast * grating
        + 0.05 * rng.standard_normal((size, size))
    )
    return np.round(255 * np.clip(noisy, 0.0, 1.0)).astype(np.uint8)


def synthetic_textures(
    patch_size: int = 12,
    count: int = 500,
    seed: int = 0,
    size: int = 256,
) -> tuple[RawDataset, RawDataset]:
    """Two-texture patch classification task; returns (train, test).

    Training patches come from the left halves, test patches from the right
    halves, so the two sets never share a pixel.
    """
    tex_a = synthetic_texture_image(
        "rows", 4, seed=seed * 4 + 1, size=size, brightness=0.46, contrast=0.22, ramp=0.5
    )
    tex_b = synthetic_texture_image(
        "cols", 6, seed=seed * 4 + 2, size=size, brightness=0.54, contrast=0.18, ramp=-0.5
    )

    def build(region: str, base_seed: int) -> RawDataset:
        pa = extract_patches(tex_a, patch_size, count, region, seed=base_seed)
        pb = extract_patches(tex_b, patch_size, count, region, seed=base_seed + 1)
        samples = np.concatenate([pa, pb])
        labels = np.concatenate([np.zeros(count, np.int64), np.ones(count, np.int64)])
        return RawDataset(samples, labels, class_count=2, source="patches")

    return build("left", seed * 4 + 3), build("right", seed * 4 + 100)


# --- CSV ---------------------------------------------------------------------


def _int_rows(lines, path, width: int | None = None) -> np.ndarray:
    """(rows, width) int64 fields of each nonblank (line number, text) pair."""
    rows = []
    for lineno, line in lines:
        if not line.strip(" \t\n\r\f\v"):  # blank in ASCII, as _INT_ROW reads whitespace
            continue
        if not _INT_ROW.fullmatch(line):
            raise DataFormatError(f"{path}: line {lineno}: a field is not an ASCII decimal integer")
        row = [int(v) for v in line.split(",")]
        width = width or len(row)
        if len(row) != width:
            raise DataFormatError(f"{path}: line {lineno} has {len(row)} fields, expected {width}")
        rows.append(row)
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width or 0)
    except OverflowError:
        raise DataFormatError(f"{path}: a value does not fit in 64-bit integers") from None


def _text_lines(path) -> list[str]:
    """Lines of a UTF-8 text file; undecodable bytes are a DataFormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: byte {e.start} is not UTF-8 text") from None


def load_csv(path, label_column: str) -> RawDataset:
    """Generic labeled CSV: header row, integer features, label column by name."""
    header, *lines = _text_lines(path) or [""]
    names = [c.strip() for c in header.split(",")]
    if label_column not in names:
        raise DataFormatError(f"{path}: no column named {label_column!r}")
    rows = _int_rows(enumerate(lines, 2), path, len(names))
    label_at = names.index(label_column)
    samples = np.delete(rows, label_at, axis=1)
    labels = rows[:, label_at]
    return RawDataset(
        samples,
        labels,
        class_count=int(labels.max()) + 1 if labels.size else 0,
        source="csv",
        value_range=(int(samples.min(initial=0)), int(samples.max(initial=0))),
    )


def load_csv_samples(path) -> np.ndarray:
    """Unlabeled CSV without a header: one sample of integer features per nonblank line."""
    return _int_rows(enumerate(_text_lines(path), 1), path)


# --- preprocessing and splits ------------------------------------------------

PREPROCESS_STEPS = ("zero_mean", "l2_normalize")


def check_steps(steps) -> tuple[str, ...]:
    """Preprocessing steps as a tuple: anything but a list of distinct known steps is a ValueError.

    The one check of a step list, for preprocess and for the steps a model
    records.
    """
    if not isinstance(steps, (list, tuple)):
        raise ValueError(f"preprocessing must be a list of steps, got {steps!r}")
    for step in steps:
        if step not in PREPROCESS_STEPS:
            raise ValueError(f"unknown preprocessing step {step!r}; one of {PREPROCESS_STEPS}")
    if len(set(steps)) != len(steps):
        raise ValueError(f"repeated preprocessing step in {list(steps)}")
    return tuple(steps)


# The one range of each parameter, for config and dataset keys, CLI options and library calls.
# gamma compares as is (a JSON integer past float64 is refused, not cast); 1/gamma overflows to inf, not a warning.
RANGES = {
    **dict.fromkeys(("n", "L", "m", "models_per_L", "pairs", "jobs", "count", "patch_size", "train_limit"),
                    (lambda v: v >= 1, ">= 1")),
    "seed": (lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
    "gamma": (lambda v: 0 < v <= sys.float_info.max and 1 / float(v) <= sys.float_info.max,
              "> 0 with gamma and 1/gamma finite"),
    "selection_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "split_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "class_filter": (lambda v: len(v) == len(set(v) & set(CIFAR10_CLASSES)) == 2, "two different CIFAR-10 classes"),
}


def in_range(param: str, value) -> bool:
    """Whether value lies in param's range: always an absent (None) value, never one it cannot compare."""
    try:
        return value is None or RANGES[param][0](value)
    except TypeError:
        return False


def check_range(param: str, value, error=ValueError) -> None:
    """Raise error(message) when value lies outside param's range (in_range)."""
    if not in_range(param, value):
        raise error(f"{param} must be {RANGES[param][1]}, got {value}")


def max_abs(X: np.ndarray) -> int:
    """Largest magnitude in an integer array, 0 when empty."""
    return max(-int(X.min(initial=0)), int(X.max(initial=0)))


def centred_rows_fit_int64(n: int, bound: int) -> bool:
    """Whether n*x - sum(x) is exact in int64 for every x of n values with max |x| <= bound."""
    return 2 * n * bound < 2**63


def integer_rows(X, steps) -> np.ndarray:
    """The rows that steps make of samples X (one sample, or one per row of X).

    X itself, or n*X - sum(X) under zero_mean: n times the centred signal,
    a positive multiple of it that is exact in integers. Training scales
    these rows (preprocess), and both scorers project them unscaled, since
    ReLU with zero bias and argmax ignore a positive scale. X whose dtype
    casts to int64 keeps that dtype, so u8 images stay u8 until a kernel
    casts them to its exact float dtype; centred, such X gives int64 rows
    while they fit in 64 bits (|n*X - sum(X)| <= 2n * max|x|). Any other X
    gives float64 rows.
    """
    X = np.asarray(X)
    exact = np.can_cast(X.dtype, np.int64)
    if "zero_mean" not in steps:
        return X if exact else X.astype(np.float64, copy=False)
    n = X.shape[-1]
    exact = exact and centred_rows_fit_int64(n, max_abs(X))
    rows = X.astype(np.int64 if exact else np.float64, copy=False)
    return n * rows - rows.sum(axis=-1, keepdims=True)


def blank_rows(X, steps) -> np.ndarray:
    """Which samples of X have an all-zero integer row: no normalized form.

    That is an all-zero sample or, under zero_mean, a constant one:
    n*x_j - sum(x) is 0 for every j exactly when every x_j is equal. So the
    predicate reads the raw samples, exactly, and needs no transform.
    """
    X = np.asarray(X)
    return (X == X[..., :1]).all(axis=-1) if "zero_mean" in steps else ~X.any(axis=-1)


def reject_blank_rows(X, steps) -> None:
    """A blank sample (blank_rows) is an InputError; scale invariance holds only for the others."""
    blank = blank_rows(X, steps)
    if blank.any():
        kind = "constant" if "zero_mean" in steps else "all-zero"
        raise InputError(f"cannot classify the {kind} sample at row {int(np.argmax(blank))}")


def preprocess(raw: RawDataset, steps: list[str]) -> NormalizedDataset:
    """Integer rows (integer_rows) and a positive float64 scale per row.

    The scale is 1/|row| under l2_normalize, else 1/n under zero_mean (the
    centred signal), else 1; the steps therefore act as a set, centring
    before normalizing. The sum of squares is taken in float64, exact while
    it stays below 2**53 (every u8 width up to n = 3072, centred). A blank
    row (blank_rows), or one that float64 rows round to all zero, cannot be
    l2-normalized.
    """
    steps = check_steps(steps)
    rows = integer_rows(raw.samples, steps)
    if "l2_normalize" in steps:
        sumsq = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
        # sumsq is 0 on a row that is not blank only where float64 rows rounded it away
        blank = np.flatnonzero(blank_rows(raw.samples, steps) | (sumsq == 0))
        if blank.size:
            raise DataFormatError(f"cannot l2-normalize all-zero rows: {blank[:10].tolist()}")
        scale = 1.0 / np.sqrt(sumsq)
    else:
        scale = np.full(rows.shape[0], 1.0 / rows.shape[1] if "zero_mean" in steps else 1.0)
    return NormalizedDataset(
        rows=rows,
        row_scale=scale,
        labels=raw.labels.copy(),
        class_count=raw.class_count,
        preprocessing=list(steps),
        source=raw.source,
    )


def limit_rows(raw: RawDataset, limit: int | None, seed: int) -> RawDataset:
    """The first limit rows of one seeded permutation of raw, in file order; raw itself if it has no more.

    limit (None for no limit) and seed lie in RANGES, as train_limit and seed.
    """
    check_range("train_limit", limit)
    check_range("seed", seed)
    if limit is None or raw.N <= limit:
        return raw
    idx = np.sort(make_rng(seed).permutation(raw.N)[:limit])
    return replace(raw, samples=raw.samples[idx], labels=raw.labels[idx])


def split_train_val(dataset: RawDataset, fraction: float = 0.8, seed: int = 0):
    """Stratified random split of a RawDataset into (train, val), deterministic per seed."""
    check_range("split_fraction", fraction)
    labels = dataset.labels
    rng = make_rng(seed)
    train_idx, val_idx = [], []
    for cls in range(dataset.class_count):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise DataFormatError(f"class {cls} has {idx.size} sample(s); need at least 2")
        idx = rng.permutation(idx)
        cut = min(int(np.floor(fraction * idx.size)), idx.size - 1)
        cut = max(cut, 1)
        train_idx.append(idx[:cut])
        val_idx.append(idx[cut:])

    def take(parts):
        idx = np.sort(np.concatenate(parts))
        return replace(dataset, samples=dataset.samples[idx], labels=dataset.labels[idx])

    return take(train_idx), take(val_idx)
