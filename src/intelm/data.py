"""Dataset loading, patch extraction, preprocessing, and splitting.

Parsers cover the IDX container (MNIST), CIFAR-10 binary batches, a
generic labeled CSV, and a raw u8 matrix format for texture images. Every
parser has a matching writer so fixtures round-trip at byte level. A
synthetic two-texture generator stands in for texture images that cannot
be shipped with the repository.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
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

RAW_MATRIX_MAGIC = b"IMG0"


class DataFormatError(ValueError):
    pass


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
        if self.labels.size:
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
    """Real-valued samples after per-row preprocessing."""

    samples: np.ndarray  # (N, n) float64
    labels: np.ndarray
    class_count: int
    preprocessing: list[str] = field(default_factory=list)
    source: str = "csv"

    @property
    def N(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]


# --- IDX (MNIST) -----------------------------------------------------------


def _read_u32s(fh, count, path, what):
    data = fh.read(4 * count)
    if len(data) != 4 * count:
        raise DataFormatError(f"{path}: truncated while reading {what} at offset {fh.tell()}")
    return struct.unpack(f">{count}I", data)


def _read_idx(path, magic: int, ndim: int, what: str) -> np.ndarray:
    """Unsigned-byte IDX payload as (count, product of the other dimensions)."""
    with open(path, "rb") as fh:
        found, count, *dims = _read_u32s(fh, 1 + ndim, path, f"{what} header")
        if found != magic:
            raise DataFormatError(
                f"{path}: bad magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})"
            )
        size = count * math.prod(dims)
        # bounded by the file size, so a hostile header cannot make read() allocate its claim
        payload = fh.read(min(size, os.fstat(fh.fileno()).st_size))
        if len(payload) != size:
            raise DataFormatError(
                f"{path}: truncated {what} payload at offset {4 * (1 + ndim) + len(payload)}"
            )
    return np.frombuffer(payload, dtype=np.uint8).reshape(count, math.prod(dims))


def load_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into (count, rows * cols) int64 samples."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3, "image").astype(np.int64)


def load_idx(images_path, labels_path) -> RawDataset:
    """Parse big-endian IDX image/label file pair."""
    images = load_idx_images(images_path)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")[:, 0].astype(np.int64)
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
    samples, labels = [], []
    for path in map(Path, batch_paths):
        blob = path.read_bytes()
        if len(blob) % CIFAR10_RECORD != 0:
            raise DataFormatError(
                f"{path}: size {len(blob)} is not a multiple of {CIFAR10_RECORD}"
            )
        records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, CIFAR10_RECORD)
        labels.append(records[:, 0].astype(np.int64))
        samples.append(records[:, 1:].astype(np.int64))
    samples = np.concatenate(samples) if samples else np.zeros((0, 3072), dtype=np.int64)
    labels = np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64)
    if class_filter is None:
        return RawDataset(samples, labels, class_count=10, source="cifar10")
    wanted = []
    for name in class_filter:
        if name not in CIFAR10_CLASSES:
            raise DataFormatError(f"unknown CIFAR-10 class {name!r}")
        wanted.append(CIFAR10_CLASSES.index(name))
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


# --- raw u8 texture matrices ------------------------------------------------


def load_raw_matrix(path) -> np.ndarray:
    """Read the raw grayscale format: "IMG0", u32 rows, u32 cols (LE), u8 data."""
    blob = Path(path).read_bytes()
    if blob[:4] != RAW_MATRIX_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise DataFormatError(f"{path}: {len(blob)} bytes, shorter than the 12-byte header")
    rows, cols = struct.unpack("<2I", blob[4:12])
    if len(blob) != 12 + rows * cols:
        raise DataFormatError(f"{path}: expected {12 + rows * cols} bytes, got {len(blob)}")
    return np.frombuffer(blob[12:], dtype=np.uint8).reshape(rows, cols)


def write_raw_matrix(image: np.ndarray, path) -> None:
    image = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(RAW_MATRIX_MAGIC)
        fh.write(struct.pack("<2I", *image.shape))
        fh.write(image.tobytes())


# --- texture patches --------------------------------------------------------


def extract_patches(
    image: np.ndarray,
    patch_size: int = 12,
    count: int = 500,
    region: str = "left",
    seed: int = 0,
) -> np.ndarray:
    """Random patches from one half of a grayscale image, flattened to rows.

    Positions are drawn uniformly with replacement, so patches may overlap;
    the left/right (or top/bottom) halves are spatially disjoint, which is
    what keeps train and test patches from sharing pixels.
    """
    image = np.asarray(image)
    rows, cols = image.shape
    if region in ("left", "right"):
        half = cols // 2
        sub = image[:, :half] if region == "left" else image[:, half:]
    elif region in ("top", "bottom"):
        half = rows // 2
        sub = image[:half, :] if region == "top" else image[half:, :]
    else:
        raise ValueError(f"unknown region {region!r}")
    if sub.shape[0] < patch_size or sub.shape[1] < patch_size:
        raise DataFormatError(
            f"{region} half of shape {sub.shape} cannot fit a "
            f"{patch_size}x{patch_size} patch"
        )
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


def _int_rows(lines, path, width: int | None = None) -> list[list[int]]:
    """Integer fields of each nonblank (line number, text) pair, all rows one width."""
    rows = []
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            row = [int(v) for v in line.split(",")]
        except ValueError as e:
            raise DataFormatError(f"{path}: line {lineno}: {e}") from None
        width = width or len(row)
        if len(row) != width:
            raise DataFormatError(f"{path}: line {lineno} has {len(row)} fields, expected {width}")
        rows.append(row)
    return rows


def load_csv(path, label_column: str) -> RawDataset:
    """Generic labeled CSV: header row, integer features, label column by name."""
    with open(path) as fh:
        names = [c.strip() for c in fh.readline().split(",")]
        if label_column not in names:
            raise DataFormatError(f"{path}: no column named {label_column!r}")
        rows = _int_rows(enumerate(fh, 2), path, len(names))
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(names))
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
    with open(path) as fh:
        return np.asarray(_int_rows(enumerate(fh, 1), path), dtype=np.int64)


# --- preprocessing and splits ------------------------------------------------

PREPROCESS_STEPS = ("zero_mean", "l2_normalize")


def preprocess(raw: RawDataset, steps: list[str]) -> NormalizedDataset:
    """Apply per-row preprocessing steps in the declared order."""
    for step in steps:
        if step not in PREPROCESS_STEPS:
            raise ValueError(f"unknown preprocessing step {step!r}")
    samples = raw.samples.astype(np.float64)
    for step in steps:
        if step == "zero_mean":
            samples = samples - samples.mean(axis=1, keepdims=True)
        else:
            norms = np.linalg.norm(samples, axis=1)
            zero_rows = np.flatnonzero(norms == 0)
            if zero_rows.size:
                raise DataFormatError(
                    f"cannot l2-normalize all-zero rows: {zero_rows[:10].tolist()}"
                )
            samples = samples / norms[:, None]
    return NormalizedDataset(
        samples=samples,
        labels=raw.labels.copy(),
        class_count=raw.class_count,
        preprocessing=list(steps),
        source=raw.source,
    )


def split_train_val(dataset, fraction: float = 0.8, seed: int = 0):
    """Stratified random split into (train, val), deterministic per seed."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
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
    train_idx = np.sort(np.concatenate(train_idx))
    val_idx = np.sort(np.concatenate(val_idx))
    return _take(dataset, train_idx), _take(dataset, val_idx)


def _take(dataset, idx):
    if isinstance(dataset, RawDataset):
        return RawDataset(
            dataset.samples[idx],
            dataset.labels[idx],
            dataset.class_count,
            dataset.source,
            dataset.value_range,
        )
    return NormalizedDataset(
        dataset.samples[idx],
        dataset.labels[idx],
        dataset.class_count,
        list(dataset.preprocessing),
        dataset.source,
    )
