"""Dataset loading: IDX (MNIST-style) and CIFAR-10 binary formats,
normalization, deterministic splits and batching.

IDX layout (big endian): i32 magic (2051 images / 2049 labels; its low
byte is the number of dims), one i32 per dim, then raw unsigned bytes.
CIFAR-10 binary records are 3073 bytes: one label byte followed by
channel-planar 1024R + 1024G + 1024B pixels.

Every dataset, loaded or the built-in synthetic set, keeps its images as
uint8 bytes (`ByteImages`) and normalizes only what is read: each read
divides the bytes read by 255 into a fresh float64 array. So the full MNIST
protocol's 70k images take 55 MB, not 439 MB as float64, and CIFAR-10's 60k
take 184 MB, not 1.47 GB; a split or subset copies bytes, not floats. The
CIFAR-10 loader holds one file's bytes at a time next to the images.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


class FormatError(ValueError):
    """Malformed dataset file (bad magic, truncated, wrong record size, a
    label outside 0-9, or IDX images and labels of unequal counts)."""


class ByteImages:
    """Read-only (N, H, W, C) images stored as one uint8 byte per pixel.

    Indexing (as an ndarray is indexed) returns the bytes read divided by
    255, as a fresh float64 array in [0, 1], or a float64 for one pixel; the
    uint8 to float64 cast is exact, so a read is bitwise
    raw.astype(np.float64) / 255.0. `take` returns the images it picks as a
    new ByteImages. `raw` is the read-only byte array.
    """

    def __init__(self, raw: np.ndarray):
        if raw.dtype != np.uint8 or raw.ndim != 4:
            raise ValueError(f"expected (N, H, W, C) uint8 bytes, got {raw.dtype} {raw.shape}")
        self.raw = raw.view()
        self.raw.flags.writeable = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, key) -> np.ndarray:
        return self.raw[key] / 255.0

    def take(self, indices) -> "ByteImages":
        return ByteImages(self.raw.take(indices, axis=0))


@dataclass
class Dataset:
    images: ByteImages  # (N, H, W, C); a read gives float64 in [0, 1]
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(f"image count {len(self.images)} != label count {len(self.labels)}")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images.take(indices), self.labels[indices])


@dataclass
class Split:
    train: Dataset
    val: Dataset


def _read_idx(path, magic: int) -> np.ndarray:
    """Raw uint8 array of an IDX file whose header holds `magic` and as many
    dimensions as the magic's low byte says; the payload must be exactly the
    bytes those dims call for."""
    n_dims = magic & 0xFF
    data = Path(path).read_bytes()
    header_len = 4 * (1 + n_dims)
    if len(data) < header_len:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    found, *dims = struct.unpack(f">{1 + n_dims}i", data[:header_len])
    if min(dims) < 0:
        raise FormatError(f"{path}: negative dimension in header {tuple(dims)}")
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    expected = header_len + math.prod(dims)
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=header_len).reshape(dims)


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}i", magic, *array.shape))
        f.write(array.tobytes())


def load_idx_images(path) -> np.ndarray:
    """Raw uint8 image array (N, H, W) from an IDX image file."""
    return _read_idx(path, IDX_IMAGE_MAGIC)


def load_idx_labels(path) -> np.ndarray:
    """Raw uint8 label array (N,) from an IDX label file."""
    return _read_idx(path, IDX_LABEL_MAGIC)


def write_idx_images(path, images: np.ndarray) -> None:
    _write_idx(path, IDX_IMAGE_MAGIC, images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    _write_idx(path, IDX_LABEL_MAGIC, labels)


def load_mnist(paths: Sequence) -> Dataset:
    """Decode an IDX (images, labels) pair of paths into a dataset of byte
    images."""
    images_path, labels_path = paths
    raw = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(raw) != len(labels):
        raise FormatError(f"{images_path}, {labels_path}: {len(raw)} images "
                          f"but {len(labels)} labels")
    if labels.max(initial=0) > 9:
        raise FormatError(f"{labels_path}: label out of range: {labels.max()}")
    return Dataset(ByteImages(raw[..., None]), labels.astype(np.int64))


def load_cifar10(paths: Sequence) -> Dataset:
    """Decode CIFAR-10 binary batch files into a dataset of byte images: one
    uint8 array sized by the files' sizes on disk, then per file in turn a
    read, its checks and a copy of its pixels, interleaved, into its rows, one
    colour plane at a time. One file's bytes are held at a time."""
    files = [(path, Path(path).stat().st_size) for path in paths]
    n = sum(size // CIFAR_RECORD_BYTES for _, size in files)
    images, labels = np.empty((n, 32, 32, 3), np.uint8), np.empty(n, np.int64)
    start = 0
    for path, size in files:
        records = np.frombuffer(Path(path).read_bytes(), dtype=np.uint8)
        if len(records) != size:
            raise FormatError(f"{path}: size {len(records)}, but {size} when the load began")
        if size % CIFAR_RECORD_BYTES != 0:
            raise FormatError(f"{path}: size {size} not a multiple of {CIFAR_RECORD_BYTES}")
        records = records.reshape(-1, CIFAR_RECORD_BYTES)
        rows = slice(start, start + len(records))
        labels[rows] = records[:, 0]
        if len(records) and labels[rows].max() > 9:
            raise FormatError(f"{path}: label out of range: {labels[rows].max()}")
        # channel-planar (3, 1024) -> interleaved (1024, 3): a copy per plane runs
        # 1024 pixels in its inner loop, where one of the transposed view runs 3
        planes = records[:, 1:].reshape(-1, 3, 1024)
        pixels = images[rows].reshape(-1, 1024, 3)
        for c in range(3):
            pixels[..., c] = planes[:, c]
        start = rows.stop
        del records, planes  # this file's bytes, before the next file is read
    return Dataset(ByteImages(images), labels)


def split_train_val(dataset: Dataset, fraction: float, seed: int) -> Split:
    """Seeded shuffle then partition; |val| = round(fraction * N)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    n_val = round(fraction * len(dataset))
    if not 0 < n_val < len(dataset):
        raise ValueError(f"fraction {fraction} of {len(dataset)} examples leaves an "
                         f"empty train or validation split")
    return Split(train=dataset.subset(perm[n_val:]),
                 val=dataset.subset(perm[:n_val]))


def batches(dataset: Dataset, batch_size: int, seed: int,
            epoch: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded per-epoch shuffle; the final partial batch is retained."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch])
    perm = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = perm[start:start + batch_size]
        yield dataset.images[idx], dataset.labels[idx]


def synthetic_two_class(n: int, seed: int) -> Dataset:
    """Linearly separable 8x8 toy set: class 1 carries a bright corner patch.
    The pixels are drawn as floats and stored as bytes, rounded to 1/255."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 0.2, size=(n, 8, 8, 1))
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    images[labels == 1, :4, :4, :] += 0.8
    images = np.round(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)
    return Dataset(ByteImages(images), labels)
