"""Dataset loading: IDX (MNIST-style) and CIFAR-10 binary formats,
normalization, deterministic splits and batching.

IDX layout (big endian): i32 magic (2051 images / 2049 labels), i32 dims,
then raw unsigned bytes. CIFAR-10 binary records are 3073 bytes: one label
byte followed by channel-planar 1024R + 1024G + 1024B pixels.

A loaded dataset keeps its images as the uint8 bytes it decoded
(`ByteImages`) and normalizes only what is read: each read divides the bytes
read by 255 into a fresh float64 array. So the full MNIST protocol's 70k
images take 55 MB, not 439 MB as float64, and CIFAR-10's 60k take 184 MB,
not 1.47 GB; a split or subset copies bytes, not floats.
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


def _normalize(raw) -> np.ndarray:
    """raw / 255 as a fresh float64 array, or a float64 scalar for one pixel.
    The uint8 to float64 cast is exact, so the values are bitwise those of
    raw.astype(np.float64) / 255.0."""
    out = np.empty(np.shape(raw))
    np.divide(raw, 255.0, out=out)
    return out if out.ndim else out[()]


class ByteImages:
    """Read-only (N, H, W, C) images stored as one uint8 byte per pixel.

    Indexing (as an ndarray is indexed) and `np.asarray` return the bytes
    read divided by 255, as a fresh float64 array in [0, 1]; `take` returns
    the bytes it picks as a new ByteImages. `raw` is the read-only byte
    array.
    """

    dtype = np.dtype(np.float64)  # the dtype a read returns

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
        return _normalize(self.raw[key])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("ByteImages are bytes; reading them as floats copies")
        images = _normalize(self.raw)
        return images if dtype is None else images.astype(dtype, copy=False)

    def take(self, indices, axis: int = 0) -> "ByteImages":
        return ByteImages(self.raw.take(indices, axis=axis))


@dataclass
class Dataset:
    # (N, H, W, C); a read gives float64 in [0, 1]. ByteImages for a loaded
    # file, a float64 ndarray for the synthetic set.
    images: np.ndarray | ByteImages
    labels: np.ndarray  # (N,) int64 in [0, 10)

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(f"image count {len(self.images)} != label count {len(self.labels)}")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.images.take(indices, axis=0), self.labels[indices])


@dataclass
class Split:
    train: Dataset
    val: Dataset


def _read_idx(path, magic: int, n_dims: int) -> np.ndarray:
    """Raw uint8 array of an IDX file whose header holds `magic` and n_dims
    dimensions; the payload must be exactly the bytes those dims call for."""
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
    return _read_idx(path, IDX_IMAGE_MAGIC, 3)


def load_idx_labels(path) -> np.ndarray:
    """Raw uint8 label array (N,) from an IDX label file."""
    return _read_idx(path, IDX_LABEL_MAGIC, 1)


def write_idx_images(path, images: np.ndarray) -> None:
    _write_idx(path, IDX_IMAGE_MAGIC, images)


def write_idx_labels(path, labels: np.ndarray) -> None:
    _write_idx(path, IDX_LABEL_MAGIC, labels)


def load_mnist(images_path, labels_path) -> Dataset:
    """Decode an IDX image/label pair into a dataset of byte images."""
    raw = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(raw) != len(labels):
        raise FormatError(f"{images_path}, {labels_path}: {len(raw)} images "
                          f"but {len(labels)} labels")
    if labels.max(initial=0) > 9:
        raise FormatError(f"{labels_path}: label out of range: {labels.max()}")
    return Dataset(ByteImages(raw[..., None]), labels.astype(np.int64))


def load_cifar10(paths: Sequence) -> Dataset:
    """Decode CIFAR-10 binary batch files into a dataset of byte images.

    Every file is checked first; then each file's pixels are copied,
    interleaved, into its rows of one uint8 array, one colour plane at a
    time."""
    files = []
    for path in paths:
        data = Path(path).read_bytes()
        if len(data) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(f"{path}: size {len(data)} not a multiple of {CIFAR_RECORD_BYTES}")
        records = np.frombuffer(data, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if len(batch_labels) and batch_labels.max() > 9:
            raise FormatError(f"{path}: label out of range: {batch_labels.max()}")
        files.append(records)
    n = sum(len(records) for records in files)
    images, labels = np.empty((n, 32, 32, 3), np.uint8), np.empty(n, np.int64)
    start = 0
    for records in files:
        rows = slice(start, start + len(records))
        labels[rows] = records[:, 0]
        # channel-planar (3, 1024) -> interleaved (1024, 3): a copy per plane
        # runs 1024 pixels in its inner loop, where a copy of the transposed
        # view would run 3
        planes = records[:, 1:].reshape(-1, 3, 1024)
        pixels = images[rows].reshape(-1, 1024, 3)
        for c in range(3):
            pixels[..., c] = planes[:, c]
        start = rows.stop
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
    """Linearly separable 8x8 toy set: class 1 carries a bright corner patch."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 0.2, size=(n, 8, 8, 1))
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    images[labels == 1, :4, :4, :] += 0.8
    return Dataset(np.clip(images, 0.0, 1.0), labels)
