import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nirmalpool import data


def make_idx_image_bytes(images):
    images = np.asarray(images, dtype=np.uint8)
    return struct.pack(">4i", data.IDX_IMAGE_MAGIC, *images.shape) + images.tobytes()


def make_idx_label_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">2i", data.IDX_LABEL_MAGIC, len(labels)) + labels.tobytes()


def make_cifar_record(label, red=0, green=0, blue=0):
    return bytes([label]) + bytes([red] * 1024) + bytes([green] * 1024) + bytes([blue] * 1024)


def test_idx_single_pixel_fixture(tmp_path):
    raw = make_idx_image_bytes(np.full((1, 1, 1), 0xFF))
    path = tmp_path / "img"
    path.write_bytes(raw)
    images = data.load_idx_images(path)
    assert images.shape == (1, 1, 1)
    assert images[0, 0, 0] == 255


def test_idx_wrong_magic_rejected(tmp_path):
    raw = make_idx_label_bytes([1, 2, 3])
    path = tmp_path / "labels-as-images"
    path.write_bytes(raw)
    with pytest.raises(data.FormatError):
        data.load_idx_images(path)
    img_path = tmp_path / "images-as-labels"
    img_path.write_bytes(make_idx_image_bytes(np.zeros((1, 2, 2))))
    with pytest.raises(data.FormatError):
        data.load_idx_labels(img_path)


def test_idx_truncated_rejected(tmp_path):
    raw = make_idx_image_bytes(np.zeros((2, 3, 3)))
    path = tmp_path / "truncated"
    path.write_bytes(raw[:-5])
    with pytest.raises(data.FormatError):
        data.load_idx_images(path)
    short = tmp_path / "short-header"
    short.write_bytes(raw[:10])
    with pytest.raises(data.FormatError):
        data.load_idx_images(short)


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=5, dtype=np.uint8)
    data.write_idx_images(tmp_path / "img", images)
    data.write_idx_labels(tmp_path / "lab", labels)
    assert (data.load_idx_images(tmp_path / "img") == images).all()
    assert (data.load_idx_labels(tmp_path / "lab") == labels).all()


def test_load_mnist_normalization(tmp_path):
    images = np.array([[[0, 128], [255, 64]]], dtype=np.uint8)
    data.write_idx_images(tmp_path / "img", images)
    data.write_idx_labels(tmp_path / "lab", np.array([7], dtype=np.uint8))
    ds = data.load_mnist((tmp_path / "img", tmp_path / "lab"))
    assert ds.images.shape == (1, 2, 2, 1)
    read = ds.images[:]
    assert read.max() == 1.0
    assert ds.images[0, 0, 1, 0] == pytest.approx(128 / 255)
    assert read.tobytes() == (images.astype(np.float64)[..., None] / 255.0).tobytes()
    assert (read >= 0).all() and (read <= 1).all()
    assert ds.labels.tolist() == [7]


def test_cifar_single_record(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(make_cifar_record(7, red=255))
    ds = data.load_cifar10([path])
    assert len(ds) == 1
    assert ds.labels[0] == 7
    assert (ds.images[0, :, :, 0] == 1.0).all()
    assert (ds.images[0, :, :, 1:] == 0.0).all()


def test_cifar_empty_and_two_records(tmp_path):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert len(data.load_cifar10([empty])) == 0

    two = tmp_path / "two.bin"
    two.write_bytes(make_cifar_record(1) + make_cifar_record(2, green=10))
    ds = data.load_cifar10([two])
    assert len(ds) == 2
    assert ds.labels.tolist() == [1, 2]


def test_cifar_files_decode_in_order_to_exact_quotients(tmp_path):
    rng = np.random.default_rng(3)
    paths, expected_images, expected_labels = [], [], []
    for i, n in enumerate((3, 0, 5)):
        records = rng.integers(0, 256, size=(n, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        paths.append(tmp_path / f"batch{i}.bin")
        paths[-1].write_bytes(records.tobytes())
        planes = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        expected_images.append(planes.astype(np.float64) / 255.0)
        expected_labels.append(records[:, 0].astype(np.int64))
    ds = data.load_cifar10(paths)
    read = ds.images[:]
    assert read.dtype == np.float64 and read.flags.c_contiguous
    assert read.tobytes() == np.concatenate(expected_images).tobytes()
    assert ds.labels.dtype == np.int64
    assert ds.labels.tolist() == np.concatenate(expected_labels).tolist()


def loaded_pair(tmp_path, loader):
    """A dataset of 7 seeded images decoded by `loader`, and the float64
    array today's division of its bytes gives."""
    rng = np.random.default_rng(11)
    if loader == "mnist":
        raw = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
        data.write_idx_images(tmp_path / "img", raw)
        data.write_idx_labels(tmp_path / "lab", rng.integers(0, 10, 7))
        ds = data.load_mnist((tmp_path / "img", tmp_path / "lab"))
        return ds, raw[..., None].astype(np.float64) / 255.0
    records = rng.integers(0, 256, size=(7, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] %= 10
    (tmp_path / "batch.bin").write_bytes(records.tobytes())
    planes = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
    return data.load_cifar10([tmp_path / "batch.bin"]), planes.astype(np.float64) / 255.0


@pytest.mark.parametrize("loader", ["mnist", "cifar"])
def test_byte_images_read_as_exact_float64_quotients(tmp_path, loader):
    ds, expected = loaded_pair(tmp_path, loader)
    assert ds.images.shape == expected.shape and len(ds.images) == len(expected)
    for key in (3, -1, slice(1, 5), slice(None, None, 2), np.array([6, 0, 0, 2]),
                (2, slice(None), 1), (0, 1, 2, 0)):
        read = ds.images[key]
        assert read.dtype == np.float64
        assert np.asarray(read).tobytes() == np.asarray(expected[key]).tobytes()
    assert type(ds.images[0, 1, 2, 0]) is np.float64  # one pixel reads as a scalar
    read = ds.images[:]
    assert read.dtype == np.float64 and read.flags.c_contiguous
    assert read.tobytes() == expected.tobytes()


@pytest.mark.parametrize("raw", [np.zeros((2, 3, 3, 1)), np.zeros((2, 3, 3), np.uint8)],
                         ids=["float", "3d"])
def test_byte_images_take_only_4d_uint8(raw):
    with pytest.raises(ValueError, match=r"expected \(N, H, W, C\) uint8 bytes"):
        data.ByteImages(raw)


@pytest.mark.parametrize("loader", ["mnist", "cifar"])
def test_subset_and_split_keep_one_byte_per_pixel(tmp_path, loader):
    ds, expected = loaded_pair(tmp_path, loader)
    assert ds.images.raw.nbytes == math.prod(ds.images.shape)
    split = data.split_train_val(ds, 0.3, seed=4)
    sub = ds.subset(np.array([5, 1, 1]))
    for part in (split.train, split.val, sub):
        assert part.images.raw.dtype == np.uint8
        assert part.images.raw.nbytes == math.prod(part.images.shape)
    assert sub.images[:].tobytes() == expected[[5, 1, 1]].tobytes()
    perm = np.random.default_rng(4).permutation(len(ds))
    assert split.val.images[:].tobytes() == expected[perm[:2]].tobytes()


@pytest.mark.parametrize("loader", ["mnist", "cifar"])
def test_loaded_images_are_read_only(tmp_path, loader):
    ds, expected = loaded_pair(tmp_path, loader)
    with pytest.raises(TypeError):
        ds.images[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        ds.images.raw[0, 0, 0, 0] = 1
    assert ds.images[:].tobytes() == expected.tobytes()


@pytest.mark.parametrize("loader", ["mnist", "cifar"])
def test_batches_of_byte_images_equal_float64_batches(tmp_path, loader):
    ds, expected = loaded_pair(tmp_path, loader)
    as_floats = data.Dataset(expected, ds.labels)
    for epoch in (0, 1):
        pairs = zip(data.batches(ds, 3, seed=2, epoch=epoch),
                    data.batches(as_floats, 3, seed=2, epoch=epoch), strict=True)
        for (images, labels), (want_images, want_labels) in pairs:
            assert images.dtype == np.float64
            assert images.tobytes() == want_images.tobytes()
            assert (labels == want_labels).all()


def test_cifar_bad_size_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 3072)
    with pytest.raises(data.FormatError):
        data.load_cifar10([path])


def test_cifar_bad_label_rejected(tmp_path):
    path = tmp_path / "badlabel.bin"
    path.write_bytes(make_cifar_record(10))
    with pytest.raises(ValueError):
        data.load_cifar10([path])


def write_cifar_files(tmp_path, n_files, n_records, seed=0):
    """`n_files` seeded batch files of `n_records` records each, every label in 0-9."""
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n_files):
        records = rng.integers(0, 256, size=(n_records, data.CIFAR_RECORD_BYTES), dtype=np.uint8)
        records[:, 0] %= 10
        paths.append(tmp_path / f"data_batch_{i + 1}.bin")
        paths[-1].write_bytes(records.tobytes())
    return paths


def test_cifar_load_holds_one_file_at_a_time(tmp_path):
    """The load's allocation peak is the images plus one file's bytes, not
    plus every file's: each file is let go before the next is read."""
    paths = write_cifar_files(tmp_path, n_files=5, n_records=400)
    tracemalloc.start()
    try:
        ds = data.load_cifar10(paths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    file_bytes = 400 * data.CIFAR_RECORD_BYTES
    assert len(ds) == 2000
    assert peak < ds.images.raw.nbytes + 1.5 * file_bytes


def test_cifar_first_bad_file_in_path_order_is_reported(tmp_path):
    """Files are checked in path order, so a bad label in file 2 is reported
    ahead of a bad size in file 4."""
    paths = write_cifar_files(tmp_path, n_files=5, n_records=300)
    raw = bytearray(paths[1].read_bytes())
    raw[5 * data.CIFAR_RECORD_BYTES] = 10
    paths[1].write_bytes(bytes(raw))
    paths[3].write_bytes(paths[3].read_bytes()[:-1])
    with pytest.raises(data.FormatError, match=r"data_batch_2\.bin: label out of range: 10"):
        data.load_cifar10(paths)
    with pytest.raises(data.FormatError,
                       match=rf"data_batch_4\.bin: size {300 * data.CIFAR_RECORD_BYTES - 1} "
                             rf"not a multiple of {data.CIFAR_RECORD_BYTES}"):
        data.load_cifar10(paths[2:])


def test_cifar_missing_file_or_directory_in_its_place_raises_os_error(tmp_path):
    paths = write_cifar_files(tmp_path, n_files=5, n_records=300)
    paths[2].unlink()
    with pytest.raises(FileNotFoundError) as exc_info:
        data.load_cifar10(paths)
    assert exc_info.value.filename == str(paths[2])
    paths[2].mkdir()
    with pytest.raises(OSError) as exc_info:
        data.load_cifar10(paths)
    assert exc_info.value.filename == str(paths[2])


@pytest.mark.parametrize("change", [1, -1])
def test_cifar_file_whose_length_changed_since_its_stat_is_rejected(tmp_path, monkeypatch,
                                                                    change):
    """A file that grows or shrinks by whole records after the load began
    would not fit the rows sized for it."""
    paths = write_cifar_files(tmp_path, n_files=2, n_records=300)
    read_bytes = Path.read_bytes

    def resized(path):
        raw = read_bytes(path)
        if path.name == "data_batch_2.bin":
            raw = raw + raw[:data.CIFAR_RECORD_BYTES] if change > 0 else raw[data.CIFAR_RECORD_BYTES:]
        return raw

    monkeypatch.setattr(Path, "read_bytes", resized)
    size = 300 * data.CIFAR_RECORD_BYTES
    with pytest.raises(data.FormatError,
                       match=rf"data_batch_2\.bin: size {size + change * data.CIFAR_RECORD_BYTES}, "
                             rf"but {size} when the load began"):
        data.load_cifar10(paths)


def test_idx_negative_dims_rejected(tmp_path):
    # 2 * -2 * -2 = 8 payload bytes, so only the sign check catches it.
    images, labels = tmp_path / "img", tmp_path / "lab"
    images.write_bytes(struct.pack(">4i", data.IDX_IMAGE_MAGIC, 2, -2, -2) + bytes(8))
    labels.write_bytes(struct.pack(">2i", data.IDX_LABEL_MAGIC, -1))
    with pytest.raises(data.FormatError):
        data.load_idx_images(images)
    with pytest.raises(data.FormatError):
        data.load_idx_labels(labels)


# --- loader fuzz: malformed bytes may only raise FormatError or ValueError ---

# Small dimensions make products that match the payload length likely;
# the full i32 range covers overflow-sized headers.
DIM = st.one_of(st.integers(-3, 3), st.integers(-2**31, 2**31 - 1))


@st.composite
def idx_bytes(draw, magic, n_dims):
    """A header with the given magic (or a random one) and random dims, then a
    random payload; or a prefix of that; or bytes with no structure at all."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=48))
    magic = draw(st.one_of(st.just(magic), st.integers(-2**31, 2**31 - 1)))
    dims = draw(st.lists(DIM, min_size=n_dims, max_size=n_dims))
    raw = struct.pack(f">{1 + n_dims}i", magic, *dims) + draw(st.binary(max_size=40))
    return raw[:draw(st.integers(0, len(raw)))]


def loads_or_rejects(load, *args):
    try:
        load(*args)
    except ValueError:  # data.FormatError is a ValueError
        pass


@settings(deadline=None)
@given(idx_bytes(data.IDX_IMAGE_MAGIC, 3), idx_bytes(data.IDX_LABEL_MAGIC, 1))
def test_fuzz_idx_loaders_raise_only_value_errors(images, labels):
    with tempfile.TemporaryDirectory() as tmp:
        images_path, labels_path = Path(tmp) / "img", Path(tmp) / "lab"
        images_path.write_bytes(images)
        labels_path.write_bytes(labels)
        loads_or_rejects(data.load_idx_images, images_path)
        loads_or_rejects(data.load_idx_labels, labels_path)
        loads_or_rejects(data.load_mnist, (images_path, labels_path))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(0, 255), max_size=2), st.binary(max_size=8), st.integers(0, 8))
def test_fuzz_cifar_loader_raises_only_value_errors(labels, tail, cut):
    """Whole records with any label byte, then garbage bytes or a cut-short end."""
    raw = b"".join(bytes([label]) + bytes(range(256)) * 12 for label in labels) + tail
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.bin"
        path.write_bytes(raw[:len(raw) - cut])
        loads_or_rejects(data.load_cifar10, [path])


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return data.Dataset(data.ByteImages(rng.integers(0, 256, size=(n, 2, 2, 1), dtype=np.uint8)),
                        rng.integers(0, 10, size=n).astype(np.int64))


def test_split_sizes_and_disjoint():
    ds = make_dataset(100)
    split = data.split_train_val(ds, 0.1, seed=0)
    assert len(split.train) == 90 and len(split.val) == 10
    train_ids = {tuple(img.ravel()) for img in split.train.images[:]}
    val_ids = {tuple(img.ravel()) for img in split.val.images[:]}
    assert not train_ids & val_ids


def test_split_deterministic_and_seed_sensitive():
    ds = make_dataset(1000)
    a = data.split_train_val(ds, 0.1, seed=5)
    b = data.split_train_val(ds, 0.1, seed=5)
    assert (a.train.images[:] == b.train.images[:]).all()
    c = data.split_train_val(ds, 0.1, seed=6)
    assert not (a.train.images[:] == c.train.images[:]).all()


def test_split_fraction_validation():
    ds = make_dataset(10)
    # 0.01 and 0.99 of 10 examples round to an empty validation or train part.
    for bad in (0.0, 1.0, -0.1, 1.5, 0.01, 0.99):
        with pytest.raises(ValueError):
            data.split_train_val(ds, bad, seed=0)


def test_batches_sizes_and_coverage():
    ds = make_dataset(130)
    sizes = []
    seen = []
    for images, labels in data.batches(ds, 64, seed=0, epoch=0):
        sizes.append(len(labels))
        seen.extend(tuple(img.ravel()) for img in images)
    assert sizes == [64, 64, 2]
    assert len(set(seen)) == 130  # every element exactly once


def test_batches_epoch_orders_differ():
    ds = make_dataset(100)
    order0 = np.concatenate([l for _, l in data.batches(ds, 10, seed=0, epoch=0)])
    order1 = np.concatenate([l for _, l in data.batches(ds, 10, seed=0, epoch=1)])
    assert not (order0 == order1).all()
    again = np.concatenate([l for _, l in data.batches(ds, 10, seed=0, epoch=0)])
    assert (order0 == again).all()


def test_batches_validation():
    with pytest.raises(ValueError):
        next(data.batches(make_dataset(4), 0, seed=0, epoch=0))


def test_dataset_count_mismatch():
    with pytest.raises(ValueError):
        data.Dataset(np.zeros((2, 2, 2, 1)), np.zeros(3, dtype=np.int64))


def test_synthetic_dataset_properties():
    ds = data.synthetic_two_class(64, seed=0)
    assert ds.images.shape == (64, 8, 8, 1)
    read = ds.images[:]
    assert (read >= 0).all() and (read <= 1).all()
    assert set(np.unique(ds.labels)) <= {0, 1}
