"""Acceptance suite. Each test prints one PASS line on success; run with
`pytest tests/test_acceptance.py -v -s` to see the lines. Dataset-backed
criteria skip unless NIRMALPOOL_DATA_ROOT points at the benchmark files.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nirmalpool import gradcheck, harness, nn, pooling

import oracles

DATA_ROOT = os.environ.get(harness.DATA_ROOT_ENV)
FULL_PROTOCOL = os.environ.get("NIRMALPOOL_FULL_PROTOCOL") == "1"


def _mnist_available() -> bool:
    if DATA_ROOT is None:
        return False
    sub = Path(DATA_ROOT) / "mnist_digits"
    return all((sub / n).exists() for n in harness.MNIST_FILES["mnist_digits"])


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_pooling_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.time()
    for _ in range(1000):
        shape = tuple(rng.integers(1, 9, size=4))
        x = rng.uniform(-10.0, 10.0, size=shape)
        th, tw = (int(v) for v in rng.integers(1, 9, size=2))
        out, _ = pooling.nirmal_forward(x, th, tw)
        expected = oracles.nirmal_oracle(x, th, tw)
        assert out.shape == expected.shape
        assert (out == expected).all()
    assert time.time() - start < 10.0
    report("pooling-oracle-equivalence")


def test_shape_law_sweep():
    start = time.time()
    for h_in in range(1, 65):
        for target in range(1, 65):
            p = pooling.compute_pool_params(h_in, h_in, target, target)
            assert p.stride_h >= 1 and p.stride_w >= 1
            assert p.out_h == oracles.placement_count(h_in, p.window_h, p.stride_h)
            assert p.out_w == oracles.placement_count(h_in, p.window_w, p.stride_w)
    assert time.time() - start < 1.0
    report("shape-law-sweep")


def test_fusion_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        shape = tuple(rng.integers(1, 9, size=4))
        x = rng.uniform(-10.0, 10.0, size=shape)
        th, tw = (int(v) for v in rng.integers(1, 9, size=2))
        params = pooling.compute_pool_params(shape[1], shape[2], th, tw)
        plain, _ = pooling.max_pool_forward(x, params)
        fused, _ = pooling.nirmal_forward(x, th, tw)
        assert (fused == np.maximum(plain, 0.0)).all()
    report("fusion-identity")


def test_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(0)
    # pooling backward: >= 100 random instances each, checked as drawn
    for _ in range(100):
        result = gradcheck.check_nirmal_backward(rng)
        assert result.max_rel_error < 1e-5, result
    for _ in range(100):
        result = gradcheck.check_max_pool2x2_backward(rng)
        assert result.max_rel_error < 1e-5, result
    for check in (gradcheck.check_conv2d_backward, gradcheck.check_dense_backward,
                  gradcheck.check_softmax_cross_entropy):
        for _ in range(10):
            result = check(rng)
            assert result.max_rel_error < 1e-5, result
    for variant in ("nirmal", "max2x2"):
        result = gradcheck.check_model_end_to_end(rng, gradcheck.toy_model_spec(variant))
        assert result.max_rel_error < 1e-5, result
    assert time.time() - start < 60.0
    report("gradient-suite")


def test_worked_parameter_cases():
    p = pooling.compute_pool_params(28, 28, 14, 14)
    assert (p.window_h, p.stride_h, p.out_h) == (2, 2, 14)
    assert (p.window_w, p.stride_w, p.out_w) == (2, 2, 14)
    p = pooling.compute_pool_params(28, 28, 10, 10)
    assert (p.window_h, p.stride_h, p.out_h) == (3, 2, 13)
    p = pooling.compute_pool_params(4, 4, 8, 8)
    assert (p.window_h, p.stride_h, p.out_h) == (1, 1, 4)
    report("worked-parameter-cases")


def test_determinism():
    config = harness.RunConfig(dataset="synthetic", epochs=2, seed=11, lr=0.003)
    a = harness.train(config)
    b = harness.train(config)
    assert [dataclasses.astuple(e) for e in a.epochs] == \
           [dataclasses.astuple(e) for e in b.epochs]
    assert (a.test_loss, a.test_accuracy) == (b.test_loss, b.test_accuracy)
    report("determinism")


def test_loader_fixtures(tmp_path):
    from nirmalpool import data

    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=3, dtype=np.uint8)
    data.write_idx_images(tmp_path / "img", images)
    data.write_idx_labels(tmp_path / "lab", labels)
    assert (data.load_idx_images(tmp_path / "img") == images).all()
    assert (data.load_idx_labels(tmp_path / "lab") == labels).all()

    record = bytes([3]) + bytes([200] * 1024) + bytes([100] * 1024) + bytes([50] * 1024)
    (tmp_path / "cifar.bin").write_bytes(record)
    ds = data.load_cifar10([tmp_path / "cifar.bin"])
    assert ds.labels[0] == 3
    assert ds.images[0, 0, 0, 0] == pytest.approx(200 / 255)
    assert ds.images[0, 0, 0, 1] == pytest.approx(100 / 255)
    assert ds.images[0, 0, 0, 2] == pytest.approx(50 / 255)

    (tmp_path / "badmagic").write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
    with pytest.raises(data.FormatError):
        data.load_idx_images(tmp_path / "badmagic")
    (tmp_path / "badsize.bin").write_bytes(b"\x00" * 100)
    with pytest.raises(data.FormatError):
        data.load_cifar10([tmp_path / "badsize.bin"])
    report("loader-fixtures")


@pytest.mark.skipif(not _mnist_available(),
                    reason=f"MNIST files not found under ${harness.DATA_ROOT_ENV}")
def test_desk_scale_mnist_reproduction():
    start = time.time()
    for variant in ("nirmal", "max2x2"):
        config = harness.RunConfig(dataset="mnist_digits", pooling_variant=variant,
                                   epochs=3, train_limit=10000, test_limit=2000,
                                   seed=0, data_root=DATA_ROOT)
        rep = harness.train(config)
        assert rep.test_accuracy >= 0.95, (variant, rep.test_accuracy)
    assert time.time() - start < 900.0
    report("desk-scale-mnist")


@pytest.mark.skipif(not (FULL_PROTOCOL and _mnist_available()),
                    reason="full-protocol run requires NIRMALPOOL_FULL_PROTOCOL=1 "
                           "and the MNIST files")
def test_full_protocol_mnist_reproduction():
    # Published point estimates: 99.25% fused-adaptive, 99.12% max-pool.
    accuracies = {"nirmal": [], "max2x2": []}
    for variant in accuracies:
        for seed in (0, 1, 2):
            config = harness.RunConfig(dataset="mnist_digits", pooling_variant=variant,
                                       epochs=10, seed=seed, data_root=DATA_ROOT)
            accuracies[variant].append(harness.train(config).test_accuracy)
    assert abs(np.mean(accuracies["nirmal"]) - 0.9925) <= 0.005
    assert abs(np.mean(accuracies["max2x2"]) - 0.9912) <= 0.005
    report("full-protocol-mnist")


@pytest.mark.skipif(not (FULL_PROTOCOL and DATA_ROOT), reason="informational CIFAR-10 "
                    "directional check requires full-protocol mode and data")
def test_full_protocol_cifar10_directional():
    # Informational: adaptive variant should not trail the baseline by more
    # than half a point on average.
    accuracies = {"nirmal": [], "max2x2": []}
    for variant in accuracies:
        for seed in (0, 1, 2):
            config = harness.RunConfig(dataset="cifar10", pooling_variant=variant,
                                       epochs=10, seed=seed, data_root=DATA_ROOT)
            accuracies[variant].append(harness.train(config).test_accuracy)
    assert np.mean(accuracies["nirmal"]) >= np.mean(accuracies["max2x2"]) - 0.005
    report("full-protocol-cifar10-directional")
