import numpy as np

from nirmalpool import tensor


def test_relu_examples():
    x = np.array([-1.5, 0.0, 2.0, -0.0]).reshape(1, 2, 2, 1)
    out = tensor.elementwise_relu(x)
    assert out.ravel().tolist() == [0.0, 0.0, 2.0, 0.0]
    nonneg = np.abs(np.random.default_rng(0).normal(size=(2, 3, 3, 2)))
    assert (tensor.elementwise_relu(nonneg) == nonneg).all()
    neg = -np.abs(np.random.default_rng(1).normal(size=(2, 3, 3, 2))) - 0.1
    assert (tensor.elementwise_relu(neg) == 0.0).all()


def test_relu_normalizes_negative_zero():
    out = tensor.elementwise_relu(np.full((1, 1, 1, 1), -0.0))
    assert not np.signbit(out).any()


def test_relu_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=tuple(rng.integers(1, 9, size=4)))
        once = tensor.elementwise_relu(x)
        assert (tensor.elementwise_relu(once) == once).all()

