"""Finite-difference checks for every backward pass: `_check` compares each
analytic partial derivative of one scalar loss with the closest of its central,
forward and backward differences at EPS, and reports the max relative error.

Each pool's window max and ReLU are kinks, alone or inside a model, and a
central difference that straddles one averages two slopes. When a kink lies
within EPS on one side of x, the one-sided difference that does not cross it
is the slope at x; at a smooth point all three agree to O(EPS f''). So every
input is checked as drawn, ties and near-zero maxima included.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn, pooling

EPS = 1e-5
TOL = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def numeric_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                     near: np.ndarray) -> np.ndarray:
    """Per element of x, whichever of the central, forward and backward
    differences at EPS of scalar f at x lies closest to that element of near."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat, gflat, near = x.reshape(-1), grad.reshape(-1), near.reshape(-1)
    at_x = f(x)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = f(x)
        flat[i] = orig - EPS
        lo = f(x)
        flat[i] = orig
        gflat[i] = min(((hi - lo) / (2.0 * EPS), (hi - at_x) / EPS, (at_x - lo) / EPS),
                       key=lambda d: abs(d - near[i]))
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom)


def _check(name: str, loss: Callable, inputs: Sequence, grads: Sequence) -> CheckResult:
    """Max relative error of each grads[i] against the finite differences of
    loss(*inputs) in inputs[i], which numeric_gradient perturbs in place."""
    err = max(relative_error(g, numeric_gradient(lambda _: loss(*inputs), x, g))
              for x, g in zip(inputs, grads))
    return CheckResult(name, err, TOL)


def _weighted_sum(forward: Callable[..., np.ndarray], weights: np.ndarray):
    """The loss sum(forward(*inputs) * weights), whose gradient at forward's output is weights."""
    return lambda *inputs: float((forward(*inputs) * weights).sum())


def _check_pool(name: str, rng, x: np.ndarray, forward: Callable) -> CheckResult:
    """Check pooling.nirmal_backward on the pool (out, cache) = forward(x)."""
    out, cache = forward(x)
    weights = rng.uniform(-1.0, 1.0, size=out.shape)
    return _check(name, _weighted_sum(lambda t: forward(t)[0], weights), (x,),
                  (pooling.nirmal_backward(weights, cache),))


def check_nirmal_backward(rng) -> CheckResult:
    b, h, w, c = rng.integers(1, 7, size=4)
    th, tw = (int(v) for v in rng.integers(1, 7, size=2))
    return _check_pool("nirmal_backward", rng, rng.uniform(-10.0, 10.0, size=(b, h, w, c)),
                       lambda t: pooling.nirmal_forward(t, th, tw))


def check_max_pool2x2_backward(rng) -> CheckResult:
    """The shared backward pass on an unfused (mask-free) 2x2 pool cache."""
    b, c = rng.integers(1, 4, size=2)
    h, w = rng.integers(2, 7, size=2)
    return _check_pool("max_pool2x2_backward", rng, rng.uniform(-10.0, 10.0, size=(b, h, w, c)),
                       pooling.max_pool2x2_forward)


def check_conv2d_backward(rng) -> CheckResult:
    x = rng.uniform(-1.0, 1.0, size=(2, 5, 5, 2))
    kernels = rng.uniform(-1.0, 1.0, size=(3, 3, 2, 3))
    bias = rng.uniform(-1.0, 1.0, size=3)
    weights = rng.uniform(-1.0, 1.0, size=(2, 3, 3, 3))
    return _check("conv2d_backward", _weighted_sum(nn.conv2d_forward, weights),
                  (x, kernels, bias), nn.conv2d_backward(x, kernels, weights))


def check_dense_backward(rng) -> CheckResult:
    x = rng.uniform(-1.0, 1.0, size=(4, 6))
    w = rng.uniform(-1.0, 1.0, size=(6, 3))
    b = rng.uniform(-1.0, 1.0, size=3)
    weights = rng.uniform(-1.0, 1.0, size=(4, 3))
    return _check("dense_backward", _weighted_sum(nn.dense_forward, weights),
                  (x, w, b), nn.dense_backward(x, w, weights))


def check_softmax_cross_entropy(rng) -> CheckResult:
    logits = rng.uniform(-2.0, 2.0, size=(5, 10))
    labels = rng.integers(0, 10, size=5)
    return _check("softmax_cross_entropy", lambda t: nn.softmax_cross_entropy(t, labels)[0],
                  (logits,), (nn.softmax_cross_entropy(logits, labels)[1],))


def toy_model_spec(variant: str = "nirmal") -> nn.ModelSpec:
    return nn.ModelSpec(pooling_variant=variant, conv_filters=(3,), dense_units=(8, 2))


def check_model_end_to_end(rng, spec: nn.ModelSpec,
                           shape: tuple[int, int, int, int] = (2, 8, 8, 1)) -> CheckResult:
    params = nn.init_params(spec, shape, seed=int(rng.integers(1 << 31)))
    batch = rng.uniform(0.0, 1.0, size=shape)
    labels = rng.integers(0, spec.dense_units[-1], size=shape[0])
    logits, cache = nn.model_forward(spec, params, batch)
    grads = nn.model_backward(spec, params, cache, nn.softmax_cross_entropy(logits, labels)[1])

    def loss(*values):
        out, _ = nn.model_forward(spec, dict(zip(params, values)), batch)
        return nn.softmax_cross_entropy(out, labels)[0]

    return _check(f"model_end_to_end[{spec.pooling_variant}]", loss,
                  tuple(params.values()), [grads[key] for key in params])


def run_all(seed: int = 0) -> list[CheckResult]:
    """Full finite-difference suite."""
    rng = np.random.default_rng(seed)
    return [
        check_nirmal_backward(rng),
        check_max_pool2x2_backward(rng),
        check_conv2d_backward(rng),
        check_dense_backward(rng),
        check_softmax_cross_entropy(rng),
        check_model_end_to_end(rng, toy_model_spec("nirmal")),
        check_model_end_to_end(rng, toy_model_spec("max2x2")),
    ]
