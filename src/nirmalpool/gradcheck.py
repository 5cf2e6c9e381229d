"""Central finite-difference checks for every backward pass.

Each check perturbs inputs by +/- eps, compares the analytic gradient of a
scalar objective against (f(x+eps) - f(x-eps)) / (2 eps), and reports the
maximum relative error. Pooling instances with ties or near-zero maxima are
resampled, since the subgradient is not unique there.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn, pooling
from .tensor import Shape4

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
                     eps: float = EPS) -> np.ndarray:
    """Central finite differences of scalar f at x, elementwise."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1.0)
    return float(np.abs(analytic - numeric).max(initial=0.0) / denom)


def _pool_instance_ok(x: np.ndarray, params: pooling.PoolParams, margin: float = 1e-4) -> bool:
    """Reject instances where any window has a tie or a max within margin of 0."""
    b, _, _, c = x.shape
    for i in range(params.out_h):
        hs = i * params.stride_h
        for j in range(params.out_w):
            ws = j * params.stride_w
            patch = x[:, hs:hs + params.window_h, ws:ws + params.window_w, :]
            flat = np.sort(patch.reshape(b, -1, c), axis=1)
            if abs(flat[:, -1, :]).min() < margin:
                return False
            if flat.shape[1] > 1 and (flat[:, -1, :] - flat[:, -2, :]).min() < margin:
                return False
    return True


def _random_pool_instance(rng, max_axis: int = 6):
    while True:
        b, h, w, c = rng.integers(1, max_axis + 1, size=4)
        th, tw = rng.integers(1, max_axis + 1, size=2)
        x = rng.uniform(-10.0, 10.0, size=(b, h, w, c))
        params = pooling.compute_pool_params(h, w, th, tw)
        if _pool_instance_ok(x, params):
            return x, int(th), int(tw)


def check_nirmal_backward(rng) -> CheckResult:
    x, th, tw = _random_pool_instance(rng)
    out, cache = pooling.nirmal_forward(x, th, tw)
    weights = rng.uniform(-1.0, 1.0, size=out.shape)
    grad = pooling.nirmal_backward(weights, cache)

    def objective(t):
        return float((pooling.nirmal_forward(t, th, tw)[0] * weights).sum())

    return CheckResult("nirmal_backward", relative_error(grad, numeric_gradient(objective, x)), TOL)


def check_max_pool2x2_backward(rng) -> CheckResult:
    """The shared backward pass on an unfused (mask-free) 2x2 pool cache."""
    while True:
        b, c = rng.integers(1, 4, size=2)
        h, w = rng.integers(2, 7, size=2)
        x = rng.uniform(-10.0, 10.0, size=(b, h, w, c))
        params = pooling.PoolParams(2, 2, 2, 2,
                                    pooling.output_shape(h, 2, 2),
                                    pooling.output_shape(w, 2, 2))
        if _pool_instance_ok(x, params):
            break
    out, cache = pooling.max_pool2x2_forward(x)
    weights = rng.uniform(-1.0, 1.0, size=out.shape)
    grad = pooling.nirmal_backward(weights, cache)

    def objective(t):
        return float((pooling.max_pool2x2_forward(t)[0] * weights).sum())

    return CheckResult("max_pool2x2_backward",
                       relative_error(grad, numeric_gradient(objective, x)), TOL)


def check_conv2d_backward(rng) -> CheckResult:
    x = rng.uniform(-1.0, 1.0, size=(2, 5, 5, 2))
    kernels = rng.uniform(-1.0, 1.0, size=(3, 3, 2, 3))
    bias = rng.uniform(-1.0, 1.0, size=3)
    weights = rng.uniform(-1.0, 1.0, size=(2, 3, 3, 3))
    grad_x, grad_k, grad_b = nn.conv2d_backward(x, kernels, weights)

    err = max(
        relative_error(grad_x, numeric_gradient(
            lambda t: float((nn.conv2d_forward(t, kernels, bias) * weights).sum()), x)),
        relative_error(grad_k, numeric_gradient(
            lambda t: float((nn.conv2d_forward(x, t, bias) * weights).sum()), kernels)),
        relative_error(grad_b, numeric_gradient(
            lambda t: float((nn.conv2d_forward(x, kernels, t) * weights).sum()), bias)),
    )
    return CheckResult("conv2d_backward", err, TOL)


def check_dense_backward(rng) -> CheckResult:
    x = rng.uniform(-1.0, 1.0, size=(4, 6))
    w = rng.uniform(-1.0, 1.0, size=(6, 3))
    b = rng.uniform(-1.0, 1.0, size=3)
    weights = rng.uniform(-1.0, 1.0, size=(4, 3))
    grad_x, grad_w, grad_b = nn.dense_backward(x, w, weights)
    err = max(
        relative_error(grad_x, numeric_gradient(
            lambda t: float((nn.dense_forward(t, w, b) * weights).sum()), x)),
        relative_error(grad_w, numeric_gradient(
            lambda t: float((nn.dense_forward(x, t, b) * weights).sum()), w)),
        relative_error(grad_b, numeric_gradient(
            lambda t: float((nn.dense_forward(x, w, t) * weights).sum()), b)),
    )
    return CheckResult("dense_backward", err, TOL)


def check_softmax_cross_entropy(rng) -> CheckResult:
    logits = rng.uniform(-2.0, 2.0, size=(5, 10))
    labels = rng.integers(0, 10, size=5)
    _, grad = nn.softmax_cross_entropy(logits, labels)
    numeric = numeric_gradient(lambda t: nn.softmax_cross_entropy(t, labels)[0], logits)
    return CheckResult("softmax_cross_entropy", relative_error(grad, numeric), TOL)


def toy_model_spec(variant: str = "nirmal") -> nn.ModelSpec:
    return nn.ModelSpec(pooling_variant=variant, conv_filters=(3,), dense_units=(8, 2),
                        pool_targets=(None,))


def check_model_end_to_end(rng, spec: nn.ModelSpec) -> CheckResult:
    shape = Shape4(2, 8, 8, 1)
    params = nn.init_params(spec, shape, seed=int(rng.integers(1 << 31)))
    batch = rng.uniform(0.0, 1.0, size=tuple(shape))
    labels = rng.integers(0, spec.dense_units[-1], size=shape.batch)

    logits, cache = nn.model_forward(spec, params, batch)
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = nn.model_backward(spec, params, cache, grad_logits)

    err = 0.0
    for key in params:
        def objective(t, key=key):
            trial = dict(params)
            trial[key] = t
            out, _ = nn.model_forward(spec, trial, batch)
            return nn.softmax_cross_entropy(out, labels)[0]

        err = max(err, relative_error(grads[key], numeric_gradient(objective, params[key])))
    return CheckResult(f"model_end_to_end[{spec.pooling_variant}]", err, TOL)


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
