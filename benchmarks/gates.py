"""Correctness gates. Each runs outside every timed region and returns
(name, passed, detail); a failed gate counts toward `failed_frac` and makes
the benchmark exit nonzero."""

import importlib.util
from pathlib import Path

import numpy as np

from nirmalpool import nn

# The conv oracle is a Python loop (~0.4 s per layer at this width), so it
# checks this many output channels, spread evenly over each layer.
ORACLE_CHANNELS = 8
# A step that moves a pooling argmax or a ReLU across its kink gives a
# finite difference off by up to ~3e-4 (relative) at step 1e-5; at 1e-6 the
# largest error over 120 seeded runs was 1.5e-6. A wrong backward pass is
# off by far more than the tolerance.
FD_STEP = 1e-6
FD_RTOL = 1e-3


def load_oracles(root: Path):
    """The brute-force reference implementations in `tests/oracles.py`."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_gates(spec: nn.ModelSpec, params: dict, images: np.ndarray, oracles) -> list:
    """Each stage's convolution and pooling inside `nn.model_forward`,
    against the oracles, on the first two images."""
    _, cache = nn.model_forward(spec, params, images[:2])
    pooled = cache.conv_inputs[1:] + [cache.dense_inputs[0].reshape(cache.flat_input_shape)]
    results = []
    for stage, conv_in in enumerate(cache.conv_inputs, start=1):
        kernels, bias = params[f"conv{stage}_w"], params[f"conv{stage}_b"]
        conv_out = nn.conv2d_forward(conv_in, kernels, bias)
        picked = slice(None, None, max(1, kernels.shape[3] // ORACLE_CHANNELS))
        expected = oracles.conv2d_oracle(conv_in, kernels[..., picked], bias[picked])
        worst = float(np.abs(conv_out[..., picked] - expected).max())
        results.append((f"oracle.conv{stage}", worst <= 1e-9, f"max abs diff {worst:.3g}"))

        if spec.activation_placement == "after_conv":
            conv_out = np.maximum(conv_out, 0.0)
        if spec.pooling_variant == "nirmal":
            # ModelSpec's rule: a None target halves the incoming map.
            th, tw = spec.pool_targets[stage - 1] or (conv_out.shape[1] // 2, conv_out.shape[2] // 2)
            expected = oracles.nirmal_oracle(conv_out, th, tw)
        else:
            expected = oracles.max_pool_oracle(conv_out, 2, 2, 2, 2)
        got = pooled[stage - 1]
        if got.shape != expected.shape:
            results.append((f"oracle.pool{stage}", False, f"shape {got.shape} vs {expected.shape}"))
            continue
        differ = int((got != expected).sum())
        results.append((f"oracle.pool{stage}", differ == 0, f"{differ} of {got.size} outputs differ"))
    return results


def fd_gate(spec: nn.ModelSpec, params: dict, images: np.ndarray, labels: np.ndarray,
            seed: int) -> tuple:
    """Central difference of the loss along one random unit direction over
    all parameters, against the directional derivative from
    `nn.model_backward`."""
    rng = np.random.default_rng([seed, 0xFD])
    direction = {k: rng.standard_normal(p.shape) for k, p in sorted(params.items())}
    norm = np.sqrt(sum(float((d * d).sum()) for d in direction.values()))

    def loss_at(shift: float) -> float:
        moved = {k: p + (shift / norm) * direction[k] for k, p in params.items()}
        logits, _ = nn.model_forward(spec, moved, images)
        return nn.softmax_cross_entropy(logits, labels)[0]

    logits, cache = nn.model_forward(spec, params, images)
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = nn.model_backward(spec, params, cache, grad_logits)
    analytic = sum(float((grads[k] * direction[k]).sum()) for k in direction) / norm
    numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
    error = abs(numeric - analytic)
    ok = error <= FD_RTOL * max(abs(numeric), abs(analytic)) + 1e-7
    return ("fd.model_backward", ok,
            f"analytic {analytic:.9g} numeric {numeric:.9g} abs err {error:.3g}")
