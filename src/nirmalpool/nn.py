"""Layers of the benchmark network: valid 3x3 convolutions, dense layers,
flatten and softmax cross-entropy, each with forward and backward passes.

The reference network is conv(32) -> pool -> conv(64) -> pool -> flatten ->
dense(128) -> ReLU -> dense(10). The pooling stage is either the adaptive
fused-ReLU operator or the fixed 2x2 baseline; its targets are checked
under either, and kept only by the adaptive one. `activation_placement`
says whether a ReLU follows each convolution (`after_conv`) or the
non-linearity is supplied solely by the pooling stage (`pool_only`). A ReLU
commutes with max, relu(max(x)) = max(relu(x)), so `after_conv` is computed
as a ReLU fused after the pool, on the pooled map only: the adaptive variant
gives the same network under either placement, and the 2x2 baseline is
unfused only under `pool_only`.

A pool places windows only where they fit whole. `plan` works out each
stage's geometry from the spec and the input shape alone, and each conv
computes only the part of its output that the pool's windows read; the
input gradient of the rest is zero.

`model_forward` and `model_backward` run the conv stages one micro-batch of
whole images at a time, every stage on a micro-batch before the next
micro-batch starts (layer fusion, Alwani et al., "Fused-Layer CNN
Accelerators", MICRO 2016, here at batch level). A stage's im2col matrix,
conv output and conv-output gradient exist only for the micro-batch in
hand, each within MICRO_BATCH_BYTES, so none is built for the whole batch;
only the pooled maps and the pools' winning offsets are kept for the whole
batch. The micro-batch is the only image blocking: each conv is one GEMM
over the images it is given.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import pooling


# Upper bound, in bytes, on each stage's conv output and, separately, on its
# im2col matrix for one micro-batch of whole images: a 2 MiB per-core L2
# cache.
MICRO_BATCH_BYTES = 2 << 20

# Side of every convolution's square kernel.
KERNEL_SIZE = 3

# Pooling variants, in the order `compare` runs them, and activation placements.
VARIANTS = ("max2x2", "nirmal")
PLACEMENTS = ("after_conv", "pool_only")


def _image_slices(count: int, per_image: int, budget: int) -> list[slice]:
    """Slices of `count` whole images, as many per slice as fit in `budget`
    bytes at `per_image` bytes each (at least one); the last may be ragged.
    A count of 0 gives one empty slice, so an empty batch runs every stage."""
    step = max(1, budget // max(1, per_image))
    return [slice(lo, min(lo + step, count)) for lo in range(0, max(count, 1), step)]


def _im2col(x: np.ndarray, kh: int, kw: int, oh: int, ow: int) -> np.ndarray:
    """The im2col matrix (Chellapilla, Puri & Simard, 2006) of the top-left
    oh x ow of x's kh x kw windows, one row each, plus a ones column: one GEMM
    with [W; bias] adds the bias, and cols^T @ grad_out ends in grad_bias."""
    sb, sh, sw, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(x, (len(x), oh, ow, kh, kw, x.shape[3]),
                                              (sb, sh, sw, sh, sw, sc), writeable=False)
    k = kh * kw * x.shape[3]
    cols = np.empty((len(x) * oh * ow, k + 1), x.dtype)
    cols[:, k] = 1.0
    # Splitting contiguous axes only, so this reshape is a view into cols.
    cols.reshape(len(x), oh, ow, k + 1)[..., :k].reshape(windows.shape)[...] = windows
    return cols


def conv2d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid (no-pad) stride-1 cross-correlation.

    x: (B, H, W, Cin), kernels: (kh, kw, Cin, Cout), bias: (Cout,).
    Output: (B, H-kh+1, W-kw+1, Cout), one im2col GEMM with [W; bias].
    """
    kh, kw, c_in, c_out = kernels.shape
    if x.shape[3] != c_in:
        raise ValueError(f"input channels {x.shape[3]} != kernel in_ch {c_in}")
    if x.shape[1] < kh or x.shape[2] < kw:
        raise ValueError(f"spatial dims {x.shape[1:3]} smaller than kernel ({kh},{kw})")
    _check_bias(bias, c_out)
    oh, ow = x.shape[1] - kh + 1, x.shape[2] - kw + 1
    w = np.vstack([kernels.reshape(kh * kw * c_in, c_out), bias])
    return (_im2col(x, kh, kw, oh, ow) @ w).reshape(len(x), oh, ow, c_out)


def conv2d_backward(x: np.ndarray, kernels: np.ndarray, grad_out: np.ndarray,
                    need_grad_x: bool = True) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv2d_forward w.r.t. input, kernels and bias.

    grad_out may cover only the top-left oh x ow part of the valid output, as
    when a pool reads no further: the gradients are those of the convolution
    of the part of x that yields it, and grad_x, of x's full shape, is zero
    outside that part. All are GEMMs on the im2col layout: cols^T @ grad_out
    holds grad_kernels and, from the ones column, grad_bias; grad_x is
    col2im, one GEMM per kernel offset added into the shifted input slice.
    With need_grad_x=False the input gradient is skipped and returned as None.
    """
    kh, kw, c_in, c_out = kernels.shape
    b, oh, ow, _ = grad_out.shape
    if (b != x.shape[0] or grad_out.shape[3] != c_out or x.shape[3] != c_in
            or oh > x.shape[1] - kh + 1 or ow > x.shape[2] - kw + 1):
        raise ValueError(f"grad_out shape {grad_out.shape} incompatible with "
                         f"input {x.shape} and kernel {kernels.shape}")

    k = kh * kw * c_in
    g = grad_out.reshape(-1, c_out)
    grad_wb = _im2col(x, kh, kw, oh, ow).T @ g
    grad_x = None
    if need_grad_x:
        grad_x = np.zeros(x.shape, grad_out.dtype)
        # col2im, one window offset at a time: the input pixel at offset
        # (i, j) of every window receives grad_out @ kernels[i, j]^T.
        for i in range(kh):
            for j in range(kw):
                grad_x[:, i:i + oh, j:j + ow] += (g @ kernels[i, j].T).reshape(-1, oh, ow, c_in)
    return grad_x, grad_wb[:k].reshape(kh, kw, c_in, c_out), grad_wb[k]


def _check_bias(bias: np.ndarray, width: int) -> None:
    """A layer's bias gives one value per output unit or channel."""
    if bias.shape != (width,):
        raise ValueError(f"bias shape {bias.shape} does not give one value "
                         f"per output unit: output width {width}")


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map x @ W + b for x of shape (B, in_features)."""
    if x.shape[1] != weights.shape[0]:
        raise ValueError(f"input features {x.shape[1]} != weight rows {weights.shape[0]}")
    _check_bias(bias, weights.shape[1])
    return x @ weights + bias


def dense_backward(x: np.ndarray, weights: np.ndarray,
                   grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if grad_out.shape != (x.shape[0], weights.shape[1]):
        raise ValueError(f"grad_out shape {grad_out.shape} incompatible with "
                         f"x {x.shape} and weights {weights.shape}")
    return grad_out @ weights.T, x.T @ grad_out, grad_out.sum(axis=0)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    labels: (batch,) integers in [0, classes). Stabilized by
    max-subtraction. grad = (softmax - onehot) / batch.
    """
    n, k = logits.shape
    if n == 0:
        raise ValueError("empty batch: the mean loss over no examples is undefined")
    labels = np.asarray(labels)
    if labels.shape != (n,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels of shape {labels.shape} and dtype {labels.dtype} do not "
                         f"give one integer per row of logits of shape {logits.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of the benchmark network."""

    pooling_variant: str = "nirmal"          # one of VARIANTS
    # One of PLACEMENTS; None takes the variant's default, pool_only for
    # nirmal and after_conv for max2x2.
    activation_placement: str | None = None
    conv_filters: tuple[int, ...] = (32, 64)
    # Every dense layer but the last is followed by a ReLU; the last gives the logits.
    dense_units: tuple[int, ...] = (128, 10)
    # Per-stage (target_h, target_w), ints >= 1, or None to halve the incoming
    # map; checked under either variant, then padded with None to one per
    # stage. max2x2 reads no target, so it keeps None at every stage.
    pool_targets: tuple[tuple[int, int] | None, ...] = ()

    def __post_init__(self):
        if self.pooling_variant not in VARIANTS:
            raise ValueError(f"unknown pooling_variant {self.pooling_variant!r}")
        if self.activation_placement is None:
            object.__setattr__(self, "activation_placement",
                               "pool_only" if self.pooling_variant == "nirmal" else "after_conv")
        if self.activation_placement not in PLACEMENTS:
            raise ValueError(f"unknown activation_placement {self.activation_placement!r}")
        if not self.dense_units:
            raise ValueError("dense_units must hold at least the output layer")
        for name in ("conv_filters", "dense_units"):
            for v in getattr(self, name):
                if not (type(v) is int and v >= 1):
                    raise ValueError(f"{name} entry {v!r} is not an int >= 1")
        if len(self.pool_targets) > len(self.conv_filters):
            raise ValueError(f"{len(self.pool_targets)} pool_targets for "
                             f"{len(self.conv_filters)} conv stages")
        for t in self.pool_targets:
            if t is not None and not (isinstance(t, tuple) and len(t) == 2
                                      and all(type(v) is int and v >= 1 for v in t)):
                raise ValueError(f"pool target {t!r} is neither None nor a pair of ints >= 1")
        kept = self.pool_targets if self.pooling_variant == "nirmal" else ()
        object.__setattr__(self, "pool_targets",
                           (*kept, *(None,) * (len(self.conv_filters) - len(kept))))


@dataclass(frozen=True)
class Stage:
    """One conv stage's geometry, fixed by the spec and the input shape. The
    conv reads its pool's footprint plus KERNEL_SIZE - 1 input rows and cols."""

    pool: pooling.PoolParams
    target: tuple[int, int] | None  # the adaptive pool's (th, tw); None for the fixed 2x2 pool
    relu: bool  # a ReLU is fused after the pool


def plan(spec: ModelSpec, input_shape: tuple[int, int, int, int]) -> tuple[Stage, ...]:
    """Each conv stage's geometry on inputs of `input_shape`, from integers
    alone: the one place the variants differ. max2x2 pools 2x2, fused with a
    ReLU only under after_conv; nirmal runs the fused adaptive pool toward the
    stage's target, where a None target halves the map."""
    _, h, w, _ = input_shape
    stages = []
    for target in spec.pool_targets:  # one per conv stage
        if h < KERNEL_SIZE or w < KERNEL_SIZE:
            raise ValueError(f"spatial dims {(h, w)} smaller than kernel {(KERNEL_SIZE,) * 2}")
        h, w = h - KERNEL_SIZE + 1, w - KERNEL_SIZE + 1
        if spec.pooling_variant == "max2x2":
            relu = spec.activation_placement == "after_conv"
            pool = pooling.max_pool2x2_params(h, w)
        else:
            target = target or (max(1, h // 2), max(1, w // 2))
            relu, pool = True, pooling.compute_pool_params(h, w, *target)
        stages.append(Stage(pool, target, relu))
        h, w = pool.out_h, pool.out_w
    return tuple(stages)


def init_params(spec: ModelSpec, input_shape: tuple[int, int, int, int],
                seed: int) -> dict[str, np.ndarray]:
    """Kaiming-style normal init (std = sqrt(2 / fan_in)), zero biases; the
    layer sizes come from `plan`, as in model_forward."""
    rng = np.random.default_rng(seed)
    k = KERNEL_SIZE
    _, h, w, c = input_shape
    params: dict[str, np.ndarray] = {}
    for idx, (filters, stage) in enumerate(zip(spec.conv_filters, plan(spec, input_shape)), 1):
        params[f"conv{idx}_w"] = rng.normal(0.0, np.sqrt(2.0 / (k * k * c)), (k, k, c, filters))
        params[f"conv{idx}_b"] = np.zeros(filters)
        h, w, c = stage.pool.out_h, stage.pool.out_w, filters
    features = h * w * c
    for idx, units in enumerate(spec.dense_units, start=1):
        params[f"dense{idx}_w"] = rng.normal(0.0, np.sqrt(2.0 / features), (features, units))
        params[f"dense{idx}_b"] = np.zeros(units)
        features = units
    return params


@dataclass(frozen=True)
class ForwardCache:
    # Each conv stage's whole input, also where the conv read only part of it.
    conv_inputs: list[np.ndarray]
    pool_caches: list[pooling.PoolCache]
    flat_input_shape: tuple[int, ...]
    dense_inputs: list[np.ndarray]
    # The micro-batches of images the conv stages ran on, in order.
    micro_batches: list[slice]


def model_forward(spec: ModelSpec, params: dict[str, np.ndarray],
                  batch: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Compose the network; returns logits and the caches backward needs.

    Each micro-batch runs through every conv stage before the next starts;
    its pooled maps and winning offsets are written into whole-batch arrays.
    At the paper's widths they are bitwise those of one whole-batch pass; a
    narrow conv's GEMM over fewer rows may round differently in the last bit.
    """
    stages = plan(spec, batch.shape)
    b = batch.shape[0]
    # Per image, a stage's conv output and its im2col matrix, ones column
    # included, each have one row per pixel of its pool's footprint.
    per_image = max([math.prod(s.pool.footprint) * max(filters, KERNEL_SIZE ** 2 * c_in + 1)
                     for s, filters, c_in in zip(stages, spec.conv_filters,
                                                 (batch.shape[3], *spec.conv_filters))],
                    default=0)
    micro_batches = _image_slices(b, per_image * batch.itemsize, MICRO_BATCH_BYTES)
    maps, pool_caches = [batch], []  # maps: each stage's input, then the last pooled output
    for images in micro_batches:
        for idx, stage in enumerate(stages, start=1):
            rows, cols = (n + KERNEL_SIZE - 1 for n in stage.pool.footprint)
            x = conv2d_forward(maps[idx - 1][images, :rows, :cols],
                               params[f"conv{idx}_w"], params[f"conv{idx}_b"])
            x, pc = (pooling.nirmal_forward(x, *stage.target) if stage.target is not None
                     else pooling.max_pool2x2_forward(x, relu=stage.relu))
            if images.start == 0:
                maps.append(np.empty((b, *x.shape[1:]), x.dtype))
                pool_caches.append(replace(pc, win=np.empty((b, *pc.win.shape[1:]), pc.win.dtype),
                                           relu_out=None if pc.relu_out is None else maps[-1]))
            maps[idx][images] = x
            pool_caches[idx - 1].win[images] = pc.win
    x = maps[-1].reshape(b, math.prod(maps[-1].shape[1:]))
    dense_inputs, last = [], len(spec.dense_units)
    for idx in range(1, last + 1):
        dense_inputs.append(x)
        x = dense_forward(x, params[f"dense{idx}_w"], params[f"dense{idx}_b"])
        if idx < last:
            x = pooling._relu(x)  # the pool's ReLU, in place on dense_forward's fresh output
    return x, ForwardCache(maps[:-1], pool_caches, maps[-1].shape, dense_inputs, micro_batches)


def model_backward(spec: ModelSpec, params: dict[str, np.ndarray], cache: ForwardCache,
                   grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients for every parameter tensor, mirroring model_forward: the
    conv stages run backward over the same micro-batches, and each conv's
    gradients are summed over them."""
    grads: dict[str, np.ndarray] = {}
    g = grad_logits
    for idx in range(len(spec.dense_units), 0, -1):
        x = cache.dense_inputs[idx - 1]
        g, grads[f"dense{idx}_w"], grads[f"dense{idx}_b"] = dense_backward(
            x, params[f"dense{idx}_w"], g)
        if idx > 1:
            # x is the previous layer's ReLU output: positive exactly where its input was.
            g = g * (x > 0.0)
    pooled_grad = g.reshape(cache.flat_input_shape)
    for idx in range(len(spec.conv_filters), 0, -1):
        for key in (f"conv{idx}_w", f"conv{idx}_b"):
            grads[key] = np.zeros_like(params[key])
    for images in cache.micro_batches:
        g = pooled_grad[images]
        for idx in range(len(spec.conv_filters), 0, -1):
            g = pooling.nirmal_backward(g, cache.pool_caches[idx - 1][images])
            # g covers the pool's input, the part of the conv output that was
            # computed; conv2d_backward gives the rest of x zero gradient.
            # Nothing reads the gradient w.r.t. the network input.
            g, grad_w, grad_b = conv2d_backward(cache.conv_inputs[idx - 1][images],
                                                params[f"conv{idx}_w"], g, need_grad_x=idx > 1)
            grads[f"conv{idx}_w"] += grad_w
            grads[f"conv{idx}_b"] += grad_b
    return grads
