"""Adaptive max pooling with fused ReLU, plus a fixed 2x2 max-pool baseline.

The adaptive operator derives its window and stride from a requested output
size:

    P = ceil(in / target)        (window)
    S = max(1, floor(in / target))   (stride)
    out = floor((in - P) / S) + 1

Windows are placed only where they fully fit (no padding); trailing rows and
columns outside the windows' footprint, (out - 1) * S + P, are never read,
and `nn` does not compute them. The fused variant applies ReLU to the pooled
maxima; the fixed 2x2 pool does so on request. One backward pass serves
every pool: it routes each output gradient to the coordinate that supplied
the window maximum (first occurrence in row-major order on ties), gated by
the ReLU mask when the cache carries one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Shape4, elementwise_relu


@dataclass(frozen=True)
class PoolParams:
    window_h: int
    window_w: int
    stride_h: int
    stride_w: int
    out_h: int
    out_w: int

    @property
    def footprint(self) -> tuple[int, int]:
        """Rows and columns the windows span, (out - 1) * stride + window;
        no window reads the rest of the map."""
        return ((self.out_h - 1) * self.stride_h + self.window_h,
                (self.out_w - 1) * self.stride_w + self.window_w)


@dataclass
class PoolCache:
    """Backward-pass bookkeeping for one pooling application.

    argmax holds, per output element, the flat (row-major BHWC) int64 input
    coordinate that supplied the maximum. relu_mask is a bool array, True
    where the fused activation passed the pooled value (max > 0), or None
    for an unfused pool.
    """

    argmax: np.ndarray
    relu_mask: np.ndarray | None
    params: PoolParams
    input_shape: Shape4


def output_shape(h_in: int, p: int, s: int) -> int:
    """Number of window placements: floor((h_in - p) / s) + 1."""
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    if p > h_in:
        raise ValueError(f"window {p} larger than input {h_in}")
    return (h_in - p) // s + 1


def compute_pool_params(h_in: int, w_in: int, h_out_target: int, w_out_target: int) -> PoolParams:
    """Derive window sizes, strides and output dims from a target output size.

    Targets larger than the input are allowed: the stride guard yields
    P = 1, S = 1 and the output equals the input dims.
    """
    for name, v in (("h_in", h_in), ("w_in", w_in),
                    ("h_out_target", h_out_target), ("w_out_target", w_out_target)):
        if v < 1:
            raise ValueError(f"{name} must be >= 1, got {v}")
    p_h = math.ceil(h_in / h_out_target)
    p_w = math.ceil(w_in / w_out_target)
    s_h = max(1, h_in // h_out_target)
    s_w = max(1, w_in // w_out_target)
    return PoolParams(p_h, p_w, s_h, s_w,
                      output_shape(h_in, p_h, s_h), output_shape(w_in, p_w, s_w))


def max_pool_forward(x: np.ndarray, params: PoolParams) -> tuple[np.ndarray, PoolCache]:
    """Max over each window; cache records the winning coordinate per output.

    Loops over the P_h*P_w window offsets, not the output windows: offset
    (dy, dx) is one strided view holding that offset's value for every
    window. Ties go to the first offset in row-major (dy, dx) order; a
    window holding NaN pools to NaN and records its first offset.
    """
    b, h, w, c = x.shape
    p = params
    if p.window_h > h or p.window_w > w:
        raise ValueError(f"window ({p.window_h},{p.window_w}) does not fit input ({h},{w})")
    if p.footprint[0] > h or p.footprint[1] > w:
        raise ValueError("pool params incompatible with input dims")

    rows, cols = p.out_h * p.stride_h, p.out_w * p.stride_w
    offsets = [(dy, dx) for dy in range(p.window_h) for dx in range(p.window_w)]
    views = [x[:, dy:dy + rows:p.stride_h, dx:dx + cols:p.stride_w] for dy, dx in offsets]
    out = np.array(views[0], dtype=np.float64)
    for v in views[1:]:
        np.maximum(out, v, out=out)

    # Winning offset, scanned last to first so the first match is left:
    # win - (win - k) == k, exact under unsigned wrap-around. Reused
    # buffers spare a fresh allocation per offset.
    win = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    hit, shift = np.empty(out.shape, dtype=bool), np.empty_like(win)
    for k in range(len(offsets) - 1, -1, -1):
        np.equal(views[k], out, out=hit)
        np.subtract(win, k, out=shift)
        shift *= hit
        win -= shift

    # Flat row-major BHWC index. Offset k = dy*P_w + dx lies
    # dy*W + dx = k + dy*(W - P_w) pixels past the window's top-left pixel.
    # Built in place on the one int64 array the cache keeps.
    argmax = (win // p.window_w).astype(np.int64)
    argmax *= w - p.window_w
    argmax += win
    top_left = ((np.arange(b)[:, None, None] * h + np.arange(p.out_h)[:, None] * p.stride_h) * w
                + np.arange(p.out_w) * p.stride_w)
    argmax += top_left[..., None]
    argmax *= c
    argmax += np.arange(c)
    cache = PoolCache(argmax=argmax, relu_mask=None, params=p, input_shape=Shape4(b, h, w, c))
    return out, cache


def _fuse_relu(pooled: np.ndarray, cache: PoolCache) -> tuple[np.ndarray, PoolCache]:
    cache.relu_mask = pooled > 0.0
    return elementwise_relu(pooled), cache


def nirmal_forward(x: np.ndarray, h_out_target: int, w_out_target: int) -> tuple[np.ndarray, PoolCache]:
    """Adaptive max pool followed by fused ReLU."""
    _, h, w, _ = x.shape
    params = compute_pool_params(h, w, h_out_target, w_out_target)
    return _fuse_relu(*max_pool_forward(x, params))


def nirmal_backward(grad_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route grad_out to each window's argmax, gated by the ReLU mask when the
    cache carries one. Serves both the fused operator and the plain max pools."""
    if grad_out.shape != cache.argmax.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match "
                         f"cache output shape {cache.argmax.shape}")
    if cache.relu_mask is not None:
        grad_out = grad_out * cache.relu_mask
    grad_in = np.zeros(cache.input_shape.element_count(), dtype=np.float64)
    # Overlapping windows (P > S) accumulate additively.
    np.add.at(grad_in, cache.argmax.ravel(), grad_out.ravel())
    return grad_in.reshape(cache.input_shape)


def max_pool2x2_params(h: int, w: int) -> PoolParams:
    """The fixed 2x2 window and stride on an h x w map."""
    return PoolParams(2, 2, 2, 2, output_shape(h, 2, 2), output_shape(w, 2, 2))


def max_pool2x2_forward(x: np.ndarray, relu: bool = False) -> tuple[np.ndarray, PoolCache]:
    """Standard max pooling with fixed 2x2 window and stride; with relu=True
    a ReLU is fused after it, as in nirmal_forward."""
    result = max_pool_forward(x, max_pool2x2_params(*x.shape[1:3]))
    return _fuse_relu(*result) if relu else result

