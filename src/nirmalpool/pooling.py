"""Adaptive max pooling with fused ReLU, plus a fixed 2x2 max-pool baseline.

Maps are numpy arrays of shape (batch, height, width, channels), float64
unless a caller passes float32: every output and gradient follows its
input's dtype.

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
the ReLU mask when the pool is fused.

The forward keeps one byte per output for backward: the winning window
offset (two bytes past 256 offsets). The flat input coordinate and the ReLU
mask are derived from it, and from the fused pool's returned output, when
read. So a caller must not mutate a fused pool's output before backward.
"""

import math
from dataclasses import dataclass, replace

import numpy as np


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


@dataclass(frozen=True)
class PoolCache:
    """Backward-pass bookkeeping for one pooling application: one byte per
    output.

    win holds, per output element (batch, out_h, out_w, channels), the
    winning window offset dy * P_w + dx, as uint8, or uint16 past 256
    offsets. input_hw is the pooled map's (height, width). relu_out is the
    array a fused pool returned, or None for an unfused pool; it is not
    copied, so the caller must not mutate it before backward. argmax and
    relu_mask are derived from these on each read. cache[images] is the
    cache of those images: it slices win and relu_out.
    """

    win: np.ndarray
    params: PoolParams
    input_hw: tuple[int, int]
    relu_out: np.ndarray | None = None

    def __getitem__(self, images: slice) -> "PoolCache":
        return replace(self, win=self.win[images],
                       relu_out=None if self.relu_out is None else self.relu_out[images])

    @property
    def argmax(self) -> np.ndarray:
        """Per output element, the flat row-major int64 input coordinate
        that supplied the maximum."""
        p, (h, w), win = self.params, self.input_hw, self.win
        b, c = win.shape[0], win.shape[3]
        # Offset k = dy*P_w + dx lies dy*W + dx = k + dy*(W - P_w) pixels
        # past the window's top-left pixel. Built in place on one int64 array.
        argmax = (win // p.window_w).astype(np.int64)
        argmax *= w - p.window_w
        argmax += win
        top_left = ((np.arange(b)[:, None, None] * h + np.arange(p.out_h)[:, None] * p.stride_h)
                    * w + np.arange(p.out_w) * p.stride_w)
        argmax += top_left[..., None]
        argmax *= c
        argmax += np.arange(c)
        return argmax

    @property
    def relu_mask(self) -> np.ndarray | None:
        """True where the fused ReLU passed the pooled value (max > 0), or
        None for an unfused pool. The ReLU keeps positive maxima and no
        others, so its output is > 0 exactly where its input was."""
        return None if self.relu_out is None else self.relu_out > 0.0


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
    """Max over each window; the cache records the winning offset per output.

    Loops over the P_h*P_w window offsets, not the output windows: offset
    (dy, dx) is one strided view holding that offset's value for every
    window. Ties go to the first offset in row-major (dy, dx) order; a
    window holding NaN pools to NaN and records its first offset.
    """
    _, h, w, _ = x.shape
    p = params
    if p.footprint[0] > h or p.footprint[1] > w:
        raise ValueError(f"pool footprint {p.footprint} does not fit input ({h},{w})")

    rows, cols = p.out_h * p.stride_h, p.out_w * p.stride_w
    offsets = [(dy, dx) for dy in range(p.window_h) for dx in range(p.window_w)]
    views = [x[:, dy:dy + rows:p.stride_h, dx:dx + cols:p.stride_w] for dy, dx in offsets]
    out = np.array(views[0], dtype=x.dtype)
    for v in views[1:]:
        np.maximum(out, v, out=out)

    # Winning offset, scanned last to first: after offset k, win is the
    # distance from k to the first offset at or after k that holds the max
    # (a match at k resets it, a miss adds 1), so at k = 0 it is the first
    # winner in row-major order. A NaN window matches no offset and is
    # reset to its first.
    win = np.zeros(out.shape, dtype=np.min_scalar_type(len(offsets) - 1))
    differs = np.empty(out.shape, dtype=bool)
    for k in range(len(offsets) - 2, -1, -1):
        np.not_equal(views[k], out, out=differs)
        win += 1
        win *= differs
    win[np.isnan(out)] = 0
    return out, PoolCache(win=win, params=p, input_hw=(h, w))


def _relu(t: np.ndarray) -> np.ndarray:
    """ReLU in place on a fresh array t: max(t, 0), then += 0.0 makes -0.0 +0.0."""
    np.maximum(t, 0.0, out=t)
    t += 0.0
    return t


def _fuse_relu(pooled: np.ndarray, cache: PoolCache) -> tuple[np.ndarray, PoolCache]:
    return _relu(pooled), replace(cache, relu_out=pooled)


def nirmal_forward(x: np.ndarray, h_out_target: int, w_out_target: int) -> tuple[np.ndarray, PoolCache]:
    """Adaptive max pool followed by fused ReLU."""
    params = compute_pool_params(*x.shape[1:3], h_out_target, w_out_target)
    return _fuse_relu(*max_pool_forward(x, params))


def nirmal_backward(grad_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route grad_out to each window's argmax, gated by the ReLU mask when the
    pool was fused. Serves both the fused operator and the plain max pools;
    reads argmax and relu_mask once each."""
    if grad_out.shape != cache.win.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} does not match "
                         f"cache output shape {cache.win.shape}")
    argmax, relu_mask = cache.argmax, cache.relu_mask
    if relu_mask is not None:
        grad_out = grad_out * relu_mask
    shape = (len(grad_out), *cache.input_hw, grad_out.shape[3])
    grad_in = np.zeros(math.prod(shape), dtype=grad_out.dtype)
    # Overlapping windows (P > S) accumulate additively.
    np.add.at(grad_in, argmax.ravel(), grad_out.ravel())
    return grad_in.reshape(shape)


def max_pool2x2_params(h: int, w: int) -> PoolParams:
    """The fixed 2x2 window and stride on an h x w map."""
    return PoolParams(2, 2, 2, 2, output_shape(h, 2, 2), output_shape(w, 2, 2))


def max_pool2x2_forward(x: np.ndarray, relu: bool = False) -> tuple[np.ndarray, PoolCache]:
    """Standard max pooling with fixed 2x2 window and stride; with relu=True
    a ReLU is fused after it, as in nirmal_forward."""
    result = max_pool_forward(x, max_pool2x2_params(*x.shape[1:3]))
    return _fuse_relu(*result) if relu else result

