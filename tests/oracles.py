"""Independent brute-force oracles the fast implementations are checked
against. These deliberately share no code with the library: everything is
explicit window/loop enumeration."""

import math

import numpy as np


def pool_params_oracle(h_in, w_in, th, tw):
    ph, pw = math.ceil(h_in / th), math.ceil(w_in / tw)
    sh, sw = max(1, h_in // th), max(1, w_in // tw)
    return ph, pw, sh, sw


def placement_count(extent, window, stride):
    """Number of window positions that fully fit, counted one by one."""
    count = 0
    pos = 0
    while pos + window <= extent:
        count += 1
        pos += stride
    return count


def max_pool_oracle(x, ph, pw, sh, sw):
    """Explicit window enumeration max pool, no activation."""
    b, h, w, c = x.shape
    oh, ow = placement_count(h, ph, sh), placement_count(w, pw, sw)
    out = np.empty((b, oh, ow, c))
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    values = []
                    for dx in range(ph):
                        for dy in range(pw):
                            values.append(x[n, i * sh + dx, j * sw + dy, ch])
                    out[n, i, j, ch] = max(values)
    return out


def nirmal_oracle(x, th, tw):
    """Append-0 form: each output is max over (window values + [0])."""
    b, h, w, c = x.shape
    ph, pw, sh, sw = pool_params_oracle(h, w, th, tw)
    oh, ow = placement_count(h, ph, sh), placement_count(w, pw, sw)
    out = np.empty((b, oh, ow, c))
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    values = [0.0]
                    for dx in range(ph):
                        for dy in range(pw):
                            values.append(x[n, i * sh + dx, j * sw + dy, ch])
                    out[n, i, j, ch] = max(values)
    return out


def pool_backward_oracle(x, grad_out, ph, pw, sh, sw, fused):
    """Gradient of a max pool w.r.t. its input. Each output's gradient goes to
    the first maximum of its window in row-major (dx, dy) order; when fused
    with ReLU, only outputs whose maximum is > 0 pass gradient. Overlapping
    windows accumulate."""
    b, h, w, c = x.shape
    oh, ow = placement_count(h, ph, sh), placement_count(w, pw, sw)
    grad_in = np.zeros(x.shape)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for ch in range(c):
                    best = (i * sh, j * sw)
                    for dx in range(ph):
                        for dy in range(pw):
                            r, s = i * sh + dx, j * sw + dy
                            if x[n, r, s, ch] > x[n, best[0], best[1], ch]:
                                best = (r, s)
                    if fused and not x[n, best[0], best[1], ch] > 0:
                        continue
                    grad_in[n, best[0], best[1], ch] += grad_out[n, i, j, ch]
    return grad_in


def conv2d_oracle(x, kernels, bias):
    """Quadruple-loop valid cross-correlation."""
    b, h, w, c_in = x.shape
    kh, kw, _, c_out = kernels.shape
    oh, ow = h - kh + 1, w - kw + 1
    out = np.empty((b, oh, ow, c_out))
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for o in range(c_out):
                    acc = bias[o]
                    for dx in range(kh):
                        for dy in range(kw):
                            for ci in range(c_in):
                                acc += x[n, i + dx, j + dy, ci] * kernels[dx, dy, ci, o]
                    out[n, i, j, o] = acc
    return out


def conv2d_backward_oracle(x, kernels, grad_out):
    """Gradients of the valid cross-correlation w.r.t. input, kernels and
    bias: every output gradient, times each tap, added where the tap read."""
    b, h, w, c_in = x.shape
    kh, kw, _, c_out = kernels.shape
    oh, ow = h - kh + 1, w - kw + 1
    grad_x = np.zeros(x.shape)
    grad_k = np.zeros(kernels.shape)
    grad_b = np.zeros(c_out)
    for n in range(b):
        for i in range(oh):
            for j in range(ow):
                for o in range(c_out):
                    g = grad_out[n, i, j, o]
                    grad_b[o] += g
                    for dx in range(kh):
                        for dy in range(kw):
                            for ci in range(c_in):
                                grad_x[n, i + dx, j + dy, ci] += g * kernels[dx, dy, ci, o]
                                grad_k[dx, dy, ci, o] += g * x[n, i + dx, j + dy, ci]
    return grad_x, grad_k, grad_b
