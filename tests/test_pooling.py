import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nirmalpool import pooling

import oracles

PLANE_4X4 = np.array([[1, 2, 3, 4],
                      [5, 6, 7, 8],
                      [-1, -2, -3, -4],
                      [0, 1, 2, 3]], dtype=float).reshape(1, 4, 4, 1)


def test_demo_shows_a_clamped_window(capsys):
    """demos/pooling_basics.py pools a plane with an all-negative window: the
    plain pool keeps its negative max, the fused pool prints 0 there, and the
    window's inputs get no gradient."""
    demo = runpy.run_path(str(Path(__file__).parents[1] / "demos" / "pooling_basics.py"))
    assert "negatives survive" in capsys.readouterr().out
    out, plain, grad_in, p = (demo["out"][0, ..., 0], demo["baseline"][0, ..., 0],
                              demo["grad_in"][0, ..., 0], demo["cache"].params)
    [(i, j)] = np.argwhere(plain < 0)
    assert out[i, j] == 0.0
    rows = slice(i * p.stride_h, i * p.stride_h + p.window_h)
    cols = slice(j * p.stride_w, j * p.stride_w + p.window_w)
    assert (demo["x"][0, rows, cols, 0] < 0).all() and (grad_in[rows, cols] == 0).all()


def test_compute_pool_params_rejects_nonpositive():
    with pytest.raises(ValueError):
        pooling.compute_pool_params(0, 4, 2, 2)
    with pytest.raises(ValueError):
        pooling.compute_pool_params(4, 4, 0, 2)


def test_output_shape_examples():
    assert pooling.output_shape(28, 2, 2) == 14
    assert pooling.output_shape(28, 3, 2) == 13
    assert pooling.output_shape(5, 5, 1) == 1
    with pytest.raises(ValueError):
        pooling.output_shape(4, 5, 1)
    with pytest.raises(ValueError):
        pooling.output_shape(4, 2, 0)


def test_max_pool_forward_example():
    params = pooling.compute_pool_params(4, 4, 2, 2)
    out, cache = pooling.max_pool_forward(PLANE_4X4, params)
    assert out[0, :, :, 0].tolist() == [[6, 8], [1, 3]]
    # argmax coordinates lie inside their windows
    b, h, w, c = PLANE_4X4.shape
    for i in range(2):
        for j in range(2):
            flat = cache.argmax[0, i, j, 0]
            hh = (flat // c) // w
            ww = (flat // c) % w
            assert 2 * i <= hh < 2 * i + 2
            assert 2 * j <= ww < 2 * j + 2


def test_max_pool_forward_constant_and_global():
    const = np.full((2, 4, 6, 3), 3.5)
    params = pooling.compute_pool_params(4, 6, 2, 3)
    out, _ = pooling.max_pool_forward(const, params)
    assert (out == 3.5).all()

    x = np.random.default_rng(0).normal(size=(1, 5, 5, 1))
    params = pooling.compute_pool_params(5, 5, 1, 1)
    out, _ = pooling.max_pool_forward(x, params)
    assert out[0, 0, 0, 0] == x.max()


def test_max_pool_forward_shape_mismatch():
    params = pooling.PoolParams(5, 5, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        pooling.max_pool_forward(PLANE_4X4, params)


def test_max_pool_forward_rejects_a_footprint_past_the_map():
    # One 2x2 window fits a 5x5 map, but three of them at stride 2 span 6.
    params = pooling.compute_pool_params(6, 6, 3, 3)
    assert (params.window_h, params.stride_h, params.footprint) == (2, 2, (6, 6))
    with pytest.raises(ValueError, match=r"footprint \(6, 6\) does not fit input \(5,5\)"):
        pooling.max_pool_forward(np.zeros((1, 5, 5, 1)), params)


@pytest.mark.parametrize("fused", [False, True])
def test_cache_of_a_slice_of_images(fused):
    """cache[images] holds those images' rows of the cache, and backward
    through it gives their rows of the whole batch's input gradient."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7, 7, 2))
    p = pooling.compute_pool_params(7, 7, 3, 3)  # overlapping 3x3 windows, stride 2
    _, cache = pooling.nirmal_forward(x, 3, 3) if fused else pooling.max_pool_forward(x, p)
    assert cache.params == p and cache.input_hw == (7, 7)
    g = rng.normal(size=cache.win.shape)
    whole = pooling.nirmal_backward(g, cache)
    for s in (slice(0, 2), slice(2, 5), slice(4, 5)):
        part = cache[s]
        assert part.win.dtype == cache.win.dtype and part.win.shape == cache.win[s].shape
        assert part.win.tobytes() == cache.win[s].tobytes()
        if fused:
            assert part.relu_out.tobytes() == cache.relu_out[s].tobytes()
        else:
            assert part.relu_out is None
        assert part.params == cache.params and part.input_hw == cache.input_hw
        assert pooling.nirmal_backward(g[s], part).tobytes() == whole[s].tobytes()


def test_nirmal_forward_examples():
    neg = np.full((1, 2, 2, 1), -5.0)
    out, _ = pooling.nirmal_forward(neg, 1, 1)
    assert out[0, 0, 0, 0] == 0.0

    out, _ = pooling.nirmal_forward(PLANE_4X4, 2, 2)
    assert out[0, :, :, 0].tolist() == [[6, 8], [1, 3]]

    pos = np.abs(np.random.default_rng(1).normal(size=(2, 6, 6, 2))) + 0.1
    params = pooling.compute_pool_params(6, 6, 3, 3)
    plain, _ = pooling.max_pool_forward(pos, params)
    fused, _ = pooling.nirmal_forward(pos, 3, 3)
    assert (fused == plain).all()


def test_monotonicity():
    rng = np.random.default_rng(4)
    for _ in range(30):
        shape = tuple(rng.integers(1, 8, size=4))
        x = rng.uniform(-5, 5, size=shape)
        y = x + rng.uniform(0, 3, size=shape)
        th, tw = (int(v) for v in rng.integers(1, 8, size=2))
        fx, _ = pooling.nirmal_forward(x, th, tw)
        fy, _ = pooling.nirmal_forward(y, th, tw)
        assert (fx <= fy).all()


def test_exact_division_equivalence():
    rng = np.random.default_rng(5)
    x = rng.uniform(-10, 10, size=(2, 12, 12, 3))
    fused, _ = pooling.nirmal_forward(x, 6, 6)
    p = pooling.compute_pool_params(12, 12, 6, 6)
    assert (p.window_h, p.stride_h) == (2, 2)
    plain, _ = pooling.max_pool_forward(x, p)
    assert (fused == np.maximum(plain, 0.0)).all()


def test_nirmal_backward_routing():
    # distinct values, non-overlapping 2x2 windows, all maxima positive
    x = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
    out, cache = pooling.nirmal_forward(x, 2, 2)
    grad = pooling.nirmal_backward(np.ones_like(out), cache)
    expected = np.zeros((1, 4, 4, 1))
    expected[0, 1, 1, 0] = expected[0, 1, 3, 0] = 1.0
    expected[0, 3, 1, 0] = expected[0, 3, 3, 0] = 1.0
    assert (grad == expected).all()
    assert grad.sum() == (np.ones_like(out) * cache.relu_mask).sum()


def test_nirmal_backward_masks_nonpositive_max():
    x = np.full((1, 2, 2, 1), -5.0)
    out, cache = pooling.nirmal_forward(x, 1, 1)
    grad = pooling.nirmal_backward(np.ones_like(out), cache)
    assert (grad == 0.0).all()


def test_nirmal_backward_overlap_accumulates():
    # 3x3 -> target 2: P=2, S=1, windows overlap; a global max collects all
    x = np.zeros((1, 3, 3, 1))
    x[0, 1, 1, 0] = 9.0
    out, cache = pooling.nirmal_forward(x, 2, 2)
    grad = pooling.nirmal_backward(np.ones_like(out), cache)
    assert grad[0, 1, 1, 0] == 4.0
    assert grad.sum() == 4.0


def test_nirmal_backward_shape_mismatch():
    out, cache = pooling.nirmal_forward(PLANE_4X4, 2, 2)
    with pytest.raises(ValueError):
        pooling.nirmal_backward(np.ones((1, 3, 3, 1)), cache)


def test_max_pool2x2_examples():
    out, _ = pooling.max_pool2x2_forward(PLANE_4X4)
    assert out[0, :, :, 0].tolist() == [[6, 8], [1, 3]]

    neg = np.full((1, 2, 2, 1), -5.0)
    out, _ = pooling.max_pool2x2_forward(neg)
    assert out[0, 0, 0, 0] == -5.0  # no clamping

    x = np.random.default_rng(6).normal(size=(1, 5, 5, 1))
    out, _ = pooling.max_pool2x2_forward(x)
    assert out.shape == (1, 2, 2, 1)  # trailing row/col dropped


def test_max_pool2x2_backward_no_mask():
    neg = np.full((1, 2, 2, 1), -5.0) + np.arange(4).reshape(1, 2, 2, 1) * 0.1
    out, cache = pooling.max_pool2x2_forward(neg)
    grad = pooling.nirmal_backward(np.ones_like(out), cache)
    assert grad.sum() == 1.0  # negative max still receives gradient


def test_property_pool_params_are_the_same_on_their_footprint():
    """Every extent h <= 299 and target t <= h + 1: the adaptive pool on the
    first (out - 1) * S + P rows places the same windows as on all h rows,
    and so does the fixed 2x2 pool, so a conv may compute only those rows."""
    for h in range(1, 300):
        for t in range(1, h + 2):
            p = pooling.compute_pool_params(h, 7, t, 3)
            footprint = p.footprint
            assert footprint[0] <= h and footprint[1] <= 7
            assert pooling.compute_pool_params(*footprint, t, 3) == p
        if h >= 2:
            p = pooling.max_pool2x2_params(h, 5)
            assert p.footprint == (h - h % 2, 4)
            assert pooling.max_pool2x2_params(*p.footprint) == p


def test_target_larger_than_input():
    x = np.random.default_rng(8).uniform(-1, 1, size=(1, 4, 4, 1))
    out, _ = pooling.nirmal_forward(x, 8, 8)
    assert out.shape == (1, 4, 4, 1)


# --- properties over arbitrary shapes, against the loop oracles ---

# A small value set makes ties and zero maxima common; those are where the
# first-maximum rule and the ReLU gate decide the routing.
VALUES = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
EXTENT = st.integers(1, 7)


@st.composite
def pool_case(draw):
    """(x, grad_out, target_h, target_w): spatial extents and targets 1-7,
    so 1-pixel inputs and targets larger than the input both occur."""
    b, c = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    h, w = draw(EXTENT), draw(EXTENT)
    th, tw = draw(EXTENT), draw(EXTENT)
    x = draw(arrays(np.float64, (b, h, w, c), elements=VALUES))
    p = pooling.compute_pool_params(h, w, th, tw)
    grad_out = draw(arrays(np.float64, (b, p.out_h, p.out_w, c), elements=VALUES))
    return x, grad_out, th, tw


# No deadline: timings on a shared machine vary too much to gate on.
@settings(deadline=None)
@given(pool_case())
def test_property_forward_matches_oracles(case):
    x, _, th, tw = case
    p = pooling.compute_pool_params(x.shape[1], x.shape[2], th, tw)
    plain, plain_cache = pooling.max_pool_forward(x, p)
    fused, fused_cache = pooling.nirmal_forward(x, th, tw)
    expected_plain = oracles.max_pool_oracle(x, p.window_h, p.window_w, p.stride_h, p.stride_w)
    assert plain.shape == expected_plain.shape
    assert (plain == expected_plain).all()
    assert (fused == oracles.nirmal_oracle(x, th, tw)).all()
    # The tracer reads argmax as flat row-major int64 indices into x.
    for cache in (plain_cache, fused_cache):
        assert cache.argmax.dtype == np.int64
        assert (x.reshape(-1)[cache.argmax] == plain).all()
    # The mask derived from the fused output is the pre-ReLU max > 0.
    assert plain_cache.relu_mask is None
    assert (fused_cache.relu_mask == (plain > 0.0)).all()


@pytest.mark.parametrize("side", [16, 17, 24])
def test_whole_map_window_matches_oracles(side):
    # One window over the whole map: 256 offsets at 16x16, more above, where
    # the winning offset no longer fits in a byte.
    rng = np.random.default_rng(side)
    x = rng.choice([-1.0, 0.0, 0.5, 2.0], size=(2, side, side, 3))
    x[1, :, :, 1] = -3.0  # all tied: the map's first pixel wins
    grad_out = rng.choice([-1.0, 1.0], size=(2, 1, 1, 3))
    p = pooling.compute_pool_params(side, side, 1, 1)
    assert (p.window_h, p.window_w, p.out_h, p.out_w) == (side, side, 1, 1)
    for fused in (False, True):
        if fused:
            out, cache = pooling.nirmal_forward(x, 1, 1)
            expected = oracles.nirmal_oracle(x, 1, 1)
        else:
            out, cache = pooling.max_pool_forward(x, p)
            expected = oracles.max_pool_oracle(x, side, side, side, side)
        assert (out == expected).all()
        assert cache.win.dtype == (np.uint8 if side == 16 else np.uint16)
        assert (x.reshape(-1)[cache.argmax] == x.max(axis=(1, 2), keepdims=True)).all()
        assert cache.argmax[1, 0, 0, 1] == side * side * 3 + 1
        grad = pooling.nirmal_backward(grad_out, cache)
        assert (grad == oracles.pool_backward_oracle(x, grad_out, side, side, side, side,
                                                     fused)).all()


def test_nan_window_pools_to_nan():
    x = np.arange(1.0, 17.0).reshape(1, 4, 4, 1)
    x[0, 1, 0, 0] = np.nan  # in the top-left 2x2 window
    x[0, 3, 3, 0] = np.nan  # in the bottom-right one
    p = pooling.compute_pool_params(4, 4, 2, 2)
    for out, cache in (pooling.max_pool_forward(x, p), pooling.nirmal_forward(x, 2, 2)):
        assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 1, 1, 0])
        assert out[0, 0, 1, 0] == 8.0 and out[0, 1, 0, 0] == 14.0
        # A NaN window records its first offset, the window's top-left pixel.
        assert (cache.win[0, :, :, 0] == [[0, 3], [3, 0]]).all()
        assert cache.argmax[0, 0, 0, 0] == 0
        assert cache.argmax[0, 1, 1, 0] == 2 * 4 + 2
    # NaN > 0 is False before and after the fused ReLU.
    assert (cache.relu_mask[0, :, :, 0] == [[False, True], [True, False]]).all()


def _first_max_offsets(x, p):
    """Brute force, window by window: the first row-major offset whose value
    equals the window's max, or 0 where the max is NaN."""
    b, _, _, c = x.shape
    win = np.zeros((b, p.out_h, p.out_w, c), dtype=np.int64)
    for n, i, j, ch in np.ndindex(win.shape):
        values = x[n, i * p.stride_h:i * p.stride_h + p.window_h,
                   j * p.stride_w:j * p.stride_w + p.window_w, ch].ravel()
        top = values.max()
        win[n, i, j, ch] = 0 if np.isnan(top) else int(np.flatnonzero(values == top)[0])
    return win


@pytest.mark.parametrize("side,target,window,stride", [
    (8, 4, 2, 2),     # 2x2, the fixed pool's geometry
    (9, 4, 3, 2),     # 3x3 at stride 2: neighbouring windows share a row and column
    (33, 2, 17, 16),  # 17x17: 289 offsets, so win is uint16
])
def test_winner_is_the_first_offset_holding_the_max(side, target, window, stride):
    rng = np.random.default_rng(side)
    inf = np.inf
    x = np.empty((2, side, side, 3))
    x[..., 0] = rng.choice([-inf, -1.0, -0.0, 0.0, 1.0, inf], size=(2, side, side))
    x[..., 1] = rng.choice([-1.0, -0.0, 0.0], size=(2, side, side))  # zero maxima, either sign
    x[..., 2] = rng.choice([-inf, -2.0], size=(2, side, side))
    x[0, :window, :window, 1] = -1.0
    x[0, window - 1, 0, 1], x[0, window - 1, 1, 1] = -0.0, 0.0  # -0.0 ties +0.0, -0.0 first
    x[0, :window, :window, 2] = -inf  # an all -inf window
    x[1, 1, 1, :] = np.nan  # not the first offset of the first window
    p = pooling.compute_pool_params(side, side, target, target)
    assert (p.window_h, p.stride_h, p.out_h) == (window, stride, target)
    expected = _first_max_offsets(x, p)
    assert expected[0, 0, 0, 1] == (window - 1) * window
    assert (expected[1, 0, 0] == 0).all()
    plain = pooling.max_pool_forward(x, p)
    for _, cache in (plain, pooling.nirmal_forward(x, target, target)):
        assert cache.win.dtype == (np.uint16 if window * window > 256 else np.uint8)
        assert (cache.win == expected).all()
    out, cache = plain
    assert np.isnan(out[1, 0, 0]).all() and out[0, 0, 0, 2] == -inf
    picked = x.reshape(-1)[cache.argmax]
    assert ((picked == out) | np.isnan(out)).all()


def test_fused_pool_mask_is_the_pre_relu_sign():
    # Signed zeros, negatives and ties: the mask read from the fused output
    # is True exactly where the max before the ReLU was > 0.
    x = np.array([[-0.0, -1.0, 0.0, 0.0, 3.0, 3.0],
                  [-2.0, -0.0, -0.0, 0.0, 3.0, -1.0]]).reshape(1, 2, 6, 1)
    plain, _ = pooling.max_pool_forward(x, pooling.compute_pool_params(2, 6, 1, 3))
    out, cache = pooling.nirmal_forward(x, 1, 3)
    assert (cache.relu_mask == (plain > 0.0)).all()
    assert cache.relu_mask.ravel().tolist() == [False, False, True]
    assert np.signbit(out).sum() == 0  # -0.0 pools to +0.0
    assert cache.argmax.ravel().tolist() == [0, 2, 4]


@settings(deadline=None)
@given(pool_case(), st.booleans())
def test_property_backward_matches_oracle(case, fused):
    x, grad_out, th, tw = case
    p = pooling.compute_pool_params(x.shape[1], x.shape[2], th, tw)
    if fused:
        _, cache = pooling.nirmal_forward(x, th, tw)
    else:
        _, cache = pooling.max_pool_forward(x, p)
    grad = pooling.nirmal_backward(grad_out, cache)
    expected = oracles.pool_backward_oracle(x, grad_out, p.window_h, p.window_w,
                                            p.stride_h, p.stride_w, fused)
    assert (grad == expected).all()
