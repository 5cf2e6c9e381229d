import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nirmalpool import gradcheck, harness, nn, optim, pooling

import oracles


def test_conv_identity_kernel():
    x = np.random.default_rng(0).normal(size=(2, 5, 5, 1))
    kernels = np.ones((1, 1, 1, 1))
    out = nn.conv2d_forward(x, kernels, np.zeros(1))
    assert (out == x).all()


def test_conv_ones_kernel_constant_plane():
    x = np.full((1, 6, 6, 1), 2.5)
    out = nn.conv2d_forward(x, np.ones((3, 3, 1, 1)), np.zeros(1))
    assert np.allclose(out, 9 * 2.5)
    assert out.shape == (1, 4, 4, 1)


def test_im2col_of_a_cropped_view_matches_brute_force():
    # A cropped slice of a whole-batch map, as model_forward passes a conv:
    # not contiguous, so window views built from wrong strides read wrong pixels.
    maps = np.random.default_rng(5).normal(size=(5, 9, 8, 3))
    x = maps[1:4, :7, :6]
    kh, kw, oh, ow = 3, 2, 4, 3  # the top-left 4x3 of x's 5x5 valid windows
    assert not x.flags.c_contiguous
    expected = np.array([np.append(x[b, i:i + kh, j:j + kw].ravel(), 1.0)
                         for b in range(len(x)) for i in range(oh) for j in range(ow)])
    assert (nn._im2col(x, kh, kw, oh, ow) == expected).all()


def test_conv_shape_errors():
    x = np.zeros((1, 5, 5, 2))
    with pytest.raises(ValueError):
        nn.conv2d_forward(x, np.zeros((3, 3, 1, 4)), np.zeros(4))
    with pytest.raises(ValueError):
        nn.conv2d_forward(np.zeros((1, 2, 2, 1)), np.zeros((3, 3, 1, 4)), np.zeros(4))


@pytest.mark.parametrize("bias", [np.zeros(3), np.zeros(5), np.zeros((1, 4))],
                         ids=["short", "long", "2-d"])
def test_conv_rejects_a_bias_not_one_per_output_channel(bias):
    with pytest.raises(ValueError, match=re.escape(f"bias shape {bias.shape}") + ".*output width 4"):
        nn.conv2d_forward(np.zeros((1, 5, 5, 2)), np.zeros((3, 3, 2, 4)), bias)


def test_conv_backward_zero_grad():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4, 2))
    kernels = rng.normal(size=(3, 3, 2, 3))
    gx, gk, gb = nn.conv2d_backward(x, kernels, np.zeros((1, 2, 2, 3)))
    assert (gx == 0).all() and (gk == 0).all() and (gb == 0).all()


def test_conv_backward_finite_differences():
    result = gradcheck.check_conv2d_backward(np.random.default_rng(4))
    assert result.max_rel_error < 1e-6


# Multiples of 1/8 in [-2, 2]: every product and sum below is exact in
# float64, so the GEMM and the loop oracle agree whatever their order.
EIGHTHS = st.integers(-16, 16).map(lambda v: v / 8)


@st.composite
def conv_case(draw):
    """(x, kernels, grad_out): batch 1-5, kernels 1-3 by 1-3, 1-3 channels in
    and out, and input extents from the kernel's up to 7 (1x1 output included)."""
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b, c_in, c_out = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h, w = draw(st.integers(kh, 7)), draw(st.integers(kw, 7))
    x = draw(arrays(np.float64, (b, h, w, c_in), elements=EIGHTHS))
    kernels = draw(arrays(np.float64, (kh, kw, c_in, c_out), elements=EIGHTHS))
    grad_out = draw(arrays(np.float64, (b, h - kh + 1, w - kw + 1, c_out), elements=EIGHTHS))
    return x, kernels, grad_out


# A grad_out over the pool's footprint only: CIFAR's conv1 (29 of 30) and
# max2x2's conv2 at MNIST shape (10 of 11, a whole batch of 64), an
# uneven crop of a non-square kernel, and no crop at all.
@pytest.mark.parametrize("x_shape, kernel_shape, out_hw", [
    ((4, 32, 32, 3), (3, 3, 3, 8), (29, 29)),
    ((64, 13, 13, 32), (3, 3, 32, 64), (10, 10)),
    ((3, 9, 8, 2), (3, 2, 2, 3), (5, 7)),
    ((2, 7, 6, 2), (3, 3, 2, 3), (5, 4)),
], ids=["cifar_conv1", "max2x2_conv2", "uneven", "uncropped"])
def test_conv_backward_footprint_grad_out_is_crop_and_pad(x_shape, kernel_shape, out_hw):
    """conv2d_backward on the whole input with a grad_out that covers only
    the top-left of the valid output is, bitwise, the backward of the
    cropped input with its grad_x zero-padded back to the input's shape."""
    rng = np.random.default_rng(22)
    x, kernels = rng.normal(size=x_shape), rng.normal(size=kernel_shape)
    (b, h, w, _), (kh, kw, _, c_out), (oh, ow) = x_shape, kernel_shape, out_hw
    grad_out = rng.normal(size=(b, oh, ow, c_out))
    rows, cols = oh + kh - 1, ow + kw - 1
    gx_crop, gk_crop, gb_crop = nn.conv2d_backward(x[:, :rows, :cols], kernels, grad_out)
    padded = np.pad(gx_crop, ((0, 0), (0, h - rows), (0, w - cols), (0, 0)))
    gx, gk, gb = nn.conv2d_backward(x, kernels, grad_out)
    assert gx.shape == x.shape
    for got, want in ((gx, padded), (gk, gk_crop), (gb, gb_crop)):
        assert got.tobytes() == want.tobytes()
    _, gk_only, gb_only = nn.conv2d_backward(x, kernels, grad_out, need_grad_x=False)
    assert gk_only.tobytes() == gk.tobytes() and gb_only.tobytes() == gb.tobytes()


@pytest.mark.parametrize("grad_shape, kernel_shape", [
    ((3, 4, 4, 4), (3, 3, 2, 4)),  # batch mismatch
    ((2, 4, 4, 3), (3, 3, 2, 4)),  # output channel mismatch
    ((2, 4, 4, 4), (3, 3, 3, 4)),  # input channel mismatch
    ((2, 5, 4, 4), (3, 3, 2, 4)),  # taller than the valid output
    ((2, 4, 5, 4), (3, 3, 2, 4)),  # wider than the valid output
], ids=["batch", "out_channels", "in_channels", "taller", "wider"])
def test_conv_backward_rejects_incompatible_grad_out(grad_shape, kernel_shape):
    with pytest.raises(ValueError):
        nn.conv2d_backward(np.zeros((2, 6, 6, 2)), np.zeros(kernel_shape), np.zeros(grad_shape))


_ONE_BY_ONE = (np.arange(1, 19, dtype=float).reshape(2, 3, 3, 1) / 8,
               np.arange(-9, 9, dtype=float).reshape(3, 3, 1, 2) / 8,
               np.array([[[[1.0, -0.5]]], [[[0.25, 2.0]]]]))
_RAGGED = (np.arange(3 * 4 * 4 * 2, dtype=float).reshape(3, 4, 4, 2) / 8 - 3,
           np.arange(-9, 9, dtype=float).reshape(3, 3, 2, 1) / 8,
           np.arange(3 * 2 * 2, dtype=float).reshape(3, 2, 2, 1) / 8 - 0.5)


# Batches of 1-5, each convolved by one GEMM over all its images. No
# deadline: timings on a shared machine vary too much to gate on.
@settings(deadline=None)
@given(conv_case())
@example(_ONE_BY_ONE)
@example(_RAGGED)
def test_property_blocked_conv_matches_oracle(case):
    x, kernels, grad_out = case
    bias = np.arange(kernels.shape[3]) / 8 - 0.25
    out = nn.conv2d_forward(x, kernels, bias)
    full = nn.conv2d_backward(x, kernels, grad_out)
    no_grad_x = nn.conv2d_backward(x, kernels, grad_out, need_grad_x=False)
    np.testing.assert_allclose(out, oracles.conv2d_oracle(x, kernels, bias), rtol=1e-12)
    expected = oracles.conv2d_backward_oracle(x, kernels, grad_out)
    for actual, want in zip(full, expected):
        np.testing.assert_allclose(actual, want, rtol=1e-12)
    assert no_grad_x[0] is None
    for actual, want in zip(no_grad_x[1:], expected[1:]):
        np.testing.assert_allclose(actual, want, rtol=1e-12)


def test_grad_bias_is_the_sum_of_grad_out_over_blocks():
    """grad_bias comes from the im2col matrix's ones column, over a whole
    batch of 64 at mnist_train's conv2 shape."""
    rng = np.random.default_rng(19)
    x = rng.normal(size=(64, 13, 13, 32))
    kernels = rng.normal(size=(3, 3, 32, 64))
    grad_out = rng.normal(size=(64, 11, 11, 64))
    _, _, gb = nn.conv2d_backward(x, kernels, grad_out, need_grad_x=False)
    expected = grad_out.sum(axis=(0, 1, 2))
    assert np.abs(gb - expected).max() <= 1e-12 * np.abs(expected).max()


def test_conv_empty_batch():
    kernels = np.ones((3, 3, 2, 4))
    x = np.empty((0, 7, 6, 2))
    assert nn.conv2d_forward(x, kernels, np.zeros(4)).shape == (0, 5, 4, 4)
    gx, gk, gb = nn.conv2d_backward(x, kernels, np.empty((0, 5, 4, 4)))
    assert gx.shape == x.shape
    assert (gk == 0).all() and gk.shape == kernels.shape
    assert (gb == 0).all() and gb.shape == (4,)


def _is_view_of(x, whole):
    """x is a view into `whole`'s own memory, not a copy of it."""
    return x.base is whole and np.shares_memory(x, whole)


def test_model_backward_skips_input_gradient(record):
    spec = nn.ModelSpec()
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    batch = np.random.default_rng(6).uniform(size=(2, 28, 28, 1))
    logits, cache = nn.model_forward(spec, params, batch)
    _, grad_logits = nn.softmax_cross_entropy(logits, np.array([3, 7]))
    calls = record(nn, "conv2d_backward")
    nn.model_backward(spec, params, cache, grad_logits)
    assert [(_is_view_of(c.args["x"], batch), c.args["need_grad_x"]) for c in calls] == \
           [(False, True), (True, False)]


def test_dense_identity_and_bias():
    x = np.random.default_rng(5).normal(size=(3, 4))
    out = nn.dense_forward(x, np.eye(4), np.zeros(4))
    assert (out == x).all()
    bias = np.arange(4.0)
    out = nn.dense_forward(np.zeros((2, 4)), np.eye(4), bias)
    assert (out == bias).all()


def test_dense_backward_finite_differences():
    result = gradcheck.check_dense_backward(np.random.default_rng(6))
    assert result.max_rel_error < 1e-6


def test_dense_shape_error():
    with pytest.raises(ValueError):
        nn.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


def test_dense_rejects_a_bias_not_one_per_output_unit():
    # A 1-element bias would broadcast over the three units.
    with pytest.raises(ValueError, match=r"bias shape \(1,\).*output width 3"):
        nn.dense_forward(np.ones((4, 6)), np.ones((6, 3)), np.array([0.5]))


@pytest.mark.parametrize("grad_shape", [(2, 5), (3, 4)], ids=["units", "batch"])
def test_dense_backward_rejects_grad_out_of_another_shape(grad_shape):
    with pytest.raises(ValueError, match="grad_out shape"):
        nn.dense_backward(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(grad_shape))


def test_relu_examples():
    x = np.array([-1.5, 0.0, 2.0, -0.0]).reshape(1, 2, 2, 1)
    out = pooling._relu(x.copy())
    assert out.ravel().tolist() == [0.0, 0.0, 2.0, 0.0]
    nonneg = np.abs(np.random.default_rng(0).normal(size=(2, 3, 3, 2)))
    assert (pooling._relu(nonneg.copy()) == nonneg).all()
    neg = -np.abs(np.random.default_rng(1).normal(size=(2, 3, 3, 2))) - 0.1
    assert (pooling._relu(neg.copy()) == 0.0).all()


def test_relu_normalizes_negative_zero():
    out = pooling._relu(np.full((1, 1, 1, 1), -0.0))
    assert not np.signbit(out).any()


def test_relu_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(scale=5.0, size=tuple(rng.integers(1, 9, size=4)))
        once = pooling._relu(x.copy())
        assert (pooling._relu(once.copy()) == once).all()


def test_relu_in_place_is_bitwise_the_out_of_place_rule():
    # The dense layers' activations used np.maximum(t, 0.0) + 0.0 on a new array.
    x = np.random.default_rng(3).normal(size=(64, 128))
    x.ravel()[:6] = [-0.0, 0.0, np.nan, -np.inf, np.inf, -1e-320]
    out = x.copy()
    assert pooling._relu(out) is out
    assert out.tobytes() == (np.maximum(x, 0.0) + 0.0).tobytes()


def test_softmax_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        nn.softmax_cross_entropy(np.zeros((0, 10)), np.zeros(0, dtype=np.int64))


def test_softmax_uniform_logits():
    logits = np.zeros((4, 10))
    for label in (0, 3, 9):
        loss, _ = nn.softmax_cross_entropy(logits, np.full(4, label))
        assert loss == pytest.approx(np.log(10), rel=1e-12)


def test_softmax_confident_correct():
    logits = np.zeros((1, 10))
    logits[0, 4] = 100.0
    loss, _ = nn.softmax_cross_entropy(logits, np.array([4]))
    assert loss < 1e-8


def test_softmax_loss_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        logits = rng.normal(scale=3, size=(5, 10))
        labels = rng.integers(0, 10, size=5)
        loss, _ = nn.softmax_cross_entropy(logits, labels)
        assert loss >= 0.0


def test_softmax_label_out_of_range():
    with pytest.raises(ValueError):
        nn.softmax_cross_entropy(np.zeros((1, 10)), np.array([10]))
    with pytest.raises(ValueError):
        nn.softmax_cross_entropy(np.zeros((1, 10)), np.array([-1]))


@pytest.mark.parametrize("labels,named", [
    ([3], r"shape \(1,\)"),  # would broadcast over all five rows
    (np.array([[1, 2, 3, 4, 5]]), r"shape \(1, 5\)"),
    ([3, 1], r"shape \(2,\)"),
    (np.array([1.0, 2.0, 3.0, 4.0, 5.0]), r"dtype float64"),
], ids=["one-label", "2-d", "too-few", "float"])
def test_softmax_rejects_labels_not_one_integer_per_row(labels, named):
    with pytest.raises(ValueError, match=named + r".*logits of shape \(5, 10\)"):
        nn.softmax_cross_entropy(np.zeros((5, 10)), labels)


def test_softmax_finite_differences():
    result = gradcheck.check_softmax_cross_entropy(np.random.default_rng(8))
    assert result.max_rel_error < 1e-6


def test_zero_weight_model_gives_uniform_logits():
    spec = gradcheck.toy_model_spec("nirmal")
    params = nn.init_params(spec, (1, 8, 8, 1), seed=0)
    params = {k: np.zeros_like(v) for k, v in params.items()}
    batch = np.random.default_rng(9).uniform(size=(4, 8, 8, 1))
    logits, _ = nn.model_forward(spec, params, batch)
    assert (logits == 0.0).all()
    loss, _ = nn.softmax_cross_entropy(
        np.zeros((4, 10)), np.random.default_rng(10).integers(0, 10, size=4))
    assert loss == pytest.approx(np.log(10), rel=1e-12)


# Each trimming spec crops its second conv, so the zero-padded input gradient
# of a cropped conv feeds the first pool's backward: the 3x3/s2 windows on
# 8 read 7 rows and columns, and the 2x2 pool on 5 reads 4.
TRIMMING = {
    "nirmal_trimming": (nn.ModelSpec(conv_filters=(2, 2), dense_units=(8, 2),
                                     pool_targets=((10, 10), (3, 3))), (2, 12, 12, 1)),
    "max2x2_trimming": (nn.ModelSpec(pooling_variant="max2x2", conv_filters=(2, 2),
                                     dense_units=(8, 2)), (2, 16, 16, 1)),
}


@pytest.mark.parametrize("case", ["nirmal", "max2x2", *TRIMMING])
def test_model_end_to_end_finite_differences(case):
    if case in TRIMMING:
        spec, shape = TRIMMING[case]
        _, cache = nn.model_forward(spec, nn.init_params(spec, shape, seed=0), np.zeros(shape))
        assert cache.pool_caches[1].input_hw[0] < cache.conv_inputs[1].shape[1] - 2
    else:
        spec, shape = gradcheck.toy_model_spec(case), (2, 8, 8, 1)
    result = gradcheck.check_model_end_to_end(np.random.default_rng(11), spec, shape)
    assert result.max_rel_error < 1e-5


@pytest.mark.parametrize("dense_units", [(64, 32, 10), (10,)])
def test_model_any_dense_depth(dense_units):
    spec = dataclasses.replace(gradcheck.toy_model_spec("nirmal"), dense_units=dense_units)
    params = nn.init_params(spec, (1, 8, 8, 1), seed=15)
    logits, _ = nn.model_forward(spec, params, np.random.default_rng(16).uniform(size=(3, 8, 8, 1)))
    assert logits.shape == (3, 10)
    result = gradcheck.check_model_end_to_end(np.random.default_rng(17), spec)
    assert result.max_rel_error < 1e-5


def test_sgd_step_decreases_loss():
    spec = gradcheck.toy_model_spec("nirmal")
    rng = np.random.default_rng(12)
    params = nn.init_params(spec, (1, 8, 8, 1), seed=12)
    batch = rng.uniform(size=(1, 8, 8, 1))
    labels = np.array([1])
    logits, cache = nn.model_forward(spec, params, batch)
    loss0, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = nn.model_backward(spec, params, cache, grad_logits)
    stepped = {k: p - 1e-3 * grads[k] for k, p in params.items()}
    logits1, _ = nn.model_forward(spec, stepped, batch)
    loss1, _ = nn.softmax_cross_entropy(logits1, labels)
    assert loss1 < loss0


@pytest.mark.parametrize("variant", ["nirmal", "max2x2"])
def test_mnist_architecture_shape_trace(variant):
    spec = nn.ModelSpec(pooling_variant=variant)
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    logits, cache = nn.model_forward(spec, params, np.zeros((1, 28, 28, 1)))
    conv_in = [a.shape[1:] for a in cache.conv_inputs]
    pool_in = [(*pc.input_hw, pc.win.shape[3]) for pc in cache.pool_caches]
    trace = [conv_in[0], pool_in[0], conv_in[1], pool_in[1], cache.flat_input_shape[1:],
             *(a.shape[1:] for a in cache.dense_inputs), logits.shape[1:]]
    # The 2x2 pool reads 10 of conv2's 11 rows and columns, so only those
    # are computed; nirmal's 3x3/s2 windows on 11 read all of them.
    conv2_out = (10, 10, 64) if variant == "max2x2" else (11, 11, 64)
    assert trace == [(28, 28, 1), (26, 26, 32), (13, 13, 32),
                     conv2_out, (5, 5, 64), (1600,), (128,), (10,)]


@pytest.mark.parametrize("spec", [
    nn.ModelSpec(), nn.ModelSpec(pooling_variant="max2x2"),
    nn.ModelSpec(pooling_variant="max2x2", activation_placement="pool_only"),
    nn.ModelSpec(conv_filters=(4,), pool_targets=((1, 1),)),
], ids=["nirmal", "max2x2", "max2x2_pool_only", "whole_map"])
def test_pool_caches_keep_one_small_integer_per_output(spec):
    """The forward keeps the winning offset, not a flat int64 index or a
    bool mask; backward derives both from it and the fused output."""
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    logits, cache = nn.model_forward(spec, params, np.random.default_rng(21).normal(
        size=(2, 28, 28, 1)))
    fused = not (spec.pooling_variant == "max2x2" and spec.activation_placement == "pool_only")
    next_inputs = [*cache.conv_inputs[1:], cache.dense_inputs[0]]
    for pc, next_input in zip(cache.pool_caches, next_inputs, strict=True):
        arrays = [v for v in vars(pc).values() if isinstance(v, np.ndarray)]
        assert not [a.dtype for a in arrays if a.dtype in (np.int64, np.bool_)]
        windows = pc.params.window_h * pc.params.window_w
        assert pc.win.dtype == (np.uint8 if windows <= 256 else np.uint16)
        assert pc.win.shape == pc.argmax.shape and pc.argmax.dtype == np.int64
        # A fused pool's mask is read from the output it returned, which the
        # next layer consumes: no copy is kept.
        assert (pc.relu_out is not None) == fused
        assert not fused or np.shares_memory(pc.relu_out, next_input)
    # The whole-map stage pools 26x26 windows: 676 offsets need two bytes.
    assert spec.pool_targets != ((1, 1),) or cache.pool_caches[0].win.dtype == np.uint16


def _run_model(record, spec, params, batch, labels):
    """Logits, cache and gradients of one step, with the gradient that
    reached each pool's backward, last stage first."""
    calls = record(pooling, "nirmal_backward")
    logits, cache = nn.model_forward(spec, params, batch)
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = nn.model_backward(spec, params, cache, grad_logits)
    return logits, cache, grads, [c.args["grad_out"] for c in calls]


def _assert_close(actual, expected, rtol):
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= rtol * np.abs(expected).max()


# Pools that read less than their conv's output: the CIFAR targets read 29 of
# conv1's 30 rows and columns and 11 of conv2's 12; at MNIST's shape the 2x2
# pool reads 10 of conv2's 11.
@pytest.mark.parametrize("spec, shape", [
    (nn.ModelSpec(activation_placement="after_conv", pool_targets=((14, 14), (5, 5))),
     (4, 32, 32, 3)),
    (nn.ModelSpec(pooling_variant="max2x2"), (4, 28, 28, 1)),
], ids=["cifar_targets", "max2x2_mnist"])
def test_cropped_convs_are_the_uncropped_network(monkeypatch, record, spec, shape):
    rng = np.random.default_rng(18)
    params = {k: v + 0.1 * rng.standard_normal(v.shape)  # nonzero biases
              for k, v in nn.init_params(spec, shape, seed=18).items()}
    batch, labels = rng.normal(size=shape), rng.integers(0, 10, shape[0])
    logits, cache, grads, pool_grads = _run_model(record, spec, params, batch, labels)
    plan = nn.plan

    def whole_inputs(spec, input_shape):
        stages, (h, w) = [], input_shape[1:3]
        for stage in plan(spec, input_shape):
            conv_h, conv_w = h - nn.KERNEL_SIZE + 1, w - nn.KERNEL_SIZE + 1
            whole = pooling.PoolParams(conv_h, conv_w, 1, 1, 1, 1)  # one window, all of it
            stages.append(dataclasses.replace(stage, pool=whole))
            h, w = stage.pool.out_h, stage.pool.out_w
        return tuple(stages)

    with monkeypatch.context() as mp:
        # The reference's stages have footprints as large as each conv's
        # output, so it convolves every stage's whole input; the pool
        # wrappers derive their own windows and drop the rows and columns
        # those miss.
        mp.setattr(nn, "plan", whole_inputs)
        ref_logits, ref_cache, ref_grads, ref_pool_grads = _run_model(
            record, spec, params, batch, labels)

    assert cache.micro_batches == ref_cache.micro_batches == [slice(0, shape[0])]
    assert logits.tobytes() == ref_logits.tobytes()
    assert cache.conv_inputs[0] is batch
    for got, want in zip(cache.conv_inputs, ref_cache.conv_inputs):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(cache.pool_caches, ref_cache.pool_caches):
        assert got.params == want.params
    for key in ref_grads:
        _assert_close(grads[key], ref_grads[key], 1e-12)

    # The gradient w.r.t. conv2's input is zero outside the part conv2 read.
    grad_x, ref_grad_x = pool_grads[1], ref_pool_grads[1]
    rows, cols = (n + 2 for n in cache.pool_caches[1].input_hw)
    assert rows < grad_x.shape[1] and cols < grad_x.shape[2]
    assert not grad_x[:, rows:].any() and not grad_x[:, :, cols:].any()
    _assert_close(grad_x, ref_grad_x, 1e-12)


def test_uncropped_conv_reads_its_input_itself(record):
    """Where the pool reads the whole conv output, the conv gets a view of
    the stage's whole input, not a copy of it."""
    spec = nn.ModelSpec()
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    batch = np.random.default_rng(20).uniform(size=(2, 28, 28, 1))
    calls = record(nn, "conv2d_forward")
    _, cache = nn.model_forward(spec, params, batch)
    assert len(calls) == 2
    for call, stage_input in zip(calls, cache.conv_inputs, strict=True):
        x = call.args["x"]
        assert x.shape == stage_input.shape and _is_view_of(x, stage_input)


def _micro_batch_bytes_per_image(spec, shape):
    """The most one image needs at any stage, of its conv output and of its
    im2col matrix with the ones column, both over its pool's footprint."""
    return max((math.prod(stage.pool.footprint) * max(filters, 9 * c_in + 1) * 8
                for stage, filters, c_in in zip(nn.plan(spec, shape), spec.conv_filters,
                                                (shape[3], *spec.conv_filters))), default=0)


# Both variants and placements, and the CIFAR targets whose overlapping pools
# read less than each conv's output.
MICRO_BATCH_SPECS = [
    pytest.param(nn.ModelSpec(), (7, 28, 28, 1), id="nirmal_pool_only"),
    pytest.param(nn.ModelSpec(activation_placement="after_conv"), (7, 28, 28, 1),
                 id="nirmal_after_conv"),
    pytest.param(nn.ModelSpec(pooling_variant="max2x2"), (7, 28, 28, 1), id="max2x2_after_conv"),
    pytest.param(nn.ModelSpec(pooling_variant="max2x2", activation_placement="pool_only"),
                 (7, 28, 28, 1), id="max2x2_pool_only"),
    pytest.param(nn.ModelSpec(activation_placement="after_conv", pool_targets=((14, 14), (5, 5))),
                 (7, 32, 32, 3), id="cifar_targets"),
]


@pytest.mark.parametrize("spec, shape", MICRO_BATCH_SPECS)
def test_micro_batches_are_the_whole_batch_network(monkeypatch, record, spec, shape):
    """A batch of 7 split into micro-batches of 3, 3 and 1 images gives the
    logits, pooled maps and winning offsets of one micro-batch bitwise, and
    its gradients to 1e-12, the conv gradients being summed in another order.
    The stages run micro-batch by micro-batch, forward and backward. Every
    micro-batch pools through its variant's public wrapper, the call the
    benchmark's tracer probes, on the geometry `plan` gives."""
    rng = np.random.default_rng(23)
    params = {k: v + 0.1 * rng.standard_normal(v.shape)  # nonzero biases
              for k, v in nn.init_params(spec, shape, seed=23).items()}
    batch, labels = rng.normal(size=shape), rng.integers(0, 10, shape[0])
    stage_of = {id(params[f"conv{i}_w"]): i for i in (1, 2)}
    convs = record(nn, "conv2d_forward", "conv2d_backward")
    pools = record(pooling, "nirmal_forward", "max_pool2x2_forward", "max_pool_forward")

    def step(budget):
        convs.clear()
        pools.clear()
        with monkeypatch.context() as mp:
            mp.setattr(nn, "MICRO_BATCH_BYTES", budget)
            logits, cache = nn.model_forward(spec, params, batch)
            _, grad_logits = nn.softmax_cross_entropy(logits, labels)
            return logits, cache, nn.model_backward(spec, params, cache, grad_logits)

    def conv_calls():
        return [(c.name, stage_of[id(c.args["kernels"])], len(c.args["x"])) for c in convs]

    per_image = _micro_batch_bytes_per_image(spec, shape)
    ref_logits, ref_cache, ref_grads = step(shape[0] * per_image)
    assert conv_calls() == [("conv2d_forward", 1, 7), ("conv2d_forward", 2, 7),
                            ("conv2d_backward", 2, 7), ("conv2d_backward", 1, 7)]
    logits, cache, grads = step(3 * per_image)
    assert conv_calls() == [("conv2d_forward", stage, n) for n in (3, 3, 1) for stage in (1, 2)] + [
        ("conv2d_backward", stage, n) for n in (3, 3, 1) for stage in (2, 1)]
    wrapper = "nirmal_forward" if spec.pooling_variant == "nirmal" else "max_pool2x2_forward"
    assert [(c.name, len(c.args["x"])) for c in pools if c.name != "max_pool_forward"] == \
           [(wrapper, n) for n in (3, 3, 1) for _ in (1, 2)]
    assert [c.args["params"] for c in pools if c.name == "max_pool_forward"] == \
           [stage.pool for stage in nn.plan(spec, shape)] * 3

    assert logits.tobytes() == ref_logits.tobytes()
    assert cache.conv_inputs[0] is batch
    for got, want in zip(cache.conv_inputs, ref_cache.conv_inputs, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for got, want in zip(cache.pool_caches, ref_cache.pool_caches, strict=True):
        assert got.params == want.params and got.input_hw == want.input_hw
        assert got.win.dtype == want.win.dtype and got.win.tobytes() == want.win.tobytes()
        assert (got.relu_out is None) == (want.relu_out is None)
        assert got.relu_out is None or got.relu_out.tobytes() == want.relu_out.tobytes()
    assert set(grads) == set(ref_grads)
    for key in ref_grads:
        _assert_close(grads[key], ref_grads[key], 1e-12)


def test_forward_records_hold_only_what_they_decide():
    """A Stage holds what `plan` decides. A ForwardCache comes whole from
    model_forward, and no field of it can be rebound before backward."""
    assert tuple(f.name for f in dataclasses.fields(nn.Stage)) == ("pool", "target", "relu")
    with pytest.raises(TypeError):
        nn.ForwardCache()
    spec = nn.ModelSpec()
    params = nn.init_params(spec, (2, 28, 28, 1), seed=0)
    _, cache = nn.model_forward(spec, params, np.zeros((2, 28, 28, 1)))
    for f in dataclasses.fields(cache):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cache, f.name, getattr(cache, f.name))


@pytest.mark.parametrize("placement", nn.PLACEMENTS)
@pytest.mark.parametrize("variant", nn.VARIANTS)
def test_empty_batch_forward_runs_every_stage(record, variant, placement):
    """An empty batch is one empty micro-batch through every conv stage."""
    spec = nn.ModelSpec(pooling_variant=variant, activation_placement=placement)
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    calls = record(nn, "conv2d_forward")
    logits, cache = nn.model_forward(spec, params, np.zeros((0, 28, 28, 1)))
    assert logits.shape == (0, 10)
    assert cache.micro_batches == [slice(0, 0)]
    assert [c.args["x"].shape[::3] for c in calls] == [(0, 1), (0, 32)]
    assert cache.flat_input_shape == (0, 5, 5, 64)


@pytest.mark.parametrize("placement", nn.PLACEMENTS)
@pytest.mark.parametrize("variant", nn.VARIANTS)
def test_empty_batch_backward_gives_zero_gradients(variant, placement):
    spec = nn.ModelSpec(pooling_variant=variant, activation_placement=placement)
    params = nn.init_params(spec, (1, 28, 28, 1), seed=0)
    _, cache = nn.model_forward(spec, params, np.zeros((0, 28, 28, 1)))
    grads = nn.model_backward(spec, params, cache, np.zeros((0, 10)))
    assert set(grads) == set(params)
    for key, value in params.items():
        assert grads[key].shape == value.shape and not grads[key].any()


def test_training_step_builds_no_full_batch_conv_output():
    """One training step at the CIFAR shape allocates, at its peak, less
    than conv1's output for the whole batch (64x29x29x32 float64, 13.8 MB)."""
    spec = nn.ModelSpec(activation_placement="after_conv", pool_targets=((14, 14), (5, 5)))
    shape = (64, 32, 32, 3)
    rng = np.random.default_rng(24)
    params = nn.init_params(spec, shape, seed=24)
    batch, labels = rng.uniform(size=shape), rng.integers(0, 10, shape[0])
    state = optim.init_adam(params)
    conv1_output = shape[0] * math.prod(nn.plan(spec, shape)[0].pool.footprint) * 32 * 8
    assert conv1_output == 13_778_944
    tracemalloc.start()
    try:
        harness.train_step(spec, params, state, batch, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < conv1_output


# The benchmark's three steps: training at MNIST shape (halving) and at CIFAR
# shape (overlapping targets), and a max2x2 eval forward; with the images per
# micro-batch that MICRO_BATCH_BYTES was tuned on, so a batch of 64 ends in a
# 1-image micro-batch.
CONV_CALL_CASES = [
    pytest.param(nn.ModelSpec(), (64, 28, 28, 1), True, [7] * 9 + [1], id="mnist_train"),
    pytest.param(nn.ModelSpec(activation_placement="after_conv", pool_targets=((14, 14), (5, 5))),
                 (64, 32, 32, 3), True, [7] * 9 + [1], id="cifar_train_overlap"),
    pytest.param(nn.ModelSpec(pooling_variant="max2x2"), (64, 28, 28, 1), False, [9] * 7 + [1],
                 id="mnist_eval"),
]


@pytest.mark.parametrize("spec, shape, train, sizes", CONV_CALL_CASES)
def test_every_conv_call_fits_the_micro_batch_budget(record, spec, shape, train, sizes):
    """Each conv2d_forward and conv2d_backward call's im2col matrix, ones
    column included, and its conv output or conv-output gradient fit in
    MICRO_BATCH_BYTES; every stage still sees every image once each way, in
    micro-batches of the sizes the budget was tuned on."""
    rng = np.random.default_rng(25)
    params = nn.init_params(spec, shape, seed=25)
    batch, labels = rng.uniform(size=shape), rng.integers(0, 10, shape[0])
    calls = record(nn, "conv2d_forward", "conv2d_backward")
    logits, cache = nn.model_forward(spec, params, batch)
    if train:
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        nn.model_backward(spec, params, cache, grad_logits)

    assert [s.stop - s.start for s in cache.micro_batches] == sizes
    for c in calls:
        x, kernels = c.args["x"], c.args["kernels"]
        out = c.result if c.name == "conv2d_forward" else c.args["grad_out"]
        cols_bytes = math.prod(out.shape[:3]) * (kernels[..., 0].size + 1) * x.itemsize
        assert cols_bytes <= nn.MICRO_BATCH_BYTES and out.nbytes <= nn.MICRO_BATCH_BYTES
    for name in ("conv2d_forward", "conv2d_backward") if train else ("conv2d_forward",):
        for c_in in (shape[3], *spec.conv_filters[:-1]):
            assert sum(len(c.args["x"]) for c in calls
                       if (c.name, c.args["kernels"].shape[2]) == (name, c_in)) == shape[0]


@st.composite
def model_case(draw, max_side=32):
    """A spec of 0-3 conv stages, either variant and placement, and per-stage
    targets of None or up to the input size, with an input shape of 8 to
    `max_side` px."""
    h, w = draw(st.integers(8, max_side)), draw(st.integers(8, max_side))
    stages = draw(st.integers(0, 3))
    target = st.none() | st.tuples(st.integers(1, h), st.integers(1, w))
    placement = st.sampled_from([None, "after_conv", "pool_only"])
    spec = nn.ModelSpec(pooling_variant=draw(st.sampled_from(["nirmal", "max2x2"])),
                        activation_placement=draw(placement),
                        conv_filters=(2,) * stages, dense_units=(4, 3),
                        pool_targets=tuple(draw(target) for _ in range(stages)))
    return spec, (1, h, w, draw(st.integers(1, 2)))


@settings(deadline=None)
@given(model_case())
def test_property_init_sizes_match_forward(case):
    spec, shape = case
    try:
        params = nn.init_params(spec, shape, seed=0)
    except ValueError:
        return  # a stage's map is too small for the next conv or pool
    batch = np.random.default_rng(0).normal(size=(2, *shape[1:]))
    logits, cache = nn.model_forward(spec, params, batch)
    assert logits.shape == (2, spec.dense_units[-1])
    assert params["dense1_w"].shape[0] == math.prod(cache.flat_input_shape[1:])
    assert [s.pool for s in nn.plan(spec, shape)] == [pc.params for pc in cache.pool_caches]


def _oracle_network(spec, params, batch, grad_logits):
    """Logits and parameter gradients of `spec`'s network composed from the
    oracles: each conv over its whole input, with no crop; then
    nirmal_oracle, or max_pool_oracle after a ReLU under after_conv; a ReLU
    between dense layers. The gradients back-propagate `grad_logits`."""
    conv_inputs, pools = [], []  # per stage: its input; its conv output, window and fusion
    x = batch
    for idx in range(1, len(spec.conv_filters) + 1):
        conv_inputs.append(x)
        conv = oracles.conv2d_oracle(x, params[f"conv{idx}_w"], params[f"conv{idx}_b"])
        _, h, w, _ = conv.shape
        if spec.pooling_variant == "nirmal":
            target = spec.pool_targets[idx - 1] or (max(1, h // 2), max(1, w // 2))
            window, fused = oracles.pool_params_oracle(h, w, *target), True
            x = oracles.nirmal_oracle(conv, *target)
        else:
            window, fused = (2, 2, 2, 2), spec.activation_placement == "after_conv"
            x = oracles.max_pool_oracle(np.maximum(conv, 0.0) if fused else conv, *window)
        pools.append((conv, window, fused))
    pooled_shape, x = x.shape, x.reshape(len(x), -1)
    dense_inputs, last = [], len(spec.dense_units)
    for idx in range(1, last + 1):
        dense_inputs.append(x)
        x = x @ params[f"dense{idx}_w"] + params[f"dense{idx}_b"]
        if idx < last:
            x = np.maximum(x, 0.0)
    logits, grads, g = x, {}, grad_logits
    for idx in range(last, 0, -1):
        x = dense_inputs[idx - 1]
        grads[f"dense{idx}_w"], grads[f"dense{idx}_b"] = x.T @ g, g.sum(axis=0)
        g = g @ params[f"dense{idx}_w"].T
        if idx > 1:
            g = g * (x > 0.0)
    g = g.reshape(pooled_shape)
    for idx in range(len(spec.conv_filters), 0, -1):
        conv, window, fused = pools[idx - 1]
        g = oracles.pool_backward_oracle(conv, g, *window, fused)
        g, grads[f"conv{idx}_w"], grads[f"conv{idx}_b"] = oracles.conv2d_backward_oracle(
            conv_inputs[idx - 1], params[f"conv{idx}_w"], g)
    return logits, grads


@settings(deadline=None, max_examples=60)
@given(model_case(max_side=16), st.integers(0, 2**16))
def test_property_network_matches_the_oracle_network(case, seed):
    """Every network ModelSpec accepts, up to 16 px, on a batch of 3: logits
    and gradients to 1e-12 of the oracle network's, also when the batch runs
    as micro-batches of 2 and 1; float32 logits to 1e-4 of the largest
    logit. Split batches are not bitwise: with 2-filter convs, BLAS rounds a
    GEMM of fewer rows differently."""
    spec, shape = case
    shape = (3, *shape[1:])
    try:
        params = nn.init_params(spec, shape, seed=0)
    except ValueError:
        return  # a stage's map is too small for the next conv or pool
    rng = np.random.default_rng(seed)
    params = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in params.items()}
    batch = rng.normal(size=shape)
    labels = rng.integers(0, spec.dense_units[-1], shape[0])

    def step():
        logits, cache = nn.model_forward(spec, params, batch)
        _, grad_logits = nn.softmax_cross_entropy(logits, labels)
        return logits, cache, grad_logits, nn.model_backward(spec, params, cache, grad_logits)

    logits, _, grad_logits, grads = step()
    want_logits, want_grads = _oracle_network(spec, params, batch, grad_logits)
    _assert_close(logits, want_logits, 1e-12)
    assert set(grads) == set(want_grads)
    for key, want in want_grads.items():
        _assert_close(grads[key], want, 1e-12)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "MICRO_BATCH_BYTES", 2 * _micro_batch_bytes_per_image(spec, shape))
        split_logits, split_cache, _, split_grads = step()
    if spec.conv_filters:
        assert [s.stop - s.start for s in split_cache.micro_batches] == [2, 1]
    _assert_close(split_logits, logits, 1e-12)
    for key, want in grads.items():
        _assert_close(split_grads[key], want, 1e-12)

    params32 = {k: v.astype(np.float32) for k, v in params.items()}
    logits32, _ = nn.model_forward(spec, params32, batch.astype(np.float32))
    assert logits32.dtype == np.float32
    _assert_close(logits32, want_logits, 1e-4)


def test_init_params_runs_no_conv_or_pool(monkeypatch):
    """init_params sizes every layer from the plan alone."""
    def fail(*args, **kwargs):
        raise AssertionError("init_params ran a layer")

    for module, name in ((nn, "conv2d_forward"), (pooling, "max_pool_forward"),
                         (pooling, "nirmal_forward"), (pooling, "max_pool2x2_forward")):
        monkeypatch.setattr(module, name, fail)
    for variant in ("nirmal", "max2x2"):
        spec = nn.ModelSpec(pooling_variant=variant, pool_targets=((14, 14), (5, 5)))
        params = nn.init_params(spec, (1, 32, 32, 3), seed=0)
        last = nn.plan(spec, (1, 32, 32, 3))[-1].pool
        assert params["dense1_w"].shape == (last.out_h * last.out_w * 64, 128)


def test_model_spec_placement_defaults_to_the_variant():
    assert nn.ModelSpec().activation_placement == "pool_only"
    assert nn.ModelSpec(pooling_variant="max2x2").activation_placement == "after_conv"


def _logits_and_grads(variant, placement, batch, labels):
    spec = nn.ModelSpec(pooling_variant=variant, activation_placement=placement)
    params = nn.init_params(spec, batch.shape, seed=16)
    logits, cache = nn.model_forward(spec, params, batch)
    _, grad_logits = nn.softmax_cross_entropy(logits, labels)
    grads = nn.model_backward(spec, params, cache, grad_logits)
    return [logits.tobytes()] + [grads[k].tobytes() for k in sorted(grads)]


@pytest.mark.parametrize("input_shape", [(4, 28, 28, 1), (4, 32, 32, 3)])
def test_nirmal_placements_give_the_same_network(input_shape):
    # relu(max(x)) = max(relu(x)): a ReLU after the conv and the ReLU fused
    # after the pool give bitwise-equal logits and gradients.
    rng = np.random.default_rng(15)
    batch, labels = rng.normal(size=input_shape), rng.integers(0, 10, input_shape[0])
    assert (_logits_and_grads("nirmal", "after_conv", batch, labels)
            == _logits_and_grads("nirmal", "pool_only", batch, labels))


def test_max2x2_after_conv_is_the_fused_pool():
    # On even maps halving gives 2x2/s2 windows, so max2x2 under after_conv is
    # nirmal's network; under pool_only it keeps negative maxima.
    rng = np.random.default_rng(17)
    batch = rng.normal(size=(4, 10, 10, 1))  # conv 8 -> pool 4 -> conv 2 -> pool 1
    labels = rng.integers(0, 10, 4)
    fused = _logits_and_grads("nirmal", "pool_only", batch, labels)
    assert _logits_and_grads("max2x2", "after_conv", batch, labels) == fused
    assert _logits_and_grads("max2x2", "pool_only", batch, labels)[0] != fused[0]


def test_model_spec_validation():
    with pytest.raises(ValueError):
        nn.ModelSpec(pooling_variant="avg")
    with pytest.raises(ValueError):
        nn.ModelSpec(activation_placement="everywhere")
    with pytest.raises(ValueError):
        nn.ModelSpec(dense_units=())
    with pytest.raises(ValueError):
        nn.ModelSpec(conv_filters=(8,), pool_targets=(None, None))
    # Targets are checked under either variant, though max2x2 ignores them.
    for variant in ("nirmal", "max2x2"):
        for target in ((0, 0), (2.5, 3), (3,), (True, 3), (3, -1), [3, 3], "33"):
            with pytest.raises(ValueError):
                nn.ModelSpec(pooling_variant=variant, pool_targets=(target,))
        assert nn.ModelSpec(pooling_variant=variant, pool_targets=((1, 7), None))


@pytest.mark.parametrize("layers", [
    {"conv_filters": (0, 64)}, {"conv_filters": (-1, 64)}, {"conv_filters": (2.5, 64)},
    {"conv_filters": (True, 64)}, {"dense_units": (0, 10)}, {"dense_units": (128, 0)},
    {"dense_units": (128, 10.0)},
])
def test_model_spec_rejects_a_layer_width_that_is_not_a_positive_int(layers):
    """Each would otherwise fail later, in init_params or numpy, or build a
    network with no logits."""
    with pytest.raises(ValueError, match="is not an int >= 1"):
        nn.ModelSpec(**layers)


@pytest.mark.parametrize("variant", ["nirmal", "max2x2"])
@pytest.mark.parametrize("placement", ["after_conv", "pool_only"])
def test_float32_step_returns_only_float32(variant, placement):
    """Dtype follows the input: float32 params and batch give float32
    logits, activations, gradients, params and Adam moments. The moments are
    updated in place, so a float64 gradient would be cast silently; each
    gradient is checked before Adam sees it. 13x13 inputs give the NIRMAL
    stage overlapping 3x3 stride-2 windows."""
    rng = np.random.default_rng(5)
    spec = nn.ModelSpec(pooling_variant=variant, activation_placement=placement,
                        conv_filters=(4, 6), dense_units=(8, 10))
    x = rng.uniform(size=(3, 13, 13, 2)).astype(np.float32)
    params = {k: v.astype(np.float32) for k, v in nn.init_params(spec, x.shape, seed=0).items()}
    logits, cache = nn.model_forward(spec, params, x)
    _, grad_logits = nn.softmax_cross_entropy(logits, rng.integers(0, 10, 3))
    grads = nn.model_backward(spec, params, cache, grad_logits)
    state = optim.init_adam(params)
    new_params = optim.adam_step(params, grads, state)
    arrays = [logits, grad_logits, *cache.conv_inputs, *cache.dense_inputs,
              *grads.values(), *new_params.values(), *state.m.values(), *state.v.values()]
    arrays += [pc.relu_out for pc in cache.pool_caches if pc.relu_out is not None]
    assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
    assert set(grads) == set(params)
