"""Tensor op semantics and the taped backward pass."""

import inspect
import math
import os
import platform
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tempqt import gradcheck
from tempqt import tensor as T
from tempqt.encoder import ModelConfig, encoder_block, encoder_params
from tempqt.errors import ArgumentError, DimensionError, TrainingError
from tempqt.params import ParamStore, fill
from tempqt.rng import CounterRng


def leaf(values, dtype=np.float64):
    return T.Tensor(values, requires_grad=True, dtype=dtype)


def run_backward(build):
    """Run build() under a tape, backprop, and return its result."""
    with T.Tape() as tape:
        loss = build()
        T.backward(loss, tape)
    return loss


# ---------------------------------------------------------------------------
# forward semantics


def test_dtype_follows_inputs():
    a32 = T.constant(np.ones((2, 2), dtype=np.float32))
    a64 = T.constant(np.ones((2, 2)), dtype=np.float64)
    assert T.add(a32, a32).dtype == np.float32
    assert T.add(a64, a64).dtype == np.float64
    assert T.gelu(a64).dtype == np.float64


def test_scalar_broadcast_and_shape_guard():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(T.mul(a, 2.0).data, [[2, 4], [6, 8]])
    b = T.constant([1.0, 2.0])
    with pytest.raises(DimensionError):
        T.add(a, b)
    with pytest.raises(DimensionError):
        T.mul(a, b)


def test_elementwise_values():
    a = T.constant([-2.0, 0.0, 3.0], dtype=np.float64)
    assert np.allclose(T.abs_(a).data, [2, 0, 3])
    assert np.allclose(T.square(a).data, [4, 0, 9])
    assert np.isclose(T.mean(a).item(), 1.0 / 3.0)
    assert np.isclose(T.sum_(a).item(), 1.0)


def test_gelu_known_values():
    # exact gelu: x * Phi(x); Phi(0)=0.5, Phi(1)=0.8413447
    x = T.constant([0.0, 1.0, -1.0], dtype=np.float64)
    got = T.gelu(x).data
    assert np.allclose(got, [0.0, 0.8413447460685429, -0.15865525393145707], atol=1e-12)
    # a 0-d float32 array takes the float32 kernel too
    assert abs(float(T.gelu(T.constant(np.float32(1.0))).data) - 0.8413447460685429) <= 4e-7


GELU_F32_TOL = 4e-7  # |error| / max(1, |x|), forward and gradient, float32 kernel
SIGMOID_F32_TOL = 1.2e-7  # absolute, float32 against the float64 logistic


def normal_cdf64(x64):
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x64])


# 1,088 elements is a tiny-config activation, 48,005 the whole point set
@pytest.mark.parametrize("size, count", [(1, 1024), (64, 64), (1088, 8), (48005, 1)])
def test_gelu_float32_accuracy(size, count):
    # count float32 arrays of size elements each, one kernel for every
    # size, cover the special points and an even grid on [-12, 12]
    x = np.concatenate([[0.0, -0.0, 1e4, -1e4], np.linspace(-12.0, 12.0, size * count - 4)])
    x = x.astype(np.float32)
    x64 = x.astype(np.float64)
    cdf = normal_cdf64(x64)
    ref_out = x64 * cdf
    ref_grad = cdf + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)
    scale = np.maximum(1.0, np.abs(x64))
    outs, grads = [], []
    for part in np.split(x, count):
        a = leaf(part, dtype=np.float32)
        with T.Tape() as tape:
            y = T.gelu(a)
            T.backward(T.sum_(y), tape)  # g = 1
        outs.append(y.data)
        grads.append(a.grad)
    out, grad = np.concatenate(outs), np.concatenate(grads)
    assert out.dtype == np.float32 and grad.dtype == np.float32
    assert (np.abs(out - ref_out) / scale).max() <= GELU_F32_TOL
    assert (np.abs(grad - ref_grad) / scale).max() <= GELU_F32_TOL


def test_sigmoid_float32_accuracy():
    # beyond |x| = 89 a float32 exp overflows; the warnings-as-errors
    # filter turns any RuntimeWarning into a failure
    x = np.concatenate([np.linspace(-40.0, 40.0, 80001), [0.0, -0.0, 1e4, -1e4]]).astype(np.float32)
    x64 = x.astype(np.float64)
    e = np.exp(-np.abs(x64))
    ref = np.where(x64 >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    y = T.sigmoid(T.constant(x)).data
    assert y.dtype == np.float32
    assert np.abs(y - ref).max() <= SIGMOID_F32_TOL
    assert y.min() >= 0.0 and y.max() <= 1.0


def test_prelu_and_sigmoid():
    x = T.constant([-2.0, 3.0], dtype=np.float64)
    slope = T.constant(0.25, dtype=np.float64)
    assert np.allclose(T.prelu(x, slope).data, [-0.5, 3.0])
    s = T.sigmoid(T.constant([0.0, 100.0, -100.0], dtype=np.float64)).data
    assert np.allclose(s, [0.5, 1.0, 0.0], atol=1e-12)


def test_matmul_transpose_reshape_concat_slice():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]], dtype=np.float64)
    b = T.constant([[5.0], [6.0]], dtype=np.float64)
    assert np.allclose(T.matmul(a, b).data, [[17.0], [39.0]])
    assert np.allclose(T.transpose(a).data, [[1, 3], [2, 4]])
    assert T.reshape(a, (4,)).shape == (4,)
    with pytest.raises(DimensionError):  # 65536^4 = 2^64 wraps to 0 in int64
        T.reshape(T.constant(np.zeros(0)), (65536,) * 4)
    c = T.concat([a, a], axis=0)
    assert c.shape == (4, 2)
    assert np.allclose(T.slice_rows(c, 2, 4).data, a.data)
    assert np.allclose(T.slice_cols(a, 1, 2).data, [[2.0], [4.0]])
    with pytest.raises(DimensionError):
        T.matmul(a, T.constant(np.ones((3, 3))))
    with pytest.raises(DimensionError):  # the weight is shared, never batched
        T.matmul(a, T.constant(np.ones((1, 2, 1))))


def test_linear_is_xw_plus_b():
    x = T.constant([[1.0, 2.0]], dtype=np.float64)
    w = T.constant([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=np.float64)
    b = T.constant([10.0, 20.0, 30.0], dtype=np.float64)
    assert np.allclose(T.linear(x, w, b).data, [[11.0, 22.0, 33.0]])


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-30, 30),
    )
)
@settings(max_examples=100)
def test_softmax_rows_sum_to_one_nonneg(x):
    out = T.softmax_rows(T.constant(x, dtype=np.float64)).data
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(2, 8)),
        elements=st.floats(-5, 5),
    )
)
@settings(max_examples=100)
def test_layer_norm_statistics(x):
    d = x.shape[1]
    g = T.constant(np.ones(d), dtype=np.float64)
    b = T.constant(np.zeros(d), dtype=np.float64)
    out = T.layer_norm(T.constant(x, dtype=np.float64), g, b).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    # normalized variance is v/(v+eps), approaching 1 for well-spread rows
    v = x.var(axis=1)
    assert np.allclose(out.var(axis=1), v / (v + 1e-5), atol=1e-9)


def test_conv2d_3x3_identity_kernel():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    out = T.conv2d_3x3(
        T.constant(x, dtype=np.float64),
        T.constant(k, dtype=np.float64),
        T.constant(np.zeros(1), dtype=np.float64),
    )
    assert np.allclose(out.data, x)


def test_bilinear_resize_known_values():
    x = T.constant([[[[0.0, 1.0]]]], dtype=np.float64)  # (1,1,1,2)
    out = T.bilinear_resize(x, 1, 4).data[0, 0, 0]
    # align-corners-false grid: sample centers at 0, .5, 1, 1.5 of input scale
    assert out[0] == pytest.approx(0.0)
    assert out[-1] == pytest.approx(1.0)
    assert np.all(np.diff(out) >= -1e-12)
    same = T.bilinear_resize(x, 1, 2).data
    assert np.allclose(same, x.data)


def conv_reference(x, w, b):
    """Plain numpy 3x3 conv, zero padding 1: the sum of nine shifted channel mixes."""
    h, wid = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = sum(
        np.einsum("oc,bchw->bohw", w[:, :, di, dj], xp[:, :, di : di + h, dj : dj + wid])
        for di in range(3)
        for dj in range(3)
    )
    return out + b[:, None, None]


@pytest.mark.parametrize("shape", [(2, 3, 6, 5), (8, 64, 8, 8)])
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-6)])
def test_conv2d_3x3_matches_numpy_reference(shape, dtype, tol):
    rng = np.random.default_rng(1)
    x, w, b = (rng.normal(size=s).astype(dtype) for s in (shape, (16, shape[1], 3, 3), (16,)))
    got = T.conv2d_3x3(*(T.constant(a, dtype=dtype) for a in (x, w, b))).data
    expect = conv_reference(*(a.astype(np.float64) for a in (x, w, b)))
    assert got.dtype == dtype and got.shape == expect.shape
    # float64 to an absolute 1e-12; float32 to 1e-6 of the largest entry
    atol = tol if dtype == np.float64 else tol * np.abs(expect).max()
    assert np.allclose(got, expect, rtol=0.0, atol=atol)


@pytest.mark.parametrize(
    "shape,mid,out",
    [
        ((2, 3, 4, 5), 9, 7), ((1, 2, 8, 8), 32, 64), ((2, 1, 6, 6), 6, 6),
        ((2, 3, 4, 5), None, 7), ((2, 3, 4, 5), 9, None),
    ],
)
def test_conv2d_3x3_resized_is_resize_conv_resize(shape, mid, out):
    # a None skips that resize, so the plain conv keeps a non-square map
    rng = np.random.default_rng(0)
    x, w, b = (rng.normal(size=s) for s in (shape, (2, shape[1], 3, 3), (2,)))
    inner = x if mid is None else T.bilinear_resize(T.constant(x, dtype=np.float64), mid, mid).data
    expect = conv_reference(inner, w, b)
    if out is not None:
        expect = T.bilinear_resize(T.constant(expect, dtype=np.float64), out, out).data
    got = T.conv2d_3x3(*(T.constant(a, dtype=np.float64) for a in (x, w, b)), mid, out).data
    assert got.shape == expect.shape
    assert np.allclose(got, expect, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bsz, d, grid", [(8, 16, 4), (1, 32, 4), (5, 64, 2)])
def test_conv2d_3x3_on_a_transposed_view_equals_it_on_a_copy(bsz, d, grid):
    # the decoder's conv input is a view of (B, N, d) tokens; at these
    # shapes, the tiny config's and two others, OpenBLAS rounds a product
    # with a transposed operand differently, so the conv must read the
    # view as it reads a contiguous copy, forward and gradients
    rng = CounterRng(8)
    values = [
        rng.normal(math.prod(s)).reshape(s).astype(np.float32)
        for s in ((bsz, grid * grid, d), (max(1, d // 4), d, 3, 3), (max(1, d // 4),))
    ]

    def conv(x):
        w, b = leaf(values[1], np.float32), leaf(values[2], np.float32)
        with T.Tape() as tape:
            out = T.conv2d_3x3(x, w, b)
            loss = T.sum_(T.square(out))
        T.backward(loss, tape)
        return [out.data, w.grad, b.grad]

    view = T.reshape(T.transpose(T.constant(values[0])), (bsz, d, grid, grid))
    assert not view.data.flags.c_contiguous
    copy = T.constant(np.ascontiguousarray(view.data))
    assert copy.data.flags.c_contiguous
    for got, expect in zip(conv(view), conv(copy)):
        assert np.array_equal(got, expect)


def test_conv2d_3x3_rejects_bad_shapes():
    def make(*shape):
        return T.constant(np.zeros(shape))

    x, w, b = make(2, 3, 4, 4), make(1, 3, 3, 3), make(1)
    for args in [
        (make(3, 4, 4), w, b),  # no batch axis
        (x, make(1, 3, 2, 2), b),  # not a 3x3 kernel
        (x, make(1, 2, 3, 3), b),  # channel count differs
        (x, w, make(2)),  # one bias per output channel
    ]:
        for sizes in [(), (8, 8)]:
            with pytest.raises(DimensionError):
                T.conv2d_3x3(*args, *sizes)
    for sizes in [(0, 8), (8, 0), (0, None)]:
        with pytest.raises(ArgumentError, match="positive"):
            T.conv2d_3x3(x, w, b, *sizes)


def test_global_average_pool_regions():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, :2, :2] = 1.0
    t = T.constant(x, dtype=np.float64)
    assert T.global_average_pool(t, 1).data == pytest.approx(0.25)
    g2 = T.global_average_pool(t, 2).data.reshape(4)
    assert np.allclose(g2, [1.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# autodiff mechanics


def test_backward_simple_chain():
    x = leaf([2.0, -3.0])
    run_backward(lambda: T.sum_(T.square(x)))
    assert np.allclose(x.grad, [4.0, -6.0])


def test_grad_accumulates_across_uses():
    x = leaf([1.0])
    run_backward(lambda: T.add(T.sum_(x), T.sum_(x)))
    assert np.allclose(x.grad, [2.0])


def test_constants_and_untaped_ops_carry_no_grad():
    c = T.constant([1.0, 2.0])
    out = T.add(c, c)  # no tape active
    assert not out.requires_grad and not out.needs_grad
    x = leaf([1.0, 2.0])
    y = T.mul(x, x)  # still off-tape: nothing recorded
    with T.Tape() as tape:
        loss = T.sum_(T.mul(x, x))
        T.backward(loss, tape)
    assert np.allclose(x.grad, [2.0, 4.0])
    assert y.grad is None


def test_zero_grads_clears():
    x = leaf([3.0])
    run_backward(lambda: T.sum_(x))
    assert x.grad is not None
    T.zero_grads([x])
    assert x.grad is None


def test_backward_requires_scalar_loss():
    x = leaf([1.0, 2.0])
    with T.Tape() as tape:
        y = T.square(x)
        with pytest.raises((ArgumentError, DimensionError)):
            T.backward(y, tape)


def test_nested_tapes_are_rejected_or_isolated():
    # the innermost tape records; a second tape nests cleanly
    x = leaf([2.0])
    with T.Tape() as outer:
        a = T.square(x)
        with T.Tape() as inner:
            b = T.square(x)
            T.backward(T.sum_(b), inner)
        inner_grad = x.grad.copy()
        T.zero_grads([x])
        T.backward(T.sum_(a), outer)
    assert np.allclose(inner_grad, [4.0])
    assert np.allclose(x.grad, [4.0])


def test_backward_replays_a_tape_once():
    x = leaf([2.0])
    with T.Tape() as tape:
        loss = T.sum_(T.square(x))
    T.backward(loss, tape)
    with pytest.raises(ArgumentError, match="tape was already replayed"):
        T.backward(loss, tape)
    assert np.allclose(x.grad, [4.0])  # the first replay's gradient, once
    # a loss that is itself a leaf records no node, and its tape still replays once
    y, empty = leaf([1.0]), T.Tape()
    T.backward(y, empty)
    with pytest.raises(ArgumentError, match="tape was already replayed"):
        T.backward(y, empty)
    assert np.allclose(y.grad, [1.0])


def test_backward_frees_what_each_op_saved_and_keeps_the_tape_length():
    x = leaf(np.linspace(-1.0, 1.0, 6))
    with T.Tape() as tape:
        loss = T.sum_(T.gelu(T.mul(x, 3.0)))
    # mul's output: only the tape and gelu's closure hold it
    saved = weakref.ref(tape.nodes[0].out.data)
    n = len(tape.nodes)
    T.backward(loss, tape)
    assert saved() is None
    assert len(tape.nodes) == n


@pytest.mark.parametrize("shape", [(3, 4), (2, 5, 4)])
def test_linear_is_one_node_equal_to_matmul_plus_row_bias(shape):
    rng = CounterRng(3)
    values = [rng.normal(math.prod(s)).reshape(s).astype(np.float32) for s in (shape, (4, 6), (6,))]

    def run(build):
        leaves = [leaf(v, np.float32) for v in values]
        with T.Tape() as tape:
            out = build(*leaves)
            loss = T.sum_(T.square(out))
        n = len(tape.nodes)
        T.backward(loss, tape)
        return n, out.data, [t.grad for t in leaves]

    n, out, grads = run(T.linear)
    n2, out2, grads2 = run(lambda x, w, b: T.add_row_bias(T.matmul(x, w), b))
    assert (n, n2) == (3, 4)  # linear, square and sum_
    assert np.array_equal(out, out2)
    for g, g2 in zip(grads, grads2):
        assert g.dtype == g2.dtype and np.array_equal(g, g2)
    bad = T.constant(np.zeros(5, dtype=np.float32))
    with pytest.raises(DimensionError, match="linear bias"):
        T.linear(T.constant(values[0]), T.constant(values[1]), bad)


def _mlp_composed(x, ln_g, ln_b, w1, b1, w2, b2):
    return T.add(x, T.linear(T.gelu(T.linear(T.layer_norm(x, ln_g, ln_b), w1, b1)), w2, b2))


@pytest.mark.parametrize("shape", [(2, 65, 64), (2, 1, 64)])
@pytest.mark.parametrize("x_feeds_more", [False, True])
def test_mlp_residual_is_one_node_equal_to_the_composed_ops(shape, x_feeds_more):
    # (B, N, d) tokens and the token-only block's (B, 1, d) row; with
    # x_feeds_more x also reaches the loss past the block, as a pem layer's
    # tokens reach the decoder, so its three gradient terms must add in
    # the order five separate nodes add them
    d = shape[-1]
    shapes = (shape, (d,), (d,), (d, 4 * d), (4 * d,), (4 * d, d), (d,))
    rng = CounterRng(5)
    values = [rng.normal(math.prod(s)).reshape(s).astype(np.float32) for s in shapes]
    values[1] += 1.0  # norm gain near one
    probe = T.constant(rng.normal(math.prod(shape)).reshape(shape).astype(np.float32))

    def run(build):
        leaves = [leaf(v, np.float32) for v in values]
        with T.Tape() as tape:
            out = build(*leaves)
            loss = T.sum_(T.mul(out, probe))
            if x_feeds_more:
                loss = T.add(loss, T.sum_(T.square(leaves[0])))
        n = len(tape.nodes)
        T.backward(loss, tape)
        return n, out.data, [t.grad for t in leaves]

    n, out, grads = run(T.mlp_residual)
    n2, out2, grads2 = run(_mlp_composed)
    assert n2 - n == 4  # five nodes became one
    assert np.array_equal(out, out2)
    assert len(grads) == 7
    for g, g2 in zip(grads, grads2):
        assert g.dtype == g2.dtype and np.array_equal(g, g2)


def test_mlp_residual_keeps_no_normalized_input_or_gelu_output():
    rng = CounterRng(6)
    x = leaf(rng.normal(2 * 5 * 8).reshape(2, 5, 8), np.float32)
    shapes = ((8,), (8,), (8, 32), (32,), (32, 8), (8,))
    params = [leaf(rng.normal(math.prod(s)).reshape(s), np.float32) for s in shapes]
    with T.Tape() as tape:
        T.mlp_residual(x, *params)
    (node,) = tape.nodes
    assert node.inputs[:2] == (x, x)  # the residual first, then the layer norm
    closure = node.backward.__closure__
    saved = [c.cell_contents for c in closure if isinstance(c.cell_contents, np.ndarray)]
    # x-hat (B, N, d), the inverse std (B, N, 1), m1 and Phi(m1) (B, N, 4d),
    # plus the parameters' own arrays; nothing else of activation size
    activations = sorted(a.shape for a in saved if a.ndim == 3)
    assert activations == [(2, 5, 1), (2, 5, 8), (2, 5, 32), (2, 5, 32)]
    with pytest.raises(DimensionError, match="mlp_residual"):
        T.mlp_residual(x, *params[:2], params[4], params[3], params[4], params[5])
    with pytest.raises(DimensionError, match="mlp_residual"):
        T.mlp_residual(T.constant(np.zeros(8, dtype=np.float32)), *params)


def test_transpose_is_a_view_with_the_same_gradient():
    rng = CounterRng(4)
    a = leaf(rng.normal(2 * 3 * 5).reshape(2, 3, 5))
    probe = rng.normal(2 * 5 * 3).reshape(2, 5, 3)
    with T.Tape() as tape:
        out = T.transpose(a)
        loss = T.sum_(T.mul(out, T.constant(probe, dtype=np.float64)))
    assert np.shares_memory(out.data, a.data)
    assert np.array_equal(out.data, np.swapaxes(a.data, -1, -2))
    T.backward(loss, tape)
    assert np.array_equal(a.grad, np.swapaxes(probe, -1, -2))


def test_abs_gradient_at_zero_is_zero():
    x = leaf([0.0])
    run_backward(lambda: T.sum_(T.abs_(x)))
    assert np.allclose(x.grad, [0.0])


def test_attention_takes_fewer_queries_than_keys():
    x = CounterRng(7).normal(2 * 5 * 4).reshape(2, 5, 4)
    k, v = T.constant(x), T.constant(x[:, ::-1])
    full, full_w = T.attention(T.constant(x), k, v, 2)
    one, one_w = T.attention(T.constant(x[:, :1]), k, v, 2)
    assert one.shape == (2, 1, 4) and one_w.shape == (2, 2, 1, 5)
    assert np.allclose(one.data, full.data[:, :1], atol=1e-6)
    assert np.allclose(one_w, full_w[:, :, :1], atol=1e-6)
    for shape in [(1, 5, 4), (2, 5, 6), (5, 4)]:  # batch, width, rank
        bad = T.constant(np.zeros(shape))
        with pytest.raises(DimensionError):
            T.attention(T.constant(x[:, :1]), bad, bad, 2)
    with pytest.raises(DimensionError):  # keys and values differ in length
        T.attention(T.constant(x[:, :1]), k, T.constant(x[:, :3]), 2)


def test_item_requires_single_element():
    with pytest.raises(DimensionError):
        T.constant([1.0, 2.0]).item()


def test_finite_check_names_the_op_and_its_tape_node():
    x = leaf(np.ones((1, 1, 3, 3)))
    w = leaf(np.ones((1, 1, 3, 3)))
    b = leaf([0.0])
    with T.Tape() as tape:
        y = T.add(x, x)  # tape node 0, finite
        b.data[0] = np.inf  # an Inf injected between add and conv2d_3x3
        loss = T.sum_(T.conv2d_3x3(y, w, b))
    with pytest.raises(TrainingError, match=r"non-finite value from conv2d_3x3 \(tape node 1\)"):
        T.backward(loss, tape)
    assert x.grad is None and w.grad is None and b.grad is None  # nothing accumulated
    # a NaN leaf is no taped output, so there is no op to name
    with pytest.raises(TrainingError, match=r"^non-finite loss$"):
        T.backward(leaf(np.nan), T.Tape())


def test_every_taped_op_names_itself():
    # backward's non-finite message and bench/tracer.py both read the op
    # from the closure's qualname, e.g. "conv2d_3x3.<locals>.bwd"
    for name, case in gradcheck.CASES.items():
        _leaves, forward = case(CounterRng(0))
        with T.Tape() as tape:
            forward()
        assert tape.nodes, name
        for node in tape.nodes:
            op = node.backward.__qualname__.split(".", 1)[0]
            fn = getattr(T, op, None)
            assert inspect.isfunction(fn) and fn.__module__ == T.__name__, (name, op)


def test_softmax_gradient_matches_closed_form():
    x = leaf([[1.0, 2.0, 3.0]])
    w = T.constant([[1.0], [0.0], [0.0]], dtype=np.float64)
    run_backward(lambda: T.sum_(T.matmul(T.softmax_rows(x), w)))
    s = np.exp([1.0, 2.0, 3.0])
    s /= s.sum()
    expect = s * (np.array([1.0, 0.0, 0.0]) - s[0])
    assert np.allclose(x.grad, expect.reshape(1, 3), atol=1e-12)


# ---------------------------------------------------------------------------
# attention's keys-major layout


def reference_attention(q, k, v, heads):
    """float64 softmax(q k^T / sqrt(dh)) v, row-major: (B, M, d) output, (B, heads, M, N) weights."""
    b, m, d = q.shape
    dh = d // heads

    def split(a):
        return a.astype(np.float64).reshape(b, a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    logits = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(dh)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return (w @ vh).transpose(0, 2, 1, 3).reshape(b, m, d), w


def attention_inputs(m, seed=0):
    """float32 (2, m, 64) queries over (2, 65, 64) keys and values, 4 heads of 16."""
    rng = CounterRng(seed)
    q, k, v = (rng.normal(2 * rows * 64).reshape(2, rows, 64).astype(np.float32) for rows in (m, 65, 65))
    return q, k, v


@pytest.mark.parametrize("m", [65, 1])
def test_attention_matches_row_major_float64_reference(m):
    q, k, v = attention_inputs(m)
    out, weights = T.attention(T.constant(q), T.constant(k), T.constant(v), 4)
    ref_out, ref_w = reference_attention(q, k, v, 4)
    assert out.dtype == np.float32 and weights.shape == (2, 4, m, 65)
    # measured at this seed: 5.1e-7 (M = 65) and 1.1e-7 (M = 1) on the output, 1.7e-7 and 2.5e-8 on
    # the weights; at most 1.1e-6 and 2.4e-7 over seeds 0-19
    assert np.abs(out.data - ref_out).max() <= 2e-6
    assert np.abs(weights - ref_w).max() <= 1e-6
    assert np.allclose(weights.sum(axis=-1, dtype=np.float64), 1.0, atol=1e-6)


@pytest.mark.parametrize("token_only", [False, True])
def test_encoder_block_captures_the_reference_attention(token_only):
    cfg = ModelConfig()  # d = 64, 4 heads; 64 patches plus the token give N = 65
    store = ParamStore()
    fill(store, encoder_params(cfg, "pqt"), CounterRng(3))
    x = CounterRng(4).normal(2 * 65 * 64).reshape(2, 65, 64).astype(np.float32)
    _out, weights = encoder_block(T.constant(x), store, cfg, "pqt", 1, token_only=token_only)

    p = {name: t.data.astype(np.float64) for name, t in store.items()}
    xd = x.astype(np.float64)
    xn = (xd - xd.mean(axis=-1, keepdims=True)) / np.sqrt(xd.var(axis=-1, keepdims=True) + 1e-5)
    xn = xn * p["pqt.block1.ln1.g"] + p["pqt.block1.ln1.b"]
    q = xn[:, :1] @ p["pqt.block1.attn.wq"] + p["pqt.block1.attn.bq"]
    k = xn @ p["pqt.block1.attn.wk"]
    v = xn @ p["pqt.block1.attn.wv"] + p["pqt.block1.attn.bv"]
    _ref_out, w = reference_attention(q, k, v, cfg.heads)
    assert weights.shape == (2, cfg.heads, 1 if token_only else 65, 65)
    # the token's row, which the quality branch hands on per block
    assert np.abs(weights[:, :, 0] - w[:, :, 0]).max() <= 1e-6
    assert np.allclose(weights[:, :, 0].sum(axis=-1, dtype=np.float64), 1.0, atol=1e-6)


@pytest.mark.parametrize("m", [65, 1])
def test_attention_leaves_its_inputs_unchanged(m):
    q, k, v = (leaf(a, np.float32) for a in attention_inputs(m, seed=5))
    before = [t.data.copy() for t in (q, k, v)]
    g = CounterRng(6).normal(2 * m * 64).reshape(2, m, 64).astype(np.float32)
    g_before = g.copy()
    with T.Tape() as tape:
        out, weights = T.attention(q, k, v, 4)
    w_before = weights.copy()
    tape.nodes[-1].backward(g)
    for t, data in zip((q, k, v), before):
        assert np.array_equal(t.data, data)
    assert np.array_equal(g, g_before)  # backward may share g with other inputs
    assert np.array_equal(weights, w_before)  # the caller's weights outlive the backward


def test_layer_norm_leaves_its_inputs_unchanged():
    rng = CounterRng(7)
    x = leaf(rng.normal(2 * 65 * 64).reshape(2, 65, 64), np.float32)
    gamma, beta = leaf(rng.normal(64), np.float32), leaf(rng.normal(64), np.float32)
    before = [t.data.copy() for t in (x, gamma, beta)]
    g = rng.normal(2 * 65 * 64).reshape(2, 65, 64).astype(np.float32)
    g_before = g.copy()
    with T.Tape() as tape:
        T.layer_norm(x, gamma, beta)
    tape.nodes[-1].backward(g)
    for t, data in zip((x, gamma, beta), before):
        assert np.array_equal(t.data, data)
    assert np.array_equal(g, g_before)


# ---------------------------------------------------------------------------
# step memory and the allocator policy

# one default-config stage-1 step, step(), on one fixed batch of 8
STAGE1_STEP = """
import numpy as np
from tempqt import tensor as T
from tempqt.encoder import ModelConfig
from tempqt.imaging import ImageBatch
from tempqt.supervision import PemLossConfig, compute_oem, pem_loss
from tempqt.training import AdamState, adam_step, build_store, forward_pem, param_table, stage1

cfg = ModelConfig()
store = build_store(stage1(param_table(cfg)), 0)
state = AdamState(store)
rng = np.random.default_rng(0)
ref = ImageBatch(rng.random((8, 64, 64)))
dist = ImageBatch(np.clip(ref.pixels + 0.1 * rng.standard_normal((8, 64, 64)), 0.0, 1.0))
oem = compute_oem(dist, ref)

def step():
    with T.Tape() as tape:
        loss = pem_loss(forward_pem(dist, store, cfg), oem, dist, ref, PemLossConfig())
    T.backward(loss, tape)
    adam_step(state, 1e-4, 0.0)
    T.zero_grads(store.tensors())
"""

# the minor page faults per step over the steps after the warm-up
STAGE1_FAULTS = STAGE1_STEP + """
import resource
for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""

# the tracemalloc peak of one step after a warm-up step, in MiB
PEAK = """
import tracemalloc
step()
tracemalloc.start()
step()
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""
STAGE1_PEAK = STAGE1_STEP + PEAK

# one default-config stage-2 step on one fixed batch of 8: the frozen
# error-map branch runs untaped, the quality branch and head train
STAGE2_STEP = """
import numpy as np
from tempqt import tensor as T
from tempqt.encoder import ModelConfig
from tempqt.imaging import ImageBatch
from tempqt.quality import quality_loss
from tempqt.training import (
    AdamState, adam_step, build_store, frozen_features, param_table, score_crops, stage1,
)

cfg = ModelConfig()
table = param_table(cfg)
store = build_store(table, 0, frozen=build_store(stage1(table), 0).arrays())
state = AdamState(store)
rng = np.random.default_rng(0)
patches = ImageBatch(rng.random((8, 64, 64)))
targets = np.linspace(0.1, 0.9, 8, dtype=np.float32)

def step():
    with T.Tape() as tape:
        features = frozen_features(patches, store, cfg)
        loss = quality_loss(score_crops(patches, features, store, cfg, "both", False), targets)
    T.backward(loss, tape)
    adam_step(state, 1e-4, 0.0)
    T.zero_grads(store.tensors())
"""
STAGE2_PEAK = STAGE2_STEP + PEAK


def run_src(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this checkout's tempqt."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="the malloc policy is set through glibc's mallopt",
)
def test_stage1_step_reuses_freed_memory_without_page_faults():
    # glibc's defaults give each freed activation back to the kernel, and
    # a step then faults 2,900 or more pages back in
    assert float(run_src(STAGE1_FAULTS)) < 100


def test_stage1_step_holds_only_what_its_backward_reads():
    # 24.5 MiB when linear was two nodes, whose pre-bias products the tape
    # kept, backward freed nothing until the sweep ended, and Adam kept its
    # gradient and scratch buffers between steps; 18.2 MiB without all
    # three; 14.2 MiB once each block's MLP half is one node that keeps no
    # normalized input, GELU output or pre-residual sum, and transpose
    # and the decoder's conv input are views of the tokens
    assert float(run_src(STAGE1_PEAK)) < 16


def test_stage2_step_holds_only_what_its_backward_reads():
    # 12.9 MiB with five nodes per MLP half, 10.9 MiB with one
    assert float(run_src(STAGE2_PEAK)) < 12


def _no_libc(name):
    raise OSError(f"{name}: cannot open shared object file")


def _sample_ops():
    x = T.constant(np.linspace(-2.0, 2.0, 24).reshape(2, 3, 4))
    w = T.constant(np.linspace(0.5, -0.5, 20).reshape(4, 5))
    return T.softmax_rows(T.gelu(T.matmul(x, w))).data


def test_malloc_policy_is_a_no_op_without_mallopt(monkeypatch):
    before = _sample_ops()
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: SimpleNamespace())
    T._set_malloc_policy()
    monkeypatch.setattr(T.ctypes, "CDLL", _no_libc)
    T._set_malloc_policy()
    assert np.array_equal(_sample_ops(), before)


def test_malloc_policy_sets_both_thresholds(monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: libc)
    T._set_malloc_policy()
    # mmap first, then trim; either alone leaves the faults in
    assert calls == [(-3, T.MALLOC_MMAP_THRESHOLD), (-1, T.MALLOC_TRIM_THRESHOLD)]
