"""Dense tensors with taped reverse-mode differentiation.

numpy arrays hold the values; every backward rule is written out
explicitly against the recorded inputs. A ``Tape`` collects operations
in execution order while active, and ``backward`` replays the tape in
reverse, accumulating gradients into every ``requires_grad`` leaf that
the loss reaches. A tape replays once: the sweep releases each node as
it passes it, so what the node's backward saved is freed during the
sweep, and the replayed tape keeps one spent entry per op. Ops executed
with no active tape produce plain constants, which is the inference
path. No op scans for NaN or Inf: ``backward`` checks the loss, once
per step, and names the first taped op whose output went non-finite.

float32 is the working precision. All ops follow the dtype of their
inputs, so the finite-difference harness can run a float64 shadow of
the same code paths, with one exception: ``gelu`` takes the normal CDF
of every float32 array from a float32 rational kernel, and of a float64
array, which only the harness and the reference tests use, from
``math.erf``. The package needs numpy alone.

Model tensors are batch-first: tokens are (B, N, d), feature maps
(B, C, H, W), and a single image is a batch of one. The shaped ops act
on the trailing axes and carry any leading axes through: ``matmul``
multiplies the last axis by a shared (k, m) weight, ``linear`` does the
same and adds an (m,) bias in one op, ``transpose`` swaps the last two
axes and returns a view, ``slice_rows`` and ``slice_cols`` cut axis -2
and -1, ``softmax_rows`` and ``layer_norm`` normalize the last axis,
``attention`` runs multi-head attention of (B, M, d) queries over
(B, N, d) keys and values, and ``mlp_residual`` is a transformer
block's MLP half, x + linear(gelu(linear(layer_norm(x)))), as one op.

``mlp_residual`` keeps what its backward cannot cheaply rebuild: the
layer norm's x-hat and inverse std, the pre-activation m1 and Phi(m1).
Its backward rebuilds the normalized input and the GELU output with the
forward's own expressions, which gives the forward's bits back. Each
formula it shares with ``layer_norm``, ``gelu`` and ``linear`` (layer
norm statistics and gradients, GELU's derivative, a linear map's three
gradients) lives in one private helper that all of them call, so the
fused op equals the composed ops bit for bit.

The two kernels every transformer block runs, ``attention`` and
``layer_norm``, are bound by elementwise and reduction passes, not by
FLOPs, so they are laid out for numpy's fast reductions. ``attention``
holds its weights keys-major, (B, heads, N, M), so the softmax reduces
across rows (axis -2), which numpy does about three times faster than
along a short contiguous last axis; callers still see (B, heads, M, N)
through a view. ``layer_norm`` takes its row statistics with
``np.einsum``, one pass each and no temporary. Both then work in place
on arrays they allocated themselves, never on an input or on the
gradient passed to their backward, which other ops may share.

The spatial ops take (B, C, H, W). ``conv2d_3x3`` is the one 3x3 conv.
It may resize bilinearly before and after the conv, and it runs as nine
channel mixes between fixed per-axis matrices that hold the resizes and
the tap shifts, so no resized map is built. ``bilinear_resize`` resizes
on its own, and ``global_average_pool`` pools to a small grid.

Three ops have no caller in the package outside ``gradcheck.CASES``:
``softmax_rows``, ``slice_cols`` and ``bilinear_resize``
(``quality.extract_attention_map`` resizes with ``_resize_matrix``
directly). They stay only because ``bench/tracer.py`` names them and
``tests/test_bench_targets.py`` checks that every tracer target exists.
ROADMAP item 8 removes them with the tracer's entries.

Broadcasting is deliberately limited. ``add`` and ``sub`` take two
tensors of equal shape; ``mul`` also takes a plain number. ``matmul``'s
2-D weight meets every leading index of its left operand, and
``add_row_bias`` adds a bias shaped like x's trailing axes to every
leading index. Every other pairing needs equal shapes. Each of these
ops sums its gradient back over the axes it broadcast.

Importing this module sets the C allocator's policy once: with glibc,
arrays up to ``MALLOC_MMAP_THRESHOLD`` bytes come from the heap, and
freed heap memory stays mapped until ``MALLOC_TRIM_THRESHOLD`` bytes of
it are free. A training step's activations then reuse the pages the
previous step freed. Where the C library has no ``mallopt`` (not
glibc), nothing is set. No value computed here depends on it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np

from .errors import ArgumentError, DimensionError, TrainingError

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
_LN_EPS = 1e-5  # layer_norm's variance floor

# Eigen's float erf: erf(t) ~ t * A(t^2) / B(t^2) on |t| <= 4, which is
# +-1 in float32 beyond; coefficients lowest power first.
_ERF_A = (
    -1.60960333262415e-02, -2.95459980854025e-03, -7.34990630326855e-04, -5.69250639462346e-05,
    -2.10102402082508e-06, 2.77068142495902e-08, -2.72614225801306e-10,
)
_ERF_B = (
    -1.42647390514189e-02, -7.37332916720468e-03, -1.68282697438203e-03, -2.13374055278905e-04,
    -1.45660718464996e-05,
)
# Phi(x) = 0.5 + 0.5 * erf(x / sqrt2). With t = z / sqrt2 the powers of
# 1/2 and the outer 0.5 / sqrt2 fold into the coefficients, so that
# Phi = 0.5 + z * P(z^2) / Q(z^2) with z = clip(x, +-4 sqrt2). float32,
# highest power first, for Horner's rule.
_PHI_P = tuple(np.float32(0.5 / _SQRT2 * c / 2.0**k) for k, c in enumerate(_ERF_A))[::-1]
_PHI_Q = tuple(np.float32(c / 2.0**k) for k, c in enumerate(_ERF_B))[::-1]
_PHI_CLAMP = 4.0 * _SQRT2
_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise math.erf, for float64 arrays

# By default glibc serves large arrays with mmap and trims the heap top,
# so memory a training step frees goes back to the kernel and the next
# forward zero-fills it again: a default-config stage-1 step (B = 8) took
# 2,900-8,200 minor page faults on a 2-vCPU x86 host, and none with both
# values below. Either alone still faults, 1,500-10,600 times per step,
# because any mallopt call turns off glibc's dynamic thresholds. 32 MiB
# is the ceiling of glibc's dynamic mmap threshold on 64-bit hosts;
# 256 MiB bounds the freed memory kept.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 256 << 20
_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers, from glibc's malloc.h
_M_MMAP_THRESHOLD = -3


def _set_malloc_policy() -> None:
    """Apply the two thresholds above through glibc's mallopt, if there is one."""
    if os.name != "posix":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no handle on the C library, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MALLOC_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, MALLOC_TRIM_THRESHOLD)


_set_malloc_policy()


class Tensor:
    """A dense float array plus an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "needs_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.array(data, dtype=dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        # needs_grad marks tensors the backward sweep must visit: leaves
        # that require grad, and anything computed from one on a tape.
        self.needs_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Execution-ordered record of differentiable operations; ``backward`` replays it once."""

    __slots__ = ("nodes", "replayed")

    def __init__(self):
        self.nodes = []
        self.replayed = False

    def __enter__(self):
        _tapes.append(self)
        return self

    def __exit__(self, *exc):
        _tapes.pop()
        return False


# active tapes, innermost last
_tapes: list = []


def _active_tape():
    return _tapes[-1] if _tapes else None


def _emit(arr: np.ndarray, inputs: tuple, backward) -> Tensor:
    """Wrap a computed array, recording the op if a tape is active."""
    tape = _active_tape()
    track = tape is not None and any(t.needs_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.requires_grad = False
    out.needs_grad = track
    if track:
        tape.nodes.append(_Node(out, inputs, backward))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Reverse sweep: accumulate d(loss)/d(leaf) into leaf.grad.

    A tape replays once. The sweep releases each node as it passes it, so
    the arrays that node's backward closure saved are freed during the
    sweep, not after it; the replayed tape keeps one spent entry per op,
    and replaying it again raises ArgumentError. A non-finite loss raises
    TrainingError, naming the first non-finite tape node, before any
    gradient is touched.
    """
    if loss.data.size != 1:
        raise ArgumentError(f"backward needs a scalar loss, shape is {loss.shape}")
    if not loss.needs_grad:
        raise ArgumentError("loss is not connected to any requires_grad tensor on the tape")
    if tape.replayed:
        raise ArgumentError("tape was already replayed")
    if not np.isfinite(loss.data).all():
        for i, node in enumerate(tape.nodes):
            if not np.isfinite(node.out.data).all():
                # the backward closure's qualname names the op, e.g. "conv2d_3x3.<locals>.bwd"
                op = node.backward.__qualname__.split(".", 1)[0]
                raise TrainingError(f"non-finite loss: first non-finite value from {op} (tape node {i})")
        raise TrainingError("non-finite loss")
    tape.replayed = True
    # Tensor hashes by identity, so each tensor keys its own gradient
    grads = {loss: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        out, inputs, bwd = node.out, node.inputs, node.backward
        node.out = node.inputs = node.backward = None
        g = grads.pop(out, None)
        if g is None:
            continue
        for inp, gi in zip(inputs, bwd(g)):
            if gi is None or not inp.needs_grad:
                continue
            grads[inp] = grads[inp] + gi if inp in grads else gi
    for leaf, g in grads.items():
        if not leaf.requires_grad:
            continue
        if leaf.grad is None:
            leaf.grad = np.array(g, dtype=leaf.data.dtype)
        else:
            leaf.grad = leaf.grad + g


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def constant(data, dtype=np.float32) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def _as_scalar(x) -> float | None:
    if isinstance(x, (int, float, np.floating, np.integer)):
        return float(x)
    return None


def _check_same_shape(a: Tensor, b: Tensor, name: str) -> None:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{name} needs equal shapes, got {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        return _emit(a.data * s, (a,), lambda g: (g * s,))
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def abs_(a: Tensor) -> Tensor:
    ad = a.data
    # subgradient 0 at the kink
    return _emit(np.abs(ad), (a,), lambda g: (g * np.sign(ad),))


def square(a: Tensor) -> Tensor:
    ad = a.data
    return _emit(ad * ad, (a,), lambda g: (g * (2.0 * ad),))


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    val = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def bwd(g):
        return (np.full(a.data.shape, g / n, dtype=a.data.dtype),)

    return _emit(val, (a,), bwd)


def sum_(a: Tensor) -> Tensor:
    val = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bwd(g):
        return (np.full(a.data.shape, g, dtype=a.data.dtype),)

    return _emit(val, (a,), bwd)


def _normal_cdf_f32(x: np.ndarray) -> np.ndarray:
    """Phi(x) of a float32 array from the clamped rational; 4 temporaries, other passes in place."""
    # not np.clip, whose Python wrapper costs 3 us a call, more than the
    # two passes on an array of a few thousand elements
    z = np.minimum(np.maximum(x, np.float32(-_PHI_CLAMP)), np.float32(_PHI_CLAMP))
    z2 = z * z
    p = z2 * _PHI_P[0]
    for c in _PHI_P[1:-1]:
        p += c
        p *= z2
    p += _PHI_P[-1]
    q = z2 * _PHI_Q[0]
    for c in _PHI_Q[1:-1]:
        q += c
        q *= z2
    q += _PHI_Q[-1]
    p *= z
    p /= q
    p += 0.5
    return p


def _normal_cdf(a: np.ndarray) -> np.ndarray:
    """Phi(a): ``_normal_cdf_f32`` for float32, ``math.erf`` elementwise otherwise."""
    if a.dtype == np.float32:
        return _normal_cdf_f32(a)
    phi = np.array(_erf(a * (1.0 / _SQRT2)), dtype=a.dtype)
    phi += 1.0
    phi *= 0.5
    return phi


def _gelu_grad(g: np.ndarray, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gradient at a of a * Phi(a), given g at the output and phi = Phi(a)."""
    pdf = np.exp(-0.5 * a * a) * _INV_SQRT_2PI
    return g * (phi + a * pdf)


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), with Phi the standard normal CDF (the exact GELU).

    float32 arrays, whatever their size, take Phi from
    ``_normal_cdf_f32``: Eigen's float erf rational (odd numerator to
    x^13 over even denominator to x^8), clamped at |x| = 4 sqrt2, with no
    transcendental call. Its forward stays within 4e-7 * max(1, |x|) of
    x * Phi(x) in float64, and so does its gradient (tests/test_tensor.py).
    float64 arrays take Phi from ``math.erf``, one element at a time. The
    backward is g * (Phi + x * pdf(x)) with the exact Gaussian pdf.
    """
    ad = a.data
    phi = _normal_cdf(ad)
    return _emit(ad * phi, (a,), lambda g: (_gelu_grad(g, ad, phi),))


def prelu(a: Tensor, slope: Tensor) -> Tensor:
    """Parametric ReLU with one shared slope (a scalar tensor)."""
    if slope.data.size != 1:
        raise DimensionError(f"prelu slope must be a scalar, shape is {slope.shape}")
    ad = a.data
    s = float(slope.data.reshape(()))
    pos = ad > 0
    out = np.where(pos, ad, s * ad)

    def bwd(g):
        ga = np.where(pos, g, g * s) if a.needs_grad else None
        gs = None
        if slope.needs_grad:
            gs = np.asarray((g * np.where(pos, 0.0, ad)).sum(), dtype=slope.data.dtype)
            gs = gs.reshape(slope.data.shape)
        return (ga, gs)

    return _emit(out.astype(ad.dtype, copy=False), (a, slope), bwd)


def sigmoid(a: Tensor) -> Tensor:
    """0.5 * tanh(x / 2) + 0.5, which cannot overflow, computed in place."""
    y = np.tanh(a.data * 0.5)
    y *= 0.5
    y += 0.5

    def bwd(g):
        return (g * (y * (1.0 - y)),)

    return _emit(y, (a,), bwd)


# ---------------------------------------------------------------------------
# structural ops


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y; a 2-D y meets every leading index of x in one flat matmul."""
    if y.ndim == 2 and x.ndim > 2:
        return (x.reshape(-1, x.shape[-1]) @ y).reshape(*x.shape[:-1], y.shape[-1])
    return x @ y


def _grad_left(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient at x of x @ w, given g at the product."""
    return _mm(g, w.T)


def _grad_weight(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the shared 2-D w of x @ w, summed over x's leading axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _grad_bias(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient at a bias of the given trailing shape, summed over g's leading axes."""
    return g.reshape((-1,) + shape).sum(axis=0)


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, the bias added in place to the product."""
    out = _mm(x, w)
    out += b
    return out


def _check_matmul(a: Tensor, b: Tensor, name: str) -> None:
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise DimensionError(f"{name} needs (..., k) @ (k, m), got {a.shape} and {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"{name} inner dims differ: {a.shape} x {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, m): one shared 2-D weight for every leading index of a."""
    _check_matmul(a, b, "matmul")
    ad, bd = a.data, b.data

    def bwd(g):
        ga = _grad_left(g, bd) if a.needs_grad else None
        gb = _grad_weight(ad, g) if b.needs_grad else None
        return (ga, gb)

    return _emit(_mm(ad, bd), (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes, as a view of a's data."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose needs at least 2 axes, got {a.shape}")
    return _emit(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    src_shape = a.data.shape
    return _emit(a.data.reshape(shape), (a,), lambda g: (g.reshape(src_shape),))


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ArgumentError("concat needs at least one tensor")
    ndim = parts[0].data.ndim
    if not 0 <= axis < ndim:
        raise DimensionError(f"concat axis {axis} out of range for ndim {ndim}")
    for p in parts[1:]:
        if p.data.ndim != ndim:
            raise DimensionError("concat operands must share ndim")
        for ax in range(ndim):
            if ax != axis and p.data.shape[ax] != parts[0].data.shape[ax]:
                raise DimensionError(
                    f"concat operands disagree off-axis: {parts[0].shape} vs {p.shape}"
                )
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def _slice_axis(a: Tensor, start: int, stop: int, axis: int, name: str) -> Tensor:
    n = a.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise DimensionError(f"{name}[{start}:{stop}] out of range for axis size {n}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def bwd(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _emit(np.ascontiguousarray(a.data[index]), (a,), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of axis -2."""
    if a.data.ndim < 2:
        raise DimensionError(f"slice_rows needs at least 2 axes, got {a.shape}")
    return _slice_axis(a, start, stop, a.data.ndim - 2, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of the last axis."""
    if a.data.ndim < 2:
        raise DimensionError(f"slice_cols needs at least 2 axes, got {a.shape}")
    return _slice_axis(a, start, stop, a.data.ndim - 1, "slice_cols")


def add_row_bias(x: Tensor, b: Tensor) -> Tensor:
    """x + b, where b's shape is x's trailing shape and repeats over the rest.

    An (n,) bias adds to every row of a (..., n) tensor; an (N, d)
    position table adds to every sample of a (B, N, d) stack.
    """
    k = b.data.ndim
    if k < 1 or x.data.ndim < k or x.data.shape[x.data.ndim - k :] != b.data.shape:
        raise DimensionError(f"add_row_bias shapes {x.shape} and {b.shape} do not align")

    def bwd(g):
        gx = g if x.needs_grad else None
        gb = _grad_bias(g, b.data.shape) if b.needs_grad else None
        return (gx, gb)

    return _emit(x.data + b.data, (x, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(..., k) @ (k, m) + b, with b of shape (m,), as one tape node.

    It equals ``add_row_bias(matmul(x, w), b)`` bit for bit, forward and
    gradients, but the bias is added in place to the product it owns, so
    the pre-bias product is never a tape output that lives until the
    backward. Its backward runs the two ops' expressions. Once replayed,
    the node is one spent entry on the tape, like every other op's.
    """
    _check_matmul(x, w, "linear")
    xd, wd, bd = x.data, w.data, b.data
    if bd.shape != wd.shape[1:]:
        raise DimensionError(f"linear bias must have shape ({wd.shape[1]},), got {b.shape}")

    def bwd(g):
        gx = _grad_left(g, wd) if x.needs_grad else None
        gw = _grad_weight(xd, g) if w.needs_grad else None
        gb = _grad_bias(g, bd.shape) if b.needs_grad else None
        return (gx, gw, gb)

    return _emit(_linear(xd, wd, bd), (x, w, b), bwd)


# ---------------------------------------------------------------------------
# normalization and attention kernels


def _softmax(a: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-shifted for stability."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of y = softmax(logits), given g at y."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    if x.data.ndim < 1 or x.data.shape[-1] < 1:
        raise DimensionError(f"softmax_rows needs a non-empty last axis, got {x.shape}")
    y = _softmax(x.data)
    return _emit(y, (x,), lambda g: (_softmax_vjp(y, g),))


def _ln_stats(x: np.ndarray) -> tuple:
    """(x-hat, inverse std) over the last axis; x-hat is a new array, the inverse std (..., 1)."""
    d = x.shape[-1]
    mu = np.einsum("...i->...", x)[..., None]
    mu /= d
    xhat = x - mu
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    var /= d
    var += _LN_EPS
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    return xhat, inv


def _ln_affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x-hat * gamma + beta, the layer norm's output."""
    out = xhat * gamma
    out += beta
    return out


def _ln_grads(g, xhat, inv, gamma, need_x: bool, need_gamma: bool, need_beta: bool) -> tuple:
    """(gx, ggamma, gbeta) of the layer norm, given g at its output; None where not needed."""
    d = xhat.shape[-1]
    g2, xhat2 = g.reshape(-1, d), xhat.reshape(-1, d)
    ggamma = np.einsum("ni,ni->i", g2, xhat2) if need_gamma else None
    gbeta = np.einsum("ni->i", g2) if need_beta else None
    gx = None
    if need_x:
        a = g * gamma
        a_mean = np.einsum("...i->...", a)[..., None]
        a_mean /= d
        ax_mean = np.einsum("...i,...i->...", a, xhat)[..., None]
        ax_mean /= d
        a -= a_mean
        a -= xhat * ax_mean
        a *= inv
        gx = a
    return (gx, ggamma, gbeta)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; scale and shift.

    The row mean and the two-pass variance of the centered rows are
    ``np.einsum`` reductions, one pass each with no temporary array: at
    (5, 64, 64) float32 the row sum took 8 us as an einsum against 23 us
    through ``mean`` (2-vCPU x86 host, numpy 2.4). The centered rows are
    then scaled in place into x-hat, which the backward keeps. The
    backward takes its two row means, and the gain and shift gradients,
    the same way, and updates its one buffer in place.
    """
    d = x.data.shape[-1] if x.data.ndim else 0
    if x.data.ndim < 1:
        raise DimensionError("layer_norm needs at least one axis")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise DimensionError(
            f"layer_norm gain/shift must have shape ({d},), got {gamma.shape} and {beta.shape}"
        )
    xhat, inv = _ln_stats(x.data)

    def bwd(g):
        return _ln_grads(g, xhat, inv, gamma.data, x.needs_grad, gamma.needs_grad, beta.needs_grad)

    return _emit(_ln_affine(xhat, gamma.data, beta.data), (x, gamma, beta), bwd)


def mlp_residual(
    x: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor
) -> Tensor:
    """x + linear(gelu(linear(layer_norm(x), w1, b1)), w2, b2) as one tape node.

    The MLP half of a pre-norm transformer block over (..., d) tokens,
    with a (d, h) and an (h, d) weight. It equals the five composed ops
    bit for bit, forward and gradients, and keeps only x-hat, the inverse
    std, the pre-activation m1 and Phi(m1). Its backward rebuilds the
    normalized input and the GELU output with the forward's own
    expressions, so the rebuilt values are the forward's bits, and runs
    each op's gradient helper in reverse. x is listed twice among the
    node's inputs, first for the residual and then for the layer norm, so
    ``backward`` adds the two gradients in the order two nodes would.
    """
    if x.data.ndim < 2:
        raise DimensionError(f"mlp_residual needs (..., d) tokens with a leading axis, got {x.shape}")
    d, h = x.data.shape[-1], w1.data.shape[-1]
    shapes = (ln_g.data.shape, ln_b.data.shape, w1.data.shape, b1.data.shape, w2.data.shape, b2.data.shape)
    if shapes != ((d,), (d,), (d, h), (h,), (h, d), (d,)):
        raise DimensionError(f"mlp_residual over width {d} got parameter shapes {shapes}")
    gd, bd, w1d, b1d, w2d, b2d = ln_g.data, ln_b.data, w1.data, b1.data, w2.data, b2.data
    xhat, inv = _ln_stats(x.data)
    m1 = _linear(_ln_affine(xhat, gd, bd), w1d, b1d)
    phi = _normal_cdf(m1)
    out = _linear(m1 * phi, w2d, b2d)
    out += x.data

    def bwd(g):
        gw2 = _grad_weight(m1 * phi, g) if w2.needs_grad else None
        gb2 = _grad_bias(g, b2d.shape) if b2.needs_grad else None
        gx = gg = gb = gw1 = gb1 = None
        need_ln = (x.needs_grad, ln_g.needs_grad, ln_b.needs_grad)
        if any(need_ln) or w1.needs_grad or b1.needs_grad:
            gm1 = _gelu_grad(_grad_left(g, w2d), m1, phi)
            gw1 = _grad_weight(_ln_affine(xhat, gd, bd), gm1) if w1.needs_grad else None
            gb1 = _grad_bias(gm1, b1d.shape) if b1.needs_grad else None
            if any(need_ln):
                gx, gg, gb = _ln_grads(_grad_left(gm1, w1d), xhat, inv, gd, *need_ln)
        return (g, gx, gg, gb, gw1, gb1, gw2, gb2)

    return _emit(out, (x, x, ln_g, ln_b, w1, b1, w2, b2), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int):
    """Multi-head scaled dot-product attention of (B, M, d) queries over (B, N, d) keys and values.

    The last axis splits into ``heads`` slices of width dh = d / heads;
    each head computes softmax(q k^T / sqrt(dh)) v over its slice, and
    the head outputs are merged back in order to (B, M, d). Returns the
    output tensor and the detached (B, heads, M, N) attention weights.
    M = N is self-attention; fewer queries than keys let a caller update
    only some rows while they still attend to every row.

    The weights are computed keys-major, as one (B, heads, N, M) buffer
    k (q / sqrt(dh))^T, so each query's softmax runs down a column: the
    max and the sum reduce over axis -2, and the shift, ``exp`` and
    divide run in place on that buffer. numpy reduces across the rows of
    a contiguous array much faster than along its short last axis: over
    (8, 4, 64, 64) float32, the max took 0.09 ms across rows against
    0.30 ms along them, and the sum 0.04 ms as an ``einsum`` against
    0.10 ms (2-vCPU x86 host, numpy 2.4, one thread). ``att @ v``, the
    returned weights and the backward read the buffer through
    ``swapaxes`` views, and the key and value gradients, glog^T q / sqrt(dh)
    and att^T g, are plain products of it. The tape keeps the weights and
    views of the inputs, nothing more.
    """
    qs, ks = q.data.shape, k.data.shape
    if len(qs) != 3 or len(ks) != 3 or v.data.shape != ks or (ks[0], ks[2]) != (qs[0], qs[2]):
        raise DimensionError(
            f"attention needs (B, M, d) queries and equal (B, N, d) keys and values, "
            f"got {q.shape}, {k.shape}, {v.shape}"
        )
    b, _m, d = qs
    if heads < 1 or d % heads != 0:
        raise ArgumentError(f"width {d} does not split into {heads} heads")
    dh = d // heads
    scale_ = 1.0 / float(np.sqrt(dh))

    def split(a):  # (B, rows, d) -> (B, heads, rows, dh)
        return a.reshape(b, a.shape[1], heads, dh).transpose(0, 2, 1, 3)

    def merge(a):  # (B, heads, rows, dh) -> (B, rows, d)
        return a.transpose(0, 2, 1, 3).reshape(b, a.shape[2], d)

    def merge_scaled(a):  # merge(a / sqrt(dh)), scaling a product the backward owns
        a *= scale_
        return merge(a)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the scaled copy of q is not kept: the backward scales its products instead
    att_t = kh @ np.swapaxes(qh * scale_, -1, -2)  # (B, heads, N, M): one column per query
    att_t -= att_t.max(axis=-2, keepdims=True)
    np.exp(att_t, out=att_t)
    att_t /= np.einsum("bhnm->bhm", att_t)[:, :, None]
    att = np.swapaxes(att_t, -1, -2)

    def bwd(g):
        gh = split(g)
        glog_t = vh @ np.swapaxes(gh, -1, -2)  # gradient at the weights, keys-major
        glog_t -= np.einsum("bhnm,bhnm->bhm", glog_t, att_t)[:, :, None]
        glog_t *= att_t  # now at the scaled logits
        gq = merge_scaled(np.swapaxes(glog_t, -1, -2) @ kh) if q.needs_grad else None
        gk = merge_scaled(glog_t @ qh) if k.needs_grad else None
        gv = merge(att_t @ gh) if v.needs_grad else None
        return (gq, gk, gv)

    return _emit(merge(att @ vh), (q, k, v), bwd), att


# ---------------------------------------------------------------------------
# spatial ops


@functools.cache
def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic interpolation matrix for one axis, half-pixel centers."""
    r = np.zeros((n_out, n_in), dtype=np.float64)
    ratio = n_in / n_out
    for o in range(n_out):
        s = (o + 0.5) * ratio - 0.5
        s = min(max(s, 0.0), n_in - 1.0)
        i0 = int(np.floor(s))
        i1 = min(i0 + 1, n_in - 1)
        frac = s - i0
        r[o, i0] += 1.0 - frac
        r[o, i1] += frac
    return r


def _rows_cols(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows @ a @ cols^T on every trailing plane, each side as one flat matmul."""
    t = np.swapaxes(_mm(a, cols.T), -1, -2)
    return np.ascontiguousarray(np.swapaxes(_mm(t, rows.T), -1, -2))


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Resize (B, C, H, W) to (B, C, out_h, out_w) with half-pixel bilinear sampling."""
    if x.data.ndim != 4:
        raise DimensionError(f"bilinear_resize input must be (B, C, H, W), got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ArgumentError(f"output size must be positive, got {out_h}x{out_w}")
    h, wid = x.data.shape[2:]
    ry = _resize_matrix(h, out_h).astype(x.data.dtype)
    rx = _resize_matrix(wid, out_w).astype(x.data.dtype)

    def bwd(g):
        return (_rows_cols(g, ry.T, rx.T),)

    return _emit(_rows_cols(x.data, ry, rx), (x,), bwd)


@functools.cache
def _fold_matrix(n_in: int, n_mid: int, n_out: int) -> np.ndarray:
    """[A_0 | A_1 | A_2], (n_out, 3 * n_in), with A_d = R(n_mid -> n_out) S_d R(n_in -> n_mid).

    R is ``_resize_matrix``. S_d takes row i + d - 1 of what it meets,
    and zero past either edge: tap d of a zero-padded 3x3 conv at n_mid.
    """
    padded = np.zeros((n_mid + 2, n_in), dtype=np.float64)
    padded[1:-1] = _resize_matrix(n_in, n_mid)
    down = _resize_matrix(n_mid, n_out)
    return np.concatenate([down @ padded[d : d + n_mid] for d in range(3)], axis=1)


def conv2d_3x3(x: Tensor, w: Tensor, b: Tensor, mid: int | None = None, out: int | None = None) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1, optionally between two bilinear resizes.

    x is (B, C_in, H, W), w is (C_out, C_in, 3, 3), b is (C_out,). With
    ``mid`` and ``out`` the op equals ``bilinear_resize(conv(
    bilinear_resize(x, mid, mid)), out, out)``. A ``None`` leaves that
    side unresized, per axis, so ``conv2d_3x3(x, w, b)`` is the plain
    conv at H x W and keeps a non-square shape.

    Both resizes and each zero-padded tap shift are fixed matrices per
    axis, so the op is the sum over taps (di, dj) of A_di (W_tap x) A_dj^T
    plus b, where A_d is an (out, H) matrix (``_fold_matrix``) and W_tap
    mixes the channels; with no resize, A_d is the 0/1 shift itself.
    Resize rows sum to 1, so the bias passes through unchanged. The
    forward stacks the nine channel mixes as the (3H, 3W) blocks of one
    plane per sample and output channel, and multiplies it by
    [A_0 | A_1 | A_2] on each side. Nothing is built at mid x mid. The
    fold matrices are dense, so the shifts cost O(H + W) per output pixel
    where a sliding window costs O(1); every model caller runs at the
    patch grid (at most 14 a side at paper scale), where that is small.
    """
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d_3x3 input must be (B, C, H, W), got {x.shape}")
    if w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise DimensionError(f"conv2d_3x3 weight must be (C_out, C_in, 3, 3), got {w.shape}")
    bsz, c_in, h, wid = x.data.shape
    c_out = w.data.shape[0]
    if w.data.shape[1] != c_in:
        raise DimensionError(f"conv weight expects {w.data.shape[1]} input channels, got {c_in}")
    if b.data.shape != (c_out,):
        raise DimensionError(f"conv bias must have shape ({c_out},), got {b.shape}")
    if (mid is not None and mid < 1) or (out is not None and out < 1):
        raise ArgumentError(f"resize sizes must be positive, got {mid} and {out}")

    def fold(n: int) -> np.ndarray:
        n_mid = n if mid is None else mid
        return _fold_matrix(n, n_mid, n_mid if out is None else out).astype(x.data.dtype)

    ay, ax = fold(h), fold(wid)

    def channels_major(a: np.ndarray) -> np.ndarray:
        """(B, C_in, H, W) as a C-ordered (C_in, B * H * W) matrix."""
        return np.ascontiguousarray(a.transpose(1, 0, 2, 3).reshape(c_in, bsz * h * wid))

    # channels lead, so one matmul mixes every tap over the whole batch;
    # rows of w9 run over (C_out, di, dj). Both products read x as the
    # same C-ordered copy whatever x's strides: on some shapes OpenBLAS
    # rounds a product with a transposed operand differently. The copy is
    # made where each product runs and not kept, since the node keeps x,
    # which may be a view of the caller's tokens
    xd = x.data
    w9 = w.data.transpose(0, 2, 3, 1).reshape(c_out * 9, c_in)
    taps = (w9 @ channels_major(xd)).reshape(c_out, 3, 3, bsz, h, wid)
    planes = taps.transpose(3, 0, 1, 4, 2, 5).reshape(bsz, c_out, 3 * h, 3 * wid)
    y = _rows_cols(planes, ay, ax)
    y += b.data[:, None, None]

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3)) if b.needs_grad else None
        gplanes = _rows_cols(g, ay.T, ax.T).reshape(bsz, c_out, 3, h, 3, wid)
        gtaps = gplanes.transpose(1, 2, 4, 0, 3, 5).reshape(c_out * 9, bsz * h * wid)
        gw = gx = None
        if w.needs_grad:
            gw = (gtaps @ channels_major(xd).T).reshape(c_out, 3, 3, c_in).transpose(0, 3, 1, 2)
        if x.needs_grad:
            gx = (w9.T @ gtaps).reshape(c_in, bsz, h, wid).transpose(1, 0, 2, 3)
        return (gx, gw, gb)

    return _emit(y, (x, w, b), bwd)


def global_average_pool(x: Tensor, grid: int = 1) -> Tensor:
    """Adaptive average pool of (B, C, H, W) to (B, C * grid * grid)."""
    if x.data.ndim != 4:
        raise DimensionError(f"global_average_pool input must be (B, C, H, W), got {x.shape}")
    bsz, c, h, wid = x.data.shape
    if not 1 <= grid <= min(h, wid):
        raise ArgumentError(f"grid must be in [1, {min(h, wid)}], got {grid}")
    bounds_h = [(int(np.floor(i * h / grid)), int(np.ceil((i + 1) * h / grid))) for i in range(grid)]
    bounds_w = [(int(np.floor(j * wid / grid)), int(np.ceil((j + 1) * wid / grid))) for j in range(grid)]
    out = np.empty((bsz, c, grid, grid), dtype=x.data.dtype)
    for i, (h0, h1) in enumerate(bounds_h):
        for j, (w0, w1) in enumerate(bounds_w):
            out[:, :, i, j] = x.data[:, :, h0:h1, w0:w1].mean(axis=(2, 3))

    def bwd(g):
        gg = g.reshape(bsz, c, grid, grid)
        gx = np.zeros_like(x.data)
        for i, (h0, h1) in enumerate(bounds_h):
            for j, (w0, w1) in enumerate(bounds_w):
                area = (h1 - h0) * (w1 - w0)
                gx[:, :, h0:h1, w0:w1] += gg[:, :, i, j][:, :, None, None] / area
        return (gx,)

    return _emit(out.reshape(bsz, c * grid * grid), (x,), bwd)
