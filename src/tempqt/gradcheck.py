"""Finite-difference verification of every backward rule.

Each registered case builds leaf tensors and a forward closure that
reduces to a scalar, then compares taped gradients against central
differences (step 1e-3) computed in float64. Cases cover every
differentiable op at least once (``conv2d_3x3`` and ``attention`` twice,
with and without a resize and with one query row or all of them) plus
composite graphs up to a full tiny two-branch model. Shaped ops run on
a batch of two, so the gradients they sum over broadcast and batch axes
are checked too. Inputs of abs, prelu and the fusion head's PReLU stay
off the kink at zero, where the subgradient and the secant disagree.

A case that applies one op to scaled normal leaves is one row of
``CASES``, built by ``_single_op`` from the op's name, its leaves'
shapes and its fixed arguments; a new op of that kind needs only a row.
Cases whose leaves are drawn otherwise, or that chain ops, keep their
own builder.

The error metric is scale-guarded: |analytic - numeric| divided by
max(1, |analytic|, |numeric|), so tiny gradients are judged by
absolute error and large ones relatively. Tolerance is 1e-3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decoder import decode
from .encoder import ModelConfig, encode, encoder_block, tiny_config
from .errors import ArgumentError
from .imaging import ImageBatch, make_texture
from .quality import fuse_and_predict, quality_loss
from .rng import CounterRng, derive_seed
from .supervision import PemLossConfig, compute_oem, pem_loss
from .tensor import Tape, Tensor, backward
from .training import build_store, forward_pem, frozen_features, param_table

STEP = 1e-3
TOLERANCE = 1e-3
_KINK_MARGIN = 5e-3


@dataclass
class CaseResult:
    name: str
    max_rel_err: float
    checked: int

    @property
    def ok(self) -> bool:
        return self.max_rel_err < TOLERANCE


def _normal(rng: CounterRng, shape) -> np.ndarray:
    size = int(np.prod(shape)) if shape else 1
    return rng.normal(size).reshape(shape)


def _leaf(rng: CounterRng, *shape, scale: float = 1.0) -> Tensor:
    return Tensor(_normal(rng, shape) * scale, requires_grad=True, dtype=np.float64)


def _model_store(rng: CounterRng, cfg: ModelConfig, *families):
    """float64 parameters of the given families (all by default), seeded from ``rng``."""
    table = param_table(cfg)
    chosen = {f: table[f] for f in families} if families else table
    return build_store(chosen, rng.randint(1 << 30), dtype=np.float64)


def _away_from_kink(t: Tensor) -> Tensor:
    """Shift entries out of the +-margin band around zero."""
    d = t.data
    small = np.abs(d) < _KINK_MARGIN
    sign = np.where(d >= 0.0, 1.0, -1.0)
    t.data = np.where(small, d + sign * (2.0 * _KINK_MARGIN), d)
    return t


def _head_off_kink(rng: CounterRng, store, features: Tensor, token: Tensor) -> None:
    """Shift ``fuse.mlp2.b1`` per hidden unit, to a side drawn at random, so that every
    row's PReLU pre-activation sits at least 0.05 off the kink (one row: 0.05 * side - pre)."""
    fused = T.add(T.linear(features, store["fuse.mlp1.w"], store["fuse.mlp1.b"]), token)
    pre = T.linear(fused, store["fuse.mlp2.w1"], store["fuse.mlp2.b1"]).data
    signs = np.where(_normal(rng, (pre.shape[-1],)) >= 0.0, 1.0, -1.0)
    nearest = np.where(signs > 0.0, pre.min(axis=0), pre.max(axis=0))
    store["fuse.mlp2.b1"].data += 0.05 * signs - nearest


def _projector(rng: CounterRng, shape):
    """Scalar reduction with a probe drawn once, so replays see one function."""
    probe = T.constant(_normal(rng, shape), dtype=np.float64)
    if shape == ():
        return lambda out: T.mul(out, probe)
    return lambda out: T.sum_(T.mul(out, probe))


# --- case builders ----------------------------------------------------------
# each returns (leaves, forward); forward recomputes the scalar loss from
# the leaves' current data, so it can be replayed for finite differences


def _single_op(op: str, *leaves, kink: bool = False, **fixed):
    """Case that applies ``tensor.<op>`` once to freshly drawn leaves.

    Each entry of ``leaves`` is a shape, or a ``(shape, scale)`` pair for
    a scaled normal; ``fixed`` holds the op's non-tensor arguments. With
    ``kink`` every leaf is moved off the kink at zero. The leaves are drawn
    in order, then the op runs once untaped for its output shape, and only
    then is the probe drawn. The op is looked up on the tensor module when
    the case runs, so a patched ``tensor.<op>`` is the one checked.
    """

    def case(rng):
        fn = getattr(T, op)
        args = []
        for spec in leaves:
            shape, scale = spec if isinstance(spec[0], tuple) else (spec, 1.0)
            leaf = _leaf(rng, *shape, scale=scale)
            args.append(_away_from_kink(leaf) if kink else leaf)

        def apply():
            out = fn(*args, **fixed)
            # attention also returns its weights
            return out[0] if isinstance(out, tuple) else out

        proj = _projector(rng, apply().shape)
        return args, lambda: proj(apply())

    return case


def _case_prelu(rng):
    a = _away_from_kink(_leaf(rng, 5, 3))
    slope = Tensor(np.array(0.25), requires_grad=True, dtype=np.float64)
    proj = _projector(rng, (5, 3))
    return [a, slope], lambda: proj(T.prelu(a, slope))


def _case_matmul(rng):
    # a batch times a shared weight, then times a second shared weight
    a, b, c = _leaf(rng, 2, 4, 6), _leaf(rng, 6, 3), _leaf(rng, 3, 5)
    proj = _projector(rng, (2, 4, 5))
    return [a, b, c], lambda: proj(T.matmul(T.matmul(a, b), c))


def _case_concat(rng):
    a, b, c = _leaf(rng, 2, 2, 5), _leaf(rng, 2, 3, 5), _leaf(rng, 2, 1, 5)
    proj = _projector(rng, (2, 6, 5))
    return [a, b, c], lambda: proj(T.concat([a, b, c], axis=1))


def _case_add_row_bias(rng):
    # a per-feature bias, then a per-token table, both repeated over the batch
    a, b, pos = _leaf(rng, 2, 5, 3), _leaf(rng, 3), _leaf(rng, 5, 3)
    proj = _projector(rng, (2, 5, 3))
    return [a, b, pos], lambda: proj(T.add_row_bias(T.add_row_bias(a, b), pos))


def _case_layer_norm(rng):
    x = _leaf(rng, 2, 5, 8)
    gamma = Tensor(1.0 + 0.1 * rng.normal(8), requires_grad=True, dtype=np.float64)
    beta = _leaf(rng, 8, scale=0.1)
    proj = _projector(rng, (2, 5, 8))
    return [x, gamma, beta], lambda: proj(T.layer_norm(x, gamma, beta))


# --- composites -------------------------------------------------------------


def _case_encoder_block(rng):
    cfg = tiny_config()
    store = _model_store(rng, cfg, "pem")
    x = _leaf(rng, 2, cfg.num_patches + 1, cfg.embed_dim, scale=0.5)
    proj = _projector(rng, (2, cfg.num_patches + 1, cfg.embed_dim))
    # only the first block runs, so only its parameters are leaves
    leaves = [x] + [t for name, t in store.items() if name.startswith("pem.block1.")]

    def forward():
        out, _weights = encoder_block(x, store, cfg, "pem", 1)
        return proj(out)

    return leaves, forward


def _case_decoder(rng):
    cfg = tiny_config()
    store = _model_store(rng, cfg, "dec")
    tokens = [_leaf(rng, 2, cfg.num_patches, cfg.embed_dim, scale=0.5) for _ in cfg.selected_layers]
    proj = _projector(rng, (2, 1, cfg.image_size, cfg.image_size))
    leaves = tokens + list(store.tensors())

    def forward():
        out = decode(tokens, store, cfg)
        return proj(out)

    return leaves, forward


def _case_fusion(rng):
    cfg = tiny_config()
    store = _model_store(rng, cfg, "fuse")
    features = Tensor(
        0.3 + 0.05 * _normal(rng, (2, cfg.gap_grid * cfg.gap_grid)),
        requires_grad=True,
        dtype=np.float64,
    )
    token = _leaf(rng, 2, cfg.embed_dim, scale=0.5)
    _head_off_kink(rng, store, features, token)
    leaves = [features, token] + list(store.tensors())
    proj = _projector(rng, (2,))

    def forward():
        return proj(fuse_and_predict(features, token, store, cfg))

    return leaves, forward


def _case_pem_loss(rng):
    cfg = tiny_config()
    size = cfg.image_size
    dist = ImageBatch([make_texture(size, size, rng.randint(1 << 30)).pixels for _ in range(2)])
    ref = ImageBatch([make_texture(size, size, rng.randint(1 << 30)).pixels for _ in range(2)])
    oem = compute_oem(dist, ref)
    pem = Tensor(
        0.25 + 0.02 * _normal(rng, (2, 1, size, size)),
        requires_grad=True,
        dtype=np.float64,
    )
    loss_cfg = PemLossConfig(oem_lambda=0.3)

    def forward():
        return pem_loss(pem, oem, dist, ref, loss_cfg)

    return [pem], forward


def _case_quality_loss(rng):
    preds = _leaf(rng, 6, scale=0.3)
    preds.data += 0.5
    targets = np.clip(0.5 + 0.2 * rng.normal(6), 0.0, 1.0)
    # keep every residual off the L1 kink by more than the fd step
    close = np.abs(preds.data - targets) < _KINK_MARGIN
    preds.data = np.where(close, targets + 3.0 * _KINK_MARGIN, preds.data)
    return [preds], lambda: quality_loss(preds, targets)


def _case_tiny_model(rng):
    """Joint two-branch graph: pem_loss + quality_loss, nothing frozen."""
    model = tiny_config()
    store = _model_store(rng, model)
    size = model.image_size
    dist = make_texture(size, size, rng.randint(1 << 30))
    ref = make_texture(size, size, rng.randint(1 << 30))
    oem = compute_oem(dist, ref)
    loss_cfg = PemLossConfig()
    leaves = list(store.tensors())

    _head_off_kink(rng, store, frozen_features(dist, store, model), encode(dist, store, model, "pqt").token)

    def forward():
        pem = forward_pem(dist, store, model)
        l_em = pem_loss(pem, oem, dist, ref, loss_cfg)
        token = encode(dist, store, model, "pqt").token
        features = T.global_average_pool(pem, model.gap_grid)
        score = fuse_and_predict(features, token, store, model)
        l_q = quality_loss(score, [0.7])
        return T.add(l_em, l_q)

    return leaves, forward


CASES = {
    "add": _single_op("add", (3, 4), (3, 4)),
    "sub": _single_op("sub", (3, 4), (3, 4)),
    "mul": _single_op("mul", (3, 4), (3, 4)),
    "scale": _single_op("mul", (3, 4), b=-1.7),
    "abs": _single_op("abs_", (5, 5), kink=True),
    "square": _single_op("square", (4, 3)),
    # each gradient entry is probe / size, judged by absolute error: four
    # entries keep a backward 10 % off above the tolerance at seeds 0 and 1
    "mean": _single_op("mean", (2, 2)),
    "sum": _single_op("sum_", (2, 7)),
    "gelu": _single_op("gelu", ((4, 4), 1.5)),
    "prelu": _case_prelu,
    "sigmoid": _single_op("sigmoid", ((3, 5), 2.0)),
    "matmul": _case_matmul,
    "transpose": _single_op("transpose", (2, 3, 5)),
    "reshape": _single_op("reshape", (4, 6), shape=(2, 12)),
    "concat": _case_concat,
    "slice_rows": _single_op("slice_rows", (2, 6, 4), start=1, stop=4),
    "slice_cols": _single_op("slice_cols", (2, 4, 8), start=2, stop=7),
    "add_row_bias": _case_add_row_bias,
    "linear": _single_op("linear", (2, 4, 6), (6, 3), (3,)),
    # the MLP half of a block: x, norm gain and shift, (d, 2d) and (2d, d) layers
    "mlp_residual": _single_op("mlp_residual", (2, 3, 6), (6,), (6,), (6, 12), (12,), (12, 6), (6,)),
    "softmax_rows": _single_op("softmax_rows", ((2, 4, 7), 2.0)),
    "layer_norm": _case_layer_norm,
    "attention": _single_op("attention", (2, 5, 6), (2, 5, 6), (2, 5, 6), heads=2),
    # one query row per sample against five keys, as the token-only block runs it
    "attention_fewer_queries": _single_op("attention", (2, 1, 6), (2, 5, 6), (2, 5, 6), heads=2),
    # a batch of two, fewer output than input channels
    "conv2d_3x3": _single_op("conv2d_3x3", (2, 3, 6, 5), ((2, 3, 3, 3), 0.5), (2,)),
    "bilinear_resize": _single_op("bilinear_resize", (2, 2, 4, 4), out_h=7, out_w=9),
    # non-square input, upsampled by a non-integer factor, then down again
    "conv2d_3x3_resized": _single_op(
        "conv2d_3x3", (2, 3, 4, 5), ((2, 3, 3, 3), 0.5), (2,), mid=9, out=7
    ),
    "global_average_pool": _single_op("global_average_pool", (2, 3, 5, 5), grid=2),
    "encoder_block": _case_encoder_block,
    "decoder": _case_decoder,
    "fusion_head": _case_fusion,
    "pem_loss": _case_pem_loss,
    "quality_loss": _case_quality_loss,
    "tiny_model": _case_tiny_model,
}

# the joint model touches every parameter; a handful of probes per tensor
# keeps the whole suite well inside the runtime budget
_CHECKS_PER_TENSOR = {"tiny_model": 6}
_DEFAULT_CHECKS = 24


def _indices(size: int, limit: int) -> np.ndarray:
    if size <= limit:
        return np.arange(size)
    return np.unique(np.linspace(0, size - 1, limit).astype(np.int64))


def run_case(name: str, seed: int = 0, case=None) -> CaseResult:
    if case is None:
        if name not in CASES:
            raise ArgumentError(f"unknown gradcheck case {name!r}")
        case = CASES[name]
    rng = CounterRng(derive_seed(seed, "gradcheck", name))
    leaves, forward = case(rng)

    with Tape() as tape:
        loss = forward()
    backward(loss, tape)
    analytic = [None if leaf.grad is None else leaf.grad.copy() for leaf in leaves]

    limit = _CHECKS_PER_TENSOR.get(name, _DEFAULT_CHECKS)
    worst = 0.0
    checked = 0
    for leaf, grad in zip(leaves, analytic):
        if grad is None:
            raise ArgumentError(f"case {name!r}: leaf received no gradient")
        flat = leaf.data.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in _indices(flat.size, limit):
            orig = flat[idx]
            flat[idx] = orig + STEP
            f_plus = forward().item()
            flat[idx] = orig - STEP
            f_minus = forward().item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * STEP)
            a = float(gflat[idx])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
            checked += 1
    return CaseResult(name, worst, checked)
