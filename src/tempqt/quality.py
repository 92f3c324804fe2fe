"""Fusion head, quality regression loss, and attention-map export.

The head reads the error-map branch as pooled features: the predicted
map averaged over a gap_grid x gap_grid grid (``training.frozen_features``
computes them). The features are linearly lifted to the token width;
the lifted vector is summed with the final quality-token state and
regressed to a scalar by a two-layer head with a single shared PReLU.
The head regresses what it is given: an ablation passes only the
branch it keeps, and the same head regresses that vector alone. It
scores a batch: (B, gap_grid²) features and (B, d) token states give
(B,) scores.

``extract_attention_map`` is the one definition of the exported
attention map: it reduces the per-block attention rows that the quality
branch returns for one image to a normalized spatial map.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import INIT_STD, ModelConfig
from .errors import ArgumentError, DimensionError
from .imaging import GrayImage
from .params import ParamStore

ABLATION_MODES = ("both", "pem_only", "pqt_only")

# below this spread an attention map is treated as constant on export
_FLAT_EPS = 1e-9


def fusion_params(cfg: ModelConfig, mode: str = "both") -> list:
    """The (name, shape, init) entries of the head a given ablation mode actually uses."""
    if mode not in ABLATION_MODES:
        raise ArgumentError(f"unknown ablation mode {mode!r}")
    d, weight, zeros = cfg.embed_dim, ("trunc", INIT_STD), ("const", 0.0)
    entries = []
    if mode != "pqt_only":
        entries += [("fuse.mlp1.w", (cfg.gap_grid * cfg.gap_grid, d), weight), ("fuse.mlp1.b", (d,), zeros)]
    return entries + [
        ("fuse.mlp2.w1", (d, d), weight),
        ("fuse.mlp2.b1", (d,), zeros),
        ("fuse.mlp2.slope", (1,), ("const", 0.25)),
        ("fuse.mlp2.w2", (d, 1), weight),
        ("fuse.mlp2.b2", (1,), zeros),
    ]


def fuse_and_predict(
    pem_features: T.Tensor | None,
    pqt_token: T.Tensor | None,
    store: ParamStore,
    cfg: ModelConfig,
) -> T.Tensor:
    """Regress (B,) scores from the branch outputs given.

    ``pem_features`` is the (B, gap_grid²) pooled predicted error map,
    lifted to the token width; ``pqt_token`` is the (B, d) final
    quality-token state, added to the lifted features when both are given.
    """
    if pem_features is None and pqt_token is None:
        raise ArgumentError("fusion needs pooled error-map features, a quality-token state, or both")
    fused = None
    if pem_features is not None:
        k = cfg.gap_grid * cfg.gap_grid
        if pem_features.data.ndim != 2 or pem_features.shape[1] != k:
            raise DimensionError(f"error-map features have shape {pem_features.shape}, expected (B, {k})")
        fused = T.linear(pem_features, store["fuse.mlp1.w"], store["fuse.mlp1.b"])
    if pqt_token is not None:
        d = cfg.embed_dim
        if pqt_token.data.ndim != 2 or pqt_token.shape[1] != d:
            raise DimensionError(f"quality token has shape {pqt_token.shape}, expected (B, {d})")
        fused = pqt_token if fused is None else T.add(fused, pqt_token)

    hidden = T.linear(fused, store["fuse.mlp2.w1"], store["fuse.mlp2.b1"])
    hidden = T.prelu(hidden, store["fuse.mlp2.slope"])
    out = T.linear(hidden, store["fuse.mlp2.w2"], store["fuse.mlp2.b2"])
    return T.reshape(out, (out.shape[0],))


def quality_loss(preds: T.Tensor, targets) -> T.Tensor:
    """Mean absolute error between predicted and target scores, over the batch."""
    t = T.constant(targets, dtype=preds.data.dtype)
    if t.shape != preds.shape:
        raise DimensionError(f"prediction shape {preds.shape} vs target shape {t.shape}")
    if preds.size < 1:
        raise ArgumentError("need at least one prediction")
    return T.mean(T.abs_(T.sub(preds, t)))


def extract_attention_map(block_rows: list, out_h: int, out_w: int) -> GrayImage:
    """One image's quality-token attention map, min-max normalized to [0, 1].

    ``block_rows`` holds one (heads, N + 1) array per block: the token's
    attention row over itself and the N patch tokens, as ``encode``'s pqt
    branch returns it for one image. Per block the self entry is
    dropped, each head renormalized to sum to 1 in float64, the heads
    averaged and the result cast to float32; the blocks are then
    averaged, the average laid onto the patch grid, and the grid resized
    bilinearly (half-pixel centers) to out_h x out_w. A constant map is
    defined as all zeros.
    """
    if not block_rows:
        raise ArgumentError("no attention rows given")
    shape = np.shape(block_rows[0])
    n = shape[-1] - 1 if len(shape) == 2 else 0
    grid = int(round(np.sqrt(n)))
    if n < 1 or grid * grid != n:
        raise ArgumentError(f"attention rows of shape {shape} do not cover a square patch grid plus the token")
    per_block = []
    for rows in block_rows:
        if np.shape(rows) != shape:
            raise ArgumentError("attention rows disagree in shape")
        patches = np.asarray(rows)[:, 1:].astype(np.float64)
        patches = patches / patches.sum(axis=-1, keepdims=True)
        per_block.append(patches.mean(axis=0).astype(np.float32))
    avg = np.mean(np.stack(per_block).astype(np.float64), axis=0).reshape(grid, grid)
    resized = T._resize_matrix(grid, out_h) @ (avg @ T._resize_matrix(grid, out_w).T)
    lo = float(resized.min())
    hi = float(resized.max())
    if hi - lo <= _FLAT_EPS * max(1.0, abs(hi)):
        return GrayImage(out_h, out_w, np.zeros((out_h, out_w), dtype=np.float32))
    norm = (resized - lo) / (hi - lo)
    return GrayImage(out_h, out_w, np.clip(norm, 0.0, 1.0).astype(np.float32))
