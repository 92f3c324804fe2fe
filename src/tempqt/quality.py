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


def extract_attention_map(layer_vectors: list, out_h: int, out_w: int) -> GrayImage:
    """Average per-layer attention vectors into a normalized spatial map.

    Vectors are the captured per-layer quality-token attentions (each
    sums to 1 over the N patch tokens). The average is reshaped onto the
    patch grid, bilinearly resized, then min-max normalized; a constant
    map is defined as all zeros.
    """
    if not layer_vectors:
        raise ArgumentError("no attention vectors given")
    n = layer_vectors[0].shape[0]
    grid = int(round(np.sqrt(n)))
    if grid * grid != n:
        raise ArgumentError(f"attention length {n} is not a perfect square")
    for v in layer_vectors:
        if v.shape != (n,):
            raise ArgumentError("attention vectors disagree in length")
    avg = np.mean(np.stack([np.asarray(v, dtype=np.float64) for v in layer_vectors]), axis=0)
    fmap = T.constant(avg.reshape(1, 1, grid, grid), dtype=np.float64)
    resized = T.bilinear_resize(fmap, out_h, out_w).data[0, 0]
    lo = float(resized.min())
    hi = float(resized.max())
    if hi - lo <= _FLAT_EPS * max(1.0, abs(hi)):
        return GrayImage(out_h, out_w, np.zeros((out_h, out_w), dtype=np.float32))
    norm = (resized - lo) / (hi - lo)
    return GrayImage(out_h, out_w, np.clip(norm, 0.0, 1.0).astype(np.float32))
