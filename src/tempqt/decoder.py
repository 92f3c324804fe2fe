"""Top-down decoder from selected token layers to a predicted error map.

Selected layers are aggregated shallow-to-deep by running addition,
then each aggregate is reshaped onto the patch grid, convolved, and
upsampled. The concatenated features pass a 1-channel head conv and a
final resize to the image resolution; a sigmoid bounds the map to
(0, 1). The two upsampling stages adapt to the patch size so their
product is exactly the patch size (8 -> 4x then 2x, 16 -> 4x then 4x).
Every step carries the batch: (B, N, d) tokens give (B, 1, H, W) maps.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .encoder import ModelConfig
from .errors import ArgumentError, DimensionError
from .params import ParamStore

# Head bias prior: sigmoid(-2.5) ~= 0.076, the scale of a typical error
# map. Starting there instead of at 0.5 spares the short pretraining
# schedules from spending most of their steps fitting the global mean.
HEAD_BIAS_PRIOR = -2.5


def decoder_channels(cfg: ModelConfig) -> int:
    return max(1, cfg.embed_dim // 4)


def upsample_stages(patch: int) -> tuple[int, int]:
    """Split the total patch-size upsampling into two bilinear stages."""
    if patch % 4 == 0:
        return 4, patch // 4
    if patch % 2 == 0:
        return 2, patch // 2
    return patch, 1


def decoder_params(cfg: ModelConfig) -> list:
    """The decoder's (name, shape, init) entries: unit-gain convs plus the head bias prior.

    Conv weights have std 1/sqrt(fan_in). Fan-scaled init keeps feature
    magnitudes stable through the conv stack, so the pre-sigmoid output
    moves with its inputs from the first step instead of after the
    weights have drifted into range.
    """
    c_dec, d, k = decoder_channels(cfg), cfg.embed_dim, len(cfg.selected_layers)
    entries = []
    for idx in range(k):
        entries += [
            (f"dec.layer{idx}.w", (c_dec, d, 3, 3), ("trunc", 1.0 / np.sqrt(9.0 * d))),
            (f"dec.layer{idx}.b", (c_dec,), ("const", 0.0)),
        ]
    return entries + [
        ("dec.head.w", (1, k * c_dec, 3, 3), ("trunc", 1.0 / np.sqrt(9.0 * k * c_dec))),
        ("dec.head.b", (1,), ("const", HEAD_BIAS_PRIOR)),
    ]


def aggregate_topdown(layer_tokens: list) -> list:
    """Running sums: output[i] = input[i] + output[i-1]."""
    if not layer_tokens:
        raise ArgumentError("aggregate_topdown needs at least one layer")
    shape = layer_tokens[0].shape
    for t in layer_tokens[1:]:
        if t.shape != shape:
            raise DimensionError(f"layer token shapes differ: {shape} vs {t.shape}")
    out = [layer_tokens[0]]
    for t in layer_tokens[1:]:
        out.append(T.add(t, out[-1]))
    return out


def decode(
    layer_tokens: list,
    store: ParamStore,
    cfg: ModelConfig,
    out_h: int,
    out_w: int,
) -> T.Tensor:
    """Map B samples' selected-layer tokens to (B, 1, out_h, out_w) error maps in (0, 1).

    ``layer_tokens`` holds one (B, N, d) tensor per selected layer, in
    cfg.selected_layers order.
    """
    if len(layer_tokens) != len(cfg.selected_layers):
        raise DimensionError(
            f"expected {len(cfg.selected_layers)} layer token sets, got {len(layer_tokens)}"
        )
    if layer_tokens[0].data.ndim != 3:
        raise DimensionError(f"layer tokens must be (B, N, d), got {layer_tokens[0].shape}")
    bsz, n, d = layer_tokens[0].shape
    grid = int(round(np.sqrt(n)))
    if grid * grid != n:
        raise DimensionError(f"token count {n} is not a perfect square")
    if d != cfg.embed_dim:
        raise DimensionError(f"token width {d} does not match embed_dim {cfg.embed_dim}")
    s1, s2 = upsample_stages(cfg.patch_size)
    if (grid * cfg.patch_size, grid * cfg.patch_size) != (out_h, out_w):
        raise DimensionError(
            f"output {out_h}x{out_w} does not match grid {grid} x patch {cfg.patch_size}"
        )

    mid = grid * s1
    feats = []
    for idx, tokens in enumerate(aggregate_topdown(layer_tokens)):
        fmap = T.reshape(T.transpose(tokens), (bsz, d, grid, grid))
        fmap = T.conv2d_3x3(fmap, store[f"dec.layer{idx}.w"], store[f"dec.layer{idx}.b"])
        fmap = T.gelu(fmap)
        feats.append(T.bilinear_resize(fmap, mid, mid))
    merged = feats[0] if len(feats) == 1 else T.concat(feats, axis=1)
    head = T.conv2d_3x3(merged, store["dec.head.w"], store["dec.head.b"])
    full = T.bilinear_resize(head, out_h, out_w)
    return T.sigmoid(full)
