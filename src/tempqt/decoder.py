"""Top-down decoder from selected token layers to a predicted error map.

Selected layers are aggregated shallow-to-deep by running addition,
then each aggregate is reshaped onto the patch grid and convolved. One
GELU acts on the concatenated features of every layer: it is
elementwise, so this equals a GELU per layer, bit for bit, with one call
and one tape node. The model then upsamples the features in two
bilinear stages, with a 1-channel head conv between them, and a sigmoid
bounds the map to (0, 1). The first stage adapts to the patch size and
the second supplies the rest of the patch-size factor (8 -> 4x then 2x,
16 -> 4x then 4x).

All five convs are ``tensor.conv2d_3x3``. Everything from the GELU to
the sigmoid is linear, so the head conv takes both resize sizes and runs
upsample, conv and final resize as one op on the patch grid; the
intermediate resolution is never built. Every step carries the batch:
(B, N, d) tokens of cfg.num_patches patches give (B, 1, image_size,
image_size) maps.
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


def upsample_stages(patch: int) -> int:
    """Factor of the first of two bilinear upsampling stages; the second is patch // first.

    The head conv acts between the stages, at grid * first pixels a
    side. ``decode`` passes that size to ``conv2d_3x3`` as ``mid``, which
    folds both stages into the conv on the patch grid, so the factor sets
    where the conv's taps fall, not the size of any array.
    """
    if patch % 4 == 0:
        return 4
    if patch % 2 == 0:
        return 2
    return patch


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


def decode(layer_tokens: list, store: ParamStore, cfg: ModelConfig) -> T.Tensor:
    """Map B samples' selected-layer tokens to (B, 1, image_size, image_size) maps in (0, 1).

    ``layer_tokens`` holds one (B, num_patches, embed_dim) tensor per
    selected layer, in cfg.selected_layers order.
    """
    if len(layer_tokens) != len(cfg.selected_layers):
        raise DimensionError(
            f"expected {len(cfg.selected_layers)} layer token sets, got {len(layer_tokens)}"
        )
    shape = layer_tokens[0].shape
    if len(shape) != 3 or shape[1:] != (cfg.num_patches, cfg.embed_dim):
        raise DimensionError(
            f"layer tokens have shape {shape}, expected (B, {cfg.num_patches}, {cfg.embed_dim})"
        )
    bsz, grid, d = shape[0], cfg.grid, cfg.embed_dim

    mid = grid * upsample_stages(cfg.patch_size)
    feats = []
    for idx, tokens in enumerate(aggregate_topdown(layer_tokens)):
        fmap = T.reshape(T.transpose(tokens), (bsz, d, grid, grid))
        feats.append(T.conv2d_3x3(fmap, store[f"dec.layer{idx}.w"], store[f"dec.layer{idx}.b"]))
    merged = T.gelu(feats[0] if len(feats) == 1 else T.concat(feats, axis=1))
    head = T.conv2d_3x3(merged, store["dec.head.w"], store["dec.head.b"], mid, cfg.image_size)
    return T.sigmoid(head)
