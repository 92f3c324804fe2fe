"""Patch-token transformer encoder with an optional quality token.

Two branches share this code. Each embeds every patch with its mean
removed and scaled by ``PATCH_GAIN``, so the tokens carry the patch's
structure, not its brightness. The error-map branch encodes the N
patch tokens alone, runs only as deep as its deepest selected layer,
and hands the selected layers' tokens to the decoder. The quality
branch prepends one learnable token, runs every block, and hands the
token's final state to the fusion head, together with each block's
attention row for the token (``quality.extract_attention_map`` turns
those rows into the exported map). Nothing reads the other rows of its
last block, so that block computes only the token's row: the token
still attends to every row, but q, the attention output, the residual
and the MLP run on row 0 alone. With ``share_backbone`` the quality
branch owns only its token and runs on the error-map branch's
embedding and all ``layers`` of its blocks.

Everything runs on a batch: B images give (B, N, d) tokens, and one
image is a batch of one. Blocks are pre-norm:
x += attn(norm(x)); x += mlp(norm(x)). The keys carry no bias: it
would add q . b_k to every logit of a query row, which softmax ignores.
The attention half is separate tape nodes (layer norm, projections,
``tensor.attention``, residual add). The MLP half, norm through
residual, is one ``tensor.mlp_residual`` node, which keeps only the
norm's statistics, the pre-activation and its Phi for the backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError
from .imaging import as_batch
from .params import ParamStore

INIT_STD = 0.02
# Scale of the mean-removed patch pixels that the embedding projects. On
# raw [0, 1] pixels each patch's mean swamped the distortion residual
# and the predicted maps came out constant. Mean-removed 8x8 texture
# patches have a std near 0.15 (0.07 after blur at severity 3), so 16
# brings them to order one. On the documented recipe (10 textures of
# 64 px, default config) test SROCC read 0.72-0.81 over seeds 0-9, and
# 0.009 on raw pixels at seed 0; gain 8 read lower than 16 over 10
# earlier runs. The patch std is not divided out: blur shows as lost
# contrast.
PATCH_GAIN = 16.0
# MLP width per embedding dimension: the standard ViT's 4·d hidden layer
MLP_RATIO = 4


@dataclass(frozen=True)
class ModelConfig:
    """Shape of both branches and the fusion head's pooling grid.

    Every block's MLP is ``MLP_RATIO`` times ``embed_dim`` wide.
    """

    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    layers: int = 4
    heads: int = 4
    selected_layers: tuple = (0, 1, 2, 4)
    gap_grid: int = 1

    def __post_init__(self):
        if self.image_size < 1 or self.patch_size < 1:
            raise ArgumentError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise ArgumentError(
                f"image_size {self.image_size} is not a multiple of patch_size {self.patch_size}"
            )
        if self.embed_dim < 1 or self.layers < 1 or self.heads < 1:
            raise ArgumentError("embed_dim, layers, and heads must be positive")
        if self.embed_dim % self.heads != 0:
            raise ArgumentError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        sel = tuple(int(x) for x in self.selected_layers)
        if not sel:
            raise ArgumentError("selected_layers must not be empty")
        if list(sel) != sorted(set(sel)):
            raise ArgumentError("selected_layers must be strictly ascending")
        if sel[0] < 0 or sel[-1] > self.layers:
            raise ArgumentError(f"selected_layers must lie in 0..{self.layers}, got {sel}")
        object.__setattr__(self, "selected_layers", sel)
        # the fusion head pools the image_size x image_size error map to this grid
        if not 1 <= self.gap_grid <= self.image_size:
            raise ArgumentError(
                f"gap_grid must lie in 1..image_size ({self.image_size}), got {self.gap_grid}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def mlp_hidden(self) -> int:
        return MLP_RATIO * self.embed_dim

    @property
    def pem_depth(self) -> int:
        """Blocks the error-map branch has: none past its deepest selected layer."""
        return self.selected_layers[-1]


def tiny_config() -> ModelConfig:
    """Small configuration for gradient checks and fast tests."""
    return ModelConfig(
        image_size=32,
        patch_size=8,
        embed_dim=16,
        layers=2,
        heads=2,
        selected_layers=(0, 1, 2),
        gap_grid=2,
    )


@dataclass
class EncoderOutput:
    """What one encoder forward over B images hands its caller.

    The pem branch sets layer_tokens: the (B, N, d) patch tokens of each
    selected layer, in cfg.selected_layers order, 0 meaning the embedding
    output. The pqt branch sets token, the quality token's final (B, d)
    state, and attention: one detached (B, heads, N + 1) numpy array per
    block, the token's attention row over itself and the N patch tokens,
    each head's row summing to 1.
    """

    layer_tokens: list | None = None
    token: T.Tensor | None = None
    attention: list | None = None


def encoder_params(cfg: ModelConfig, branch: str, share_backbone: bool = False) -> list:
    """The branch's parameters as (name, shape, init) entries, in draw order.

    The pqt branch leads with its quality token and has every block, or
    the token alone with ``share_backbone``; the pem branch has no token
    and stops at cfg.pem_depth.
    """
    d, hid = cfg.embed_dim, cfg.mlp_hidden
    weight, zeros, ones = ("trunc", INIT_STD), ("const", 0.0), ("const", 1.0)
    entries = [("pqt.token", (d,), ("normal", INIT_STD))] if branch == "pqt" else []
    if share_backbone:
        return entries
    entries += [
        (f"{branch}.embed.w", (cfg.patch_size * cfg.patch_size, d), weight),
        (f"{branch}.embed.b", (d,), zeros),
        (f"{branch}.pos", (cfg.num_patches, d), weight),
    ]
    for layer in range(1, (cfg.layers if branch == "pqt" else cfg.pem_depth) + 1):
        base = f"{branch}.block{layer}"
        entries += [(f"{base}.ln1.g", (d,), ones), (f"{base}.ln1.b", (d,), zeros)]
        entries += [(f"{base}.attn.{proj}", (d, d), weight) for proj in ("wq", "wk", "wv", "wo")]
        entries += [(f"{base}.attn.{bias}", (d,), zeros) for bias in ("bq", "bv", "bo")]
        entries += [
            (f"{base}.ln2.g", (d,), ones),
            (f"{base}.ln2.b", (d,), zeros),
            (f"{base}.mlp.w1", (d, hid), weight),
            (f"{base}.mlp.b1", (hid,), zeros),
            (f"{base}.mlp.w2", (hid, d), weight),
            (f"{base}.mlp.b2", (d,), zeros),
        ]
    return entries


def extract_patches(pixels: np.ndarray, patch: int) -> np.ndarray:
    """(..., H, W) -> (..., N, patch*patch), patches ordered row-major."""
    *lead, h, w = pixels.shape
    gh, gw = h // patch, w // patch
    tiles = np.swapaxes(pixels.reshape(*lead, gh, patch, gw, patch), -3, -2)
    return np.ascontiguousarray(tiles.reshape(*lead, gh * gw, patch * patch))


def patchify_embed(images, store: ParamStore, cfg: ModelConfig, prefix: str) -> T.Tensor:
    """(B, N, d) tokens: projected patches plus the learned position embedding.

    Each patch is projected as (p - mean(p)) * PATCH_GAIN. ``images`` is
    an ImageBatch, or a GrayImage as a batch of one.
    """
    pixels = as_batch(images).pixels
    h, w_px = pixels.shape[1:]
    if (h, w_px) != (cfg.image_size, cfg.image_size):
        raise DimensionError(
            f"image is {h}x{w_px}, config expects {cfg.image_size}x{cfg.image_size}"
        )
    w = store[f"{prefix}.embed.w"]
    patches = extract_patches(pixels, cfg.patch_size).astype(w.data.dtype)
    patches -= patches.mean(axis=-1, keepdims=True)
    patches *= PATCH_GAIN
    tokens = T.linear(T.constant(patches, dtype=w.data.dtype), w, store[f"{prefix}.embed.b"])
    return T.add_row_bias(tokens, store[f"{prefix}.pos"])


def encoder_block(
    x: T.Tensor,
    store: ParamStore,
    cfg: ModelConfig,
    prefix: str,
    layer: int,
    token_only: bool = False,
):
    """One transformer block over (B, N, d) tokens.

    Returns (tokens, weights), the weights being the detached
    (B, heads, M, N) attention weights of ``tensor.attention``. With
    ``token_only`` only row 0 is updated and returned, as (B, 1, d), and
    M is 1: every row is normalized and feeds the keys and values, and
    the rest of the block runs on row 0 alone. The MLP half is one
    ``tensor.mlp_residual`` node.
    """
    base = f"{prefix}.block{layer}"
    xn = T.layer_norm(x, store[f"{base}.ln1.g"], store[f"{base}.ln1.b"])
    xq = xn
    if token_only:
        x, xq = T.slice_rows(x, 0, 1), T.slice_rows(xn, 0, 1)
    q = T.linear(xq, store[f"{base}.attn.wq"], store[f"{base}.attn.bq"])
    k = T.matmul(xn, store[f"{base}.attn.wk"])
    v = T.linear(xn, store[f"{base}.attn.wv"], store[f"{base}.attn.bv"])
    merged, weights = T.attention(q, k, v, cfg.heads)
    attn_out = T.linear(merged, store[f"{base}.attn.wo"], store[f"{base}.attn.bo"])
    t = T.add(x, attn_out)

    mlp = [store[f"{base}.{name}"] for name in ("ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")]
    return T.mlp_residual(t, *mlp), weights


def encode(
    images,
    store: ParamStore,
    cfg: ModelConfig,
    branch: str = "pem",
    share_backbone: bool = False,
) -> EncoderOutput:
    """Run the encoder for one branch over a batch of images.

    ``images`` is an ImageBatch, or a GrayImage as a batch of one.
    branch "pem" encodes the N patch tokens through blocks
    1..cfg.pem_depth and returns the selected layers' (B, N, d) tokens;
    branch "pqt" prepends the learnable quality token, runs all
    cfg.layers blocks and returns the token's final (B, d) state and
    its attention row per block; its last block computes the token's
    row alone. With ``share_backbone`` the pqt branch reads the
    embedding and blocks under "pem.*"; its token is "pqt.token" either
    way.
    """
    if branch not in ("pem", "pqt"):
        raise ArgumentError(f"unknown branch {branch!r}")
    prefix = "pem" if share_backbone else branch
    x = patchify_embed(images, store, cfg, prefix)

    if branch == "pem":
        selected = cfg.selected_layers
        layer_tokens = [x] if selected[0] == 0 else []
        for layer in range(1, cfg.pem_depth + 1):
            x, _weights = encoder_block(x, store, cfg, prefix, layer)
            if layer in selected:
                layer_tokens.append(x)
        return EncoderOutput(layer_tokens=layer_tokens)

    bsz, d = x.shape[0], cfg.embed_dim
    token_param = store["pqt.token"]
    # the one learned token, repeated for every sample of the batch
    token = T.add_row_bias(T.constant(np.zeros((bsz, 1, d)), dtype=token_param.dtype), token_param)
    x = T.concat([token, x], axis=1)
    attention = []
    for layer in range(1, cfg.layers + 1):
        x, weights = encoder_block(x, store, cfg, prefix, layer, token_only=layer == cfg.layers)
        # copy row 0 alone and drop the full weights before the next block
        # allocates its own: untaped, nothing else keeps them alive
        attention.append(weights[:, :, 0].copy())
        del weights
    final = T.reshape(x, (bsz, d))
    return EncoderOutput(token=final, attention=attention)
