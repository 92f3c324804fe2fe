"""Patch-token transformer encoder with an optional quality token.

Two branches share this code. The error-map branch encodes the N patch
tokens alone, runs only as deep as its deepest selected layer, and
hands the selected layers' tokens to the decoder. The quality branch
prepends one learnable token, runs every block, and hands the token's
final state to the fusion head; its attention over the patch tokens can
be captured per block for diagnostics.

Everything runs on a batch: B images give (B, N, d) tokens, and one
image is a batch of one. Blocks are pre-norm:
x += attn(norm(x)); x += mlp(norm(x)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError
from .imaging import as_batch
from .params import ParamStore

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    layers: int = 4
    heads: int = 4
    mlp_ratio: float = 4.0
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
        if self.mlp_ratio <= 0:
            raise ArgumentError("mlp_ratio must be positive")
        sel = tuple(int(x) for x in self.selected_layers)
        if not sel:
            raise ArgumentError("selected_layers must not be empty")
        if list(sel) != sorted(set(sel)):
            raise ArgumentError("selected_layers must be strictly ascending")
        if sel[0] < 0 or sel[-1] > self.layers:
            raise ArgumentError(f"selected_layers must lie in 0..{self.layers}, got {sel}")
        object.__setattr__(self, "selected_layers", sel)
        if self.gap_grid < 1:
            raise ArgumentError("gap_grid must be at least 1")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.embed_dim))

    @property
    def pem_depth(self) -> int:
        """Blocks the error-map branch has: none past its deepest selected layer."""
        return self.selected_layers[-1]


def paper_scale_config() -> ModelConfig:
    """Full-scale preset; expressible but far beyond desk budgets."""
    return ModelConfig(
        image_size=224,
        patch_size=16,
        embed_dim=768,
        layers=12,
        heads=16,
        selected_layers=(0, 2, 6, 11),
    )


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
    state, and, when capture is on, attention: one detached (B, N) numpy
    array per block, each row the token's attention over the patch
    tokens, head-averaged and renormalized to sum to 1.
    """

    layer_tokens: list | None = None
    token: T.Tensor | None = None
    attention: list | None = None


def encoder_params(cfg: ModelConfig, branch: str) -> list:
    """The branch's parameters as (name, shape, init) entries, in draw order.

    The pqt branch leads with its quality token and has every block; the
    pem branch has no token and stops at cfg.pem_depth.
    """
    d, hid = cfg.embed_dim, cfg.mlp_hidden
    weight, zeros, ones = ("trunc", INIT_STD), ("const", 0.0), ("const", 1.0)
    entries = [("pqt.token", (d,), ("normal", INIT_STD))] if branch == "pqt" else []
    entries += [
        (f"{branch}.embed.w", (cfg.patch_size * cfg.patch_size, d), weight),
        (f"{branch}.embed.b", (d,), zeros),
        (f"{branch}.pos", (cfg.num_patches, d), weight),
    ]
    for layer in range(1, (cfg.layers if branch == "pqt" else cfg.pem_depth) + 1):
        base = f"{branch}.block{layer}"
        entries += [(f"{base}.ln1.g", (d,), ones), (f"{base}.ln1.b", (d,), zeros)]
        entries += [(f"{base}.attn.{proj}", (d, d), weight) for proj in ("wq", "wk", "wv", "wo")]
        entries += [(f"{base}.attn.{bias}", (d,), zeros) for bias in ("bq", "bk", "bv", "bo")]
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

    ``images`` is an ImageBatch, or a GrayImage as a batch of one.
    """
    pixels = as_batch(images).pixels
    h, w_px = pixels.shape[1:]
    if (h, w_px) != (cfg.image_size, cfg.image_size):
        raise DimensionError(
            f"image is {h}x{w_px}, config expects {cfg.image_size}x{cfg.image_size}"
        )
    w = store[f"{prefix}.embed.w"]
    patches = T.constant(extract_patches(pixels, cfg.patch_size), dtype=w.data.dtype)
    tokens = T.linear(patches, w, store[f"{prefix}.embed.b"])
    return T.add_row_bias(tokens, store[f"{prefix}.pos"])


def encoder_block(
    x: T.Tensor,
    store: ParamStore,
    cfg: ModelConfig,
    prefix: str,
    layer: int,
    capture: bool = False,
):
    """One transformer block over (B, N, d) tokens; optionally captures attention.

    Returns (tokens, attention) where attention is a detached (B, N - 1)
    numpy array: per sample, row 0 of the attention matrix with the self
    entry dropped, renormalized per head, then head-averaged; None when
    capture is off.
    """
    base = f"{prefix}.block{layer}"
    xn = T.layer_norm(x, store[f"{base}.ln1.g"], store[f"{base}.ln1.b"])
    q = T.linear(xn, store[f"{base}.attn.wq"], store[f"{base}.attn.bq"])
    k = T.linear(xn, store[f"{base}.attn.wk"], store[f"{base}.attn.bk"])
    v = T.linear(xn, store[f"{base}.attn.wv"], store[f"{base}.attn.bv"])
    merged, weights = T.attention(q, k, v, cfg.heads)
    attn_out = T.linear(merged, store[f"{base}.attn.wo"], store[f"{base}.attn.bo"])
    t = T.add(x, attn_out)

    tn = T.layer_norm(t, store[f"{base}.ln2.g"], store[f"{base}.ln2.b"])
    m = T.linear(tn, store[f"{base}.mlp.w1"], store[f"{base}.mlp.b1"])
    m = T.gelu(m)
    m = T.linear(m, store[f"{base}.mlp.w2"], store[f"{base}.mlp.b2"])
    out = T.add(t, m)

    vec = None
    if capture:
        rows = weights[:, :, 0, 1:].astype(np.float64)  # (B, heads, N - 1)
        rows = rows / rows.sum(axis=-1, keepdims=True)
        vec = rows.mean(axis=1).astype(np.float32)
    return out, vec


def encode(
    images,
    store: ParamStore,
    cfg: ModelConfig,
    branch: str = "pem",
    weight_prefix: str | None = None,
    capture: bool = False,
) -> EncoderOutput:
    """Run the encoder for one branch over a batch of images.

    ``images`` is an ImageBatch, or a GrayImage as a batch of one.
    branch "pem" encodes the N patch tokens through blocks
    1..cfg.pem_depth and returns the selected layers' (B, N, d) tokens;
    branch "pqt" prepends the learnable quality token, runs all
    cfg.layers blocks and returns the token's final (B, d) state.
    ``weight_prefix`` overrides which parameter family the blocks read,
    which is how a shared backbone is expressed; the quality token itself
    always lives under "pqt.token". ``capture`` records the quality
    token's attention per block (pqt branch only).
    """
    if branch not in ("pem", "pqt"):
        raise ArgumentError(f"unknown branch {branch!r}")
    prefix = weight_prefix if weight_prefix is not None else branch
    x = patchify_embed(images, store, cfg, prefix)

    if branch == "pem":
        selected = cfg.selected_layers
        layer_tokens = [x] if selected[0] == 0 else []
        for layer in range(1, cfg.pem_depth + 1):
            x, _vec = encoder_block(x, store, cfg, prefix, layer)
            if layer in selected:
                layer_tokens.append(x)
        return EncoderOutput(layer_tokens=layer_tokens)

    bsz, d = x.shape[0], cfg.embed_dim
    token_param = store["pqt.token"]
    # the one learned token, repeated for every sample of the batch
    token = T.add_row_bias(T.constant(np.zeros((bsz, 1, d)), dtype=token_param.dtype), token_param)
    x = T.concat([token, x], axis=1)
    attention = [] if capture else None
    for layer in range(1, cfg.layers + 1):
        x, vec = encoder_block(x, store, cfg, prefix, layer, capture=capture)
        if capture:
            attention.append(vec)
    final = T.reshape(T.slice_rows(x, 0, 1), (bsz, d))
    return EncoderOutput(token=final, attention=attention)
