"""Encoder configuration, shapes, and the quality token's attention rows."""

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt import training
from tempqt.encoder import (
    PATCH_GAIN,
    ModelConfig,
    encode,
    encoder_block,
    encoder_params,
    extract_patches,
    patchify_embed,
    tiny_config,
)
from tempqt.errors import ArgumentError, DimensionError
from tempqt.imaging import GrayImage, ImageBatch
from tempqt.params import ParamStore, fill
from tempqt.quality import quality_loss
from tempqt.rng import CounterRng, derive_seed


def make_store(cfg, with_token=False, seed=0):
    store = ParamStore()
    fill(store, encoder_params(cfg, "pem"), CounterRng(derive_seed(seed, "enc")))
    if with_token:
        fill(store, encoder_params(cfg, "pqt"), CounterRng(derive_seed(seed, "tok")))
    return store


def rand_image(cfg, seed=0):
    rng = CounterRng(derive_seed(seed, "img"))
    data = rng.uniform(cfg.image_size * cfg.image_size).reshape(cfg.image_size, cfg.image_size)
    return GrayImage(cfg.image_size, cfg.image_size, data.astype(np.float32))


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(image_size=60, patch_size=8), "not a multiple"),
        (dict(embed_dim=30, heads=4), "not divisible"),
        (dict(image_size=0), "positive"),
        (dict(layers=0), "positive"),
        (dict(selected_layers=()), "not be empty"),
        (dict(selected_layers=(2, 1)), "ascending"),
        (dict(selected_layers=(1, 1)), "ascending"),
        (dict(selected_layers=(0, 9)), "must lie in"),
        (dict(gap_grid=0), "gap_grid"),
        (dict(image_size=32, gap_grid=64), "gap_grid must lie in 1..image_size"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ArgumentError, match=message):
        ModelConfig(**kwargs)


def test_config_derived_quantities():
    cfg = ModelConfig(image_size=64, patch_size=8)
    assert cfg.grid == 8
    assert cfg.num_patches == 64
    assert cfg.mlp_hidden == 256


def test_presets_construct():
    assert tiny_config().num_patches == 16


# ---------------------------------------------------------------------------
# patch extraction oracle


def test_extract_patches_row_major():
    # 4x4 image, patch 2: four tiles in reading order
    px = np.arange(16, dtype=np.float32).reshape(4, 4)
    tiles = extract_patches(px, 2)
    assert tiles.shape == (4, 4)
    assert np.array_equal(tiles[0], [0, 1, 4, 5])
    assert np.array_equal(tiles[1], [2, 3, 6, 7])
    assert np.array_equal(tiles[2], [8, 9, 12, 13])
    assert np.array_equal(tiles[3], [10, 11, 14, 15])


def test_patchify_embed_matches_manual():
    cfg = tiny_config()
    store = make_store(cfg)
    img = rand_image(cfg)
    tokens = patchify_embed(img, store, cfg, "pem")
    w = store["pem.embed.w"].data.astype(np.float64)
    b = store["pem.embed.b"].data.astype(np.float64)
    pos = store["pem.pos"].data.astype(np.float64)
    patches = extract_patches(img.pixels, cfg.patch_size).astype(np.float64)
    centered = (patches - patches.mean(axis=1, keepdims=True)) * PATCH_GAIN
    expect = centered @ w + b + pos
    assert tokens.shape == (1, cfg.num_patches, cfg.embed_dim)
    assert np.allclose(tokens.data[0], expect, atol=1e-5)


def test_patchify_rejects_wrong_size():
    cfg = tiny_config()
    store = make_store(cfg)
    img = GrayImage(16, 16, np.zeros((16, 16), dtype=np.float32))
    with pytest.raises(DimensionError, match="config expects"):
        patchify_embed(img, store, cfg, "pem")


# ---------------------------------------------------------------------------
# forward shapes


def test_pem_branch_layer_tokens():
    cfg = tiny_config()
    store = make_store(cfg)
    out = encode(rand_image(cfg), store, cfg, branch="pem")
    # one token set per selected layer, in selected_layers order
    assert len(out.layer_tokens) == len(cfg.selected_layers)
    for tokens in out.layer_tokens:
        assert tokens.shape == (1, cfg.num_patches, cfg.embed_dim)
    assert out.token is None
    assert out.attention is None


def test_pqt_branch_tokens_and_attention():
    cfg = tiny_config()
    store = make_store(cfg, with_token=True)
    out = encode(rand_image(cfg), store, cfg, branch="pqt")
    assert out.token.shape == (1, cfg.embed_dim)
    assert len(out.attention) == cfg.layers
    for rows in out.attention:
        # the token's row over itself and every patch, per head
        assert rows.shape == (1, cfg.heads, cfg.num_patches + 1)
        assert rows.dtype == np.float32 and rows.flags.c_contiguous
    assert out.layer_tokens is None


def test_pem_family_stops_at_deepest_selected_layer():
    cfg = ModelConfig(image_size=32, patch_size=8, embed_dim=16, layers=3, heads=2,
                      selected_layers=(0, 1))
    store = make_store(cfg, with_token=True)
    assert cfg.pem_depth == 1
    assert not store.has_prefix("pem.block2.")
    assert store.has_prefix("pqt.block3.")
    out = encode(rand_image(cfg), store, cfg, branch="pem")
    assert len(out.layer_tokens) == 2


def test_attention_vectors_are_distributions():
    cfg = tiny_config()
    for seed in range(20):
        store = make_store(cfg, with_token=True, seed=seed)
        out = encode(rand_image(cfg, seed=seed), store, cfg, branch="pqt")
        for rows in out.attention:
            # each head's row is a distribution over the token and the patches
            assert np.all(rows >= 0.0)
            assert np.abs(rows.sum(axis=-1, dtype=np.float64) - 1.0).max() < 1e-5


# ---------------------------------------------------------------------------
# branch selection and weight sharing


def test_unknown_branch_rejected():
    cfg = tiny_config()
    store = make_store(cfg)
    with pytest.raises(ArgumentError, match="unknown branch"):
        encode(rand_image(cfg), store, cfg, branch="oem")


def test_shared_backbone_reads_pem_weights():
    cfg = tiny_config()
    store = make_store(cfg, with_token=True)
    img = rand_image(cfg)
    shared = encode(img, store, cfg, branch="pqt", share_backbone=True).token
    separate = encode(img, store, cfg, branch="pqt").token
    # the separately initialized pqt family gives another token
    assert not np.allclose(shared.data, separate.data)
    # with the pem weights copied into it, the pqt family gives the shared token
    for name, t in store.items():
        if name.startswith("pem."):
            store["pqt." + name[len("pem."):]].data[...] = t.data
    separate = encode(img, store, cfg, branch="pqt").token
    assert np.array_equal(shared.data, separate.data)


# ---------------------------------------------------------------------------
# determinism and wiring


def test_forward_deterministic():
    cfg = tiny_config()
    store = make_store(cfg, with_token=True)
    img = rand_image(cfg)
    a = encode(img, store, cfg, branch="pqt")
    b = encode(img, store, cfg, branch="pqt")
    assert np.array_equal(a.token.data, b.token.data)
    for ra, rb in zip(a.attention, b.attention):
        assert np.array_equal(ra, rb)


def test_layer_zero_is_embedding_output():
    cfg = tiny_config()
    store = make_store(cfg)
    img = rand_image(cfg)
    out = encode(img, store, cfg, branch="pem")
    embed = patchify_embed(img, store, cfg, "pem")
    assert np.allclose(out.layer_tokens[0].data, embed.data)


def test_forward_under_tape_is_differentiable():
    cfg = tiny_config()
    store = make_store(cfg, with_token=True)
    img = rand_image(cfg)
    with T.Tape() as tape:
        out = encode(img, store, cfg, branch="pqt")
        loss = T.mean(out.token)
        T.backward(loss, tape)
    assert store["pqt.token"].grad is not None
    assert np.any(store["pqt.token"].grad != 0.0)


# ---------------------------------------------------------------------------
# the last quality block computes only the token's row


def reference_pqt(images, store, cfg):
    """The quality branch with its last block run over every row, then row 0 kept."""
    x = patchify_embed(images, store, cfg, "pqt")
    bsz, d = x.shape[0], cfg.embed_dim
    token = T.add_row_bias(T.constant(np.zeros((bsz, 1, d))), store["pqt.token"])
    x = T.concat([token, x], axis=1)
    attention = []
    for layer in range(1, cfg.layers + 1):
        x, weights = encoder_block(x, store, cfg, "pqt", layer)
        attention.append(weights[:, :, 0])
    return T.reshape(T.slice_rows(x, 0, 1), (bsz, d)), attention


def token_and_grads(fn, store, probe):
    T.zero_grads(store.tensors())
    with T.Tape() as tape:
        token, attention = fn()
        T.backward(T.sum_(T.mul(token, probe)), tape)
    return token.data, attention, {n: t.grad for n, t in store.items() if t.grad is not None}


@pytest.mark.parametrize("make_cfg", [ModelConfig, tiny_config])
@pytest.mark.parametrize("bsz", [1, 5, 8])
def test_token_only_last_block_matches_the_full_block(make_cfg, bsz):
    cfg = make_cfg()
    store = make_store(cfg, with_token=True)
    images = ImageBatch([rand_image(cfg, seed=s).pixels for s in range(bsz)])
    rng = CounterRng(derive_seed(bsz, "probe"))
    probe = T.constant(rng.normal(bsz * cfg.embed_dim).reshape(bsz, cfg.embed_dim))

    def readout():
        out = encode(images, store, cfg, branch="pqt")
        return out.token, out.attention

    got_token, got_att, got_grads = token_and_grads(readout, store, probe)
    ref_token, ref_att, ref_grads = token_and_grads(lambda: reference_pqt(images, store, cfg), store, probe)
    assert got_token.shape == (bsz, cfg.embed_dim)
    assert np.abs(got_token - ref_token).max() <= 1e-6
    assert len(got_att) == len(ref_att) == cfg.layers
    for got, ref in zip(got_att, ref_att):
        assert got.shape == ref.shape == (bsz, cfg.heads, cfg.num_patches + 1)
        assert np.abs(got - ref).max() <= 1e-6
    assert got_grads.keys() == ref_grads.keys()
    assert all(name.startswith("pqt.") for name in got_grads)
    for name, ref in ref_grads.items():
        assert np.abs(got_grads[name] - ref).max() <= 1e-5 * np.abs(ref).max(), name


def test_stage2_step_runs_the_last_mlp_on_one_row():
    cfg = ModelConfig()
    table = training.param_table(cfg)
    pem = training.build_store(training.stage1(table), seed=0).arrays()
    store = training.build_store(table, seed=0, frozen=pem)
    patches = ImageBatch([rand_image(cfg, seed=s).pixels for s in range(8)])
    with T.Tape() as tape:
        features = training.frozen_features(patches, store, cfg)
        preds = training.score_crops(patches, features, store, cfg, "both", False)
        quality_loss(preds, np.linspace(0.1, 0.9, 8, dtype=np.float32))
    # each block's MLP half is one mlp_residual node; the last runs on the token's row alone
    mlp_rows = [n.out.shape[1] for n in tape.nodes if n.backward.__qualname__.startswith("mlp_residual.")]
    assert sorted(mlp_rows) == [1] + [cfg.num_patches + 1] * (cfg.layers - 1)
