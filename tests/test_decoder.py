"""Decoder aggregation, shape handling, and output range."""

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt.decoder import (
    HEAD_BIAS_PRIOR,
    aggregate_topdown,
    decode,
    decoder_channels,
    decoder_params,
    upsample_stages,
)
from tempqt.encoder import ModelConfig, tiny_config
from tempqt.errors import ArgumentError, DimensionError
from tempqt.params import ParamStore, fill
from tempqt.rng import CounterRng, derive_seed


def make_decoder_store(cfg, seed=0):
    store = ParamStore()
    fill(store, decoder_params(cfg), CounterRng(derive_seed(seed, "dec")))
    return store


def random_tokens(cfg, seed=0, dtype=np.float32):
    """One (1, N, d) token set per selected layer: a batch of one."""
    rng = CounterRng(derive_seed(seed, "tok"))
    out = []
    for _ in cfg.selected_layers:
        data = rng.normal(cfg.num_patches * cfg.embed_dim).reshape(1, cfg.num_patches, cfg.embed_dim)
        out.append(T.constant(data.astype(dtype), dtype=dtype))
    return out


# ---------------------------------------------------------------------------
# plumbing


def test_upsample_stage_products():
    # the final resize supplies the second factor, patch // first
    for patch in (2, 3, 4, 6, 8, 16):
        assert patch % upsample_stages(patch) == 0
    assert upsample_stages(8) == 4
    assert upsample_stages(16) == 4
    assert upsample_stages(6) == 2
    assert upsample_stages(3) == 3


def test_decoder_channels_floor():
    assert decoder_channels(ModelConfig(embed_dim=64, heads=4)) == 16
    assert decoder_channels(tiny_config()) == 4
    assert decoder_channels(ModelConfig(embed_dim=2, heads=1)) == 1


def test_aggregate_topdown_running_sums():
    a = T.constant(np.ones((4, 2)), dtype=np.float64)
    b = T.constant(np.full((4, 2), 2.0), dtype=np.float64)
    c = T.constant(np.full((4, 2), 4.0), dtype=np.float64)
    out = aggregate_topdown([a, b, c])
    assert np.allclose(out[0].data, 1.0)
    assert np.allclose(out[1].data, 3.0)
    assert np.allclose(out[2].data, 7.0)


def test_aggregate_topdown_errors():
    with pytest.raises(ArgumentError, match="at least one"):
        aggregate_topdown([])
    a = T.constant(np.ones((4, 2)))
    b = T.constant(np.ones((3, 2)))
    with pytest.raises(DimensionError, match="shapes differ"):
        aggregate_topdown([a, b])


# ---------------------------------------------------------------------------
# decode


def test_decode_shape_and_range():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    pem = decode(random_tokens(cfg), store, cfg)
    assert pem.shape == (1, 1, cfg.image_size, cfg.image_size)
    assert np.all(pem.data > 0.0)
    assert np.all(pem.data < 1.0)


def test_decode_deterministic():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    tokens = random_tokens(cfg)
    a = decode(tokens, store, cfg)
    b = decode(tokens, store, cfg)
    assert np.array_equal(a.data, b.data)


def test_decode_zeroed_weights_give_prior_map():
    # with all conv weights and biases zeroed except the head bias, the
    # map must be exactly sigmoid(head bias) everywhere
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    for name, t in store.items():
        if name.endswith(".w") or name.endswith(".b"):
            t.data[:] = 0.0
    store["dec.head.b"].data[:] = HEAD_BIAS_PRIOR
    pem = decode(random_tokens(cfg), store, cfg)
    expect = 1.0 / (1.0 + np.exp(-HEAD_BIAS_PRIOR))
    assert np.allclose(pem.data, expect, atol=1e-6)


def test_decode_input_dependence():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    a = decode(random_tokens(cfg, seed=1), store, cfg)
    b = decode(random_tokens(cfg, seed=2), store, cfg)
    assert not np.allclose(a.data, b.data)


def test_decode_validates_token_sets():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    tokens = random_tokens(cfg)
    with pytest.raises(DimensionError, match="layer token sets"):
        decode(tokens[:-1], store, cfg)
    expected = rf"expected \(B, {cfg.num_patches}, {cfg.embed_dim}\)"
    for shape in [
        (1, cfg.num_patches, cfg.embed_dim + 1),
        (1, cfg.num_patches - 1, cfg.embed_dim),
        (1, 4 * cfg.num_patches, cfg.embed_dim),  # the grid of an image twice the size
        (cfg.num_patches, cfg.embed_dim),  # no batch axis
    ]:
        bad = [T.constant(np.zeros(shape)) for _ in tokens]
        with pytest.raises(DimensionError, match=expected):
            decode(bad, store, cfg)


def test_decode_differentiable_to_tokens():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    rng = CounterRng(derive_seed(3, "tok"))
    tokens = []
    for _ in cfg.selected_layers:
        data = rng.normal(cfg.num_patches * cfg.embed_dim).reshape(1, cfg.num_patches, cfg.embed_dim)
        tokens.append(T.Tensor(data, requires_grad=True, dtype=np.float64))
    with T.Tape() as tape:
        pem = decode(tokens, store, cfg)
        T.backward(T.mean(pem), tape)
    for tok in tokens:
        assert tok.grad is not None
        assert np.any(tok.grad != 0.0)


def reference_decode(layer_tokens, store, cfg):
    """``decode`` with its head unfolded: resize each layer to mid, concat, head conv, resize."""
    bsz, grid, d = layer_tokens[0].shape[0], cfg.grid, cfg.embed_dim
    mid = grid * upsample_stages(cfg.patch_size)
    feats = []
    for idx, tokens in enumerate(aggregate_topdown(layer_tokens)):
        fmap = T.reshape(T.transpose(tokens), (bsz, d, grid, grid))
        fmap = T.gelu(T.conv2d_3x3(fmap, store[f"dec.layer{idx}.w"], store[f"dec.layer{idx}.b"]))
        feats.append(T.bilinear_resize(fmap, mid, mid))
    head = T.conv2d_3x3(T.concat(feats, axis=1), store["dec.head.w"], store["dec.head.b"])
    return T.sigmoid(T.bilinear_resize(head, cfg.image_size, cfg.image_size))


def map_and_grads(fn, tokens, store, cfg, probe):
    leaves = tokens + list(store.tensors())
    T.zero_grads(leaves)
    with T.Tape() as tape:
        pem = fn(tokens, store, cfg)
        T.backward(T.sum_(T.mul(pem, probe)), tape)
    return pem.data, [leaf.grad for leaf in leaves]


# the default grid (x4 then x2), patch 16 (x4 then x4), and patch 4,
# whose first stage is the whole patch, so mid is the image size
@pytest.mark.parametrize("patch", [8, 16, 4])
@pytest.mark.parametrize("bsz", [1, 8])
def test_decode_matches_the_unfolded_head(patch, bsz):
    cfg = ModelConfig(patch_size=patch)
    if patch == 4:
        assert cfg.grid * upsample_stages(patch) == cfg.image_size
    store = make_decoder_store(cfg)
    rng = np.random.default_rng(patch + bsz)
    tokens = [
        T.Tensor(rng.normal(size=(bsz, cfg.num_patches, cfg.embed_dim)), requires_grad=True)
        for _ in cfg.selected_layers
    ]
    # a positive probe: the head bias gradient sums it over every pixel,
    # and a sign-mixed one would cancel to below float32's rounding of
    # the terms
    probe = T.constant(rng.uniform(0.5, 1.5, size=(bsz, 1, cfg.image_size, cfg.image_size)))
    got_map, got_grads = map_and_grads(decode, tokens, store, cfg, probe)
    ref_map, ref_grads = map_and_grads(reference_decode, tokens, store, cfg, probe)
    assert got_map.dtype == np.float32
    assert np.abs(got_map - ref_map).max() <= 1e-6
    for got, ref in zip(got_grads, ref_grads):
        assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_decode_builds_nothing_at_the_mid_resolution():
    cfg = ModelConfig()
    mid = cfg.grid * upsample_stages(cfg.patch_size)
    store = make_decoder_store(cfg)
    tokens = [T.Tensor(t.data, requires_grad=True) for t in random_tokens(cfg)]
    with T.Tape() as tape:
        decode(tokens, store, cfg)
    assert [n for n in tape.nodes if n.out.shape[-2:] == (mid, mid)] == []
    # 4 layers of transpose, reshape and conv, 3 running sums, then concat,
    # one GELU, the folded head and the sigmoid
    assert len(tape.nodes) == 19


def per_layer_gelu_decode(layer_tokens, store, cfg):
    """``decode`` with a GELU on each layer's features before the concat."""
    bsz, grid, d = layer_tokens[0].shape[0], cfg.grid, cfg.embed_dim
    mid = grid * upsample_stages(cfg.patch_size)
    feats = []
    for idx, tokens in enumerate(aggregate_topdown(layer_tokens)):
        fmap = T.reshape(T.transpose(tokens), (bsz, d, grid, grid))
        feats.append(T.gelu(T.conv2d_3x3(fmap, store[f"dec.layer{idx}.w"], store[f"dec.layer{idx}.b"])))
    head = T.conv2d_3x3(T.concat(feats, axis=1), store["dec.head.w"], store["dec.head.b"], mid, cfg.image_size)
    return T.sigmoid(head)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cfg", [ModelConfig(), tiny_config()], ids=["default", "tiny"])
def test_one_gelu_over_the_concat_equals_one_per_layer(cfg, dtype):
    # GELU is elementwise, so the map and every gradient are bit-equal
    store = make_decoder_store(cfg)
    for t in store.tensors():
        t.data = t.data.astype(dtype)
    rng = np.random.default_rng(5)
    tokens = [
        T.Tensor(rng.normal(size=(2, cfg.num_patches, cfg.embed_dim)), requires_grad=True, dtype=dtype)
        for _ in cfg.selected_layers
    ]
    probe = T.constant(rng.uniform(0.5, 1.5, size=(2, 1, cfg.image_size, cfg.image_size)), dtype=dtype)
    got_map, got_grads = map_and_grads(decode, tokens, store, cfg, probe)
    ref_map, ref_grads = map_and_grads(per_layer_gelu_decode, tokens, store, cfg, probe)
    assert got_map.dtype == dtype
    assert np.array_equal(got_map, ref_map)
    for got, ref in zip(got_grads, ref_grads):
        assert got.dtype == dtype and np.array_equal(got, ref)


def test_init_head_bias_prior():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    assert float(store["dec.head.b"].data[0]) == pytest.approx(HEAD_BIAS_PRIOR)
    # layer biases start at zero
    assert np.all(store["dec.layer0.b"].data == 0.0)
