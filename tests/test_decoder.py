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
    for patch in (2, 3, 4, 6, 8, 16):
        s1, s2 = upsample_stages(patch)
        assert s1 * s2 == patch
    assert upsample_stages(8) == (4, 2)
    assert upsample_stages(16) == (4, 4)
    assert upsample_stages(6) == (2, 3)
    assert upsample_stages(3) == (3, 1)


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
    pem = decode(random_tokens(cfg), store, cfg, cfg.image_size, cfg.image_size)
    assert pem.shape == (1, 1, cfg.image_size, cfg.image_size)
    assert np.all(pem.data > 0.0)
    assert np.all(pem.data < 1.0)


def test_decode_deterministic():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    tokens = random_tokens(cfg)
    a = decode(tokens, store, cfg, cfg.image_size, cfg.image_size)
    b = decode(tokens, store, cfg, cfg.image_size, cfg.image_size)
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
    pem = decode(random_tokens(cfg), store, cfg, cfg.image_size, cfg.image_size)
    expect = 1.0 / (1.0 + np.exp(-HEAD_BIAS_PRIOR))
    assert np.allclose(pem.data, expect, atol=1e-6)


def test_decode_input_dependence():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    a = decode(random_tokens(cfg, seed=1), store, cfg, cfg.image_size, cfg.image_size)
    b = decode(random_tokens(cfg, seed=2), store, cfg, cfg.image_size, cfg.image_size)
    assert not np.allclose(a.data, b.data)


def test_decode_validates_token_sets():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    tokens = random_tokens(cfg)
    with pytest.raises(DimensionError, match="layer token sets"):
        decode(tokens[:-1], store, cfg, cfg.image_size, cfg.image_size)
    bad_width = [T.constant(np.zeros((1, cfg.num_patches, cfg.embed_dim + 1))) for _ in tokens]
    with pytest.raises(DimensionError, match="embed_dim"):
        decode(bad_width, store, cfg, cfg.image_size, cfg.image_size)
    bad_count = [T.constant(np.zeros((1, cfg.num_patches - 1, cfg.embed_dim))) for _ in tokens]
    with pytest.raises(DimensionError, match="perfect square"):
        decode(bad_count, store, cfg, cfg.image_size, cfg.image_size)
    with pytest.raises(DimensionError, match="does not match grid"):
        decode(tokens, store, cfg, cfg.image_size * 2, cfg.image_size * 2)


def test_decode_differentiable_to_tokens():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    rng = CounterRng(derive_seed(3, "tok"))
    tokens = []
    for _ in cfg.selected_layers:
        data = rng.normal(cfg.num_patches * cfg.embed_dim).reshape(1, cfg.num_patches, cfg.embed_dim)
        tokens.append(T.Tensor(data, requires_grad=True, dtype=np.float64))
    with T.Tape() as tape:
        pem = decode(tokens, store, cfg, cfg.image_size, cfg.image_size)
        T.backward(T.mean(pem), tape)
    for tok in tokens:
        assert tok.grad is not None
        assert np.any(tok.grad != 0.0)


def test_init_head_bias_prior():
    cfg = tiny_config()
    store = make_decoder_store(cfg)
    assert float(store["dec.head.b"].data[0]) == pytest.approx(HEAD_BIAS_PRIOR)
    # layer biases start at zero
    assert np.all(store["dec.layer0.b"].data == 0.0)
