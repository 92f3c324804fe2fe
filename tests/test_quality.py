"""Fusion head, quality loss, and attention-map export."""

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt.encoder import tiny_config
from tempqt.errors import ArgumentError, DimensionError
from tempqt.params import ParamStore, fill
from tempqt.quality import (
    ABLATION_MODES,
    extract_attention_map,
    fuse_and_predict,
    fusion_params,
    quality_loss,
)
from tempqt.rng import CounterRng, derive_seed


def fusion_store(cfg, mode="both", seed=0):
    store = ParamStore()
    fill(store, fusion_params(cfg, mode), CounterRng(derive_seed(seed, "fuse")))
    return store


def rand_features(cfg, seed=0):
    # pooled error-map features, as training.frozen_features gives them
    rng = CounterRng(derive_seed(seed, "pem"))
    k = cfg.gap_grid * cfg.gap_grid
    return T.constant(rng.uniform(k).reshape(1, k).astype(np.float32))


def rand_token(cfg, seed=0):
    rng = CounterRng(derive_seed(seed, "tokv"))
    return T.constant(rng.normal(cfg.embed_dim).reshape(1, cfg.embed_dim).astype(np.float32))


# ---------------------------------------------------------------------------
# parameter sets


def test_param_sets_per_mode():
    cfg = tiny_config()
    both = fusion_store(cfg, "both")
    assert both.has_prefix("fuse.mlp1")
    assert both.has_prefix("fuse.mlp2")
    pem_only = fusion_store(cfg, "pem_only")
    assert pem_only.has_prefix("fuse.mlp1")
    pqt_only = fusion_store(cfg, "pqt_only")
    # no pem pooling parameters when the map is not an input
    assert not pqt_only.has_prefix("fuse.mlp1")
    assert pqt_only.has_prefix("fuse.mlp2")


def test_init_rejects_unknown_mode():
    cfg = tiny_config()
    with pytest.raises(ArgumentError, match="unknown ablation mode"):
        fusion_params(cfg, mode="quality")


# ---------------------------------------------------------------------------
# fuse_and_predict


def mode_inputs(cfg, mode):
    """The branch outputs a mode passes the head: None for the branch it ablates."""
    features = None if mode == "pqt_only" else rand_features(cfg)
    return features, None if mode == "pem_only" else rand_token(cfg)


def test_fusion_scalar_output():
    cfg = tiny_config()
    for mode in ABLATION_MODES:
        store = fusion_store(cfg, mode)
        score = fuse_and_predict(*mode_inputs(cfg, mode), store, cfg)
        assert score.shape == (1,)
        assert np.isfinite(score.item())


def test_fusion_modes_disagree():
    cfg = tiny_config()
    store = fusion_store(cfg, "both")
    scores = {m: fuse_and_predict(*mode_inputs(cfg, m), store, cfg).item() for m in ABLATION_MODES}
    assert len(set(scores.values())) == 3


def test_fusion_missing_inputs_rejected():
    cfg = tiny_config()
    store = fusion_store(cfg, "both")
    with pytest.raises(ArgumentError, match="needs pooled error-map features, a quality-token state"):
        fuse_and_predict(None, None, store, cfg)


def test_fusion_rejects_wrong_token_width():
    cfg = tiny_config()
    store = fusion_store(cfg, "both")
    bad = T.constant(np.zeros((1, cfg.embed_dim + 1), dtype=np.float32))
    with pytest.raises(DimensionError, match="quality token"):
        fuse_and_predict(rand_features(cfg), bad, store, cfg)


def test_fusion_rejects_unpooled_map():
    cfg = tiny_config()
    store = fusion_store(cfg, "both")
    pem_map = T.constant(np.zeros((1, 1, cfg.image_size, cfg.image_size), dtype=np.float32))
    with pytest.raises(DimensionError, match="error-map features"):
        fuse_and_predict(pem_map, rand_token(cfg), store, cfg)


def test_fusion_matches_manual_computation():
    cfg = tiny_config()
    store = fusion_store(cfg, "pqt_only")
    tok = rand_token(cfg)
    score = fuse_and_predict(None, tok, store, cfg)
    z = tok.data.astype(np.float64).reshape(1, -1)
    h = z @ store["fuse.mlp2.w1"].data + store["fuse.mlp2.b1"].data
    slope = store["fuse.mlp2.slope"].data.item()
    h = np.where(h >= 0, h, slope * h)
    out = h @ store["fuse.mlp2.w2"].data + store["fuse.mlp2.b2"].data
    assert score.item() == pytest.approx(float(out[0, 0]), abs=1e-6)


def test_fusion_differentiable():
    cfg = tiny_config()
    store = fusion_store(cfg, "both")
    features = T.Tensor(rand_features(cfg).data, requires_grad=True, dtype=np.float32)
    with T.Tape() as tape:
        score = fuse_and_predict(features, rand_token(cfg), store, cfg)
        T.backward(score, tape)
    assert features.grad is not None
    assert np.any(features.grad != 0.0)
    assert store["fuse.mlp2.slope"].grad is not None


# ---------------------------------------------------------------------------
# quality loss


def test_quality_loss_value():
    preds = T.constant(np.array([0.2, 0.8, 0.5]), dtype=np.float64)
    loss = quality_loss(preds, [0.0, 1.0, 0.5])
    assert loss.item() == pytest.approx((0.2 + 0.2 + 0.0) / 3.0, abs=1e-12)


def test_quality_loss_permutation_invariant():
    preds = np.array([0.1, 0.6, 0.9, 0.3])
    targets = np.array([0.2, 0.5, 1.0, 0.0])
    a = quality_loss(T.constant(preds, dtype=np.float64), targets).item()
    perm = [2, 0, 3, 1]
    b = quality_loss(T.constant(preds[perm], dtype=np.float64), targets[perm]).item()
    assert a == pytest.approx(b, abs=1e-15)


def test_quality_loss_shape_guard():
    preds = T.constant(np.array([0.2, 0.8]))
    with pytest.raises(DimensionError, match="shape"):
        quality_loss(preds, [0.0, 1.0, 0.5])


def test_quality_loss_gradient_is_sign():
    preds = T.Tensor(np.array([0.2, 0.9]), requires_grad=True, dtype=np.float64)
    with T.Tape() as tape:
        loss = quality_loss(preds, [0.5, 0.5])
        T.backward(loss, tape)
    assert np.allclose(preds.grad, [-0.5, 0.5])


# ---------------------------------------------------------------------------
# attention-map export


def test_attention_map_shape_and_range():
    rng = CounterRng(derive_seed(0, "att"))
    vecs = []
    for _ in range(3):
        raw = rng.uniform(16)
        vecs.append((raw / raw.sum()).astype(np.float32))
    img = extract_attention_map(vecs, 32, 32)
    assert (img.height, img.width) == (32, 32)
    assert float(img.pixels.min()) == pytest.approx(0.0)
    assert float(img.pixels.max()) == pytest.approx(1.0)


def test_attention_map_flat_input_is_zeros():
    flat = [np.full(16, 1.0 / 16.0, dtype=np.float32)]
    img = extract_attention_map(flat, 16, 16)
    assert np.all(img.pixels == 0.0)


def test_attention_map_peak_location():
    vec = np.zeros(16, dtype=np.float64)
    vec[0] = 1.0  # top-left patch
    img = extract_attention_map([vec], 16, 16)
    assert img.pixels[0, 0] == pytest.approx(1.0)
    assert img.pixels[-1, -1] == pytest.approx(0.0)


def test_attention_map_errors():
    with pytest.raises(ArgumentError, match="no attention vectors"):
        extract_attention_map([], 8, 8)
    with pytest.raises(ArgumentError, match="perfect square"):
        extract_attention_map([np.ones(15) / 15.0], 8, 8)
    with pytest.raises(ArgumentError, match="disagree"):
        extract_attention_map([np.ones(16) / 16.0, np.ones(9) / 9.0], 8, 8)
