"""Objective error maps and the two-term pretraining loss."""

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt.errors import ArgumentError, DimensionError
from tempqt.imaging import GrayImage
from tempqt.rng import CounterRng
from tempqt.supervision import PemLossConfig, compute_oem, pem_loss


def img(values):
    arr = np.asarray(values, dtype=np.float64)
    return GrayImage(arr.shape[0], arr.shape[1], arr)


def rand_img(rng, h=16, w=16):
    return GrayImage(h, w, rng.uniform(h * w).reshape(h, w))


# ---------------------------------------------------------------------------
# objective error map


def test_oem_self_is_exactly_zero():
    rng = CounterRng(11)
    for _ in range(5):
        x = rand_img(rng)
        out = compute_oem(x, x)
        assert np.all(out.pixels == 0.0)


def test_oem_symmetry_bitwise():
    rng = CounterRng(12)
    for _ in range(20):
        a, b = rand_img(rng), rand_img(rng)
        assert np.array_equal(compute_oem(a, b).pixels, compute_oem(b, a).pixels)


def test_oem_matches_absolute_difference_oracle():
    rng = CounterRng(13)
    for _ in range(100):
        a, b = rand_img(rng, 8, 12), rand_img(rng, 8, 12)
        expected = np.abs(a.pixels - b.pixels)
        assert np.array_equal(compute_oem(a, b).pixels, expected)


def test_oem_size_mismatch():
    with pytest.raises(DimensionError):
        compute_oem(img([[0.0, 0.0]]), img([[0.0], [0.0]]))


# ---------------------------------------------------------------------------
# loss config


def test_loss_config_validation():
    PemLossConfig(oem_lambda=0.0)
    with pytest.raises(ArgumentError):
        PemLossConfig(oem_lambda=-0.1)


# ---------------------------------------------------------------------------
# pem_loss values, frozen from the formula
#   fit   = mean((pem - oem)^2)
#   recon = mean((ref' - ref)^2), ref' = dist - pem
# Oracles read pixels back out of the images so image-storage rounding
# stays upstream of the check; the formula itself is held to 1e-12.

PEM = [[0.2, 0.4], [0.1, 0.3]]
OEM_IMG = img([[0.1, 0.2], [0.3, 0.4]])
DIST_IMG = img([[0.6, 0.7], [0.8, 0.9]])
REF_IMG = img([[0.5, 0.5], [0.5, 0.5]])
PEM64 = np.array(PEM, dtype=np.float64)
OEM64 = OEM_IMG.pixels.astype(np.float64)
DIST64 = DIST_IMG.pixels.astype(np.float64)
REF64 = REF_IMG.pixels.astype(np.float64)
FIT = float(np.mean((PEM64 - OEM64) ** 2))  # ~0.025 after storage rounding


def loss_parts(cfg):
    pem = T.Tensor(PEM64.reshape(1, 2, 2), requires_grad=True, dtype=np.float64)
    with T.Tape() as tape:
        loss = pem_loss(pem, OEM_IMG, DIST_IMG, REF_IMG, cfg)
        T.backward(loss, tape)
    return loss.item(), pem.grad


def test_pem_loss_predicted_mode_value():
    value, _ = loss_parts(PemLossConfig())
    recon = float(np.mean((DIST64 - PEM64 - REF64) ** 2))
    assert value == pytest.approx(FIT + 0.1 * recon, abs=1e-12)


def test_pem_loss_zero_lambda_is_fit_only():
    value, grad = loss_parts(PemLossConfig(oem_lambda=0.0))
    assert value == pytest.approx(FIT, abs=1e-12)
    expected = 2.0 * (PEM64 - OEM64) / 4.0
    assert np.allclose(grad.reshape(2, 2), expected, atol=1e-12)


def test_pem_loss_predicted_mode_gradient():
    # d/dpem = 2(pem - oem)/N - 2*lambda*(dist - pem - ref)/N
    lam = 0.1
    _, grad = loss_parts(PemLossConfig(oem_lambda=lam))
    expected = 2.0 * (PEM64 - OEM64) / 4.0 - 2.0 * lam * (DIST64 - PEM64 - REF64) / 4.0
    assert np.allclose(grad.reshape(2, 2), expected, atol=1e-12)


def test_pem_loss_perfect_prediction_predicted_mode():
    # pem == oem == dist - ref elementwise: both terms vanish
    dist = img([[0.6, 0.8], [0.55, 0.7]])
    ref = img([[0.5, 0.5], [0.5, 0.5]])
    oem = compute_oem(dist, ref)
    pem = T.constant(oem.pixels.reshape(1, 2, 2), dtype=np.float64)
    loss = pem_loss(pem, oem, dist, ref, PemLossConfig())
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_pem_loss_shape_guards():
    cfg = PemLossConfig()
    pem = T.constant(np.zeros((1, 2, 2)))
    with pytest.raises(DimensionError):
        pem_loss(pem, img([[0.0, 0.0, 0.0]]), img([[0.0, 0.0, 0.0]]), img([[0.0, 0.0, 0.0]]), cfg)
    with pytest.raises(DimensionError):
        pem_loss(pem, OEM_IMG, img([[0.0, 0.0, 0.0]]), REF_IMG, cfg)
