"""Objective error maps and the error-map training loss."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError

@dataclass(frozen=True)
class PemLossConfig:
    """Weights for the two error-map loss terms.

    oem_lambda balances the reconstruction term, whose pseudo reference
    is the distorted image minus the predicted map.
    """

    oem_lambda: float = 0.1

    def __post_init__(self):
        if self.oem_lambda < 0:
            raise ArgumentError(f"oem_lambda must be nonnegative, got {self.oem_lambda}")


def compute_oem(dist, ref):
    """Objective error map |d - r|, elementwise.

    Takes two GrayImages or two ImageBatches and returns the same kind.
    """
    if dist.pixels.shape != ref.pixels.shape:
        raise DimensionError(f"image sizes differ: {dist.pixels.shape} vs {ref.pixels.shape}")
    return dataclasses.replace(dist, pixels=np.abs(dist.pixels - ref.pixels))


def _flat_const(img, shape, dtype) -> T.Tensor:
    return T.constant(img.pixels.reshape(shape), dtype=dtype)


def pem_loss(pem: T.Tensor, oem, dist, ref, cfg: PemLossConfig) -> T.Tensor:
    """Mean-squared map error plus a weighted reconstruction term.

    loss = mean((pem - oem)^2)
         + oem_lambda * mean((ref' - ref)^2)

    with the pseudo reference ref' = dist - pem. ``pem`` is the (B, 1, H, W)
    predicted map; oem, dist and ref are GrayImages (B = 1) or ImageBatches
    of B images. Means run over the batch and every pixel, so the value is
    the batch average of the per-image losses and resolution-independent.
    """
    hw = oem.pixels.shape
    if pem.data.size != oem.pixels.size:
        raise DimensionError(f"pem shape {pem.shape} does not match map {hw}")
    if dist.pixels.shape != hw or ref.pixels.shape != hw:
        raise DimensionError("distorted/reference sizes do not match the error map")
    dtype = pem.data.dtype
    shape = pem.data.shape
    oem_t = _flat_const(oem, shape, dtype)
    fit = T.mean(T.square(T.sub(pem, oem_t)))
    if cfg.oem_lambda == 0.0:
        return fit
    dist_t = _flat_const(dist, shape, dtype)
    ref_t = _flat_const(ref, shape, dtype)
    ref_prime = T.sub(dist_t, pem)
    recon = T.mean(T.square(T.sub(ref_prime, ref_t)))
    return T.add(fit, T.mul(recon, cfg.oem_lambda))
