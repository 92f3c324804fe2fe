"""Objective error maps and the error-map training loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ArgumentError, DimensionError
from .imaging import GrayImage

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


def compute_oem(dist: GrayImage, ref: GrayImage) -> GrayImage:
    """Objective error map: elementwise absolute difference |d - r|."""
    if (dist.height, dist.width) != (ref.height, ref.width):
        raise DimensionError(
            f"image sizes differ: {dist.height}x{dist.width} vs {ref.height}x{ref.width}"
        )
    return GrayImage(dist.height, dist.width, np.abs(dist.pixels - ref.pixels))


def _flat_const(img: GrayImage, shape, dtype) -> T.Tensor:
    return T.constant(img.pixels.reshape(shape), dtype=dtype)


def pem_loss(
    pem: T.Tensor,
    oem: GrayImage,
    dist: GrayImage,
    ref: GrayImage,
    cfg: PemLossConfig,
) -> T.Tensor:
    """Mean-squared map error plus a weighted reconstruction term.

    loss = mean((pem - oem)^2)
         + oem_lambda * mean((ref' - ref)^2)

    with the pseudo reference ref' = dist - pem.
    Means, not sums, so the value is resolution-independent.
    """
    hw = (oem.height, oem.width)
    if pem.data.size != oem.pixels.size:
        raise DimensionError(f"pem shape {pem.shape} does not match map {hw}")
    if (dist.height, dist.width) != hw or (ref.height, ref.width) != hw:
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
    return T.add(fit, T.scale(recon, cfg.oem_lambda))
