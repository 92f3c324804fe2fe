"""Shared fixtures: the 8-image overfit set and trained checkpoints.

The overfit images are two mirrored multi-band patterns (a pixel
checkerboard plus 6px and 12px gratings) blurred at severities 1/3/5.
Blur removes one band per severity step, so the objective error level
is strictly severity-ordered and, because the bases share a spectrum,
nearly content-neutral. That makes the set learnable by every ablation
mode, which white-noise compositions at this model size are not.

Training fixtures are session-scoped: stage 1 runs once (~10 s) and the
dependent tests reuse the checkpoint.
"""

import os

import numpy as np
import pytest

from tempqt.data import DatasetManifest, Sample, load_manifest, save_manifest
from tempqt.encoder import tiny_config
from tempqt.imaging import (
    DistortionSpec,
    GrayImage,
    apply_distortion,
    load_image,
    pseudo_mos,
    save_image,
)
from tempqt.supervision import PemLossConfig
from tempqt.training import TrainConfig, pretrain_pem, train_quality

FIXTURE_SEVERITIES = (1, 3, 5)

# stage-1 recipe: gentle enough that the decoder sigmoid never saturates,
# long enough to converge; the reconstruction term is dropped because at
# this scale it only biases the map toward zero
FIXTURE_STAGE1 = dict(
    alpha=2e-3, batch_size=8, epochs_stage1=300, lr_decay=0.85, lr_period=20, seed=0
)
FIXTURE_LOSS = PemLossConfig(oem_lambda=0.0)

# 200-step budget for the headline overfit check
FIXTURE_STAGE2 = dict(beta=1e-2, epochs_stage2=200, lr_decay=0.85, lr_period=20)


def fixture_bases():
    yy, xx = np.mgrid[0:32, 0:32].astype(float)
    checker = 2.0 * ((xx + yy) % 2) - 1.0
    band6 = np.sin(2 * np.pi * (xx + 0.7 * yy) / 6.0)
    band12 = np.sin(2 * np.pi * (0.6 * xx - yy) / 12.0)
    pat = np.clip(0.5 + 0.22 * checker + 0.18 * band6 + 0.14 * band12, 0.0, 1.0)
    return [
        GrayImage(32, 32, pat),
        GrayImage(32, 32, np.ascontiguousarray(pat[:, ::-1])),
    ]


def build_overfit_dataset(root) -> str:
    os.makedirs(os.path.join(root, "ref"))
    os.makedirs(os.path.join(root, "dist"))
    samples = []
    for b, base in enumerate(fixture_bases()):
        ref_rel = f"ref/base{b}.pgm"
        save_image(base, os.path.join(root, ref_rel))
        base = load_image(os.path.join(root, ref_rel))
        rel = f"dist/base{b}_p.pgm"
        save_image(base, os.path.join(root, rel))
        samples.append(Sample(rel, ref_rel, 1.0, f"base{b}", "train"))
        for sev in FIXTURE_SEVERITIES:
            spec = DistortionSpec("gaussian_blur", sev, seed=0)
            rel = f"dist/base{b}_b{sev}.pgm"
            save_image(apply_distortion(base, spec), os.path.join(root, rel))
            samples.append(Sample(rel, ref_rel, pseudo_mos(spec), f"base{b}", "train"))
    path = os.path.join(root, "manifest.csv")
    save_manifest(DatasetManifest(1, 0, samples, root), path)
    return path


@pytest.fixture(scope="session")
def overfit_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    return load_manifest(build_overfit_dataset(str(root)))


@pytest.fixture(scope="session")
def overfit_pem_ckpt(overfit_manifest):
    cfg = tiny_config()
    tc = TrainConfig(**FIXTURE_STAGE1)
    return pretrain_pem(
        overfit_manifest, cfg, tc, loss_cfg=FIXTURE_LOSS, patch_count=1, augment=False
    )


@pytest.fixture(scope="session")
def overfit_quality_ckpt(overfit_manifest, overfit_pem_ckpt):
    tc = TrainConfig(**{**FIXTURE_STAGE1, **FIXTURE_STAGE2})
    return train_quality(
        overfit_manifest, overfit_pem_ckpt, tc, patch_count=1, augment=False
    )

