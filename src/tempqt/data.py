"""Dataset manifests, synthetic dataset generation, and patch sampling.

A manifest is a small CSV: one metadata line, one column-header line,
then one row per sample. Paths are stored relative to the manifest's
directory so a dataset folder can be moved wholesale. Splits are by
reference group: every sample of a pristine source lands on the same
side, which keeps evaluation reference-disjoint.

``check_crop_fits`` is the one check that an image holds the model's
crop. Training, evaluation and ``tempqt maps`` run it on each image as
they read it, so ``sample_patches`` and ``eval_crops`` only cut crops
from images that passed it.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, replace

from .errors import ArgumentError, DataError
from .imaging import (
    DISTORTION_KINDS,
    SEVERITIES,
    DistortionSpec,
    GrayImage,
    apply_distortion,
    load_image,
    pseudo_mos,
    quantize_to_8bit,
    save_image,
)
from .rng import CounterRng, derive_seed

MANIFEST_VERSION = 1
SPLITS = ("train", "test")
_COLUMNS = "dist_path,ref_path,score,ref_group,split"
_META_RE = re.compile(r"^# tempqt manifest version=(\d+) seed=(\d+)$")


@dataclass
class Sample:
    dist_path: str
    ref_path: str
    score: float
    ref_group: str
    split: str = "train"


@dataclass
class DatasetManifest:
    version: int
    seed: int
    samples: list
    base_dir: str = "."

    def split_samples(self, split: str) -> list:
        return [s for s in self.samples if s.split == split]

    def resolve(self, rel_path: str) -> str:
        return os.path.normpath(os.path.join(self.base_dir, rel_path))


def _validate(manifest: DatasetManifest) -> None:
    # the metadata line's seed is read back as digits only
    if manifest.seed < 0:
        raise DataError(f"seed must be non-negative, got {manifest.seed}")
    seen = set()
    group_split: dict = {}
    for s in manifest.samples:
        if not s.dist_path:
            raise DataError("sample with empty dist_path")
        if s.dist_path in seen:
            raise DataError(f"duplicate dist_path {s.dist_path!r}")
        seen.add(s.dist_path)
        for field in ("dist_path", "ref_path", "ref_group"):
            value = getattr(s, field)
            # the manifest is comma-separated, one sample per line
            if any(c in value for c in ",\r\n"):
                raise DataError(f"{field} {value!r} holds a comma or a line break")
        if not (0.0 <= s.score <= 1.0) or not math.isfinite(s.score):
            raise DataError(f"score {s.score!r} outside [0, 1] for {s.dist_path!r}")
        if s.split not in SPLITS:
            raise DataError(f"unknown split {s.split!r} for {s.dist_path!r}")
        prior = group_split.get(s.ref_group)
        if prior is None:
            group_split[s.ref_group] = s.split
        elif prior != s.split:
            raise DataError(f"reference group {s.ref_group!r} appears in both splits")


def save_manifest(manifest: DatasetManifest, path) -> None:
    _validate(manifest)
    lines = [f"# tempqt manifest version={manifest.version} seed={manifest.seed}", _COLUMNS]
    for s in manifest.samples:
        lines.append(f"{s.dist_path},{s.ref_path},{s.score!r},{s.ref_group},{s.split}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_manifest(path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = [ln.rstrip("\n") for ln in fh]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: manifest is not UTF-8") from exc
    if not lines:
        raise DataError(f"{path}: empty manifest")
    meta = _META_RE.match(lines[0])
    if not meta:
        raise DataError(f"{path}: bad metadata line {lines[0]!r}")
    version = int(meta.group(1))
    if version != MANIFEST_VERSION:
        raise DataError(f"{path}: unsupported manifest version {version}")
    if len(lines) < 2 or lines[1] != _COLUMNS:
        raise DataError(f"{path}: expected column header {_COLUMNS!r}")
    samples = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
        dist_path, ref_path, score_text, ref_group, split = parts
        try:
            score = float(score_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad score {score_text!r}") from None
        samples.append(Sample(dist_path, ref_path, score, ref_group, split))
    manifest = DatasetManifest(
        version=version,
        seed=int(meta.group(2)),
        samples=samples,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    _validate(manifest)
    return manifest


# ---------------------------------------------------------------------------
# synthetic dataset generation


def generate_synthetic_dataset(
    base_images: list,
    out_dir: str,
    kinds: tuple = DISTORTION_KINDS,
    severities: tuple = SEVERITIES,
    seed: int = 0,
) -> DatasetManifest:
    """Distort each base image with every (kind, severity) pair.

    Writes 8-bit PGMs under out_dir/ref and out_dir/dist and returns an
    unsplit manifest (every sample marked train). Each base also yields
    one pristine sample with score 1. Noise seeds derive from the run
    seed xor the item index, so regeneration is bit-identical. An empty
    ``kinds`` or ``severities``, or one that lists a value twice, is an
    ArgumentError.
    """
    if len(base_images) < 2:
        raise ArgumentError("need at least two base images")
    if not kinds:
        raise ArgumentError("kinds must not be empty")
    if not severities:
        raise ArgumentError("severities must not be empty")
    for name, values in (("kinds", tuple(kinds)), ("severities", tuple(severities))):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ArgumentError(f"{name} lists {value!r} more than once")
    # every base is read and the specs and the manifest are built and
    # validated before anything is written, so a rejected kind, severity,
    # base image or dataset leaves no directory or image behind
    samples = []
    writes = []  # per base: (8-bit base, ref path, pristine path, [(path, spec)])
    item_index = 0
    base_seed = derive_seed(seed, "noise")
    for base_path in base_images:
        stem = os.path.splitext(os.path.basename(base_path))[0]
        ref_rel = f"ref/{stem}.pgm"
        pristine_rel = f"dist/{stem}_pristine.pgm"
        samples.append(Sample(pristine_rel, ref_rel, 1.0, stem, "train"))
        distortions = []
        for kind in kinds:
            for sev in severities:
                spec = DistortionSpec(kind, sev, seed=base_seed ^ item_index)
                item_index += 1
                rel = f"dist/{stem}_{kind}_s{sev}.pgm"
                distortions.append((rel, spec))
                samples.append(Sample(rel, ref_rel, pseudo_mos(spec), stem, "train"))
        writes.append((quantize_to_8bit(load_image(base_path)), ref_rel, pristine_rel, distortions))
    manifest = DatasetManifest(MANIFEST_VERSION, seed, samples, base_dir=out_dir)
    _validate(manifest)

    os.makedirs(os.path.join(out_dir, "ref"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "dist"), exist_ok=True)
    for base, ref_rel, pristine_rel, distortions in writes:
        save_image(base, os.path.join(out_dir, ref_rel))
        save_image(base, os.path.join(out_dir, pristine_rel))
        for rel, spec in distortions:
            save_image(apply_distortion(base, spec), os.path.join(out_dir, rel))
    return manifest


def check_train_fraction(train_fraction: float) -> None:
    """ArgumentError unless 0 < train_fraction < 1."""
    if not 0.0 < train_fraction < 1.0:
        raise ArgumentError(f"train_fraction must be in (0, 1), got {train_fraction}")


def check_crop_fits(img: GrayImage, crop: int, path: str) -> None:
    """DataError naming ``path`` if the model's crop does not fit the image."""
    if img.height < crop or img.width < crop:
        raise DataError(f"{path}: image is {img.height}x{img.width}, smaller than the model's {crop}x{crop} crop")


def split_by_reference(manifest: DatasetManifest, train_fraction: float, seed: int) -> DatasetManifest:
    """Assign whole reference groups to train/test, ceil on the train side."""
    check_train_fraction(train_fraction)
    groups = sorted({s.ref_group for s in manifest.samples})
    if len(groups) < 2:
        raise DataError("need at least two reference groups to split")
    rng = CounterRng(derive_seed(seed, "split"))
    rng.shuffle(groups)
    n_train = math.ceil(train_fraction * len(groups))
    if n_train >= len(groups):
        n_train = len(groups) - 1
    train_groups = set(groups[:n_train])
    samples = [
        replace(s, split="train" if s.ref_group in train_groups else "test")
        for s in manifest.samples
    ]
    out = DatasetManifest(manifest.version, seed, samples, base_dir=manifest.base_dir)
    _validate(out)
    return out


# ---------------------------------------------------------------------------
# patch sampling


def _window(img: GrayImage, top: int, left: int, crop: int):
    """The read-only crop x crop view of ``img``'s pixels at (top, left)."""
    view = img.pixels[top : top + crop, left : left + crop]
    view.flags.writeable = False
    return view


def sample_patches(
    img: GrayImage, count: int, crop: int, seed: int, augment: bool = True
) -> list:
    """Random square crops with optional independent h/v flips.

    Deterministic in (img, count, crop, seed, augment); calling twice
    with the same seed yields the same geometry, which is how aligned
    distorted/reference pairs are cropped. Each crop is a read-only
    (crop, crop) float32 view of ``img``'s pixels, so an epoch's crops
    hold no pixels of their own and none can write into the image;
    ``ImageBatch`` copies a batch's crops into one array. The caller
    checks that the crop fits (``check_crop_fits``) and that ``count``
    and ``crop`` are positive, as ``RunConfig`` and ``ModelConfig`` do.
    """
    rng = CounterRng(derive_seed(seed, "patches"))
    out = []
    for _ in range(count):
        top = rng.randint(img.height - crop + 1)
        left = rng.randint(img.width - crop + 1)
        patch = _window(img, top, left, crop)
        if augment:
            if rng.random() < 0.5:
                patch = patch[:, ::-1]
            if rng.random() < 0.5:
                patch = patch[::-1, :]
        out.append(patch)
    return out


def eval_crops(img: GrayImage, crop: int) -> list:
    """Deterministic evaluation crops: corners plus center, deduplicated.

    Each crop is a read-only (crop, crop) float32 view of ``img``'s
    pixels, in the order top-left, top-right, bottom-left, bottom-right,
    center, with a repeated position kept once: an image exactly crop x
    crop yields the single full crop. The caller checks that the crop
    fits (``check_crop_fits``) and is positive.
    """
    bottom, right = img.height - crop, img.width - crop
    corners = dict.fromkeys([(0, 0), (0, right), (bottom, 0), (bottom, right)])
    center = [center_crop(img, crop)] if max(bottom, right) > 1 else []  # else the top-left corner
    return [_window(img, top, left, crop) for top, left in corners] + center


def center_crop(img: GrayImage, crop: int):
    """The read-only crop x crop view at the center of ``img``; an odd margin's extra line goes below or right."""
    return _window(img, (img.height - crop) // 2, (img.width - crop) // 2, crop)
