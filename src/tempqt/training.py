"""Two-stage training: error-map pretraining, then quality regression.

Stage 1 trains the patch encoder and decoder against objective error
maps. Stage 2 freezes that branch bit-for-bit, builds the quality-token
branch and fusion head, and regresses scores with an L1 loss. Both
stages run one loop (``_train``): each epoch it samples the stage's
items, shuffles them, and takes one classic Adam step (L2-coupled
weight decay, stepped learning-rate schedule) per batch. A stage
supplies only its per-epoch items and its batch loss, and each batch
runs as one forward over its stacked patches. Stage 2 and inference
score crops through one function, ``score_crops``; inference stacks
one image's evaluation crops into one batch.

The fusion head reads the frozen branch only through
``frozen_features``: the predicted map pooled to (B, gap_grid²). Since
the branch is frozen, a patch's features are a constant for the whole
of stage 2, so ``train_quality`` encodes each distinct patch once,
keyed by a digest of its pixels, and reuses the row on every later
draw. Its log ends with ``stage=2 frozen_encoded=<distinct>
frozen_drawn=<drawn>``.

``param_table`` declares the model's parameters once, by init family;
both stages build their stores from it through ``build_store``.

Checkpoints are a small binary format (magic ``TQTCKPT``, version 2):
embedded configuration text followed by named float32 parameter blocks
in store order, and nothing after the last block. Optimizer state and
epoch counters are not stored; nothing resumes from them. Little-endian
throughout; a save/load/save round trip is byte-identical, and a save
replaces the file atomically. A load validates the parameter names and
shapes against the table of the file's own configuration: the whole
model if the file has a fusion head, else the error-map branch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import DatasetManifest, eval_crops, sample_patches
from .decoder import decode, decoder_params
from .encoder import EncoderOutput, ModelConfig, encode, encoder_params
from .errors import (
    ArgumentError,
    CheckpointError,
    CompatibilityError,
    DataError,
    TrainingError,
)
from .imaging import GrayImage, ImageBatch, load_image
from .params import ParamStore, fill
from .quality import ABLATION_MODES, fuse_and_predict, fusion_params, quality_loss
from .rng import CounterRng, derive_seed
from .supervision import PemLossConfig, compute_oem, pem_loss
from .tensor import Tape, backward, zero_grads

CHECKPOINT_MAGIC = b"TQTCKPT"
CHECKPOINT_VERSION = 2

STAGE1_FAMILIES = ("pem", "dec")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for both stages.

    alpha is the stage-1 learning rate, beta the stage-2 rate. The
    desk-scale defaults are tuned for training the small configuration
    from scratch; ``paper_train_config`` preserves the full-scale
    fine-tuning preset.
    """

    alpha: float = 1e-3
    beta: float = 1e-3
    weight_decay: float = 1e-5
    batch_size: int = 8
    epochs_stage1: int = 3
    epochs_stage2: int = 10
    lr_decay: float = 0.9
    lr_period: int = 5
    seed: int = 0
    share_backbone: bool = False
    ablation_mode: str = "both"

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ArgumentError("learning rates must be positive")
        if self.weight_decay < 0:
            raise ArgumentError("weight_decay must be nonnegative")
        if self.batch_size < 1:
            raise ArgumentError("batch_size must be positive")
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ArgumentError("epoch counts must be nonnegative")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ArgumentError("lr_decay must be in (0, 1]")
        if self.lr_period < 1:
            raise ArgumentError("lr_period must be positive")
        if self.ablation_mode not in ABLATION_MODES:
            raise ArgumentError(f"ablation_mode must be one of {ABLATION_MODES}")


def paper_train_config() -> TrainConfig:
    """Full-scale preset: fine-tuning rates, up to 15 epochs per stage."""
    return TrainConfig(alpha=2e-5, beta=2e-5, epochs_stage1=15, epochs_stage2=15)


def lr_at(epoch: int, cfg: TrainConfig, base: float | None = None) -> float:
    """Stepped schedule: base * decay ** (epoch // period)."""
    if epoch < 0:
        raise ArgumentError("epoch must be nonnegative")
    if base is None:
        base = cfg.alpha
    return base * cfg.lr_decay ** (epoch // cfg.lr_period)


class AdamState:
    """First/second moment buffers for the trainable parameters."""

    def __init__(self, store: ParamStore | None = None):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        if store is not None:
            for name, p in store.trainable():
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)


def adam_step(store: ParamStore, state: AdamState, lr: float, weight_decay: float) -> None:
    """One coupled-decay Adam update over every trainable parameter."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, p in store.trainable():
        if p.grad is None:
            raise TrainingError(f"missing gradient for trainable parameter {name!r}")
        g = p.grad
        if weight_decay != 0.0:
            g = g + weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# model assembly


def param_table(cfg: ModelConfig, mode: str = "both", share_backbone: bool = False) -> dict:
    """The model's parameters by init family, in checkpoint order.

    Each family ("pem", "dec", "pqt", "fuse") is a list of (name, shape,
    init) entries. A shared backbone keeps only the quality token of
    its pqt family; pem_only has no pqt family.
    """
    table = {"pem": encoder_params(cfg, "pem"), "dec": decoder_params(cfg)}
    if mode != "pem_only":
        pqt = encoder_params(cfg, "pqt")
        # a shared backbone reads blocks and embedding from pem.*
        table["pqt"] = [e for e in pqt if e[0] == "pqt.token"] if share_backbone else pqt
    table["fuse"] = fusion_params(cfg, mode)
    return table


def stage1(table: dict) -> dict:
    """The error-map branch of a table: its pem and dec families."""
    return {family: table[family] for family in STAGE1_FAMILIES}


def build_store(table: dict, seed: int, frozen: dict | None = None, dtype=np.float32) -> ParamStore:
    """Every parameter of ``table``, in table order.

    Each family draws from its own stream, ``derive_seed(seed, "init",
    family)``. With ``frozen`` (arrays by name) the stage-1 families copy
    their values from it and are frozen.
    """
    store = ParamStore()
    for family, entries in table.items():
        if frozen is not None and family in STAGE1_FAMILIES:
            for name, _shape, _init in entries:
                store.add(name, frozen[name], dtype, trainable=False)
        else:
            fill(store, entries, CounterRng(derive_seed(seed, "init", family)), dtype)
    return store


def build_pem_store(cfg: ModelConfig, seed: int) -> ParamStore:
    """A fresh error-map branch (the benchmark's tests build one by this name)."""
    return build_store(stage1(param_table(cfg)), seed)


def check_params(arrays: dict, table: dict, what: str) -> None:
    """Raise CompatibilityError naming each missing, extra or misshapen parameter."""
    expected = {name: shape for entries in table.values() for name, shape, _init in entries}
    got = {name: arr.shape for name, arr in arrays.items()}
    if got == expected:
        return
    wrong = (
        [f"missing {name}" for name in sorted(expected.keys() - got.keys())]
        + [f"extra {name}" for name in sorted(got.keys() - expected.keys())]
        + [
            f"{name} is {got[name]}, expected {shape}"
            for name, shape in sorted(expected.items())
            if name in got and got[name] != shape
        ]
    )
    raise CompatibilityError(what, tuple(wrong[:6]))


def forward_pem(images, store: ParamStore, cfg: ModelConfig) -> T.Tensor:
    """Encode with the error-map branch and decode to (B, 1, H, W) maps.

    ``images`` is an ImageBatch, or a GrayImage as a batch of one.
    """
    enc = encode(images, store, cfg, branch="pem", weight_prefix="pem", capture=False)
    return decode(enc.layer_tokens, store, cfg, cfg.image_size, cfg.image_size)


def forward_pqt(
    images,
    store: ParamStore,
    cfg: ModelConfig,
    share_backbone: bool = False,
    capture: bool = False,
) -> EncoderOutput:
    prefix = "pem" if share_backbone else "pqt"
    return encode(images, store, cfg, branch="pqt", weight_prefix=prefix, capture=capture)


def frozen_features(images, store: ParamStore, cfg: ModelConfig) -> T.Tensor:
    """(B, gap_grid²) pooled error maps: all the fusion head reads of the frozen branch."""
    return T.global_average_pool(forward_pem(images, store, cfg), cfg.gap_grid)


def score_crops(
    crops: ImageBatch,
    pem_features: T.Tensor | None,
    store: ParamStore,
    cfg: ModelConfig,
    mode: str,
    share_backbone: bool,
) -> T.Tensor:
    """(B,) scores of a crop batch from its frozen features (None in pqt_only)."""
    token = forward_pqt(crops, store, cfg, share_backbone).token if mode != "pem_only" else None
    return fuse_and_predict(pem_features, token, store, cfg, mode)


def predict_score(
    img: GrayImage,
    store: ParamStore,
    cfg: ModelConfig,
    mode: str = "both",
    share_backbone: bool = False,
) -> float:
    """Mean predicted score over the deterministic evaluation crops, run as one batch."""
    crops = ImageBatch.stack(eval_crops(img, cfg.image_size))
    features = frozen_features(crops, store, cfg) if mode != "pqt_only" else None
    scores = score_crops(crops, features, store, cfg, mode, share_backbone)
    return float(np.mean(scores.data, dtype=np.float64))


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    model_cfg: ModelConfig
    train_cfg: TrainConfig
    loss_cfg: PemLossConfig
    params: dict


def store_from_checkpoint(ckpt: Checkpoint) -> ParamStore:
    """Rebuild an inference store: every parameter present, all frozen."""
    store = ParamStore()
    for name, arr in ckpt.params.items():
        store.add(name, arr, trainable=False)
    return store


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    from .config import serialize_settings

    text = serialize_settings(ckpt.model_cfg, ckpt.train_cfg, ckpt.loss_cfg).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<B", CHECKPOINT_VERSION)]
    chunks.append(struct.pack("<I", len(text)))
    chunks.append(text)
    chunks.append(struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        for dim in data.shape:
            chunks.append(struct.pack("<I", dim))
        raw = data.tobytes()
        chunks.append(struct.pack("<Q", len(raw)))
        chunks.append(raw)
    # a crash mid-write leaves the previous file, never a truncated one
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class _Cursor:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated while reading {what}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what))[0]


def load_checkpoint(path) -> Checkpoint:
    from .config import parse_settings

    with open(path, "rb") as fh:
        data = fh.read()
    cur = _Cursor(data, path)
    if cur.take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version = cur.unpack("<B", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    text_len = cur.unpack("<I", "config length")
    try:
        text = cur.take(text_len, "config text").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: config text is not UTF-8") from exc
    model_cfg, train_cfg, loss_cfg = parse_settings(text)

    n_params = cur.unpack("<I", "parameter count")
    params: dict = {}
    for _ in range(n_params):
        name_len = cur.unpack("<H", "name length")
        name = cur.take(name_len, "parameter name").decode("utf-8")
        ndim = cur.unpack("<B", "ndim")
        shape = tuple(cur.unpack("<I", "dimension") for _ in range(ndim))
        nbytes = cur.unpack("<Q", "data length")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if nbytes != 4 * count:
            raise CheckpointError(f"{path}: parameter {name!r} length mismatch")
        raw = cur.take(nbytes, f"data for {name!r}")
        params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    if cur.pos != len(data):
        raise CheckpointError(f"{path}: {len(data) - cur.pos} trailing bytes after the last parameter")
    # a file with a fusion head holds the whole model, any other the error-map branch
    table = param_table(model_cfg, train_cfg.ablation_mode, train_cfg.share_backbone)
    if not any(name.startswith("fuse.") for name in params):
        table = stage1(table)
    check_params(params, table, f"{path}: parameters do not match the checkpoint's configuration")
    return Checkpoint(model_cfg, train_cfg, loss_cfg, params)


def check_model_compat(ckpt_cfg: ModelConfig, cfg: ModelConfig) -> None:
    diffs = tuple(
        f.name
        for f in dataclasses.fields(ModelConfig)
        if getattr(ckpt_cfg, f.name) != getattr(cfg, f.name)
    )
    if diffs:
        raise CompatibilityError("checkpoint model configuration differs", diffs)


# ---------------------------------------------------------------------------
# training loops


class _Log:
    def __init__(self, path):
        self.path = path
        if path is not None:
            # truncate: each run owns its log
            with open(path, "w", encoding="utf-8"):
                pass

    def line(self, text: str) -> None:
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(text + "\n")


def _load_pairs(manifest: DatasetManifest, need_ref: bool) -> list:
    samples = manifest.split_samples("train")
    if not samples:
        raise DataError("manifest has no train samples")
    out = []
    for s in samples:
        dist = load_image(manifest.resolve(s.dist_path))
        ref = None
        if need_ref:
            if not s.ref_path:
                raise DataError(f"{s.dist_path}: error-map pretraining needs a reference image")
            ref = load_image(manifest.resolve(s.ref_path))
            if (ref.height, ref.width) != (dist.height, dist.width):
                raise DataError(f"{s.dist_path}: reference size differs from distorted size")
        out.append((dist, ref, s.score))
    return out


def _train(store: ParamStore, train_cfg: TrainConfig, stage: int, epoch_items, batch_loss, log: _Log) -> None:
    """Adam over shuffled batches of ``epoch_items(epoch)``, one step per batch."""
    if stage == 1:
        epochs, base_lr = train_cfg.epochs_stage1, train_cfg.alpha
    else:
        epochs, base_lr = train_cfg.epochs_stage2, train_cfg.beta
    state = AdamState(store)
    logged_first = False
    for epoch in range(epochs):
        lr = lr_at(epoch, train_cfg, base=base_lr)
        items = epoch_items(epoch)
        CounterRng(derive_seed(train_cfg.seed, "order", stage, epoch)).shuffle(items)

        epoch_losses = []
        for start in range(0, len(items), train_cfg.batch_size):
            with Tape() as tape:
                loss = batch_loss(items[start : start + train_cfg.batch_size])
            backward(loss, tape)
            adam_step(store, state, lr, train_cfg.weight_decay)
            zero_grads(store.tensors())
            value = loss.item()
            if not logged_first:
                log.line(f"stage={stage} init_batch_loss={value!r}")
                logged_first = True
            epoch_losses.append(value)
        log.line(f"stage={stage} epoch={epoch} lr={lr!r} loss={float(np.mean(epoch_losses))!r}")


def pretrain_pem(
    manifest: DatasetManifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: PemLossConfig | None = None,
    patch_count: int = 4,
    augment: bool = True,
    log_path=None,
) -> Checkpoint:
    """Stage 1: train encoder+decoder against objective error maps."""
    loss_cfg = loss_cfg if loss_cfg is not None else PemLossConfig()
    pairs = _load_pairs(manifest, need_ref=True)
    store = build_store(stage1(param_table(model_cfg)), train_cfg.seed)
    crop = model_cfg.image_size

    def epoch_items(epoch: int) -> list:
        items = []
        for si, (dist, ref, _score) in enumerate(pairs):
            pseed = derive_seed(train_cfg.seed, "patch", 1, epoch, si)
            dp = sample_patches(dist, patch_count, crop, pseed, augment)
            rp = sample_patches(ref, patch_count, crop, pseed, augment)
            items.extend(zip(dp, rp))
        return items

    def batch_loss(batch: list) -> T.Tensor:
        dist = ImageBatch.stack(d for d, _r in batch)
        ref = ImageBatch.stack(r for _d, r in batch)
        return pem_loss(forward_pem(dist, store, model_cfg), compute_oem(dist, ref), dist, ref, loss_cfg)

    _train(store, train_cfg, 1, epoch_items, batch_loss, _Log(log_path))
    return Checkpoint(model_cfg, train_cfg, loss_cfg, store.arrays())


def train_quality(
    manifest: DatasetManifest,
    pem_ckpt: Checkpoint,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    patch_count: int = 4,
    augment: bool = True,
    log_path=None,
) -> Checkpoint:
    """Stage 2: freeze the error-map branch, train token branch + head."""
    check_model_compat(pem_ckpt.model_cfg, model_cfg)
    pem_arrays = {
        n: a for n, a in pem_ckpt.params.items() if n.startswith(("pem.", "dec."))
    }
    mode = train_cfg.ablation_mode
    table = param_table(model_cfg, mode, train_cfg.share_backbone)
    check_params(pem_arrays, stage1(table), "checkpoint does not hold a complete error-map branch")
    store = build_store(table, train_cfg.seed, frozen=pem_arrays)
    samples = _load_pairs(manifest, need_ref=False)
    crop = model_cfg.image_size

    def epoch_items(epoch: int) -> list:
        items = []
        for si, (dist, _ref, score) in enumerate(samples):
            pseed = derive_seed(train_cfg.seed, "patch", 2, epoch, si)
            items.extend((p, score) for p in sample_patches(dist, patch_count, crop, pseed, augment))
        return items

    # patch digest -> its frozen feature row; valid for the whole stage,
    # because adam_step never touches the frozen pem.*/dec.* parameters
    rows: dict[bytes, np.ndarray] = {}
    drawn = 0

    def features(patches: ImageBatch) -> T.Tensor:
        nonlocal drawn
        drawn += patches.pixels.shape[0]
        keys = [hashlib.blake2b(p.tobytes(), digest_size=16).digest() for p in patches.pixels]
        unseen = {}  # key -> batch index of its first occurrence
        for i, key in enumerate(keys):
            if key not in rows:
                unseen.setdefault(key, i)
        if unseen:
            encoded = frozen_features(ImageBatch(patches.pixels[list(unseen.values())]), store, model_cfg)
            rows.update(zip(unseen, encoded.data))
        # a constant: the frozen branch records no tape node
        return T.constant(np.stack([rows[key] for key in keys]))

    def batch_loss(batch: list) -> T.Tensor:
        patches = ImageBatch.stack(p for p, _y in batch)
        pem_features = features(patches) if mode != "pqt_only" else None
        preds = score_crops(patches, pem_features, store, model_cfg, mode, train_cfg.share_backbone)
        return quality_loss(preds, np.array([y for _p, y in batch], dtype=np.float32))

    log = _Log(log_path)
    _train(store, train_cfg, 2, epoch_items, batch_loss, log)
    log.line(f"stage=2 frozen_encoded={len(rows)} frozen_drawn={drawn}")
    return Checkpoint(model_cfg, train_cfg, pem_ckpt.loss_cfg, store.arrays())


def evaluate_manifest(
    manifest: DatasetManifest, ckpt: Checkpoint, splits: tuple = ("train", "test")
) -> dict:
    """Predict every sample; returns {split: (paths, targets, predictions)}."""
    store = store_from_checkpoint(ckpt)
    if not store.has_prefix("fuse."):
        raise CompatibilityError("checkpoint has no fusion head; evaluate a quality checkpoint")
    cfg = ckpt.model_cfg
    mode = ckpt.train_cfg.ablation_mode
    share = ckpt.train_cfg.share_backbone
    out = {}
    for split in splits:
        paths, targets, preds = [], [], []
        for s in manifest.split_samples(split):
            img = load_image(manifest.resolve(s.dist_path))
            paths.append(s.dist_path)
            targets.append(s.score)
            preds.append(predict_score(img, store, cfg, mode, share))
        out[split] = (paths, targets, preds)
    return out
