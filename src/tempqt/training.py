"""Two-stage training: error-map pretraining, then quality regression.

Stage 1 trains the patch encoder and decoder against objective error
maps. Stage 2 freezes that branch bit-for-bit, builds the quality-token
branch and fusion head, and regresses scores with an L1 loss. Both
stages run one loop (``_train``): each epoch it cuts aligned crops
from every train sample's images, shuffles them, and takes one classic
Adam step (L2-coupled weight decay, stepped learning-rate schedule) per
batch. A stage supplies only its images and its loss, and each batch
runs as one forward over its stacked crops. From the first step on,
a stage's trainable parameters live in one flat buffer, each ``p.data``
a view of it, and Adam updates that buffer in place (``AdamState``).
Stage 2 and inference score crops through one function,
``score_crops``, which runs the quality branch through ``encode``;
inference stacks one image's evaluation crops into one batch.

The fusion head reads the frozen branch only through
``frozen_features``: the predicted map pooled to (B, gap_grid²). Since
the branch is frozen, a patch's features are a constant for the whole
of stage 2, so ``train_quality`` encodes each distinct patch once,
keyed by a digest of its pixels, and reuses the row on every later
draw. Its log ends with ``stage=2 frozen_encoded=<distinct>
frozen_drawn=<drawn>``.

``param_table`` declares the model's parameters once, by init family;
both stages build their stores from it through ``build_store``.

Checkpoints are a small binary format (magic ``TQTCKPT``, version 5):
a version byte, the settings text's u32 length, the text, then the
float32 values of every entry of the settings' ``param_table``, in
table order, with no name, shape or length stored beside them. The
table is the one declaration of names, shapes and order. A file holds
either the whole model or only its error-map branch (``stage1``); the
number of values tells which, since the fusion head is never empty.
Optimizer state and epoch counters are not stored; nothing resumes
from them. Little-endian throughout; a save/load/save round trip is
byte-identical, and a save replaces the file atomically. A save
rejects parameters that differ from the table and writes nothing; a
load rejects a value count that fits neither table, and a non-finite
value, naming its parameter.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import SPLITS, DatasetManifest, check_crop_fits, eval_crops, sample_patches
from .decoder import decode, decoder_params
from .encoder import ModelConfig, encode, encoder_params
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
CHECKPOINT_VERSION = 5

STAGE1_FAMILIES = ("pem", "dec")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# L2 coefficient coupled into every stage's gradient
ADAM_WEIGHT_DECAY = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for both stages.

    alpha is the stage-1 learning rate, beta the stage-2 rate. The
    desk-scale defaults are tuned for training the small configuration
    from scratch. Both stages couple ``ADAM_WEIGHT_DECAY`` into Adam.
    """

    alpha: float = 1e-3
    beta: float = 1e-3
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
        if self.share_backbone and self.ablation_mode == "pem_only":
            raise ArgumentError("share_backbone needs a quality-token branch; pem_only has none")


def lr_at(epoch: int, cfg: TrainConfig, base: float) -> float:
    """Stepped schedule: base * decay ** (epoch // period)."""
    if epoch < 0:
        raise ArgumentError("epoch must be nonnegative")
    return base * cfg.lr_decay ** (epoch // cfg.lr_period)


class AdamState:
    """Adam's step count and flat buffers over the trainable parameters.

    The trainable parameters live in one buffer, ``values``, from the
    first step on: construction copies them there in store order and
    rebinds each ``p.data`` to a reshaped view of it, so the model and
    ``store.arrays()`` read the optimizer's values. ``m`` and ``v`` are
    the moments. Frozen parameters stay outside the buffer. The step's
    gathered gradient and its scratch are allocated by each
    ``adam_step`` and freed when it returns, so they never sit beside
    the next forward's activations.
    """

    def __init__(self, store: ParamStore):
        self.params = store.trainable()
        dtypes = sorted({str(p.data.dtype) for _name, p in self.params})
        if len(dtypes) > 1:
            raise ArgumentError(f"trainable parameters must share one dtype, got {', '.join(dtypes)}")
        size = sum(p.data.size for _name, p in self.params)
        self.values = np.empty(size, dtype=dtypes[0] if dtypes else np.float32)
        offset = 0
        for _name, p in self.params:
            view = self.values[offset : offset + p.data.size].reshape(p.data.shape)
            view[...] = p.data
            offset += p.data.size
            p.data = view
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self.t = 0


def adam_step(state: AdamState, lr: float, weight_decay: float) -> None:
    """One coupled-decay Adam update over every trainable parameter.

    Every check runs before anything changes, so a step that raises
    leaves the values, moments and step count as they were. The update
    runs in place over the flat buffers and two per-step arrays, the
    gathered gradient and a scratch buffer, ``v`` before ``m`` so that
    the gradient can be scaled in place; each element sees the
    operations of the per-tensor rule in the same order.
    """
    for name, p in state.params:
        if p.grad is None:
            raise TrainingError(f"missing gradient for trainable parameter {name!r}")
        if p.grad.shape != p.data.shape:
            raise TrainingError(
                f"gradient for trainable parameter {name!r} has shape {p.grad.shape}, expected {p.data.shape}"
            )
        if p.data.base is not state.values:
            raise TrainingError(f"trainable parameter {name!r} no longer views the optimizer's buffer")
    values, m, v = state.values, state.m, state.v
    g = np.concatenate([p.grad.ravel() for _name, p in state.params], dtype=values.dtype)
    tmp = np.empty_like(values)
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    if weight_decay != 0.0:
        np.multiply(values, weight_decay, out=tmp)
        g += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += tmp
    m *= ADAM_BETA1
    g *= 1.0 - ADAM_BETA1
    m += g
    np.divide(m, bc1, out=g)
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    g *= lr
    g /= tmp
    values -= g


# ---------------------------------------------------------------------------
# model assembly


def param_table(cfg: ModelConfig, mode: str = "both", share_backbone: bool = False) -> dict:
    """The model's parameters by init family, in checkpoint order.

    Each family ("pem", "dec", "pqt", "fuse") is a list of (name, shape,
    init) entries; pem_only has no pqt family.
    """
    table = {"pem": encoder_params(cfg, "pem"), "dec": decoder_params(cfg)}
    if mode != "pem_only":
        table["pqt"] = encoder_params(cfg, "pqt", share_backbone)
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
    """A fresh error-map branch, as stage 1 starts it."""
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
    return decode(encode(images, store, cfg).layer_tokens, store, cfg)


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
    token = encode(crops, store, cfg, "pqt", share_backbone).token if mode != "pem_only" else None
    return fuse_and_predict(pem_features, token, store, cfg)


def predict_score(
    img: GrayImage,
    store: ParamStore,
    cfg: ModelConfig,
    mode: str = "both",
    share_backbone: bool = False,
) -> float:
    """Mean predicted score over the deterministic evaluation crops, run as one batch."""
    crops = ImageBatch(eval_crops(img, cfg.image_size))
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

    def settings_text(self) -> str:
        """Model, train and loss settings as config text: the saved header, what eval and maps record."""
        from .config import serialize_settings

        return serialize_settings(self.model_cfg, self.train_cfg, self.loss_cfg)


def store_from_checkpoint(ckpt: Checkpoint) -> ParamStore:
    """Rebuild an inference store: every parameter present, all frozen."""
    store = ParamStore()
    for name, arr in ckpt.params.items():
        store.add(name, arr, trainable=False)
    return store


def _tables(model_cfg: ModelConfig, train_cfg: TrainConfig) -> tuple:
    """The two tables a checkpoint of these settings can hold: the whole model, and its error-map branch."""
    table = param_table(model_cfg, train_cfg.ablation_mode, train_cfg.share_backbone)
    return table, stage1(table)


def _size(table: dict) -> int:
    """Bytes of a table's float32 values."""
    return 4 * sum(math.prod(shape) for entries in table.values() for _name, shape, _init in entries)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` in its table's order; parameters that differ from it raise and write nothing."""
    whole, branch = _tables(ckpt.model_cfg, ckpt.train_cfg)
    # a checkpoint with a fusion head holds the whole model, any other the error-map branch
    table = whole if any(name in ckpt.params for name, _shape, _init in whole["fuse"]) else branch
    check_params(ckpt.params, table, f"{path}: parameters do not match the checkpoint's configuration")
    text = ckpt.settings_text().encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<BI", CHECKPOINT_VERSION, len(text)), text]
    for entries in table.values():
        chunks.extend(np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes() for name, _s, _i in entries)
    # a crash mid-write leaves the previous file, never a truncated one
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path) -> Checkpoint:
    from .config import parse_settings

    with open(path, "rb") as fh:
        data = fh.read()
    head = len(CHECKPOINT_MAGIC)
    if data[:head] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(data) > head and data[head] != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {data[head]}")
    if len(data) < head + 5:
        raise CheckpointError(f"{path}: truncated while reading the header")
    (text_len,) = struct.unpack_from("<I", data, head + 1)
    body = head + 5 + text_len
    if len(data) < body:
        raise CheckpointError(f"{path}: truncated while reading the config text")
    try:
        text = data[head + 5 : body].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: config text is not UTF-8") from exc
    try:
        model_cfg, train_cfg, loss_cfg = parse_settings(text)
    except ArgumentError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    # the fusion head is never empty, so the two sizes differ
    whole, branch = _tables(model_cfg, train_cfg)
    table = {_size(whole): whole, _size(branch): branch}.get(len(data) - body)
    if table is None:
        raise CheckpointError(
            f"{path}: holds {len(data) - body} bytes of parameter values; its configuration needs "
            f"{_size(whole)} (the whole model) or {_size(branch)} (the error-map branch)"
        )
    values = np.frombuffer(data, dtype="<f4", offset=body)
    params: dict = {}
    for entries in table.values():
        for name, shape, _init in entries:
            size = math.prod(shape)
            arr, values = values[:size], values[size:]
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: parameter {name!r} holds a non-finite value")
            params[name] = arr.reshape(shape).copy()
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
            # a stage opens its log once its inputs have checked: the run's directory appears then
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            # truncate: each run owns its log
            with open(path, "w", encoding="utf-8"):
                pass

    def line(self, text: str) -> None:
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(text + "\n")


def _load_pairs(manifest: DatasetManifest, need_ref: bool, crop: int) -> list:
    """Each train sample as (images, score): (dist, ref) with ``need_ref``, else (dist,)."""
    samples = manifest.split_samples("train")
    if not samples:
        raise DataError("manifest has no train samples")
    out = []
    for s in samples:
        dist = load_image(manifest.resolve(s.dist_path))
        check_crop_fits(dist, crop, s.dist_path)
        if need_ref:
            if not s.ref_path:
                raise DataError(f"{s.dist_path}: error-map pretraining needs a reference image")
            ref = load_image(manifest.resolve(s.ref_path))
            if (ref.height, ref.width) != (dist.height, dist.width):
                raise DataError(f"{s.dist_path}: reference size differs from distorted size")
        out.append(((dist, ref) if need_ref else (dist,), s.score))
    return out


def _train(
    store: ParamStore, train_cfg: TrainConfig, stage: int, samples: list, batch_loss, log: _Log,
    *, crop: int, patch_count: int, augment: bool,
) -> None:
    """Adam over shuffled batches of the samples' crops, one step per batch.

    Each epoch, one seed per sample, ``derive_seed(seed, "patch", stage,
    epoch, si)``, cuts ``patch_count`` aligned crops from each of its
    images. The items ``(*crops, score)`` are shuffled; ``batch_loss``
    gets a batch as one ImageBatch per image, then the float32 scores.

    A step's TrainingError ends the log with an ``error=`` line and propagates.
    Steps run with numpy's overflow, invalid and divide warnings off, so a
    diverging run reports only that error.
    """
    if stage == 1:
        epochs, base_lr = train_cfg.epochs_stage1, train_cfg.alpha
    else:
        epochs, base_lr = train_cfg.epochs_stage2, train_cfg.beta
    state = AdamState(store)
    for epoch in range(epochs):
        lr = lr_at(epoch, train_cfg, base=base_lr)
        items = []
        for si, (images, score) in enumerate(samples):
            pseed = derive_seed(train_cfg.seed, "patch", stage, epoch, si)
            cuts = [sample_patches(img, patch_count, crop, pseed, augment) for img in images]
            items.extend((*item, score) for item in zip(*cuts))
        CounterRng(derive_seed(train_cfg.seed, "order", stage, epoch)).shuffle(items)

        epoch_losses = []
        for batch, start in enumerate(range(0, len(items), train_cfg.batch_size)):
            *crops, scores = zip(*items[start : start + train_cfg.batch_size])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                with Tape() as tape:
                    loss = batch_loss(*map(ImageBatch, crops), np.array(scores, dtype=np.float32))
                try:
                    backward(loss, tape)
                    adam_step(state, lr, ADAM_WEIGHT_DECAY)
                except TrainingError as exc:
                    log.line(f"stage={stage} epoch={epoch} batch={batch} error={exc}")
                    raise
            zero_grads(store.tensors())
            value = loss.item()
            if epoch == 0 and batch == 0:
                log.line(f"stage={stage} init_batch_loss={value!r}")
            epoch_losses.append(value)
        log.line(f"stage={stage} epoch={epoch} lr={lr!r} loss={float(np.mean(epoch_losses))!r}")


def pretrain_pem(
    manifest: DatasetManifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: PemLossConfig | None = None,
    *,
    patch_count: int,
    augment: bool,
    log_path=None,
) -> Checkpoint:
    """Stage 1: train encoder+decoder against objective error maps."""
    loss_cfg = loss_cfg if loss_cfg is not None else PemLossConfig()
    crop = model_cfg.image_size
    pairs = _load_pairs(manifest, need_ref=True, crop=crop)
    store = build_pem_store(model_cfg, train_cfg.seed)

    def batch_loss(dist: ImageBatch, ref: ImageBatch, _scores: np.ndarray) -> T.Tensor:
        return pem_loss(forward_pem(dist, store, model_cfg), compute_oem(dist, ref), dist, ref, loss_cfg)

    log = _Log(log_path)
    _train(store, train_cfg, 1, pairs, batch_loss, log, crop=crop, patch_count=patch_count, augment=augment)
    return Checkpoint(model_cfg, train_cfg, loss_cfg, store.arrays())


def train_quality(
    manifest: DatasetManifest,
    pem_ckpt: Checkpoint,
    train_cfg: TrainConfig,
    *,
    patch_count: int,
    augment: bool,
    log_path=None,
) -> Checkpoint:
    """Stage 2 on ``pem_ckpt``'s model: freeze its error-map branch, train token branch + head."""
    model_cfg = pem_ckpt.model_cfg
    pem_arrays = {
        n: a for n, a in pem_ckpt.params.items() if n.startswith(("pem.", "dec."))
    }
    mode = train_cfg.ablation_mode
    table = param_table(model_cfg, mode, train_cfg.share_backbone)
    check_params(pem_arrays, stage1(table), "checkpoint does not hold a complete error-map branch")
    store = build_store(table, train_cfg.seed, frozen=pem_arrays)
    crop = model_cfg.image_size
    samples = _load_pairs(manifest, need_ref=False, crop=crop)

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

    def batch_loss(patches: ImageBatch, scores: np.ndarray) -> T.Tensor:
        pem_features = features(patches) if mode != "pqt_only" else None
        preds = score_crops(patches, pem_features, store, model_cfg, mode, train_cfg.share_backbone)
        return quality_loss(preds, scores)

    log = _Log(log_path)
    _train(store, train_cfg, 2, samples, batch_loss, log, crop=crop, patch_count=patch_count, augment=augment)
    log.line(f"stage=2 frozen_encoded={len(rows)} frozen_drawn={drawn}")
    return Checkpoint(model_cfg, train_cfg, pem_ckpt.loss_cfg, store.arrays())


def evaluate_manifest(manifest: DatasetManifest, ckpt: Checkpoint) -> dict:
    """Predict every sample; returns {split: (paths, targets, predictions)} for train and test."""
    store = store_from_checkpoint(ckpt)
    if not store.has_prefix("fuse."):
        raise CompatibilityError("checkpoint has no fusion head; evaluate a quality checkpoint")
    cfg = ckpt.model_cfg
    mode = ckpt.train_cfg.ablation_mode
    share = ckpt.train_cfg.share_backbone
    out = {}
    for split in SPLITS:
        paths, targets, preds = [], [], []
        for s in manifest.split_samples(split):
            img = load_image(manifest.resolve(s.dist_path))
            check_crop_fits(img, cfg.image_size, s.dist_path)
            paths.append(s.dist_path)
            targets.append(s.score)
            preds.append(predict_score(img, store, cfg, mode, share))
        out[split] = (paths, targets, preds)
    return out
