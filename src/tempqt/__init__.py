"""Trainable no-reference image quality assessment.

A small vision transformer is trained in two stages: first to predict
per-pixel error maps from the distorted image alone, then, with that
branch frozen, a learnable quality token plus a fusion head regress a
scalar quality score. Everything runs on numpy through a taped
reverse-mode tensor core; results are deterministic in the run seed.
"""

from .config import RunConfig, load_run_config, parse_run_text, serialize_run_config
from .data import (
    DatasetManifest,
    Sample,
    eval_crops,
    generate_synthetic_dataset,
    load_manifest,
    sample_patches,
    save_manifest,
    split_by_reference,
)
from .encoder import EncoderOutput, ModelConfig, encode, paper_scale_config, tiny_config
from .decoder import decode
from .errors import (
    ArgumentError,
    CheckpointError,
    CompatibilityError,
    DataError,
    DimensionError,
    MetricError,
    ParseError,
    TrainingError,
)
from .imaging import (
    DISTORTION_KINDS,
    DistortionSpec,
    GrayImage,
    ImageBatch,
    apply_distortion,
    load_image,
    make_texture,
    pseudo_mos,
    save_image,
)
from .metrics import plcc, srocc
from .quality import extract_attention_map, fuse_and_predict, quality_loss
from .rng import CounterRng, derive_seed
from .supervision import PemLossConfig, compute_oem, pem_loss
from .tensor import Tape, Tensor, backward
from .training import (
    Checkpoint,
    TrainConfig,
    adam_step,
    evaluate_manifest,
    forward_pem,
    load_checkpoint,
    lr_at,
    predict_score,
    pretrain_pem,
    save_checkpoint,
    store_from_checkpoint,
    train_quality,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "Checkpoint",
    "CheckpointError",
    "CompatibilityError",
    "CounterRng",
    "DISTORTION_KINDS",
    "DataError",
    "DatasetManifest",
    "DimensionError",
    "DistortionSpec",
    "EncoderOutput",
    "GrayImage",
    "ImageBatch",
    "MetricError",
    "ModelConfig",
    "ParseError",
    "PemLossConfig",
    "RunConfig",
    "Sample",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "adam_step",
    "apply_distortion",
    "backward",
    "compute_oem",
    "decode",
    "derive_seed",
    "encode",
    "eval_crops",
    "evaluate_manifest",
    "extract_attention_map",
    "forward_pem",
    "fuse_and_predict",
    "generate_synthetic_dataset",
    "load_checkpoint",
    "load_image",
    "load_manifest",
    "load_run_config",
    "lr_at",
    "make_texture",
    "paper_scale_config",
    "parse_run_text",
    "pem_loss",
    "plcc",
    "predict_score",
    "pretrain_pem",
    "pseudo_mos",
    "quality_loss",
    "sample_patches",
    "save_checkpoint",
    "save_image",
    "save_manifest",
    "serialize_run_config",
    "split_by_reference",
    "srocc",
    "store_from_checkpoint",
    "tiny_config",
    "train_quality",
]
