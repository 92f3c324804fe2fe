"""Flat key=value config parsing and canonical serialization."""

import dataclasses

import pytest

from tempqt.config import (
    RunConfig,
    parse_pairs,
    parse_run_text,
    parse_settings,
    serialize_run_config,
    serialize_settings,
)
from tempqt.encoder import ModelConfig
from tempqt.errors import ArgumentError
from tempqt.supervision import PemLossConfig
from tempqt.training import CHECKPOINT_VERSION, TrainConfig

# the checkpoint header holds this text; a change to it needs a
# CHECKPOINT_VERSION bump and a new golden here
DEFAULT_SETTINGS_TEXT = """\
# model
image_size = 64
patch_size = 8
embed_dim = 64
layers = 4
heads = 4
selected_layers = 0,1,2,4
gap_grid = 1
# training
alpha = 0.001
beta = 0.001
batch_size = 8
epochs_stage1 = 3
epochs_stage2 = 10
lr_decay = 0.9
lr_period = 5
seed = 0
share_backbone = false
ablation_mode = both
# loss
oem_lambda = 0.1
"""


def test_settings_round_trip_defaults():
    model, train, loss = ModelConfig(), TrainConfig(), PemLossConfig()
    text = serialize_settings(model, train, loss)
    m2, t2, l2 = parse_settings(text)
    assert (m2, t2, l2) == (model, train, loss)


def test_settings_round_trip_non_defaults():
    model = ModelConfig(image_size=32, patch_size=8, embed_dim=48, layers=3, heads=4, selected_layers=(0, 1, 3))
    train = TrainConfig(alpha=3e-4, batch_size=5, lr_decay=0.5, ablation_mode="pem_only")
    loss = PemLossConfig(oem_lambda=0.25)
    m2, t2, l2 = parse_settings(serialize_settings(model, train, loss))
    assert (m2, t2, l2) == (model, train, loss)


def test_serialization_is_canonical():
    a = serialize_settings(ModelConfig(), TrainConfig(), PemLossConfig())
    b = serialize_settings(ModelConfig(), TrainConfig(), PemLossConfig())
    assert a == b
    # one key per line, no blank lines
    lines = [ln for ln in a.splitlines() if not ln.startswith("#")]
    assert all(" = " in ln for ln in lines)


def test_default_settings_text_is_golden():
    assert CHECKPOINT_VERSION == 5
    assert serialize_settings(ModelConfig(), TrainConfig(), PemLossConfig()) == DEFAULT_SETTINGS_TEXT


def test_run_text_appends_the_run_keys():
    run = RunConfig(ModelConfig(), TrainConfig(), PemLossConfig(), patch_count=2)
    assert serialize_run_config(run) == DEFAULT_SETTINGS_TEXT + "# run\npatch_count = 2\naugment = true\n"


def test_run_config_holds_no_paths():
    # a run's manifest and output directory are the --manifest and --out flags
    assert [f.name for f in dataclasses.fields(RunConfig)] == ["model", "train", "loss", "patch_count", "augment"]


def test_float_values_survive_exactly():
    train = TrainConfig(alpha=2e-05, lr_decay=0.85)
    _, t2, _ = parse_settings(serialize_settings(ModelConfig(), train, PemLossConfig()))
    assert t2.alpha == 2e-05
    assert t2.lr_decay == 0.85


def test_comments_and_blank_lines_ignored():
    pairs = parse_pairs("# full line\n\nalpha = 0.5  # trailing\n  \nbeta = 0.25\n")
    assert pairs == {"alpha": "0.5", "beta": "0.25"}


def test_hash_always_starts_a_comment():
    assert parse_pairs("  # indented comment\nablation_mode = both#x\n") == {"ablation_mode": "both"}
    assert parse_run_text("alpha = 0.5#x\n").train.alpha == 0.5


@pytest.mark.parametrize(
    "text, message",
    [
        ("alpha 0.5", "expected key = value"),
        ("= 0.5", "empty key"),
        ("alpha = 1\nalpha = 2", "duplicate key"),
    ],
)
def test_parse_pairs_errors_carry_line_numbers(text, message):
    with pytest.raises(ArgumentError, match=message) as exc:
        parse_pairs(text)
    assert "line" in str(exc.value)


def test_duplicate_error_names_the_later_line():
    with pytest.raises(ArgumentError, match="line 3"):
        parse_pairs("alpha = 1\n# spacer\nalpha = 2")


def test_unknown_key_rejected():
    with pytest.raises(ArgumentError, match="unknown configuration key"):
        parse_run_text("momentum = 0.9")


def test_removed_use_pqt_key_rejected():
    # ablation_mode alone decides which branches exist; the MLP width and
    # Adam's weight decay are constants (encoder.MLP_RATIO,
    # training.ADAM_WEIGHT_DECAY); a run's paths are the --manifest and --out flags
    removed = (("use_pqt", "true"), ("mlp_ratio", "4.0"), ("weight_decay", "1e-05"), ("manifest", "m.csv"),
               ("out_dir", "run"))
    for key, value in removed:
        with pytest.raises(ArgumentError, match=f"unknown configuration key '{key}'"):
            parse_run_text(f"{key} = {value}")


@pytest.mark.parametrize(
    "text, message",
    [
        ("alpha = fast", "bad value for alpha"),
        ("batch_size = 2.5", "bad value for batch_size"),
        ("augment = yes", "bad value for augment"),
        ("selected_layers = 1,two", "bad value for selected_layers"),
    ],
)
def test_typed_value_errors(text, message):
    with pytest.raises(ArgumentError, match=message):
        parse_run_text(text)


def test_settings_reject_run_level_keys():
    with pytest.raises(ArgumentError, match="run-level keys"):
        parse_settings("patch_count = 2")


def test_run_config_round_trip():
    run = RunConfig(
        model=ModelConfig(embed_dim=48, heads=4),
        train=TrainConfig(batch_size=4),
        loss=PemLossConfig(oem_lambda=0.0),
        patch_count=2,
        augment=False,
    )
    again = parse_run_text(serialize_run_config(run))
    assert again == run


def test_run_config_defaults_when_keys_missing():
    run = parse_run_text("embed_dim = 48\nheads = 4\n")
    assert run.model.embed_dim == 48
    assert run.train == TrainConfig()
    assert run.loss == PemLossConfig()
    assert run.patch_count == 4
    assert run.augment is True


def test_run_config_validates_patch_count():
    with pytest.raises(ArgumentError, match="patch_count"):
        parse_run_text("patch_count = 0")


def test_dataclass_field_names_do_not_collide():
    # the flat namespace only works while these stay disjoint
    names = [
        {f.name for f in dataclasses.fields(cls)}
        for cls in (ModelConfig, TrainConfig, PemLossConfig)
    ]
    names.append({"patch_count", "augment"})
    union = set().union(*names)
    assert len(union) == sum(len(n) for n in names)
