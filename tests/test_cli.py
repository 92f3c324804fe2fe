"""End-to-end CLI pipeline at tiny scale, plus error and exit-code paths."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from tempqt import cli, errors
from tempqt import gradcheck
from tempqt import tensor as T
from tempqt.config import load_run_config, serialize_run_config, serialize_settings
from tempqt.data import load_manifest, save_manifest
from tempqt.encoder import ModelConfig
from tempqt.errors import CheckpointError
from tempqt.imaging import GrayImage, load_image, make_texture, save_image
from tempqt.supervision import PemLossConfig
from tempqt.training import (
    Checkpoint,
    TrainConfig,
    build_store,
    load_checkpoint,
    param_table,
    save_checkpoint,
)

TINY_RUN_CONFIG = """\
# model
image_size = 32
patch_size = 8
embed_dim = 16
layers = 2
heads = 2
selected_layers = 0,1,2
gap_grid = 2
# training
alpha = 0.001
beta = 0.001
batch_size = 8
epochs_stage1 = 1
epochs_stage2 = 1
# run
patch_count = 1
augment = false
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> pretrain -> train -> eval -> maps, one shared tiny run."""
    root = tmp_path_factory.mktemp("cli")
    bases = root / "bases"
    bases.mkdir()
    for i in range(3):
        save_image(make_texture(32, 32, seed=100 + i), bases / f"b{i}.pgm")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_RUN_CONFIG, encoding="utf-8")

    ds = root / "ds"
    run = root / "run"
    assert cli.main([
        "synth", "--bases", str(bases), "--out", str(ds),
        "--seed", "0", "--severities", "1,5",
    ]) == 0
    paths = ["--manifest", str(ds / "manifest.csv"), "--out", str(run)]
    assert cli.main(["pretrain", "--config", str(cfg_path), *paths]) == 0
    assert cli.main([
        "train", "--config", str(cfg_path), *paths, "--pem-ckpt", str(run / "pem.ckpt"),
    ]) == 0
    assert cli.main([
        "eval", "--config", str(cfg_path), *paths, "--ckpt", str(run / "quality.ckpt"),
    ]) == 0
    some_dist = next((ds / "dist").glob("*_s5.pgm"))
    maps_out = root / "maps"
    assert cli.main([
        "maps", "--ckpt", str(run / "quality.ckpt"),
        "--images", str(some_dist), "--out", str(maps_out),
    ]) == 0
    return dict(root=root, bases=bases, ds=ds, run=run, maps=maps_out,
                cfg=cfg_path, dist=some_dist)


# ---------------------------------------------------------------------------
# pipeline artifacts


def test_synth_outputs(pipeline):
    ds = pipeline["ds"]
    assert (ds / "manifest.csv").is_file()
    assert (ds / "synth.resolved.config").is_file()
    resolved = (ds / "synth.resolved.config").read_text()
    assert [line.split(" = ")[0] for line in resolved.splitlines()] == [
        "seed", "kinds", "severities", "train_fraction",
    ]
    assert "seed = 0" in resolved
    assert "severities = 1,5" in resolved
    # 3 bases x (1 pristine + 3 kinds x 2 severities)
    lines = (ds / "manifest.csv").read_text().splitlines()
    assert len(lines) == 2 + 3 * 7


def test_pretrain_outputs(pipeline):
    run = pipeline["run"]
    assert (run / "pem.ckpt").is_file()
    assert (run / "pretrain.resolved.config").is_file()
    log = (run / "pretrain.log").read_text().splitlines()
    assert log[0].startswith("stage=1 init_batch_loss=")
    assert any(ln.startswith("stage=1 epoch=0 ") for ln in log)


def test_train_outputs(pipeline):
    run = pipeline["run"]
    assert (run / "quality.ckpt").is_file()
    log = (run / "train.log").read_text().splitlines()
    assert any(ln.startswith("stage=2 epoch=0 ") for ln in log)
    # one epoch of whole-image patches: each is drawn once, so each is encoded
    n = len(load_manifest(str(pipeline["ds"] / "manifest.csv")).split_samples("train"))
    assert log[-1] == f"stage=2 frozen_encoded={n} frozen_drawn={n}"


def test_eval_report_format(pipeline):
    run = pipeline["run"]
    report = (run / "report.txt").read_text().splitlines()
    assert len(report) == 2
    for line, split in zip(report, ("train", "test")):
        assert line.startswith(f"split={split} n=")
        assert "srocc=" in line and "plcc=" in line
    csv = (run / "predictions.csv").read_text().splitlines()
    assert csv[0] == "dist_path,y,pred"
    assert len(csv) == 1 + 3 * 7
    for row in csv[1:]:
        dist_path, y, pred = row.split(",")
        float(y), float(pred)


def test_maps_outputs(pipeline):
    stem = pipeline["dist"].name.rsplit(".", 1)[0]
    pem_map = load_image(pipeline["maps"] / f"{stem}.pem.pgm")
    att_map = load_image(pipeline["maps"] / f"{stem}.am.pgm")
    assert (pem_map.height, pem_map.width) == (32, 32)
    assert (att_map.height, att_map.width) == (32, 32)
    assert float(pem_map.pixels.min()) >= 0.0
    assert float(pem_map.pixels.max()) <= 1.0
    assert (pipeline["maps"] / "maps.resolved.config").is_file()


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--bases"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2


RUN_COMMAND_ARGS = {"pretrain": [], "train": ["--pem-ckpt", "pem.ckpt"], "eval": ["--ckpt", "quality.ckpt"]}


@pytest.mark.parametrize("command", list(RUN_COMMAND_ARGS))
@pytest.mark.parametrize(
    "paths,message",
    [
        (["--out", "run"], "the following arguments are required: --manifest"),
        (["--manifest", "manifest.csv"], "the following arguments are required: --out"),
        (["--manifest", "", "--out", "run"], "argument --manifest: must not be empty"),
        (["--manifest", "manifest.csv", "--out", ""], "argument --out: must not be empty"),
    ],
    ids=["no_manifest", "no_out", "empty_manifest", "empty_out"],
)
def test_run_paths_are_required_flags(tmp_path, monkeypatch, capsys, command, paths, message):
    # an empty --out would otherwise write into the working directory
    (tmp_path / "run.cfg").write_text(TINY_RUN_CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", "run.cfg", *RUN_COMMAND_ARGS[command], *paths])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("key", ["manifest", "out_dir"])
def test_config_naming_a_path_exit_1_without_output(pipeline, tmp_path, capsys, key):
    cfg = tmp_path / "paths.cfg"
    cfg.write_text(TINY_RUN_CONFIG + f"{key} = elsewhere\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main([
        "pretrain", "--config", str(cfg),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: unknown configuration key '{key}'\n"
    assert not out.exists()


def test_resolved_config_is_the_same_from_any_directory(pipeline, tmp_path, monkeypatch):
    # relative flags from another working directory, into another run directory
    shutil.copytree(pipeline["ds"], tmp_path / "ds")
    monkeypatch.chdir(tmp_path)
    assert cli.main([
        "pretrain", "--config", str(pipeline["cfg"]), "--manifest", "ds/manifest.csv", "--out", "elsewhere",
    ]) == 0
    resolved = (tmp_path / "elsewhere" / "pretrain.resolved.config").read_bytes()
    assert resolved == (pipeline["run"] / "pretrain.resolved.config").read_bytes()


def test_synth_writes_the_same_config_and_manifest_into_any_directory(pipeline, tmp_path, monkeypatch):
    # the same bases, copied elsewhere, synthesized into another directory
    # by relative flags: synth records no path
    shutil.copytree(pipeline["bases"], tmp_path / "bases")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--bases", "bases", "--out", "other/ds", "--seed", "0", "--severities", "1,5"]) == 0
    for name in ("synth.resolved.config", "manifest.csv"):
        assert (tmp_path / "other" / "ds" / name).read_bytes() == (pipeline["ds"] / name).read_bytes(), name


def test_eval_records_the_settings_of_the_checkpoint_it_scored(pipeline, tmp_path):
    # the pipeline's checkpoint is `both`, trained with batch_size 8 and patch_count 1
    cfg = tmp_path / "other.cfg"
    text = TINY_RUN_CONFIG.replace("batch_size = 8", "batch_size = 99")
    cfg.write_text(text.replace("patch_count = 1", "patch_count = 7") + "ablation_mode = pqt_only\n", encoding="utf-8")
    out = tmp_path / "eval"
    assert cli.main([
        "eval", "--config", str(cfg), "--manifest", str(pipeline["ds"] / "manifest.csv"),
        "--out", str(out), "--ckpt", str(pipeline["run"] / "quality.ckpt"),
    ]) == 0
    ckpt = load_checkpoint(pipeline["run"] / "quality.ckpt")
    resolved = (out / "eval.resolved.config").read_text()
    assert resolved == serialize_settings(ckpt.model_cfg, ckpt.train_cfg, ckpt.loss_cfg)
    assert "ablation_mode = both\n" in resolved and "batch_size = 8\n" in resolved
    assert "patch_count" not in resolved
    # it scored with the checkpoint's settings, as the pipeline's eval did
    assert (out / "predictions.csv").read_bytes() == (pipeline["run"] / "predictions.csv").read_bytes()
    maps_resolved = (pipeline["maps"] / "maps.resolved.config").read_text()
    assert maps_resolved == serialize_settings(ckpt.model_cfg, ckpt.train_cfg, ckpt.loss_cfg)


def test_train_records_the_loss_settings_its_checkpoint_holds(pipeline, tmp_path):
    # stage 2 keeps pem.ckpt's loss settings (the default oem_lambda 0.1), not --config's
    cfg = tmp_path / "lambda.cfg"
    cfg.write_text(TINY_RUN_CONFIG + "oem_lambda = 0.7\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main([
        "train", "--config", str(cfg), "--manifest", str(pipeline["ds"] / "manifest.csv"),
        "--out", str(out), "--pem-ckpt", str(pipeline["run"] / "pem.ckpt"),
    ]) == 0
    ckpt = load_checkpoint(out / "quality.ckpt")
    assert ckpt.loss_cfg.oem_lambda == 0.1
    resolved = (out / "train.resolved.config").read_text()
    assert "oem_lambda = 0.1\n" in resolved
    assert resolved.startswith(serialize_settings(ckpt.model_cfg, ckpt.train_cfg, ckpt.loss_cfg) + "# run\n")


def test_eval_reports_undefined_correlations_as_na(pipeline, tmp_path, capsys):
    # constant test scores, then a fusion head whose output ignores its input
    ds = pipeline["ds"]
    manifest = load_manifest(str(ds / "manifest.csv"))
    flat = tmp_path / "flat.csv"
    save_manifest(dataclasses.replace(manifest, samples=[
        dataclasses.replace(
            s, dist_path=str(ds / s.dist_path), ref_path=str(ds / s.ref_path),
            score=0.5 if s.split == "test" else s.score,
        )
        for s in manifest.samples
    ]), flat)
    ckpt = load_checkpoint(pipeline["run"] / "quality.ckpt")
    ckpt.params["fuse.mlp2.w2"][:] = 0.0
    const = tmp_path / "const.ckpt"
    save_checkpoint(ckpt, const)
    cases = [
        (flat, pipeline["run"] / "quality.ckpt", ("train",), ("test",)),
        (ds / "manifest.csv", const, (), ("train", "test")),
    ]
    for i, (manifest_path, ckpt_path, defined, undefined) in enumerate(cases):
        out = tmp_path / f"e{i}"
        assert cli.main([
            "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(ckpt_path),
            "--manifest", str(manifest_path), "--out", str(out),
        ]) == 0
        assert capsys.readouterr().err == ""
        report = dict(line.split(" ", 1) for line in (out / "report.txt").read_text().splitlines())
        for split in defined:
            assert "n/a" not in report[f"split={split}"]
        for split in undefined:
            assert report[f"split={split}"].endswith(" srocc=n/a plcc=n/a")
        assert len((out / "predictions.csv").read_text().splitlines()) == 1 + 3 * 7


def test_every_error_class_is_reported():
    # the CLI catches the one base, so a new error class needs no entry there
    assert cli._ERRORS == (errors.TempqtError, OSError)
    classes = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]
    assert {errors.ArgumentError, errors.CheckpointError, errors.TrainingError} < set(classes)
    for cls in classes:
        assert issubclass(cls, errors.TempqtError), cls.__name__
        assert cls is errors.TempqtError or issubclass(cls, (ValueError, RuntimeError)), cls.__name__


def test_runtime_errors_exit_1(pipeline, tmp_path, capsys):
    # missing manifest file
    assert cli.main([
        "pretrain", "--config", str(pipeline["cfg"]),
        "--manifest", str(tmp_path / "nowhere" / "manifest.csv"), "--out", str(tmp_path / "out"),
    ]) == 1
    assert "error:" in capsys.readouterr().err

    # eval with a stage-1 checkpoint
    assert cli.main([
        "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(pipeline["run"] / "pem.ckpt"),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(tmp_path / "e"),
    ]) == 1
    assert "no fusion head" in capsys.readouterr().err

    # train on a stage-1 checkpoint of another model: the run writes no file
    wide = tmp_path / "wide.cfg"
    wide.write_text(TINY_RUN_CONFIG.replace("embed_dim = 16", "embed_dim = 32"), encoding="utf-8")
    out = tmp_path / "t"
    assert cli.main([
        "train", "--config", str(wide), "--pem-ckpt", str(pipeline["run"] / "pem.ckpt"),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ]) == 1
    assert "checkpoint model configuration differs" in capsys.readouterr().err
    assert not out.exists()


def test_pretrain_bad_manifest_exit_1_without_output(pipeline, tmp_path, capsys):
    bad = tmp_path / "manifest.csv"
    bad.write_text("not a manifest\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main([
        "pretrain", "--config", str(pipeline["cfg"]), "--manifest", str(bad), "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: {bad}: bad metadata line 'not a manifest'\n"
    assert not out.exists()


def test_diverging_pretrain_exit_1_without_checkpoint(pipeline, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        TINY_RUN_CONFIG.replace("alpha = 0.001", "alpha = 1e8").replace("epochs_stage1 = 1", "epochs_stage1 = 3"),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    # the run overflows on purpose; under the warnings-as-errors filter a
    # numpy warning would surface in place of the loss check
    rc = cli.main([
        "pretrain", "--config", str(cfg),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ])
    assert rc == 1
    assert "non-finite loss" in capsys.readouterr().err
    assert not (out / "pem.ckpt").exists()
    assert "error=" in (out / "pretrain.log").read_text().splitlines()[-1]
    # the settings the failed run ran with sit beside its log
    assert (out / "pretrain.resolved.config").read_text() == serialize_run_config(load_run_config(cfg))


@pytest.mark.parametrize(
    "edit,key",
    [
        (("alpha = 0.001", "alpha = nan"), "alpha"),
        (("embed_dim = 16", "embed_dim = 16\noem_lambda = nan"), "oem_lambda"),
        (("beta = 0.001", "beta = inf"), "beta"),
    ],
)
def test_non_finite_config_value_exit_1(pipeline, tmp_path, capsys, edit, key):
    # nan passes every range check, so the parser rejects it by name
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TINY_RUN_CONFIG.replace(*edit), encoding="utf-8")
    out = tmp_path / "run"
    rc = cli.main([
        "pretrain", "--config", str(cfg),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ])
    assert rc == 1
    assert f"error: bad value for {key}:" in capsys.readouterr().err
    assert not (out / "pem.ckpt").exists()


def test_shared_backbone_shallower_than_the_quality_branch_exit_1_without_output(pipeline, tmp_path, capsys):
    # the quality branch runs both blocks, the error-map branch only block 1
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        TINY_RUN_CONFIG.replace("selected_layers = 0,1,2", "selected_layers = 0,1") + "share_backbone = true\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    rc = cli.main([
        "pretrain", "--config", str(cfg),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: share_backbone needs selected_layers to reach layers (2), got 0,1\n"
    assert not out.exists()


def test_non_utf8_config_exit_1(pipeline, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TINY_RUN_CONFIG.encode("utf-8") + b"# caf\xe9 \xff\n")
    out = tmp_path / "run"
    rc = cli.main([
        "pretrain", "--config", str(cfg),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}: config file is not UTF-8\n"
    assert not out.exists()


def test_non_utf8_manifest_row_exit_1(pipeline, tmp_path, capsys):
    # the metadata line and the column header stay intact; the first row does not
    meta, header, first, *rest = (pipeline["ds"] / "manifest.csv").read_bytes().splitlines(keepends=True)
    bad = tmp_path / "manifest.csv"
    bad.write_bytes(meta + header + first.replace(b".pgm,", b"\xff.pgm,", 1) + b"".join(rest))
    out = tmp_path / "eval"
    rc = cli.main([
        "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(pipeline["run"] / "quality.ckpt"),
        "--manifest", str(bad), "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {bad}: manifest is not UTF-8\n"
    assert not out.exists()


def test_non_finite_checkpoint_exit_1(pipeline, tmp_path, capsys):
    ckpt = load_checkpoint(pipeline["run"] / "pem.ckpt")
    ckpt.params["pem.block1.mlp.w1"][0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, bad)
    with pytest.raises(CheckpointError, match=r"nan\.ckpt: parameter 'pem\.block1\.mlp\.w1' holds a non-finite"):
        load_checkpoint(bad)
    out = tmp_path / "t"
    assert cli.main([
        "train", "--config", str(pipeline["cfg"]), "--pem-ckpt", str(bad),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
    ]) == 1
    assert f"{bad}: parameter 'pem.block1.mlp.w1' holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_synth_empty_bases_exit_1(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert cli.main(["synth", "--bases", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "no .pgm" in capsys.readouterr().err


def test_synth_negative_seed_exit_1_without_output(tmp_path, capsys):
    # the manifest's metadata line reads the seed back as digits only
    bases = tmp_path / "bases"
    bases.mkdir()
    for seed in (1, 2):
        save_image(make_texture(32, 32, seed=seed), bases / f"b{seed}.pgm")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--bases", str(bases), "--out", str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_synth_comma_in_base_name_exit_1(tmp_path, capsys):
    # a comma would split a manifest row into extra fields
    bases = tmp_path / "bases"
    bases.mkdir()
    save_image(make_texture(32, 32, seed=1), bases / "a,b.pgm")
    save_image(make_texture(32, 32, seed=2), bases / "c.pgm")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--bases", str(bases), "--out", str(out), "--severities", "1"]) == 1
    assert "dist_path 'dist/a,b_pristine.pgm' holds a comma" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()
    assert list(out.rglob("*.pgm")) == []  # validated before any image is written


def test_synth_bad_train_fraction_exit_1_without_images(tmp_path, capsys):
    bases = tmp_path / "bases"
    bases.mkdir()
    for seed in (1, 2):
        save_image(make_texture(32, 32, seed=seed), bases / f"b{seed}.pgm")
    out = tmp_path / "ds"
    assert cli.main([
        "synth", "--bases", str(bases), "--out", str(out), "--severities", "1", "--train-fraction", "1.0",
    ]) == 1
    assert "error: train_fraction must be in (0, 1), got 1.0" in capsys.readouterr().err
    assert list(out.rglob("*.pgm")) == []  # checked before any image is written
    assert not out.exists()


@pytest.mark.parametrize("severities,bad", [("1,,2", "''"), ("x", "'x'")])
def test_synth_bad_severity_exit_1(tmp_path, capsys, severities, bad):
    bases = tmp_path / "bases"
    bases.mkdir()
    for seed in (1, 2):
        save_image(make_texture(32, 32, seed=seed), bases / f"b{seed}.pgm")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--bases", str(bases), "--out", str(out), "--severities", severities]) == 1
    assert f"error: --severities entry {bad} is not an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--severities", "9", "severity must be an integer in 1..5, got 9"),
        ("--kinds", "sharpen", "unknown distortion kind 'sharpen'"),
        ("--kinds", "block_quantize,block_quantize", "kinds lists 'block_quantize' more than once"),
        ("--severities", "1,5,1", "severities lists 1 more than once"),
        # an empty list holds one empty entry; only an absent flag means all
        ("--kinds", "", "unknown distortion kind ''"),
        ("--severities", "", "--severities entry '' is not an integer"),
    ],
    ids=["severity", "kind", "repeated_kind", "repeated_severity", "empty_kinds", "empty_severities"],
)
def test_synth_bad_distortion_exit_1_without_output(tmp_path, capsys, flag, value, message):
    bases = tmp_path / "bases"
    bases.mkdir()
    for seed in (1, 2):
        save_image(make_texture(32, 32, seed=seed), bases / f"b{seed}.pgm")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--bases", str(bases), "--out", str(out), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_truncated_base_exit_1_without_output(tmp_path, capsys):
    # the bad base sorts last, so it is read after two good ones
    bases = tmp_path / "bases"
    bases.mkdir()
    for seed in (1, 2):
        save_image(make_texture(16, 16, seed=seed), bases / f"texture_{seed:03d}.pgm")
    (bases / "texture_zzz.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(5))
    out = tmp_path / "ds"
    assert cli.main(["synth", "--bases", str(bases), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "texture_zzz.pgm" in err and "truncated raster" in err
    assert not out.exists()


def test_maps_wrong_size_exit_1(pipeline, tmp_path, capsys):
    # one side of 32 fits the 32 px checkpoint, the other side of 31 does not
    for height, width in ((32, 31), (31, 32)):
        small = tmp_path / f"small_{height}x{width}.pgm"
        save_image(make_texture(height, width, seed=1), small)
        assert cli.main([
            "maps", "--ckpt", str(pipeline["run"] / "quality.ckpt"),
            "--images", str(small), "--out", str(tmp_path / "m"),
        ]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {small}: image is {height}x{width}, smaller than the model's 32x32 crop\n"
        assert not (tmp_path / "m").exists()


@pytest.mark.parametrize(
    "command,height,width",
    [
        pytest.param(command, height, width, id=command + suffix)
        for command in ("pretrain", "train", "eval")
        # both sides short, then one side short and the other exactly the crop
        for suffix, height, width in (("", 16, 16), ("-short_height", 31, 32), ("-short_width", 32, 31))
    ],
)
def test_image_smaller_than_the_crop_exit_1_naming_the_file(pipeline, tmp_path, capsys, command, height, width):
    ds = tmp_path / "ds"
    shutil.copytree(pipeline["ds"], ds)
    sample = load_manifest(ds / "manifest.csv").split_samples("train")[0]
    save_image(make_texture(height, width, seed=1), ds / sample.dist_path)
    ckpt = {
        "pretrain": [],
        "train": ["--pem-ckpt", str(pipeline["run"] / "pem.ckpt")],
        "eval": ["--ckpt", str(pipeline["run"] / "quality.ckpt")],
    }[command]
    out = tmp_path / "run"
    assert cli.main([
        command, "--config", str(pipeline["cfg"]), *ckpt,
        "--manifest", str(ds / "manifest.csv"), "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {sample.dist_path}: image is {height}x{width}, smaller than the model's 32x32 crop")
    assert not out.exists()


def test_maps_rejects_images_that_share_a_file_stem(pipeline, tmp_path, capsys):
    first, second = tmp_path / "a" / "x.pgm", tmp_path / "b" / "x.pgm"
    for i, path in enumerate((first, second)):
        path.parent.mkdir()
        save_image(make_texture(32, 32, seed=20 + i), path)
    out = tmp_path / "m"
    assert cli.main([
        "maps", "--ckpt", str(pipeline["run"] / "quality.ckpt"),
        "--images", str(first), str(second), "--out", str(out),
    ]) == 1
    captured = capsys.readouterr()
    assert "images share the file stem 'x'" in captured.err
    assert "wrote" not in captured.out
    assert not out.exists()


def test_maps_draws_the_center_crop_of_a_larger_image(tmp_path):
    cfg = ModelConfig(image_size=64, embed_dim=16, layers=2, heads=2, selected_layers=(0, 1, 2))
    store = build_store(param_table(cfg), seed=0)
    ckpt = tmp_path / "quality.ckpt"
    save_checkpoint(Checkpoint(cfg, TrainConfig(), PemLossConfig(), store.arrays()), ckpt)
    big, crop = tmp_path / "big.pgm", tmp_path / "crop.pgm"
    save_image(make_texture(96, 80, seed=3), big)
    # the center crop of a 96x80 image at 64 px starts at row 16, column 8
    save_image(GrayImage(64, 64, load_image(big).pixels[16:80, 8:72]), crop)
    for image in (big, crop):
        assert cli.main(["maps", "--ckpt", str(ckpt), "--images", str(image), "--out", str(tmp_path / "m")]) == 0
    for kind in ("pem", "am"):
        mapped = (tmp_path / "m" / f"big.{kind}.pgm").read_bytes()
        assert mapped == (tmp_path / "m" / f"crop.{kind}.pgm").read_bytes()
        assert load_image(tmp_path / "m" / f"big.{kind}.pgm").pixels.shape == (64, 64)


def _value_bytes(path) -> int:
    """Bytes of a checkpoint's parameter values: all after the magic, version, text length and text."""
    blob = path.read_bytes()
    return len(blob) - 12 - int.from_bytes(blob[8:12], "little")


def test_eval_checkpoint_with_trailing_bytes_exit_1(pipeline, tmp_path, capsys):
    # one float32 more, then one fewer: a size that fits neither table of its settings
    run = pipeline["run"]
    whole, branch = _value_bytes(run / "quality.ckpt"), _value_bytes(run / "pem.ckpt")
    blob = (run / "quality.ckpt").read_bytes()
    for i, cut in enumerate((blob + b"junk", blob[:-4])):
        bad = tmp_path / f"bad{i}.ckpt"
        bad.write_bytes(cut)
        message = (
            f"error: {bad}: holds {_value_bytes(bad)} bytes of parameter values; its configuration "
            f"needs {whole} (the whole model) or {branch} (the error-map branch)\n"
        )
        out = tmp_path / f"e{i}"
        assert cli.main([
            "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(bad),
            "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(out),
        ]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()
        assert cli.main(["maps", "--ckpt", str(bad), "--images", str(pipeline["dist"]), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_maps_from_the_stage1_checkpoint_draws_the_same_error_map(pipeline, tmp_path):
    # stage 2 freezes the error-map branch bit for bit; a stage-1 file has no token branch
    out = tmp_path / "m"
    assert cli.main([
        "maps", "--ckpt", str(pipeline["run"] / "pem.ckpt"), "--images", str(pipeline["dist"]), "--out", str(out),
    ]) == 0
    stem = pipeline["dist"].stem
    assert (out / f"{stem}.pem.pgm").read_bytes() == (pipeline["maps"] / f"{stem}.pem.pgm").read_bytes()
    assert (pipeline["maps"] / f"{stem}.am.pgm").is_file()
    assert sorted(p.name for p in out.iterdir()) == [f"{stem}.pem.pgm", "maps.resolved.config"]


def test_corrupt_checkpoint_exit_1(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert cli.main([
        "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(bad),
        "--manifest", str(pipeline["ds"] / "manifest.csv"), "--out", str(tmp_path / "e"),
    ]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck command


def test_gradcheck_subset_passes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "CASES", {"add": gradcheck.CASES["add"], "gelu": gradcheck.CASES["gelu"]})
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "op=add" in out and "op=gelu" in out
    assert out.strip().splitlines()[-1].endswith("ok")


def test_gradcheck_detects_broken_backward(monkeypatch, capsys):
    monkeypatch.setattr(cli, "CASES", {"gelu": gradcheck.CASES["gelu"]})
    orig = T.gelu

    def broken(a):
        # same forward value, half the tracked gradient
        good = orig(a)
        return T.add(T.mul(good, 0.5), T.constant(good.data * 0.5))

    monkeypatch.setattr(T, "gelu", broken)
    assert cli.main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "failing: gelu" in out
