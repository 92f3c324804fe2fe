"""End-to-end CLI pipeline at tiny scale, plus error and exit-code paths."""

import os

import numpy as np
import pytest

from tempqt import cli
from tempqt import gradcheck
from tempqt import tensor as T
from tempqt.data import load_manifest
from tempqt.imaging import load_image, make_texture, save_image
from tempqt.training import load_checkpoint, save_checkpoint

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
manifest = ds/manifest.csv
out_dir = run
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
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    assert cli.main([
        "train", "--config", str(cfg_path), "--pem-ckpt", str(run / "pem.ckpt"),
    ]) == 0
    assert cli.main([
        "eval", "--config", str(cfg_path), "--ckpt", str(run / "quality.ckpt"),
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


def test_runtime_errors_exit_1(pipeline, tmp_path, capsys):
    # missing manifest file
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("manifest = nowhere/manifest.csv\nout_dir = out\n", encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err

    # config without a manifest at all
    cfg2 = tmp_path / "empty.cfg"
    cfg2.write_text("out_dir = out\n", encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(cfg2)]) == 1
    assert "no manifest" in capsys.readouterr().err

    # eval with a stage-1 checkpoint
    assert cli.main([
        "eval", "--config", str(pipeline["cfg"]),
        "--ckpt", str(pipeline["run"] / "pem.ckpt"),
    ]) == 1
    assert "no fusion head" in capsys.readouterr().err


def test_synth_empty_bases_exit_1(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert cli.main(["synth", "--bases", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "no .pgm" in capsys.readouterr().err


def test_maps_wrong_size_exit_1(pipeline, tmp_path, capsys):
    big = tmp_path / "big.pgm"
    save_image(make_texture(64, 64, seed=1), big)
    assert cli.main([
        "maps", "--ckpt", str(pipeline["run"] / "quality.ckpt"),
        "--images", str(big), "--out", str(tmp_path / "m"),
    ]) == 1
    assert "checkpoint requires" in capsys.readouterr().err


def test_eval_checkpoint_with_trailing_bytes_exit_1(pipeline, tmp_path, capsys):
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes((pipeline["run"] / "quality.ckpt").read_bytes() + b"junk")
    assert cli.main([
        "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(padded),
        "--out", str(tmp_path / "e"),
    ]) == 1
    assert "4 trailing bytes" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_checkpoint_missing_parameter_exit_1(pipeline, tmp_path, capsys):
    # each file's parameters differ from its own configuration: a load names them
    def missing(params):
        del params["fuse.mlp2.w2"]

    def misshapen(params):
        params["fuse.mlp2.w2"] = np.zeros((3, 1), dtype=np.float32)

    def extra(params):
        params["dec.extra.w"] = np.zeros(2, dtype=np.float32)

    cases = [
        ("quality.ckpt", missing, "missing fuse.mlp2.w2"),
        ("quality.ckpt", misshapen, "fuse.mlp2.w2 is (3, 1), expected (16, 1)"),
        ("pem.ckpt", extra, "extra dec.extra.w"),
    ]
    for i, (source, damage, message) in enumerate(cases):
        ckpt = load_checkpoint(pipeline["run"] / source)
        damage(ckpt.params)
        bad = tmp_path / f"bad{i}.ckpt"
        save_checkpoint(ckpt, bad)
        out = tmp_path / f"e{i}"
        assert cli.main([
            "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(bad), "--out", str(out),
        ]) == 1
        assert message in capsys.readouterr().err
        # the load fails before eval writes anything
        assert not out.exists()
        if damage is misshapen:
            assert cli.main([
                "maps", "--ckpt", str(bad), "--images", str(pipeline["dist"]), "--out", str(out),
            ]) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_corrupt_checkpoint_exit_1(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    assert cli.main([
        "eval", "--config", str(pipeline["cfg"]), "--ckpt", str(bad),
        "--out", str(tmp_path / "e"),
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
        return T.add(T.scale(good, 0.5), T.constant(good.data * 0.5))

    monkeypatch.setattr(T, "gelu", broken)
    assert cli.main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "failing: gelu" in out
