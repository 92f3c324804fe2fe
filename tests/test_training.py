"""Optimizer math, schedules, checkpoints, and the two-stage protocol."""

import dataclasses
import struct

import numpy as np
import pytest

from conftest import build_overfit_dataset
from tempqt import tensor as T
from tempqt import training
from tempqt.data import DatasetManifest, Sample, eval_crops, load_manifest, save_manifest
from tempqt.encoder import ModelConfig, tiny_config
from tempqt.errors import (
    ArgumentError,
    CheckpointError,
    CompatibilityError,
    TrainingError,
)
from tempqt.imaging import (
    DistortionSpec,
    ImageBatch,
    apply_distortion,
    make_texture,
    pseudo_mos,
    save_image,
)
from tempqt.metrics import plcc, srocc
from tempqt.params import ParamStore
from tempqt.rng import derive_seed
from tempqt.supervision import PemLossConfig, compute_oem, pem_loss
from tempqt.training import (
    AdamState,
    Checkpoint,
    TrainConfig,
    adam_step,
    check_model_compat,
    evaluate_manifest,
    load_checkpoint,
    lr_at,
    paper_train_config,
    pretrain_pem,
    save_checkpoint,
    store_from_checkpoint,
    train_quality,
)

MICRO = dict(alpha=1e-3, beta=1e-3, batch_size=8, epochs_stage1=2, epochs_stage2=2, seed=0)


@pytest.fixture(scope="module")
def micro_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    return load_manifest(build_overfit_dataset(str(root)))


@pytest.fixture(scope="module")
def micro_pem_ckpt(micro_manifest):
    return pretrain_pem(
        micro_manifest, tiny_config(), TrainConfig(**MICRO), patch_count=1, augment=False
    )


@pytest.fixture(scope="module")
def micro_quality_ckpt(micro_manifest, micro_pem_ckpt):
    return train_quality(
        micro_manifest, micro_pem_ckpt, tiny_config(), TrainConfig(**MICRO),
        patch_count=1, augment=False,
    )


# ---------------------------------------------------------------------------
# config and schedule


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(beta=-1e-3),
        dict(weight_decay=-1e-6),
        dict(batch_size=0),
        dict(epochs_stage1=-1),
        dict(lr_decay=0.0),
        dict(lr_decay=1.5),
        dict(lr_period=0),
        dict(ablation_mode="none"),
    ],
)
def test_train_config_rejects(kwargs):
    with pytest.raises(ArgumentError):
        TrainConfig(**kwargs)


def test_lr_schedule_steps():
    cfg = paper_train_config()
    assert lr_at(0, cfg) == pytest.approx(2e-5, rel=1e-12)
    assert lr_at(4, cfg) == pytest.approx(2e-5, rel=1e-12)
    assert lr_at(5, cfg) == pytest.approx(1.8e-5, rel=1e-12)
    assert lr_at(10, cfg) == pytest.approx(1.62e-5, rel=1e-12)


def test_lr_schedule_base_override_and_guard():
    cfg = TrainConfig(alpha=1e-3, beta=4e-4, lr_decay=0.5, lr_period=2)
    assert lr_at(0, cfg, base=cfg.beta) == pytest.approx(4e-4)
    assert lr_at(2, cfg, base=cfg.beta) == pytest.approx(2e-4)
    with pytest.raises(ArgumentError, match="nonnegative"):
        lr_at(-1, cfg)


# ---------------------------------------------------------------------------
# Adam


def one_param_store(value, grad):
    store = ParamStore()
    t = store.add("p", np.array([value], dtype=np.float64), dtype=np.float64)
    t.grad = np.array([grad], dtype=np.float64)
    return store


def test_adam_first_step_is_signed_lr():
    for grad in (0.3, -2.0, 1e-4):
        store = one_param_store(1.0, grad)
        adam_step(store, AdamState(store), lr=0.01, weight_decay=0.0)
        # m_hat = g, v_hat = g^2 on step 1, so the move is -lr * sign(g)
        expect = 1.0 - 0.01 * np.sign(grad) * (abs(grad) / (abs(grad) + 1e-8))
        assert store["p"].data[0] == pytest.approx(expect, abs=1e-9)


def test_adam_zero_lr_is_noop():
    store = one_param_store(0.7, 1.3)
    state = AdamState(store)
    adam_step(store, state, lr=0.0, weight_decay=0.0)
    assert store["p"].data[0] == 0.7
    assert state.t == 1


def test_adam_coupled_weight_decay_moves_zero_grad_param():
    store = one_param_store(2.0, 0.0)
    adam_step(store, AdamState(store), lr=0.1, weight_decay=0.01)
    # effective gradient is wd * p > 0, so the parameter shrinks
    assert store["p"].data[0] < 2.0


def test_adam_skips_frozen_and_requires_grads():
    store = ParamStore()
    frozen = store.add("frozen", np.ones(2))
    frozen.requires_grad = False
    live = store.add("live", np.ones(2))
    state = AdamState(store)
    with pytest.raises(TrainingError, match="missing gradient"):
        adam_step(store, state, lr=0.1, weight_decay=0.0)
    live.grad = np.full(2, 0.5, dtype=np.float32)
    adam_step(store, state, lr=0.1, weight_decay=0.0)
    assert np.all(frozen.data == 1.0)
    assert np.all(live.data < 1.0)


def test_adam_step_counter_shared():
    store = ParamStore()
    a = store.add("a", np.ones(2))
    b = store.add("b", np.ones(3))
    a.grad = np.ones(2, dtype=np.float32)
    b.grad = np.ones(3, dtype=np.float32)
    state = AdamState(store)
    adam_step(store, state, lr=0.01, weight_decay=0.0)
    adam_step(store, state, lr=0.01, weight_decay=0.0)
    assert state.t == 2


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bytes(micro_pem_ckpt, tmp_path):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(micro_pem_ckpt, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_fields_survive(micro_pem_ckpt, micro_quality_ckpt, tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.model_cfg == micro_pem_ckpt.model_cfg
    assert loaded.train_cfg == micro_pem_ckpt.train_cfg
    assert loaded.loss_cfg == micro_pem_ckpt.loss_cfg
    assert set(loaded.params) == set(micro_pem_ckpt.params)
    for name, arr in micro_pem_ckpt.params.items():
        assert np.array_equal(loaded.params[name], arr.astype(np.float32))
    # every shape, the fusion head's one-element slope included, survives a round trip
    save_checkpoint(micro_quality_ckpt, path)
    shapes = {name: arr.shape for name, arr in load_checkpoint(path).params.items()}
    assert shapes == {name: arr.shape for name, arr in micro_quality_ckpt.params.items()}


def test_checkpoint_save_replaces_atomically(micro_pem_ckpt, micro_quality_ckpt, tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(training.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_checkpoint(micro_quality_ckpt, path)
    # the old file is intact and no temporary file is left behind
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_checkpoint_v1_rejected(micro_pem_ckpt, tmp_path):
    # a v1 file: the v2 body plus an empty optimizer block and an epoch counter
    path = tmp_path / "v1.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[7] = 1
    blob += struct.pack("<BI", 0, 3)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_checkpoint_truncation(micro_pem_ckpt, tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_version(micro_pem_ckpt, tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[7] = 99  # version byte sits right after the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(path)


def test_store_from_checkpoint_is_frozen(micro_pem_ckpt):
    store = store_from_checkpoint(micro_pem_ckpt)
    assert len(store) == len(micro_pem_ckpt.params)
    assert all(not t.requires_grad for t in store.tensors())


def test_check_model_compat_lists_fields():
    a = tiny_config()
    b = dataclasses.replace(a, embed_dim=32, heads=4)
    with pytest.raises(CompatibilityError) as exc:
        check_model_compat(a, b)
    assert "embed_dim" in str(exc.value)


# ---------------------------------------------------------------------------
# stage 1


def test_pretrain_returns_complete_branch(micro_pem_ckpt):
    names = set(micro_pem_ckpt.params)
    assert any(n.startswith("pem.") for n in names)
    assert any(n.startswith("dec.") for n in names)
    assert not any(n.startswith(("pqt.", "fuse.")) for n in names)


def test_pretrain_deterministic(micro_manifest, tmp_path):
    cfgs = [
        pretrain_pem(micro_manifest, tiny_config(), TrainConfig(**MICRO), patch_count=1, augment=False)
        for _ in range(2)
    ]
    paths = [tmp_path / "r0.ckpt", tmp_path / "r1.ckpt"]
    for ck, p in zip(cfgs, paths):
        save_checkpoint(ck, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_pretrain_logs_schedule(micro_manifest, tmp_path):
    log = tmp_path / "s1.log"
    pretrain_pem(
        micro_manifest, tiny_config(), TrainConfig(**MICRO),
        patch_count=1, augment=False, log_path=str(log),
    )
    lines = log.read_text().splitlines()
    assert lines[0].startswith("stage=1 init_batch_loss=")
    epochs = [ln for ln in lines if " epoch=" in ln]
    assert len(epochs) == MICRO["epochs_stage1"]
    assert all(ln.startswith("stage=1 epoch=") for ln in epochs)


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_freezes_pem_branch_bitwise(micro_pem_ckpt, micro_quality_ckpt):
    for name, arr in micro_pem_ckpt.params.items():
        after = micro_quality_ckpt.params[name]
        assert np.array_equal(arr, after), f"{name} changed during stage 2"


def test_stage2_adds_quality_params(micro_quality_ckpt):
    names = set(micro_quality_ckpt.params)
    assert any(n.startswith("pqt.") for n in names)
    assert any(n.startswith("fuse.") for n in names)


def test_stage2_rejects_incompatible_model(micro_manifest, micro_pem_ckpt):
    other = dataclasses.replace(tiny_config(), embed_dim=32, heads=4, layers=2)
    with pytest.raises(CompatibilityError):
        train_quality(micro_manifest, micro_pem_ckpt, other, TrainConfig(**MICRO))


def test_stage2_rejects_incomplete_pem_branch(micro_manifest, micro_pem_ckpt):
    partial = {n: a for n, a in micro_pem_ckpt.params.items() if not n.startswith("dec.")}
    broken = Checkpoint(
        micro_pem_ckpt.model_cfg, micro_pem_ckpt.train_cfg, micro_pem_ckpt.loss_cfg, partial
    )
    with pytest.raises(CompatibilityError, match="complete error-map branch") as err:
        train_quality(micro_manifest, broken, tiny_config(), TrainConfig(**MICRO))
    assert err.value.fields and all(f.startswith("missing dec.") for f in err.value.fields)


def test_stage2_names_pem_parameter_with_wrong_shape(micro_manifest, micro_pem_ckpt):
    params = dict(micro_pem_ckpt.params)
    shape = params["dec.head.w"].shape
    params["dec.head.w"] = np.zeros((1, 2, 3, 3), dtype=np.float32)
    broken = Checkpoint(
        micro_pem_ckpt.model_cfg, micro_pem_ckpt.train_cfg, micro_pem_ckpt.loss_cfg, params
    )
    with pytest.raises(CompatibilityError, match="complete error-map branch") as err:
        train_quality(micro_manifest, broken, tiny_config(), TrainConfig(**MICRO))
    assert err.value.fields == (f"dec.head.w is (1, 2, 3, 3), expected {shape}",)


def test_share_backbone_trains_token_only(micro_manifest, micro_pem_ckpt):
    tc = TrainConfig(**{**MICRO, "share_backbone": True})
    ck = train_quality(micro_manifest, micro_pem_ckpt, tiny_config(), tc, patch_count=1, augment=False)
    names = set(ck.params)
    assert "pqt.token" in names
    assert not any(n.startswith("pqt.block") for n in names)
    assert not any(n.startswith("pqt.embed") for n in names)


def test_ablation_param_sets(micro_manifest, micro_pem_ckpt):
    pem_only = train_quality(
        micro_manifest, micro_pem_ckpt, tiny_config(),
        TrainConfig(**{**MICRO, "ablation_mode": "pem_only"}), patch_count=1, augment=False,
    )
    assert not any(n.startswith("pqt.") for n in pem_only.params)
    pqt_only = train_quality(
        micro_manifest, micro_pem_ckpt, tiny_config(),
        TrainConfig(**{**MICRO, "ablation_mode": "pqt_only"}), patch_count=1, augment=False,
    )
    assert "fuse.mlp1.w" not in pqt_only.params


SHALLOW = dict(MICRO, epochs_stage1=1, epochs_stage2=1)


@pytest.fixture(scope="module")
def shallow_pem_ckpt(micro_manifest):
    # deepest selected layer 1 of 2: the error-map branch needs no block 2
    cfg = dataclasses.replace(tiny_config(), selected_layers=(0, 1))
    return pretrain_pem(micro_manifest, cfg, TrainConfig(**SHALLOW), patch_count=1, augment=False)


def test_pretrain_stops_at_deepest_selected_layer(micro_manifest, shallow_pem_ckpt):
    assert "pem.block1.ln1.g" in shallow_pem_ckpt.params
    assert not any(n.startswith("pem.block2.") for n in shallow_pem_ckpt.params)
    cfg = shallow_pem_ckpt.model_cfg
    quality = train_quality(
        micro_manifest, shallow_pem_ckpt, cfg, TrainConfig(**SHALLOW), patch_count=1, augment=False
    )
    assert "pqt.block2.ln1.g" in quality.params


def test_shared_backbone_needs_every_block(micro_manifest, shallow_pem_ckpt):
    # the quality branch runs all blocks, so it cannot share a shallower backbone
    cfg = shallow_pem_ckpt.model_cfg
    tc = TrainConfig(**SHALLOW, share_backbone=True)
    with pytest.raises(CompatibilityError, match=r"pem\.block2\."):
        train_quality(micro_manifest, shallow_pem_ckpt, cfg, tc, patch_count=1, augment=False)


def _record_tapes(monkeypatch):
    """Spy on training.backward: keep every (loss, tape) a step replays."""
    tapes = []
    real_backward = training.backward

    def spy(loss, tape):
        tapes.append((loss, tape))
        real_backward(loss, tape)

    monkeypatch.setattr(training, "backward", spy)
    return tapes


def _record_frozen_rows(monkeypatch):
    """Spy on training.forward_pem: how many patches each call encodes."""
    rows = []
    real_forward_pem = training.forward_pem

    def spy(images, store, cfg):
        maps = real_forward_pem(images, store, cfg)
        rows.append(maps.shape[0])
        return maps

    monkeypatch.setattr(training, "forward_pem", spy)
    return rows


def test_stage2_encodes_each_distinct_patch_once(
    micro_manifest, micro_pem_ckpt, default_manifest, monkeypatch, tmp_path
):
    cfg = tiny_config()
    rows = _record_frozen_rows(monkeypatch)

    # whole 32 px images without flips: every epoch draws the same patches
    n = len(micro_manifest.split_samples("train"))
    log = tmp_path / "s2.log"
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 5})
    train_quality(micro_manifest, micro_pem_ckpt, cfg, tc, patch_count=1, augment=False, log_path=str(log))
    assert sum(rows) == n
    assert log.read_text().splitlines()[-1] == f"stage=2 frozen_encoded={n} frozen_drawn={5 * n}"

    # flipped random 32 px crops of 64 px images: no patch repeats at this seed
    rows.clear()
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 2})
    train_quality(default_manifest, micro_pem_ckpt, cfg, tc, patch_count=4)
    assert sum(rows) == 2 * 4 * len(default_manifest.split_samples("train"))

    # the quality token alone never reads the frozen branch
    rows.clear()
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 5, "ablation_mode": "pqt_only"})
    train_quality(micro_manifest, micro_pem_ckpt, cfg, tc, patch_count=1, augment=False)
    assert rows == []


def test_stage2_step_records_only_nodes_that_reach_the_loss(micro_manifest, micro_pem_ckpt, monkeypatch):
    tapes = _record_tapes(monkeypatch)
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 1})
    train_quality(micro_manifest, micro_pem_ckpt, tiny_config(), tc, patch_count=1, augment=False)
    assert len(tapes) == 1
    loss, tape = tapes[0]
    reached = {id(loss)}
    dead = 0
    for node in reversed(tape.nodes):
        if id(node.out) in reached:
            reached.update(id(t) for t in node.inputs)
        else:
            dead += 1
    assert tape.nodes and dead == 0


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_manifest_outputs(micro_manifest, micro_quality_ckpt):
    out = evaluate_manifest(micro_manifest, micro_quality_ckpt)
    assert set(out) == {"train", "test"}
    paths, targets, preds = out["train"]
    n_train = len(micro_manifest.split_samples("train"))
    assert len(paths) == len(targets) == len(preds) == n_train
    assert all(np.isfinite(p) for p in preds)
    assert out["test"] == ([], [], [])


def test_evaluate_rejects_pem_checkpoint(micro_manifest, micro_pem_ckpt):
    with pytest.raises(CompatibilityError, match="no fusion head"):
        evaluate_manifest(micro_manifest, micro_pem_ckpt)


def test_overfit_set_learns_score_order(overfit_manifest, overfit_quality_ckpt):
    # headline check: both stages together rank and fit the training scores
    _paths, targets, preds = evaluate_manifest(
        overfit_manifest, overfit_quality_ckpt, splits=("train",)
    )["train"]
    assert srocc(targets, preds) >= 0.9
    assert plcc(targets, preds) >= 0.9


# ---------------------------------------------------------------------------
# batches: one forward per batch, equal to the same crops run one at a time

# float32 tolerances: batched and one-at-a-time runs differ only in how
# BLAS blocks the flattened matmuls
BATCH_ATOL = 1e-6  # maps and scores, which lie in about [0, 1]
BATCH_GRAD_RTOL = 1e-5  # gradients, relative to the largest gradient entry


def _textures(count, seed, size=32):
    return [make_texture(size, size, derive_seed(seed, "batch", i)) for i in range(count)]


def test_batched_forward_matches_one_at_a_time(micro_quality_ckpt):
    cfg = tiny_config()
    store = store_from_checkpoint(micro_quality_ckpt)
    crops = _textures(8, 1)
    batch = ImageBatch.stack(crops)
    maps = training.forward_pem(batch, store, cfg)
    assert maps.shape == (8, 1, cfg.image_size, cfg.image_size)
    single = np.concatenate([training.forward_pem(c, store, cfg).data for c in crops])
    assert np.allclose(maps.data, single, rtol=0.0, atol=BATCH_ATOL)

    # stage 2 reuses a patch's features whatever batch first encoded it
    features = training.frozen_features(batch, store, cfg)
    assert features.shape == (8, cfg.gap_grid * cfg.gap_grid)
    rows = [1, 4, 6]
    part = training.frozen_features(ImageBatch(batch.pixels[rows]), store, cfg)
    assert np.allclose(features.data[rows], part.data, rtol=0.0, atol=BATCH_ATOL)

    # predict_score batches one image's five evaluation crops
    img = make_texture(48, 48, derive_seed(2, "batch"))
    crops = eval_crops(img, cfg.image_size)
    assert len(crops) == 5
    one_by_one = [
        training.score_crops(
            ImageBatch.stack([c]), training.frozen_features(c, store, cfg), store, cfg, "both", False
        ).item()
        for c in crops
    ]
    assert training.predict_score(img, store, cfg) == pytest.approx(np.mean(one_by_one), abs=BATCH_ATOL)


def test_batched_stage1_gradients_match_one_at_a_time(micro_pem_ckpt):
    cfg = tiny_config()
    store = training.build_store(training.stage1(training.param_table(cfg)), seed=0)
    for name, t in store.items():
        t.data[...] = micro_pem_ckpt.params[name]
    dist, ref = _textures(8, 3), _textures(8, 4)
    loss_cfg = PemLossConfig()

    def grads(d, r):
        d, r = ImageBatch.stack(d), ImageBatch.stack(r)
        with T.Tape() as tape:
            loss = pem_loss(training.forward_pem(d, store, cfg), compute_oem(d, r), d, r, loss_cfg)
        T.backward(loss, tape)
        out = {name: t.grad.copy() for name, t in store.items()}
        T.zero_grads(store.tensors())
        return out

    batched = grads(dist, ref)
    singles = [grads([d], [r]) for d, r in zip(dist, ref)]
    scale = max(float(np.abs(g).max()) for g in batched.values())
    for name, g in batched.items():
        mean_single = np.mean([s[name] for s in singles], axis=0)
        assert np.abs(g - mean_single).max() <= BATCH_GRAD_RTOL * scale, name


@pytest.fixture(scope="module")
def default_manifest(tmp_path_factory):
    # two 64 px pairs: 4 patches each make one 8-patch step at the default config
    root = tmp_path_factory.mktemp("default")
    (root / "ref").mkdir()
    (root / "dist").mkdir()
    samples = []
    for i, base in enumerate(_textures(2, 5, size=64)):
        save_image(base, str(root / f"ref/{i}.pgm"))
        spec = DistortionSpec("gaussian_blur", 3, seed=0)
        save_image(apply_distortion(base, spec), str(root / f"dist/{i}.pgm"))
        samples.append(Sample(f"dist/{i}.pgm", f"ref/{i}.pgm", pseudo_mos(spec), f"b{i}", "train"))
    path = str(root / "manifest.csv")
    save_manifest(DatasetManifest(1, 0, samples, str(root)), path)
    return load_manifest(path)


def test_default_steps_record_one_taped_forward_per_batch(default_manifest, monkeypatch):
    cfg = ModelConfig()
    tc = TrainConfig(epochs_stage1=1, epochs_stage2=1, batch_size=8)
    tapes = _record_tapes(monkeypatch)
    pem = pretrain_pem(default_manifest, cfg, tc, patch_count=4)
    train_quality(default_manifest, pem, cfg, tc, patch_count=4)
    (_loss1, step1), (_loss2, step2) = tapes
    # one patch at a time with a per-head loop took 1,920 and 1,748 nodes
    assert 0 < len(step1.nodes) <= 384
    assert 0 < len(step2.nodes) <= 349


def test_float32_stage2_backward_stays_float32(micro_manifest, micro_pem_ckpt, monkeypatch):
    dtypes = set()
    real_backward = training.backward

    def recording(loss, tape):
        for node in tape.nodes:
            def bwd(g, inner=node.backward):
                grads = inner(g)
                dtypes.update((inner.__qualname__, gi.dtype) for gi in grads if gi is not None)
                return grads

            node.backward = bwd
        real_backward(loss, tape)

    monkeypatch.setattr(training, "backward", recording)
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 1})
    train_quality(micro_manifest, micro_pem_ckpt, tiny_config(), tc, patch_count=1, augment=False)
    assert dtypes
    assert {dt for _op, dt in dtypes} == {np.dtype(np.float32)}, sorted(map(str, dtypes))
