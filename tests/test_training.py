"""Optimizer math, schedules, checkpoints, and the two-stage protocol."""

import dataclasses
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import build_overfit_dataset
from tempqt import tensor as T
from tempqt import training
from tempqt.data import (
    DatasetManifest,
    Sample,
    eval_crops,
    generate_synthetic_dataset,
    load_manifest,
    save_manifest,
)
from tempqt.encoder import ModelConfig, tiny_config
from tempqt.errors import (
    ArgumentError,
    CheckpointError,
    CompatibilityError,
    TrainingError,
)
from tempqt.imaging import (
    DistortionSpec,
    GrayImage,
    ImageBatch,
    apply_distortion,
    load_image,
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
        micro_manifest, micro_pem_ckpt, TrainConfig(**MICRO),
        patch_count=1, augment=False,
    )


# ---------------------------------------------------------------------------
# config and schedule


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(alpha=0.0),
        dict(beta=-1e-3),
        dict(epochs_stage2=-1),
        dict(batch_size=0),
        dict(epochs_stage1=-1),
        dict(lr_decay=0.0),
        dict(lr_decay=1.5),
        dict(lr_period=0),
        dict(ablation_mode="none"),
        dict(ablation_mode="pem_only", share_backbone=True),
    ],
)
def test_train_config_rejects(kwargs):
    with pytest.raises(ArgumentError):
        TrainConfig(**kwargs)


def test_lr_schedule_steps():
    cfg = TrainConfig(alpha=2e-5)
    assert lr_at(0, cfg, cfg.alpha) == pytest.approx(2e-5, rel=1e-12)
    assert lr_at(4, cfg, cfg.alpha) == pytest.approx(2e-5, rel=1e-12)
    assert lr_at(5, cfg, cfg.alpha) == pytest.approx(1.8e-5, rel=1e-12)
    assert lr_at(10, cfg, cfg.alpha) == pytest.approx(1.62e-5, rel=1e-12)


def test_lr_schedule_base_override_and_guard():
    cfg = TrainConfig(alpha=1e-3, beta=4e-4, lr_decay=0.5, lr_period=2)
    assert lr_at(0, cfg, base=cfg.beta) == pytest.approx(4e-4)
    assert lr_at(2, cfg, base=cfg.beta) == pytest.approx(2e-4)
    with pytest.raises(ArgumentError, match="nonnegative"):
        lr_at(-1, cfg, cfg.alpha)


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
        adam_step(AdamState(store), lr=0.01, weight_decay=0.0)
        # m_hat = g, v_hat = g^2 on step 1, so the move is -lr * sign(g)
        expect = 1.0 - 0.01 * np.sign(grad) * (abs(grad) / (abs(grad) + 1e-8))
        assert store["p"].data[0] == pytest.approx(expect, abs=1e-9)


def test_adam_zero_lr_is_noop():
    store = one_param_store(0.7, 1.3)
    state = AdamState(store)
    adam_step(state, lr=0.0, weight_decay=0.0)
    assert store["p"].data[0] == 0.7
    assert state.t == 1


def test_adam_coupled_weight_decay_moves_zero_grad_param():
    store = one_param_store(2.0, 0.0)
    adam_step(AdamState(store), lr=0.1, weight_decay=0.01)
    # effective gradient is wd * p > 0, so the parameter shrinks
    assert store["p"].data[0] < 2.0


def test_adam_skips_frozen_and_requires_grads():
    store = ParamStore()
    frozen = store.add("frozen", np.ones(2))
    frozen.requires_grad = False
    live = store.add("live", np.ones(2))
    state = AdamState(store)
    with pytest.raises(TrainingError, match="missing gradient"):
        adam_step(state, lr=0.1, weight_decay=0.0)
    live.grad = np.full(2, 0.5, dtype=np.float32)
    adam_step(state, lr=0.1, weight_decay=0.0)
    assert np.all(frozen.data == 1.0)
    assert np.all(live.data < 1.0)


def test_adam_step_counter_shared():
    store = ParamStore()
    a = store.add("a", np.ones(2))
    b = store.add("b", np.ones(3))
    a.grad = np.ones(2, dtype=np.float32)
    b.grad = np.ones(3, dtype=np.float32)
    state = AdamState(store)
    adam_step(state, lr=0.01, weight_decay=0.0)
    adam_step(state, lr=0.01, weight_decay=0.0)
    assert state.t == 2


def test_failed_adam_step_changes_nothing():
    store = ParamStore()
    store.add("a", np.linspace(-1.0, 1.0, 4)).grad = np.ones(4, dtype=np.float32)
    store.add("b", np.full(3, 0.5))
    state = AdamState(store)
    before = store.arrays()
    with pytest.raises(TrainingError, match="missing gradient for trainable parameter 'b'"):
        adam_step(state, lr=0.1, weight_decay=1e-5)
    assert state.t == 0
    for name, arr in before.items():
        assert np.array_equal(store[name].data, arr)
    assert not state.m.any() and not state.v.any()


def test_adam_step_rejects_a_misshapen_gradient_and_changes_nothing():
    store = ParamStore()
    store.add("a", np.linspace(-1.0, 1.0, 4)).grad = np.ones(4, dtype=np.float32)
    store.add("b", np.full(3, 0.5)).grad = np.ones((3, 1, 2), dtype=np.float32)
    state = AdamState(store)
    before = store.arrays()
    with pytest.raises(TrainingError, match=r"'b' has shape \(3, 1, 2\), expected \(3,\)"):
        adam_step(state, lr=0.1, weight_decay=1e-5)
    assert state.t == 0
    for name, arr in before.items():
        assert np.array_equal(store[name].data, arr)
    assert not state.m.any() and not state.v.any()


def test_adam_state_holds_the_trainable_values_in_one_buffer():
    store = ParamStore()
    a = store.add("a", np.arange(6.0).reshape(2, 3))
    frozen = store.add("frozen", np.ones(2), trainable=False)
    b = store.add("b", np.full((), 0.25))
    state = AdamState(store)
    assert all(p.data.base is state.values for _name, p in store.trainable())
    assert frozen.data.base is not state.values
    assert np.array_equal(state.values, [0, 1, 2, 3, 4, 5, 0.25])
    saved = store.arrays()
    a.grad = np.ones((2, 3), dtype=np.float32)
    b.grad = np.ones((), dtype=np.float32)
    adam_step(state, lr=0.1, weight_decay=0.0)
    # the copies keep the values of before the step; the views see the step
    assert np.array_equal(saved["a"], np.arange(6.0).reshape(2, 3)) and saved["b"] == 0.25
    assert np.all(a.data < saved["a"]) and b.data < 0.25
    assert np.array_equal(frozen.data, [1.0, 1.0])


def test_adam_step_rejects_a_parameter_moved_off_the_buffer():
    store = ParamStore()
    a = store.add("a", np.ones(2))
    b = store.add("b", np.ones(3))
    state = AdamState(store)
    b.data = b.data.copy()
    a.grad = np.ones(2, dtype=np.float32)
    b.grad = np.ones(3, dtype=np.float32)
    with pytest.raises(TrainingError, match="'b' no longer views"):
        adam_step(state, lr=0.1, weight_decay=0.0)
    assert state.t == 0 and np.array_equal(a.data, [1.0, 1.0])


def test_adam_state_rejects_mixed_dtypes():
    store = ParamStore()
    store.add("a", np.ones(2), dtype=np.float32)
    store.add("b", np.ones(2), dtype=np.float64)
    with pytest.raises(ArgumentError, match="share one dtype"):
        AdamState(store)


def per_tensor_adam_step(params, grads, m, v, t, lr, weight_decay):
    """The per-tensor update the flat step replaced, over dicts of arrays."""
    bc1 = 1.0 - training.ADAM_BETA1**t
    bc2 = 1.0 - training.ADAM_BETA2**t
    for name, data in params.items():
        g = grads[name]
        if weight_decay != 0.0:
            g = g + weight_decay * data
        m[name] *= training.ADAM_BETA1
        m[name] += (1.0 - training.ADAM_BETA1) * g
        v[name] *= training.ADAM_BETA2
        v[name] += (1.0 - training.ADAM_BETA2) * (g * g)
        m_hat = m[name] / bc1
        v_hat = v[name] / bc2
        data -= lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-5])
def test_flat_adam_matches_the_per_tensor_rule_bit_for_bit(weight_decay):
    rng = np.random.default_rng(11)
    shapes = {"a": (1,), "b": (3,), "frozen": (4,), "c": (4, 5), "d": (2, 3, 3, 3)}
    store = ParamStore()
    for name, shape in shapes.items():
        store.add(name, rng.normal(size=shape), trainable=name != "frozen")
    frozen = store["frozen"].data.copy()
    ref = {name: p.data.copy() for name, p in store.trainable()}
    m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    state = AdamState(store)
    for t, lr in enumerate((1e-3, 1e-3, 0.03, 0.03, 1e-3), start=1):
        grads = {
            name: (rng.normal(size=arr.shape) * 10.0 ** rng.uniform(-4, 1, arr.shape)).astype(np.float32)
            for name, arr in ref.items()
        }
        for name, g in grads.items():
            store[name].grad = g
        per_tensor_adam_step(ref, grads, m, v, t, lr, weight_decay)
        adam_step(state, lr, weight_decay)
        for name, arr in ref.items():
            assert np.array_equal(store[name].data, arr), (t, name)
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))
    assert np.array_equal(store["frozen"].data, frozen)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bytes(micro_pem_ckpt, tmp_path):
    # the stage-1 branch, and a whole model in each ablation mode
    cfg = micro_pem_ckpt.model_cfg
    ckpts = [micro_pem_ckpt] + [
        Checkpoint(cfg, TrainConfig(ablation_mode=mode), PemLossConfig(),
                   training.build_store(training.param_table(cfg, mode), seed=1).arrays())
        for mode in ("both", "pqt_only", "pem_only")
    ]
    for i, ckpt in enumerate(ckpts):
        p1 = tmp_path / f"a{i}.ckpt"
        p2 = tmp_path / f"b{i}.ckpt"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        assert list(loaded.params) == list(ckpt.params)
        for name, arr in ckpt.params.items():
            assert np.array_equal(loaded.params[name], arr)
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


def test_checkpoint_v2_rejected(micro_pem_ckpt, tmp_path):
    # v2 embedded raw pixels and had a key bias: its weights mean something
    # else now; v3 embedded two configuration keys that are now constants;
    # v4 stored each parameter's name, shape and length before its values
    path = tmp_path / "old.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    for version in (2, 3, 4):
        blob[7] = version
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)


def test_checkpoint_v5_rejected(micro_pem_ckpt, tmp_path):
    # v5 has v6's layout, but its values were fit under the exact GELU
    path = tmp_path / "v5.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[7] = 5
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 5"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTCKPT" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def _values_at(blob: bytes) -> int:
    """Where a checkpoint's values start: after the magic, version, text length and text."""
    (text_len,) = struct.unpack_from("<I", blob, 8)
    return 12 + text_len


def test_checkpoint_truncation(micro_pem_ckpt, tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = path.read_bytes()
    start = _values_at(blob)
    cases = [
        (blob[:10], "truncated while reading the header"),
        (blob[: start // 2], "truncated while reading the config text"),
        (blob[: len(blob) // 2], f"holds {len(blob) // 2 - start} bytes of parameter values"),
    ]
    for cut, message in cases:
        path.write_bytes(cut)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


def test_checkpoint_value_count_that_fits_neither_table_names_both_sizes(micro_pem_ckpt, micro_quality_ckpt, tmp_path):
    branch, whole = tmp_path / "branch.ckpt", tmp_path / "whole.ckpt"
    save_checkpoint(micro_pem_ckpt, branch)
    save_checkpoint(micro_quality_ckpt, whole)
    sizes = [len(blob) - _values_at(blob) for blob in (whole.read_bytes(), branch.read_bytes())]
    allowed = f"its configuration needs {sizes[0]} (the whole model) or {sizes[1]} (the error-map branch)"
    bad = tmp_path / "bad.ckpt"
    for source in (whole, branch):
        blob = source.read_bytes()
        # one float32 more, then one fewer
        for cut in (blob + bytes(4), blob[:-4]):
            bad.write_bytes(cut)
            with pytest.raises(CheckpointError) as info:
                load_checkpoint(bad)
            got = len(cut) - _values_at(cut)
            assert str(info.value) == f"{bad}: holds {got} bytes of parameter values; {allowed}"


def test_checkpoint_settings_text_that_is_not_utf8_names_the_file(micro_pem_ckpt, tmp_path):
    path = tmp_path / "text.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF  # the text's first byte; never valid in UTF-8
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: config text is not UTF-8"


def test_save_checkpoint_names_a_parameter_that_differs_from_its_table(micro_pem_ckpt, micro_quality_ckpt, tmp_path):
    # a fusion head makes a checkpoint the whole model; without one it is the error-map branch
    cases = [
        (micro_quality_ckpt, "fuse.mlp2.w2", None, "missing fuse.mlp2.w2"),
        (micro_pem_ckpt, "dec.extra.w", np.zeros(2, dtype=np.float32), "extra dec.extra.w"),
        (micro_quality_ckpt, "fuse.mlp2.w2", np.zeros((3, 1), dtype=np.float32), "fuse.mlp2.w2 is (3, 1), expected (16, 1)"),
    ]
    path = tmp_path / "bad.ckpt"
    for source, name, value, message in cases:
        params = dict(source.params)
        if value is None:
            del params[name]
        else:
            params[name] = value
        with pytest.raises(CompatibilityError) as info:
            save_checkpoint(dataclasses.replace(source, params=params), path)
        assert info.value.fields == (message,)
        assert str(info.value).startswith(f"{path}: parameters do not match the checkpoint's configuration")
        assert list(tmp_path.iterdir()) == []


def test_checkpoint_bad_version(micro_pem_ckpt, tmp_path):
    path = tmp_path / "v.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[7] = 99  # version byte sits right after the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_checkpoint(path)


def test_checkpoint_bad_embedded_config_names_the_file(micro_pem_ckpt, tmp_path):
    path = tmp_path / "cfg.ckpt"
    save_checkpoint(micro_pem_ckpt, path)
    blob = path.read_bytes()
    assert blob.count(b"lr_period = 5") == 1
    path.write_bytes(blob.replace(b"lr_period = 5", b"lr_period = 0"))  # same length
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: lr_period must be positive"


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


def test_stage2_rejects_incomplete_pem_branch(micro_manifest, micro_pem_ckpt):
    partial = {n: a for n, a in micro_pem_ckpt.params.items() if not n.startswith("dec.")}
    broken = Checkpoint(
        micro_pem_ckpt.model_cfg, micro_pem_ckpt.train_cfg, micro_pem_ckpt.loss_cfg, partial
    )
    with pytest.raises(CompatibilityError, match="complete error-map branch") as err:
        train_quality(micro_manifest, broken, TrainConfig(**MICRO), patch_count=1, augment=False)
    assert err.value.fields and all(f.startswith("missing dec.") for f in err.value.fields)


def test_stage2_names_pem_parameter_with_wrong_shape(micro_manifest, micro_pem_ckpt):
    params = dict(micro_pem_ckpt.params)
    shape = params["dec.head.w"].shape
    params["dec.head.w"] = np.zeros((1, 2, 3, 3), dtype=np.float32)
    broken = Checkpoint(
        micro_pem_ckpt.model_cfg, micro_pem_ckpt.train_cfg, micro_pem_ckpt.loss_cfg, params
    )
    with pytest.raises(CompatibilityError, match="complete error-map branch") as err:
        train_quality(micro_manifest, broken, TrainConfig(**MICRO), patch_count=1, augment=False)
    assert err.value.fields == (f"dec.head.w is (1, 2, 3, 3), expected {shape}",)


def test_share_backbone_trains_token_only(micro_manifest, micro_pem_ckpt):
    tc = TrainConfig(**{**MICRO, "share_backbone": True})
    ck = train_quality(micro_manifest, micro_pem_ckpt, tc, patch_count=1, augment=False)
    names = set(ck.params)
    assert "pqt.token" in names
    assert not any(n.startswith("pqt.block") for n in names)
    assert not any(n.startswith("pqt.embed") for n in names)


def test_ablation_param_sets(micro_manifest, micro_pem_ckpt):
    pem_only = train_quality(
        micro_manifest, micro_pem_ckpt,
        TrainConfig(**{**MICRO, "ablation_mode": "pem_only"}), patch_count=1, augment=False,
    )
    assert not any(n.startswith("pqt.") for n in pem_only.params)
    pqt_only = train_quality(
        micro_manifest, micro_pem_ckpt,
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
    quality = train_quality(
        micro_manifest, shallow_pem_ckpt, TrainConfig(**SHALLOW), patch_count=1, augment=False
    )
    assert "pqt.block2.ln1.g" in quality.params


def test_shared_backbone_needs_every_block(micro_manifest, shallow_pem_ckpt):
    # the quality branch runs all blocks, so it cannot share a shallower backbone
    tc = TrainConfig(**SHALLOW, share_backbone=True)
    with pytest.raises(CompatibilityError, match=r"pem\.block2\."):
        train_quality(micro_manifest, shallow_pem_ckpt, tc, patch_count=1, augment=False)


def _record_tapes(monkeypatch):
    """Spy on training.backward: keep every loss and a copy of the tape a step replays.

    ``backward`` releases each node it replays, so the copy snapshots each
    node's output and inputs before the replay.
    """
    tapes = []
    real_backward = training.backward

    def spy(loss, tape):
        nodes = [SimpleNamespace(out=node.out, inputs=node.inputs) for node in tape.nodes]
        tapes.append((loss, SimpleNamespace(nodes=nodes)))
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
    rows = _record_frozen_rows(monkeypatch)

    # whole 32 px images without flips: every epoch draws the same patches
    n = len(micro_manifest.split_samples("train"))
    log = tmp_path / "s2.log"
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 5})
    train_quality(micro_manifest, micro_pem_ckpt, tc, patch_count=1, augment=False, log_path=str(log))
    assert sum(rows) == n
    assert log.read_text().splitlines()[-1] == f"stage=2 frozen_encoded={n} frozen_drawn={5 * n}"

    # flipped random 32 px crops of 64 px images: no patch repeats at this seed
    rows.clear()
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 2})
    train_quality(default_manifest, micro_pem_ckpt, tc, patch_count=4, augment=True)
    assert sum(rows) == 2 * 4 * len(default_manifest.split_samples("train"))

    # the quality token alone never reads the frozen branch
    rows.clear()
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 5, "ablation_mode": "pqt_only"})
    train_quality(micro_manifest, micro_pem_ckpt, tc, patch_count=1, augment=False)
    assert rows == []


def test_stage2_step_records_only_nodes_that_reach_the_loss(micro_manifest, micro_pem_ckpt, monkeypatch):
    tapes = _record_tapes(monkeypatch)
    tc = TrainConfig(**{**MICRO, "epochs_stage2": 1})
    train_quality(micro_manifest, micro_pem_ckpt, tc, patch_count=1, augment=False)
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


def test_gelu_takes_its_slope_only_where_a_backward_reads_it(monkeypatch):
    slopes = []  # the slope flag of every GELU, in call order
    real_gelu = T._gelu

    def spy(x, slope):
        slopes.append(slope)
        return real_gelu(x, slope)

    monkeypatch.setattr(T, "_gelu", spy)
    cfg = ModelConfig()
    table = training.param_table(cfg)
    pem = training.build_store(training.stage1(table), 0)
    rng = np.random.default_rng(0)
    ref = ImageBatch(rng.random((8, 64, 64)))
    dist = ImageBatch(np.clip(ref.pixels + 0.1 * rng.standard_normal((8, 64, 64)), 0.0, 1.0))

    # a default stage-1 step: every block of the error-map branch, then the decoder
    with T.Tape() as tape:
        loss = pem_loss(training.forward_pem(dist, pem, cfg), compute_oem(dist, ref), dist, ref, PemLossConfig())
    T.backward(loss, tape)
    assert slopes == [True] * (cfg.pem_depth + 1)

    # a stage-2 step: the frozen branch runs under the tape and takes no slope
    store = training.build_store(table, 0, frozen=pem.arrays())
    slopes.clear()
    with T.Tape() as tape:
        features = training.frozen_features(dist, store, cfg)
        preds = training.score_crops(dist, features, store, cfg, "both", False)
        loss = training.quality_loss(preds, np.linspace(0.1, 0.9, 8, dtype=np.float32))
    T.backward(loss, tape)
    assert slopes == [False] * (cfg.pem_depth + 1) + [True] * cfg.layers

    # untaped inference takes none
    slopes.clear()
    training.predict_score(GrayImage(64, 64, rng.random((64, 64))), store, cfg)
    assert slopes == [False] * (cfg.pem_depth + 1 + cfg.layers)


def _train_manifest(root, images) -> DatasetManifest:
    """A train-only manifest of (dist, ref or None, score) images, written under ``root``."""
    samples = []
    for i, (dist, ref, score) in enumerate(images):
        save_image(dist, str(root / f"d{i}.pgm"))
        if ref is not None:
            save_image(ref, str(root / f"r{i}.pgm"))
        samples.append(Sample(f"d{i}.pgm", f"r{i}.pgm" if ref is not None else "", score, f"b{i}", "train"))
    path = str(root / "manifest.csv")
    save_manifest(DatasetManifest(1, 0, samples, str(root)), path)
    return load_manifest(path)


def test_stage1_steps_pair_each_distorted_crop_with_its_reference_crop(tmp_path, monkeypatch):
    # each distorted image holds its reference's 8-bit levels halved, so a
    # crop pair keeps d = r // 2 on every pixel only if both crops were cut
    # at one seed from one sample
    images = []
    for i in range(2):
        levels = np.clip(np.rint(255 * make_texture(48, 48, derive_seed(7, "pairs", i)).pixels), 0, 255)
        ref = GrayImage(48, 48, levels / 255)
        images.append((GrayImage(48, 48, (levels // 2) / 255), ref, 0.5))
    manifest = _train_manifest(tmp_path, images)
    seen = []
    real_pem_loss = training.pem_loss

    def spy(pred, oem, dist, ref, cfg):
        seen.append((dist.pixels.copy(), ref.pixels.copy()))
        return real_pem_loss(pred, oem, dist, ref, cfg)

    monkeypatch.setattr(training, "pem_loss", spy)
    tc = TrainConfig(batch_size=3, epochs_stage1=2)
    pretrain_pem(manifest, tiny_config(), tc, patch_count=4, augment=True)
    dist = np.concatenate([d for d, _r in seen])
    ref = np.concatenate([r for _d, r in seen])
    assert dist.shape[0] == ref.shape[0] == 2 * 2 * 4
    assert np.array_equal(np.rint(255 * dist), np.rint(255 * ref) // 2)


def test_stage2_steps_score_each_crop_against_its_own_sample(micro_pem_ckpt, tmp_path, monkeypatch):
    # constant images: a crop's level names the sample it was cut from
    score_of = {30: 0.1, 80: 0.3, 130: 0.5, 180: 0.7, 230: 0.9}
    manifest = _train_manifest(
        tmp_path, [(GrayImage(40, 40, np.full((40, 40), level / 255)), None, y) for level, y in score_of.items()]
    )
    crops, targets = [], []
    real_score_crops, real_quality_loss = training.score_crops, training.quality_loss

    def score_spy(patches, *args):
        assert (patches.pixels == patches.pixels[:, :1, :1]).all()
        crops.append(np.rint(255 * patches.pixels[:, 0, 0]).astype(int))
        return real_score_crops(patches, *args)

    def loss_spy(preds, scores):
        targets.append(scores)
        return real_quality_loss(preds, scores)

    monkeypatch.setattr(training, "score_crops", score_spy)
    monkeypatch.setattr(training, "quality_loss", loss_spy)
    tc = TrainConfig(batch_size=4, epochs_stage2=2)
    train_quality(manifest, micro_pem_ckpt, tc, patch_count=3, augment=True)
    assert [len(c) for c in crops] == [len(t) for t in targets]
    assert sum(map(len, crops)) == 2 * 5 * 3
    assert any(len(set(c)) > 1 for c in crops)  # batches mix samples
    for levels, scores in zip(crops, targets):
        assert scores.dtype == np.float32
        assert list(scores) == [np.float32(score_of[level]) for level in levels]


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_manifest_outputs(micro_manifest, micro_quality_ckpt):
    out = evaluate_manifest(micro_manifest, micro_quality_ckpt)
    assert set(out) == {"train", "test"}
    paths, targets, preds, readouts = out["train"]
    n_train = len(micro_manifest.split_samples("train"))
    assert len(paths) == len(targets) == len(preds) == len(readouts) == n_train
    assert all(np.isfinite(p) for p in preds)
    assert out["test"] == ([], [], [], [])


def test_evaluate_rejects_pem_checkpoint(micro_manifest, micro_pem_ckpt):
    with pytest.raises(CompatibilityError, match="no fusion head"):
        evaluate_manifest(micro_manifest, micro_pem_ckpt)


def test_overfit_set_learns_score_order(overfit_manifest, overfit_quality_ckpt):
    # headline check: both stages together rank and fit the training scores
    _paths, targets, preds, _readouts = evaluate_manifest(overfit_manifest, overfit_quality_ckpt)["train"]
    assert srocc(targets, preds) >= 0.9
    assert plcc(targets, preds) >= 0.9


def test_stage1_readout_ranks_the_overfit_set(overfit_manifest, overfit_quality_ckpt):
    # eval's pem_srocc: minus each image's mean predicted map, read from
    # the scoring pass, and deterministic across evals
    first = evaluate_manifest(overfit_manifest, overfit_quality_ckpt)["train"]
    second = evaluate_manifest(overfit_manifest, overfit_quality_ckpt)["train"]
    _paths, targets, _preds, readouts = first
    assert second == first
    assert srocc(targets, readouts) > 0.0


def test_stage1_readout_is_none_without_an_error_map(micro_manifest):
    cfg = tiny_config()
    ckpt = Checkpoint(
        cfg, TrainConfig(**MICRO, ablation_mode="pqt_only"), PemLossConfig(),
        training.build_store(training.param_table(cfg, "pqt_only"), seed=0).arrays(),
    )
    _paths, _targets, preds, readouts = evaluate_manifest(micro_manifest, ckpt)["train"]
    assert readouts == [None] * len(preds) and len(preds) > 0


def test_error_maps_follow_the_objective_error_after_brief_training(tmp_path):
    # a collapsed branch predicts the same map for every image. Over seeds
    # 0-9, r read 0.35-0.65 with raw-pixel patches, 0.93-0.99 mean-removed
    bases = []
    for i in range(3):
        path = tmp_path / f"base{i}.pgm"
        save_image(make_texture(32, 32, i), str(path))
        bases.append(str(path))
    manifest = generate_synthetic_dataset(bases, severities=(1, 3, 5), out_dir=str(tmp_path / "set"))
    cfg = tiny_config()
    tc = TrainConfig(alpha=2e-3, batch_size=8, epochs_stage1=30)
    store = store_from_checkpoint(pretrain_pem(manifest, cfg, tc, patch_count=1, augment=False))
    dist = ImageBatch([load_image(manifest.resolve(s.dist_path)).pixels for s in manifest.samples])
    ref = ImageBatch([load_image(manifest.resolve(s.ref_path)).pixels for s in manifest.samples])
    predicted = training.forward_pem(dist, store, cfg).data.mean(axis=(1, 2, 3))
    objective = compute_oem(dist, ref).pixels.mean(axis=(1, 2))
    assert plcc(objective, predicted) >= 0.8


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
    batch = ImageBatch([c.pixels for c in crops])
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
    one_by_one = []
    for c in crops:
        one = ImageBatch([c])
        features = training.frozen_features(one, store, cfg)
        one_by_one.append(training.score_crops(one, features, store, cfg, "both", False).item())
    assert training.predict_score(img, store, cfg) == pytest.approx(np.mean(one_by_one), abs=BATCH_ATOL)


def test_batched_stage1_gradients_match_one_at_a_time(micro_pem_ckpt):
    cfg = tiny_config()
    store = training.build_store(training.stage1(training.param_table(cfg)), seed=0)
    for name, t in store.items():
        t.data[...] = micro_pem_ckpt.params[name]
    dist, ref = _textures(8, 3), _textures(8, 4)
    loss_cfg = PemLossConfig()

    def grads(d, r):
        d, r = ImageBatch([x.pixels for x in d]), ImageBatch([x.pixels for x in r])
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
    spec = DistortionSpec("gaussian_blur", 3, seed=0)
    images = [(apply_distortion(base, spec), base, pseudo_mos(spec)) for base in _textures(2, 5, size=64)]
    return _train_manifest(tmp_path_factory.mktemp("default"), images)


def test_default_steps_record_one_taped_forward_per_batch(default_manifest, monkeypatch):
    cfg = ModelConfig()
    tc = TrainConfig(epochs_stage1=1, epochs_stage2=1, batch_size=8)
    tapes = _record_tapes(monkeypatch)
    pem = pretrain_pem(default_manifest, cfg, tc, patch_count=4, augment=True)
    train_quality(default_manifest, pem, tc, patch_count=4, augment=True)
    (_loss1, step1), (_loss2, step2) = tapes
    # exact counts, so that an op left un-fused or a stray node fails here:
    # one patch at a time with a per-head loop took 1,920 and 1,748 nodes
    assert len(step1.nodes) == 62
    assert len(step2.nodes) == 48


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
    train_quality(micro_manifest, micro_pem_ckpt, tc, patch_count=1, augment=False)
    assert dtypes
    assert {dt for _op, dt in dtypes} == {np.dtype(np.float32)}, sorted(map(str, dtypes))
