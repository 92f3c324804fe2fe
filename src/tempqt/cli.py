"""Command-line entry points.

Subcommands: synth (build a distorted dataset), pretrain (stage 1),
train (stage 2), eval (score a manifest), maps (export error and
attention maps), gradcheck (finite-difference audit of every case in
``gradcheck.CASES``; it takes only a seed). Every other command writes
``<command>.resolved.config``, the settings it ran with, beside its
outputs: synth its flags, pretrain the run config, train the run config
with the loss settings of ``--pem-ckpt`` (stage 2 keeps them), and eval
and maps the settings of the checkpoint they read. pretrain, train and
eval take settings from ``--config`` and paths only from ``--manifest``
and ``--out``, which may not be empty.

eval reports SROCC and PLCC per split, and ``n/a`` for a metric that is
undefined on a split: fewer than two samples, or constant scores or
constant predictions.

maps draws the maps of each image's center crop of the checkpoint's
image_size: the crop of size s at ((H - s) // 2, (W - s) // 2). An
image of exactly s is its own crop, and one smaller than s on either
side is an error. Each image's maps are named by its file stem, so
images that share a stem are an error, raised before anything is
mapped or written.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
Exit 1 reports a ``TempqtError`` (every error in ``errors.py``) or an
``OSError``; a command that fails on its inputs creates no ``--out``.
A training step with a non-finite loss exits 1 with no checkpoint, and
its stage's log ends with an ``error=`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import RunConfig, load_run_config, serialize_run_config
from .data import (
    check_crop_fits,
    check_train_fraction,
    generate_synthetic_dataset,
    load_manifest,
    save_manifest,
    split_by_reference,
)
from .encoder import encode
from .errors import ArgumentError, DataError, MetricError, TempqtError
from .gradcheck import CASES, TOLERANCE, run_case
from .imaging import DISTORTION_KINDS, SEVERITIES, GrayImage, ImageBatch, load_image, save_image
from .metrics import plcc, srocc
from .quality import extract_attention_map
from .training import (
    check_model_compat,
    evaluate_manifest,
    forward_pem,
    load_checkpoint,
    pretrain_pem,
    save_checkpoint,
    store_from_checkpoint,
    train_quality,
)

_ERRORS = (TempqtError, OSError)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _resolved_run(run: RunConfig, out_dir: str, command: str) -> None:
    _write(os.path.join(out_dir, f"{command}.resolved.config"), serialize_run_config(run))


def _run_path(text: str) -> str:
    """A run's --manifest or --out as an absolute path; empty is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return os.path.abspath(text)


# --- commands ---------------------------------------------------------------


def _severity_list(text: str) -> tuple:
    """--severities as ints; an entry that is no integer is an ArgumentError naming it."""
    levels = []
    for entry in text.split(","):
        try:
            levels.append(int(entry))
        except ValueError:
            raise ArgumentError(f"--severities entry {entry!r} is not an integer") from None
    return tuple(levels)


def cmd_synth(args) -> int:
    kinds = tuple(args.kinds.split(",")) if args.kinds else DISTORTION_KINDS
    severities = _severity_list(args.severities) if args.severities else SEVERITIES
    # the split runs after the images are written, so its fraction is checked first
    check_train_fraction(args.train_fraction)
    names = sorted(
        n for n in os.listdir(args.bases) if n.lower().endswith((".pgm", ".ppm", ".pnm"))
    )
    if not names:
        raise DataError(f"no .pgm/.ppm/.pnm images under {args.bases}")
    paths = [os.path.join(args.bases, n) for n in names]
    # the generator checks everything before it creates the output directory
    out = args.out
    manifest = generate_synthetic_dataset(paths, kinds, severities, args.seed, out)
    manifest = split_by_reference(manifest, args.train_fraction, args.seed)
    save_manifest(manifest, os.path.join(out, "manifest.csv"))
    lines = [
        f"bases = {os.path.abspath(args.bases)}",
        f"out = {os.path.abspath(out)}",
        f"seed = {args.seed}",
        f"kinds = {','.join(kinds)}",
        f"severities = {','.join(str(s) for s in severities)}",
        f"train_fraction = {args.train_fraction!r}",
    ]
    _write(os.path.join(out, "synth.resolved.config"), "\n".join(lines) + "\n")
    n_train = len(manifest.split_samples("train"))
    n_test = len(manifest.split_samples("test"))
    print(f"wrote {len(manifest.samples)} samples (train={n_train} test={n_test}) to {out}")
    return 0


def cmd_pretrain(args) -> int:
    run = load_run_config(args.config)
    manifest = load_manifest(args.manifest)
    out = _ensure_out(args.out)
    _resolved_run(run, out, "pretrain")
    ckpt = pretrain_pem(
        manifest,
        run.model,
        run.train,
        run.loss,
        patch_count=run.patch_count,
        augment=run.augment,
        log_path=os.path.join(out, "pretrain.log"),
    )
    path = os.path.join(out, "pem.ckpt")
    save_checkpoint(ckpt, path)
    print(f"wrote {path}")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    manifest = load_manifest(args.manifest)
    pem_ckpt = load_checkpoint(args.pem_ckpt)
    check_model_compat(pem_ckpt.model_cfg, run.model)
    out = _ensure_out(args.out)
    _resolved_run(dataclasses.replace(run, loss=pem_ckpt.loss_cfg), out, "train")
    ckpt = train_quality(
        manifest,
        pem_ckpt,
        run.train,
        patch_count=run.patch_count,
        augment=run.augment,
        log_path=os.path.join(out, "train.log"),
    )
    path = os.path.join(out, "quality.ckpt")
    save_checkpoint(ckpt, path)
    print(f"wrote {path}")
    return 0


def _metric_text(metric, targets, preds) -> str:
    """The metric to six places, or n/a where it is undefined on the split:
    fewer than two samples, or constant targets or predictions."""
    try:
        return f"{metric(targets, preds):.6f}"
    except MetricError:
        return "n/a"


def cmd_eval(args) -> int:
    run = load_run_config(args.config)
    manifest = load_manifest(args.manifest)
    ckpt = load_checkpoint(args.ckpt)
    check_model_compat(ckpt.model_cfg, run.model)
    # scores and reports everything first, so a bad checkpoint or image
    # leaves no output
    results = evaluate_manifest(manifest, ckpt)
    report_lines = []
    csv_lines = ["dist_path,y,pred"]
    for split, (paths, targets, preds) in results.items():
        if not paths:
            continue
        for path, y, p in zip(paths, targets, preds):
            csv_lines.append(f"{path},{y!r},{p!r}")
        report_lines.append(
            f"split={split} n={len(paths)} srocc={_metric_text(srocc, targets, preds)} "
            f"plcc={_metric_text(plcc, targets, preds)}"
        )

    out = _ensure_out(args.out)
    _write(os.path.join(out, "eval.resolved.config"), ckpt.settings_text())
    for line in report_lines:
        print(line)
    _write(os.path.join(out, "report.txt"), "\n".join(report_lines) + "\n")
    _write(os.path.join(out, "predictions.csv"), "\n".join(csv_lines) + "\n")
    return 0


def cmd_maps(args) -> int:
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.images]
    shared = next((stem for stem in stems if stems.count(stem) > 1), None)
    if shared is not None:
        raise ArgumentError(f"images share the file stem {shared!r}, so their maps would overwrite each other")
    ckpt = load_checkpoint(args.ckpt)
    store = store_from_checkpoint(ckpt)
    cfg = ckpt.model_cfg
    size = cfg.image_size
    images = []
    for path in args.images:
        img = load_image(path)
        check_crop_fits(img, size, path)
        top, left = (img.height - size) // 2, (img.width - size) // 2
        images.append(GrayImage(size, size, img.pixels[top : top + size, left : left + size]))
    # every image in one batch, mapped before anything is written
    batch = ImageBatch.stack(images)
    pems = np.clip(forward_pem(batch, store, cfg).data[:, 0], 0.0, 1.0)
    attention = None
    if store.has_prefix("pqt."):
        attention = encode(batch, store, cfg, "pqt", ckpt.train_cfg.share_backbone).attention

    out = _ensure_out(args.out)
    _write(os.path.join(out, "maps.resolved.config"), ckpt.settings_text())
    for i, stem in enumerate(stems):
        base = os.path.join(out, stem)
        save_image(GrayImage(size, size, pems[i]), f"{base}.pem.pgm")
        print(f"wrote {base}.pem.pgm")
        if attention is not None:
            save_image(extract_attention_map([a[i] for a in attention], size, size), f"{base}.am.pgm")
            print(f"wrote {base}.am.pgm")
    return 0


def cmd_gradcheck(args) -> int:
    failing = []
    worst = 0.0
    for name, case in CASES.items():
        result = run_case(name, seed=args.seed, case=case)
        status = "ok" if result.ok else "FAIL"
        print(f"op={result.name} max_rel_err={result.max_rel_err:.3e} "
              f"checked={result.checked} {status}")
        worst = max(worst, result.max_rel_err)
        if not result.ok:
            failing.append(result.name)
    verdict = "ok" if not failing else "FAIL"
    print(f"gradcheck ops={len(CASES)} max_rel_err={worst:.3e} tolerance={TOLERANCE:.1e} {verdict}")
    if failing:
        print(f"failing: {', '.join(failing)}")
        return 1
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempqt",
        description="Quality assessment from predicted error maps and a quality token.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # what pretrain, train and eval share: the run config and the run's two paths
    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--config", required=True, help="key = value settings file")
    run_args.add_argument("--manifest", required=True, type=_run_path, help="dataset manifest.csv to read")
    run_args.add_argument("--out", required=True, type=_run_path, help="run directory to write")

    p = sub.add_parser("synth", help="generate a distorted dataset from base images")
    p.add_argument("--bases", required=True, help="directory of base images (.pgm/.ppm)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", default=None, help=f"comma list from {','.join(DISTORTION_KINDS)}")
    p.add_argument(
        "--severities", default=None, help=f"comma list from {SEVERITIES[0]}..{SEVERITIES[-1]} (default all)"
    )
    p.add_argument("--train-fraction", type=float, default=0.8, dest="train_fraction")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", parents=[run_args], help="stage 1: train the error-map branch")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", parents=[run_args], help="stage 2: train quality token and fusion head")
    p.add_argument("--pem-ckpt", required=True, dest="pem_ckpt")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[run_args], help="score a manifest with a quality checkpoint")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("maps", help="export predicted error maps and attention maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all backward rules")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
