"""The three benchmark workloads, run through tempqt's public entry points.

Every workload has the same shape: a number of rounds. A round starts
with ``setups_per_round`` timed set-ups (seeded base images written,
the dataset built with ``tempqt synth``; score also trains its
checkpoint there), then runs ``tempqt pretrain`` and ``tempqt train``
(workloads that train), then ``tempqt eval`` over the manifest, then a
slice of a closed loop in which one caller scores images one at a time
through ``load_image`` + ``predict_score``. Every metric's samples are
thus spread over the whole run, and each is reported as a median.
fit_tiny then trains once more on the long schedule, untimed, for the
quality it must reach.

Work sizes are fixed by the recipe and scale with ``--seconds`` (the
recipes are sized for DESIGN_SECONDS on a 2-core x86 box), so a run does
the same work, and produces byte-identical outputs, on every machine.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tempqt import cli, data, imaging, metrics, training
from tempqt.config import load_run_config
from tempqt.rng import derive_seed

DESIGN_SECONDS = 20

# the tiny_config() model and the long-schedule overfit recipe, as CLI keys
TINY_MODEL = {
    "image_size": 32,
    "patch_size": 8,
    "embed_dim": 16,
    "layers": 2,
    "heads": 2,
    "selected_layers": "0,1,2",
    "gap_grid": 2,
}
TINY_RECIPE = {
    "alpha": 2e-3,
    "beta": 1e-2,
    "batch_size": 8,
    "lr_decay": 0.85,
    "lr_period": 20,
    "oem_lambda": 0.0,
    "patch_count": 1,
    "augment": "false",
}
TINY_EPOCHS = (300, 200)


@dataclass(frozen=True)
class Recipe:
    name: str
    bases: Callable  # seed -> base images, one reference group each
    synth_args: tuple  # extra `tempqt synth` arguments
    all_train: bool  # put every sample in the train split
    config: dict  # run-config keys shared by pretrain, train and eval
    rounds: int  # measured rounds, each with its set-ups and one `tempqt eval`
    setups_per_round: int  # timed set-ups at the start of every round
    train_in_setup: bool  # the checkpoint is trained during set-up, not in every round
    latency_per_round: int  # closed-loop load_image + predict_score calls per round
    quality_split: str | None  # split whose srocc/plcc the run reports
    quality_epochs: tuple | None  # (stage 1, stage 2) epochs of one training run for quality
    quality_floor: float | None  # srocc and plcc must reach this (full schedule only)


WORKLOADS = ("train_default", "fit_tiny", "score")


def recipe(name: str, seconds: int) -> Recipe:
    """The workload's recipe, with its work scaled to ``seconds``."""
    scale = seconds / DESIGN_SECONDS

    def reps(n: int) -> int:
        return max(1, round(n * scale))

    if name == "train_default":
        return Recipe(
            name=name,
            bases=functools.partial(_textures, 96, 2),
            synth_args=(),
            all_train=False,
            config={"epochs_stage1": 1, "epochs_stage2": 1},
            rounds=reps(6),
            setups_per_round=2,
            train_in_setup=False,
            latency_per_round=18,
            quality_split="test",
            quality_epochs=None,
            quality_floor=None,
        )
    if name == "fit_tiny":
        return Recipe(
            name=name,
            bases=_tiny_bases,
            synth_args=("--kinds", "gaussian_blur", "--severities", "1,3,5"),
            all_train=True,
            config={**TINY_MODEL, **TINY_RECIPE, "epochs_stage1": 20, "epochs_stage2": 20},
            rounds=reps(6),
            setups_per_round=2,
            train_in_setup=False,
            latency_per_round=50,
            quality_split="train",
            # the full schedule from the design length up; shorter for smoke runs
            quality_epochs=tuple(max(1, round(n * min(scale, 1.0))) for n in TINY_EPOCHS),
            quality_floor=0.9 if scale >= 1 else None,
        )
    if name == "score":
        return Recipe(
            name=name,
            bases=functools.partial(_textures, 192, 2),
            synth_args=(),
            all_train=False,
            config={"epochs_stage1": 1, "epochs_stage2": 1},
            rounds=reps(6),
            setups_per_round=1,
            train_in_setup=True,
            latency_per_round=18,
            quality_split=None,
            quality_epochs=None,
            quality_floor=None,
        )
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# inputs


def _textures(px: int, count: int, seed: int) -> list:
    return [
        imaging.make_texture(px, px, derive_seed(seed, "bench", "texture", i)) for i in range(count)
    ]


def _tiny_bases(seed: int) -> list:
    """Two mirrored multi-band 32 px patterns with seeded grating phases."""
    rng = np.random.default_rng(derive_seed(seed, "bench", "tiny"))
    p6, p12 = rng.uniform(0.0, 2.0 * np.pi, 2)
    yy, xx = np.mgrid[0:32, 0:32].astype(float)
    checker = 2.0 * ((xx + yy) % 2) - 1.0
    band6 = np.sin(2 * np.pi * (xx + 0.7 * yy) / 6.0 + p6)
    band12 = np.sin(2 * np.pi * (0.6 * xx - yy) / 12.0 + p12)
    pat = np.clip(0.5 + 0.22 * checker + 0.18 * band6 + 0.14 * band12, 0.0, 1.0)
    return [imaging.GrayImage.from_array(pat), imaging.GrayImage.from_array(pat[:, ::-1].copy())]


def _config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root.

    ``*.resolved.config`` files are skipped: they record absolute paths.
    """
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".resolved.config"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# checks


class StageFailed(RuntimeError):
    """A CLI stage failed, so the stages after it cannot run."""


@dataclass
class Checks:
    """Counts operations and output checks; every miss is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cli(self, argv: list) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if not self.check(rc == 0, f"`tempqt {argv[0]}` exited {rc}"):
            raise StageFailed(f"`tempqt {' '.join(argv)}` exited {rc}")


def read_predictions(path: str) -> dict:
    """dist_path -> (target, prediction) from an eval predictions.csv."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = {}
    for line in lines[1:]:
        dist, y, pred = line.split(",")
        rows[dist] = (float(y), float(pred))
    return rows


# ---------------------------------------------------------------------------
# one pass: set-up plus measured phase


@dataclass
class Pass:
    """What one pass measured and produced."""

    # (start, end) perf_counter intervals of every timed operation
    setup: list = field(default_factory=list)
    pretrain: list = field(default_factory=list)
    train: list = field(default_factory=list)
    eval: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    patches_stage1: int = 0
    patches_stage2: int = 0
    images: int = 0
    wall_s: float = 0.0  # the whole pass, for the tracing overhead
    inputs: str = ""
    outputs: dict = field(default_factory=dict)
    quality: tuple | None = None


class _Runner:
    def __init__(self, rec: Recipe, seed: int, root: str, checks: Checks, spans=None):
        self.rec = rec
        self.seed = seed
        self.root = root
        self.checks = checks
        self.spans = spans
        self.result = Pass()
        self.rows = None  # the last round's predictions

    def span(self, name: str):
        return self.spans.span(name) if self.spans is not None else contextlib.nullcontext()

    def cli(self, argv: list) -> tuple:
        with self.span("cli." + argv[0]):
            t0 = time.perf_counter()
            self.checks.cli(argv)
            return t0, time.perf_counter()

    # -- stages --------------------------------------------------------------

    def setup(self, where: str) -> None:
        rec = self.rec
        bases = os.path.join(where, "bases")
        ds = os.path.join(where, "data")
        os.makedirs(bases)
        for i, img in enumerate(rec.bases(self.seed)):
            imaging.save_image(img, os.path.join(bases, f"base{i:02d}.pgm"))
        self.cli(["synth", "--bases", bases, "--out", ds, "--seed", str(self.seed), *rec.synth_args])
        manifest_path = os.path.join(ds, "manifest.csv")
        if rec.all_train:
            m = data.load_manifest(manifest_path)
            for s in m.samples:
                s.split = "train"
            data.save_manifest(m, manifest_path)
        with open(os.path.join(where, "run.config"), "w", encoding="utf-8") as fh:
            fh.write(_config_text(rec.config))
        if rec.train_in_setup:
            self.train(where, "run.config", os.path.join(where, "ckpt"), self.result)

    def train(self, where: str, config: str, out: str, times) -> None:
        """pretrain + train into ``out``; intervals go to ``times`` (a Pass, or None)."""
        cfg = os.path.join(where, config)
        manifest = os.path.join(where, "data", "manifest.csv")
        pre = self.cli(["pretrain", "--config", cfg, "--manifest", manifest, "--out", out])
        pem = os.path.join(out, "pem.ckpt")
        tr = self.cli(["train", "--config", cfg, "--manifest", manifest, "--out", out, "--pem-ckpt", pem])
        if times is not None:
            times.pretrain.append(pre)
            times.train.append(tr)

    def evaluate(self, where: str, ckpt: str, out: str, times) -> dict:
        cfg = os.path.join(where, "run.config")
        manifest_path = os.path.join(where, "data", "manifest.csv")
        t = self.cli(["eval", "--config", cfg, "--manifest", manifest_path, "--out", out, "--ckpt", ckpt])
        if times is not None:
            times.eval.append(t)
        rows = read_predictions(os.path.join(out, "predictions.csv"))
        manifest = data.load_manifest(manifest_path)
        expected = {s.dist_path for s in manifest.samples}
        self.checks.check(set(rows) == expected, "predictions.csv does not cover the manifest exactly")
        self.checks.check(
            all(math.isfinite(p) for _y, p in rows.values()), "predictions.csv holds a non-finite score"
        )
        return rows

    def latency(self, manifest, model: tuple, rows: dict, first: int) -> None:
        """Closed loop, one caller: load and score one image at a time."""
        samples = manifest.samples
        mismatched = 0
        with self.span("bench.latency"):
            for i in range(first, first + self.rec.latency_per_round):
                s = samples[i % len(samples)]
                path = manifest.resolve(s.dist_path)
                t0 = time.perf_counter()
                img = imaging.load_image(path)
                score = training.predict_score(img, *model)
                self.result.latency.append((t0, time.perf_counter()))
                self.checks.attempted += 1
                if not (math.isfinite(score) and score == rows[s.dist_path][1]):
                    mismatched += 1
        self.checks.failed += mismatched
        if mismatched:
            self.checks.problems.append(f"{mismatched} closed-loop scores differ from `tempqt eval`")

    def same_files(self, paths: list, what: str) -> None:
        self.checks.check(len({file_digest(p) for p in paths}) == 1, f"repeated runs wrote different {what}")

    # -- the pass --------------------------------------------------------------

    def run(self, rounds: int) -> Pass:
        """``rounds`` rounds of: set-ups, pretrain + train (unless done in set-up), eval, closed loop."""
        rec, res = self.rec, self.result
        t_pass = time.perf_counter()
        home = os.path.join(self.root, "setup")  # round 0's first set-up; every round uses it
        setup_digests, ckpt_dirs, preds = [], [], []
        model = manifest = None
        for r in range(rounds):
            for k in range(rec.setups_per_round):
                where = home if r == k == 0 else os.path.join(self.root, f"setup{r}-{k}")
                t0 = time.perf_counter()
                with self.span("bench.setup"):
                    self.setup(where)
                res.setup.append((t0, time.perf_counter()))
                # kept until the run ends: deleting files here slows the next set-up
                setup_digests.append(tree_digest(where))
            if r == 0:
                manifest = self.describe(home)
                if rec.train_in_setup:
                    ckpt_dirs.append(os.path.join(home, "ckpt"))
            if not rec.train_in_setup:
                ckpt_dirs.append(os.path.join(self.root, f"train{r}"))
                self.train(home, "run.config", ckpt_dirs[-1], res)
            ckpt = os.path.join(ckpt_dirs[0], "quality.ckpt")
            out = os.path.join(self.root, f"eval{r}")
            self.rows = self.evaluate(home, ckpt, out, res)
            preds.append(os.path.join(out, "predictions.csv"))
            if model is None:
                loaded = training.load_checkpoint(ckpt)
                tc = loaded.train_cfg
                store = training.store_from_checkpoint(loaded)
                model = (store, loaded.model_cfg, tc.ablation_mode, tc.share_backbone)
            self.latency(manifest, model, self.rows, r * rec.latency_per_round)
        self.checks.check(len(set(setup_digests)) == 1, "repeated set-ups produced different files")
        for name in ("pem.ckpt", "quality.ckpt"):
            self.same_files([os.path.join(d, name) for d in ckpt_dirs], name)
        self.same_files(preds, "predictions.csv")
        res.wall_s = time.perf_counter() - t_pass
        res.outputs = {
            "pem.ckpt": file_digest(os.path.join(ckpt_dirs[0], "pem.ckpt")),
            "quality.ckpt": file_digest(ckpt),
            "predictions.csv": file_digest(preds[0]),
        }
        return res

    def describe(self, home: str):
        """Record the inputs' digest and work sizes; return the manifest."""
        res = self.result
        res.inputs = tree_digest(os.path.join(home, "data"))
        manifest = data.load_manifest(os.path.join(home, "data", "manifest.csv"))
        run_cfg = load_run_config(os.path.join(home, "run.config"))
        per_epoch = len(manifest.split_samples("train")) * run_cfg.patch_count
        res.images = len(manifest.samples)
        res.patches_stage1 = run_cfg.train.epochs_stage1 * per_epoch
        res.patches_stage2 = run_cfg.train.epochs_stage2 * per_epoch
        return manifest

    def quality_run(self) -> None:
        """srocc/plcc of the recipe's quality split, and its floor.

        Workloads with ``quality_epochs`` train and evaluate once more on
        that schedule, untimed; the others use the rounds' predictions.
        """
        rec, res = self.rec, self.result
        home = os.path.join(self.root, "setup")
        manifest = data.load_manifest(os.path.join(home, "data", "manifest.csv"))
        rows = self.rows
        if rec.quality_epochs is not None:
            with open(os.path.join(home, "quality.config"), "w", encoding="utf-8") as fh:
                s1, s2 = rec.quality_epochs
                fh.write(_config_text({**rec.config, "epochs_stage1": s1, "epochs_stage2": s2}))
            out = os.path.join(self.root, "quality")
            self.train(home, "quality.config", out, None)
            rows = self.evaluate(home, os.path.join(out, "quality.ckpt"), out, None)
        pairs = [rows[s.dist_path] for s in manifest.split_samples(rec.quality_split)]
        try:
            res.quality = metrics.srocc(*zip(*pairs)), metrics.plcc(*zip(*pairs))
        except metrics.MetricError:
            res.quality = None
        if rec.quality_floor is not None:
            self.checks.check(
                res.quality is not None and min(res.quality) >= rec.quality_floor,
                f"srocc/plcc {res.quality} below the floor {rec.quality_floor}",
            )


def run_pass(rec: Recipe, seed: int, root: str, checks: Checks, spans=None, rounds: int = 0) -> Pass:
    """Measure ``rounds`` rounds (0: the recipe's count); full passes also report quality."""
    runner = _Runner(rec, seed, root, checks, spans)
    res = runner.run(rounds or rec.rounds)
    if not rounds and rec.quality_split is not None:
        runner.quality_run()
    return res


# ---------------------------------------------------------------------------
# end-to-end metrics


def end_to_end(rec: Recipe, res: Pass, peak_rss_mb: float, clock) -> dict:
    """name -> (value, unit, note) from an untraced pass.

    A time is ``clock.seconds`` of the operation's interval, its wall
    time at the reference host speed (see clock.py); each note gives
    the plain wall-time figure beside it.
    """

    def seconds(intervals: list, calibrated: bool) -> np.ndarray:
        return np.array([clock.seconds(a, b) if calibrated else b - a for a, b in intervals])

    def median(intervals: list, per=None) -> list:
        """[calibrated, wall] median of the seconds, or of per / seconds."""
        return [
            float(np.median(seconds(intervals, c) if per is None else per / seconds(intervals, c)))
            for c in (True, False)
        ]

    lat, lat_wall = (seconds(res.latency, c) * 1e3 for c in (True, False))
    p90 = float(np.percentile(lat, 90))
    loop = f"closed loop, 1 caller, {lat.size} images"
    stage_note = "in set-up, " if rec.train_in_setup else ""
    setup = median(res.setup)
    pre = median(res.pretrain, res.patches_stage1)
    tr = median(res.train, res.patches_stage2)
    ev = median(res.eval, res.images)
    return {
        "setup_s": (setup[0], "s", f"median of {len(res.setup)} set-ups over the run; wall {setup[1]:.4g}"),
        "pretrain_patches_per_s": (
            pre[0],
            "patches/s",
            f"{stage_note}median of {len(res.pretrain)} `tempqt pretrain` runs, "
            f"{res.patches_stage1} patches each; wall {pre[1]:.4g}",
        ),
        "train_patches_per_s": (
            tr[0],
            "patches/s",
            f"{stage_note}median of {len(res.train)} `tempqt train` runs, "
            f"{res.patches_stage2} patches each; wall {tr[1]:.4g}",
        ),
        "eval_images_per_s": (
            ev[0],
            "images/s",
            f"median of {len(res.eval)} `tempqt eval` runs of {res.images} images; wall {ev[1]:.4g}",
        ),
        "eval_ms_p50": (float(np.percentile(lat, 50)), "ms", f"{loop}; wall {np.percentile(lat_wall, 50):.4g}"),
        "eval_ms_p90": (
            p90,
            "ms",
            f"{loop}, {int(np.sum(lat > p90))} beyond p90; wall {np.percentile(lat_wall, 90):.4g}",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident set of the workload process"),
    }
