"""Per-layer metrics derived from the spans of one traced pass.

Every span is attributed to the benchmark phase it ran under: the CLI
stage that called into the program (``cli.pretrain``, ``cli.train``,
``cli.eval``, ``cli.synth``) or the closed-loop scorer
(``bench.latency``). A step is the interval that ends when ``adam_step``
returns; the first step of a training call also carries its set-up.
Tensor ops report self time (span minus child spans); module layers
report inclusive time. A layer that did no work is an error, never a
0 ms entry.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tracer import OP_CLASSES, Spans

PHASES = ("cli.synth", "cli.pretrain", "cli.train", "cli.eval", "bench.latency")
EVAL_PHASES = ("cli.eval", "bench.latency")
STAGES = ("training.pretrain_pem", "training.train_quality")


class NoWork(RuntimeError):
    """A layer the metric describes did no work in the traced pass."""


def _nearest(name: np.ndarray, parent: np.ndarray, target_ids) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self named in target_ids (-1: none)."""
    hit = np.isin(name, np.asarray(list(target_ids), dtype=name.dtype))
    hit_ext = np.append(hit, False)  # index -1 maps to "no hit"
    anc = np.where(hit, np.arange(name.size), parent)
    while True:
        todo = (anc >= 0) & ~hit_ext[anc]
        if not todo.any():
            return anc
        anc[todo] = parent[anc[todo]]


class _View:
    def __init__(self, spans: Spans):
        a = spans.arrays()
        self.ids = {n: i for i, n in enumerate(spans.names)}
        self.name, self.parent = a["name"], a["parent"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        child = np.zeros_like(self.dur)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_time = self.dur - child
        phase_idx = _nearest(self.name, self.parent, self._ids_of(PHASES))
        self.phase = np.where(phase_idx >= 0, self.name[np.maximum(phase_idx, 0)], -1)
        self.stage = _nearest(self.name, self.parent, self._ids_of(STAGES))
        self.notes = spans.notes

    def _ids_of(self, names) -> list:
        return [self.ids[n] for n in names if n in self.ids]

    def mask(self, name: str, phases=None) -> np.ndarray:
        nid = self.ids.get(name, -2)
        m = self.name == nid
        if phases is not None:
            m &= np.isin(self.phase, self._ids_of(phases))
        return m

    def in_phase(self, idx: int, phases) -> bool:
        return int(self.phase[idx]) in self._ids_of(phases)

    def count(self, name: str, phases=None) -> int:
        return int(self.mask(name, phases).sum())

    def total(self, name: str, phases=None, self_time: bool = False) -> float:
        vals = self.self_time if self_time else self.dur
        return float(vals[self.mask(name, phases)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]


def _per(value: float, count: int, what: str) -> float:
    if count <= 0:
        raise NoWork(f"no {what} in the traced pass")
    return value / count


def _median(values, what: str) -> float:
    if len(values) == 0:
        raise NoWork(f"no {what} in the traced pass")
    return float(np.median(values))


def _mean_ms(v: _View, name: str) -> float:
    d = v.durations(name)
    return _per(float(d.sum()) * 1e3, d.size, name)


def _step_ms(v: _View, stage: str) -> list:
    """Durations of every training step under each call of ``stage``."""
    steps = []
    sid = v.ids.get(stage)
    adam = np.flatnonzero(v.mask("training.adam_step"))
    for call in np.flatnonzero(v.name == sid):
        ends = v.end[adam[v.stage[adam] == call]]
        bounds = np.concatenate([[v.start[call]], np.sort(ends)])
        steps.extend(np.diff(bounds) * 1e3)
    return steps


def _repeat_share(v: _View) -> tuple:
    """(repeats, calls) of stage-2 frozen-branch inputs, per train_quality call."""
    stage2 = v.ids.get("training.train_quality")
    seen: dict = {}
    repeats = calls = 0
    for idx, digest in v.notes.get("forward_pem_input", []):
        call = int(v.stage[idx])
        if call < 0 or v.name[call] != stage2:
            continue
        calls += 1
        bucket = seen.setdefault(call, set())
        repeats += digest in bucket
        bucket.add(digest)
    return repeats, calls


def per_layer(spans: Spans, per_crop_fwd: bool, overhead_share: float) -> dict:
    """name -> (value, unit, note) for every per-layer metric.

    ``per_crop_fwd``: tensor forward times are per scored crop (a workload
    without training rounds) rather than per stage-1 step.
    """
    v = _View(spans)
    steps1 = v.count("training.adam_step", ["cli.pretrain"])
    steps2 = v.count("training.adam_step", ["cli.train"])
    crops = sum(n for idx, n in v.notes.get("crops", []) if v.in_phase(idx, EVAL_PHASES))

    def ms(name: str, phases, self_time: bool = False) -> float:
        return v.total(name, phases, self_time) * 1e3

    def per_step1(name: str, self_time: bool = False) -> float:
        return _per(ms(name, ["cli.pretrain"], self_time), steps1, "stage-1 step")

    def per_step2(name: str) -> float:
        return _per(ms(name, ["cli.train"]), steps2, "stage-2 step")

    def per_crop(name: str) -> float:
        return _per(ms(name, EVAL_PHASES), crops, "scored crop")

    out: dict = {}

    # tensor
    tapes = {1: [], 2: []}
    for idx, classes in v.notes.get("tape_nodes", []):
        if v.in_phase(idx, ["cli.pretrain"]):
            tapes[1].append(classes)
        elif v.in_phase(idx, ["cli.train"]):
            tapes[2].append(classes)
    for stage, phase in ((1, "cli.pretrain"), (2, "cli.train")):
        calls, what = len(tapes[stage]), f"stage-{stage} backward"
        out[f"tensor.tape_nodes_step{stage}"] = (
            _per(sum(len(c) for c in tapes[stage]), calls, what), "count", f"per stage-{stage} step"
        )
        out[f"tensor.backward_ms_step{stage}"] = (
            _per(ms("tensor.backward", [phase]), calls, what), "ms", f"per stage-{stage} step"
        )
    node_counts = Counter(op for classes in tapes[1] for op in classes)
    for op in OP_CLASSES:
        if per_crop_fwd:
            fwd_ms = _per(ms(f"tensor.fwd.{op}", EVAL_PHASES, True), crops, "scored crop")
            fwd = (fwd_ms, "per scored crop")
        else:
            fwd = (per_step1(f"tensor.fwd.{op}", True), "per stage-1 step")
        out[f"tensor.fwd_ms.{op}"] = (fwd[0], "ms", "self time " + fwd[1])
        out[f"tensor.bwd_ms.{op}"] = (
            per_step1(f"tensor.bwd.{op}", True), "ms", "self time per stage-1 step"
        )
        out[f"tensor.nodes.{op}"] = (
            _per(node_counts[op], len(tapes[1]), "stage-1 backward"), "count", "per stage-1 step"
        )

    # encoder, decoder, quality, supervision (inclusive times)
    out["encoder.pem_ms"] = (per_crop("encoder.pem"), "ms", "per scored crop")
    out["encoder.pqt_ms"] = (per_crop("encoder.pqt"), "ms", "per scored crop")
    out["decoder.decode_ms"] = (per_crop("decoder.decode"), "ms", "per scored crop")
    out["quality.fuse_ms"] = (per_crop("quality.fuse"), "ms", "per scored crop")
    out["quality.loss_ms"] = (per_step2("quality.loss"), "ms", "per stage-2 step")
    out["supervision.oem_ms"] = (per_step1("supervision.oem"), "ms", "per stage-1 step")
    out["supervision.pem_loss_ms"] = (per_step1("supervision.pem_loss"), "ms", "per stage-1 step")

    # training
    for stage, name in ((1, "training.pretrain_pem"), (2, "training.train_quality")):
        steps = _step_ms(v, name)
        out[f"training.step{stage}_ms_p50"] = (
            _median(steps, f"stage-{stage} step"), "ms", f"median of {len(steps)} stage-{stage} steps"
        )
    out["training.adam_ms"] = (_mean_ms(v, "training.adam_step"), "ms", "per step, both stages")
    out["training.frozen_pem_ms"] = (
        per_step2("training.forward_pem"), "ms", "off-tape forward_pem per stage-2 step"
    )
    repeats, calls = _repeat_share(v)
    out["training.frozen_pem_repeat_share"] = (
        _per(repeats, calls, "stage-2 frozen-branch input"),
        "share",
        f"{repeats} of {calls} stage-2 frozen-branch inputs already seen in the same training run",
    )
    out["training.ckpt_save_ms"] = (_mean_ms(v, "training.save_checkpoint"), "ms", "per checkpoint")
    out["training.ckpt_load_ms"] = (_mean_ms(v, "training.load_checkpoint"), "ms", "per checkpoint")
    stage1 = [n for idx, n in v.notes.get("ckpt_bytes", []) if v.in_phase(idx, ["cli.pretrain"])]
    out["training.ckpt_bytes"] = (
        _per(stage1[-1] if stage1 else 0, len(stage1), "stage-1 checkpoint"), "bytes", "stage-1 file"
    )

    # data, imaging
    out["data.sample_patches_ms"] = (
        _per(ms("data.sample_patches", ["cli.pretrain", "cli.train"]), steps1 + steps2, "step"),
        "ms",
        "per step, both stages",
    )
    out["data.eval_crops_ms"] = (_mean_ms(v, "data.eval_crops"), "ms", "per scored image")
    crop_notes = [n for _idx, n in v.notes.get("crops", [])]
    out["data.crops_per_image"] = (_per(sum(crop_notes), len(crop_notes), "scored image"), "count", "")
    out["data.generate_s"] = (_mean_ms(v, "data.generate") / 1e3, "s", "per `tempqt synth`")
    out["imaging.load_image_ms"] = (_mean_ms(v, "imaging.load_image"), "ms", "per call")
    out["imaging.load_image_calls"] = (v.count("imaging.load_image"), "count", "whole traced pass")
    out["imaging.save_image_ms"] = (_mean_ms(v, "imaging.save_image"), "ms", "per call")
    out["imaging.apply_distortion_ms"] = (_mean_ms(v, "imaging.apply_distortion"), "ms", "per call")

    # cli
    for cmd in ("synth", "pretrain", "train", "eval"):
        d = v.durations(f"cli.{cmd}")
        out[f"cli.{cmd}_s"] = (_median(d, f"`tempqt {cmd}`"), "s", f"median of {d.size} calls")

    out["trace.overhead_share"] = (overhead_share, "share", "traced wall time / untraced wall time - 1")
    return out
