"""Flat key = value configuration files.

One namespace covers the model, training, loss, and run settings; the
field names of the underlying dataclasses are the keys, so they must
never collide. Comments start with ``#`` (full line or trailing),
booleans are ``true``/``false``, and integer tuples are comma
separated. Serialization is canonical: fixed group order, one key per
line, so equal configurations produce identical text.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

from .encoder import ModelConfig
from .errors import ArgumentError
from .supervision import PemLossConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    """Everything a training or evaluation run needs."""

    model: ModelConfig
    train: TrainConfig
    loss: PemLossConfig
    manifest: str | None = None
    out_dir: str | None = None
    patch_count: int = 4
    augment: bool = True

    def __post_init__(self):
        if self.patch_count < 1:
            raise ArgumentError("patch_count must be positive")


_RUN_TYPES = {"manifest": str, "out_dir": str, "patch_count": int, "augment": bool}


def _field_types(cls) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        default = getattr(cls, f.name, f.default)
        out[f.name] = type(default)
    return out


_MODEL_TYPES = _field_types(ModelConfig)
_TRAIN_TYPES = _field_types(TrainConfig)
_LOSS_TYPES = _field_types(PemLossConfig)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key: str, text: str, kind: type):
    try:
        if kind is bool:
            if text == "true":
                return True
            if text == "false":
                return False
            raise ValueError("expected true or false")
        if kind is int:
            return int(text)
        if kind is float:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError("expected a finite number")
            return value
        if kind is tuple:
            if not text:
                return ()
            return tuple(int(part.strip()) for part in text.split(","))
        return text
    except ValueError as exc:
        raise ArgumentError(f"bad value for {key}: {text!r} ({exc})") from exc


def _lines_for(obj, types: dict) -> list:
    return [f"{name} = {_format_value(getattr(obj, name))}" for name in types]


def serialize_settings(model: ModelConfig, train: TrainConfig, loss: PemLossConfig) -> str:
    """Canonical text for the model/train/loss triple (checkpoint payload)."""
    lines = ["# model"]
    lines += _lines_for(model, _MODEL_TYPES)
    lines.append("# training")
    lines += _lines_for(train, _TRAIN_TYPES)
    lines.append("# loss")
    lines += _lines_for(loss, _LOSS_TYPES)
    return "\n".join(lines) + "\n"


def _strip_line(line: str) -> str:
    # trailing comments only start at an unquoted '#'; values never contain one
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return line.strip()


def parse_pairs(text: str) -> dict:
    """Raw key -> value-string mapping, with duplicate keys rejected."""
    pairs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_line(raw)
        if not line:
            continue
        if "=" not in line:
            raise ArgumentError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ArgumentError(f"line {lineno}: empty key")
        if key in pairs:
            raise ArgumentError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _build(pairs: dict):
    """Split raw pairs into typed kwargs for each dataclass group."""
    groups = {"model": {}, "train": {}, "loss": {}, "run": {}}
    for key, value in pairs.items():
        if key in _MODEL_TYPES:
            groups["model"][key] = _parse_value(key, value, _MODEL_TYPES[key])
        elif key in _TRAIN_TYPES:
            groups["train"][key] = _parse_value(key, value, _TRAIN_TYPES[key])
        elif key in _LOSS_TYPES:
            groups["loss"][key] = _parse_value(key, value, _LOSS_TYPES[key])
        elif key in _RUN_TYPES:
            groups["run"][key] = _parse_value(key, value, _RUN_TYPES[key])
        else:
            raise ArgumentError(f"unknown configuration key {key!r}")
    return groups


def parse_settings(text: str):
    """Model/train/loss triple from text; missing keys keep defaults."""
    groups = _build(parse_pairs(text))
    if groups["run"]:
        extra = ", ".join(sorted(groups["run"]))
        raise ArgumentError(f"run-level keys not allowed here: {extra}")
    return (
        ModelConfig(**groups["model"]),
        TrainConfig(**groups["train"]),
        PemLossConfig(**groups["loss"]),
    )


def parse_run_text(text: str) -> RunConfig:
    groups = _build(parse_pairs(text))
    return RunConfig(
        model=ModelConfig(**groups["model"]),
        train=TrainConfig(**groups["train"]),
        loss=PemLossConfig(**groups["loss"]),
        **groups["run"],
    )


def load_run_config(path) -> RunConfig:
    """Parse a config file; relative paths resolve against its directory."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ArgumentError(f"{path}: config file is not UTF-8") from exc
    run = parse_run_text(text)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if p is None or os.path.isabs(p):
            return p
        return os.path.normpath(os.path.join(base, p))

    return dataclasses.replace(run, manifest=resolve(run.manifest), out_dir=resolve(run.out_dir))


def serialize_run_config(run: RunConfig) -> str:
    """Canonical text for a full run, written beside outputs."""
    text = serialize_settings(run.model, run.train, run.loss)
    lines = [text.rstrip("\n"), "# run"]
    for name in _RUN_TYPES:
        value = getattr(run, name)
        if value is None:
            continue
        lines.append(f"{name} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
