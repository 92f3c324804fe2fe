"""Flat key = value configuration files.

One namespace covers the model, training, loss, and run settings; the
field names of the underlying dataclasses are the keys, so they must
never collide. One table, ``_KEYS``, gives each key its group and type;
parsing and serialization both read it. Every ``#`` starts a comment
(``alpha = 0.5#x`` reads 0.5), booleans are ``true``/``false``, integer
tuples are comma separated, and no key names a path.
Serialization is canonical: fixed group order, one key per line, so
equal configurations produce identical text.
"""

from __future__ import annotations

import dataclasses
import math
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
    patch_count: int = 4
    augment: bool = True

    def __post_init__(self):
        if self.patch_count < 1:
            raise ArgumentError("patch_count must be positive")
        # a shared quality branch runs all `layers` blocks of the error-map branch
        if self.train.share_backbone and self.model.pem_depth < self.model.layers:
            raise ArgumentError(
                f"share_backbone needs selected_layers to reach layers ({self.model.layers}), "
                f"got {','.join(map(str, self.model.selected_layers))}"
            )


# settings dataclass by group; a group is the heading its keys are written under
_SETTINGS = {"model": ModelConfig, "training": TrainConfig, "loss": PemLossConfig}
# key -> (group, type), in the text's order
_KEYS = {f.name: (group, type(f.default)) for group, cls in _SETTINGS.items() for f in dataclasses.fields(cls)}
_KEYS.update(patch_count=("run", int), augment=("run", bool))


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


def _text(sections) -> str:
    """Per (group, object): a ``# group`` line, then each of the group's
    keys as ``key = value``."""
    lines = []
    for group, obj in sections:
        lines.append(f"# {group}")
        for key, (key_group, _) in _KEYS.items():
            if key_group == group:
                lines.append(f"{key} = {_format_value(getattr(obj, key))}")
    return "\n".join(lines) + "\n"


def serialize_settings(model: ModelConfig, train: TrainConfig, loss: PemLossConfig) -> str:
    """Canonical text for the model/train/loss triple (checkpoint payload)."""
    return _text(zip(_SETTINGS, (model, train, loss)))


def parse_pairs(text: str) -> dict:
    """Raw key -> value-string mapping, with duplicate keys rejected."""
    pairs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
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


def _build(text: str) -> tuple:
    """The model/train/loss triple and the typed run-level values, from text."""
    groups = {group: {} for group in (*_SETTINGS, "run")}
    for key, value in parse_pairs(text).items():
        if key not in _KEYS:
            raise ArgumentError(f"unknown configuration key {key!r}")
        group, kind = _KEYS[key]
        groups[group][key] = _parse_value(key, value, kind)
    return tuple(cls(**groups[group]) for group, cls in _SETTINGS.items()), groups["run"]


def parse_settings(text: str):
    """Model/train/loss triple from text; missing keys keep defaults."""
    settings, run = _build(text)
    if run:
        raise ArgumentError(f"run-level keys not allowed here: {', '.join(sorted(run))}")
    return settings


def parse_run_text(text: str) -> RunConfig:
    settings, run = _build(text)
    return RunConfig(*settings, **run)


def load_run_config(path) -> RunConfig:
    """Parse a UTF-8 config file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ArgumentError(f"{path}: config file is not UTF-8") from exc
    return parse_run_text(text)


def serialize_run_config(run: RunConfig) -> str:
    """Canonical text for a full run, written beside outputs."""
    return serialize_settings(run.model, run.train, run.loss) + _text((("run", run),))
