"""In-memory spans and the wrappers that record them around tempqt's layers.

A span is (name, start, end, parent). Spans are appended to flat arrays
while the traced pass runs and are analysed or written only after it
ends, so recording costs two clock reads and a few appends per call.

Instrumentation works entirely from outside the package: every public
function named in ``TARGETS`` is replaced, in every loaded ``tempqt``
module that bound it, by a wrapper that opens a span around the call.
Tape nodes are timed by wrapping each node's backward closure just
before ``backward`` replays the tape; the closure's ``__qualname__``
names the op that built it. Nothing in ``src/`` is edited.

There is no queue or worker pool anywhere in the program, so no span
ever waits; the benchmark reports busy time only.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# op classes the per-layer metrics report; anything unlisted is "other"
OP_CLASSES = (
    "matmul",
    "add_row_bias",
    "add",
    "mul",
    "layer_norm",
    "softmax_rows",
    "gelu",
    "conv2d_3x3",
    "bilinear_resize",
    "slice",
    "concat",
    "transpose",
    "reshape",
    "other",
)
# tempqt.tensor functions whose op class is not their own name
_SLICES = {"slice_rows": "slice", "slice_cols": "slice", "_slice_axis": "slice"}
# every tempqt.tensor function that emits a tape node; the composites
# ``linear`` and ``scale`` are not wrapped, their inner ops are
TENSOR_OPS = (
    "matmul",
    "add_row_bias",
    "add",
    "sub",
    "mul",
    "abs_",
    "square",
    "mean",
    "sum_",
    "gelu",
    "prelu",
    "sigmoid",
    "layer_norm",
    "softmax_rows",
    "conv2d_3x3",
    "bilinear_resize",
    "global_average_pool",
    "slice_rows",
    "slice_cols",
    "concat",
    "transpose",
    "reshape",
)


def op_class(function_name: str) -> str:
    """Op class of a tensor function or backward closure's outer function."""
    name = _SLICES.get(function_name, function_name)
    return name if name in OP_CLASSES else "other"


def closure_op_class(qualname: str) -> str:
    """Op class of a backward closure, from e.g. ``conv2d_3x3.<locals>.bwd``."""
    return op_class(qualname.split(".", 1)[0])


# (module, function, span name) for every public function the traced
# pass wraps; a name missing from the program is an error, not a 0 ms layer
TARGETS = (
    tuple(("tempqt.tensor", fn, "tensor.fwd." + op_class(fn)) for fn in TENSOR_OPS)
    + (
        ("tempqt.tensor", "backward", "tensor.backward"),
        ("tempqt.encoder", "encode", "encoder"),  # one span name per branch
        ("tempqt.decoder", "decode", "decoder.decode"),
        ("tempqt.quality", "fuse_and_predict", "quality.fuse"),
        ("tempqt.quality", "quality_loss", "quality.loss"),
        ("tempqt.supervision", "compute_oem", "supervision.oem"),
        ("tempqt.supervision", "pem_loss", "supervision.pem_loss"),
        ("tempqt.training", "pretrain_pem", "training.pretrain_pem"),
        ("tempqt.training", "train_quality", "training.train_quality"),
        ("tempqt.training", "adam_step", "training.adam_step"),
        ("tempqt.training", "forward_pem", "training.forward_pem"),
        ("tempqt.training", "save_checkpoint", "training.save_checkpoint"),
        ("tempqt.training", "load_checkpoint", "training.load_checkpoint"),
        ("tempqt.data", "generate_synthetic_dataset", "data.generate"),
        ("tempqt.data", "sample_patches", "data.sample_patches"),
        ("tempqt.data", "eval_crops", "data.eval_crops"),
        ("tempqt.imaging", "load_image", "imaging.load_image"),
        ("tempqt.imaging", "save_image", "imaging.save_image"),
        ("tempqt.imaging", "apply_distortion", "imaging.apply_distortion"),
    )
)


class MissingTargets(RuntimeError):
    """Some functions the traced pass must wrap do not exist."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__("cannot trace, these functions are missing: " + ", ".join(self.names))


class Spans:
    """Flat, append-only span store with an explicit open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # (span index, value) side records: checkpoint bytes, crop counts,
        # frozen-branch input digests, tape node classes
        self.notes: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def note(self, key: str, idx: int, value) -> None:
        self.notes.setdefault(key, []).append((idx, value))

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        """Spans as numpy arrays: name ids, parent index, start, end."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (names as a string table) to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def _digest(pixels: np.ndarray) -> bytes:
    return hashlib.blake2b(pixels.tobytes(), digest_size=16).digest()


class Instrumentation:
    """Installs span-recording wrappers over tempqt's public functions."""

    def __init__(self, spans: Spans, targets=TARGETS):
        self.spans = spans
        self.targets = tuple(targets)
        self._undo: list = []

    def _wrapper(self, fn_name: str, span_name: str, fn):
        spans = self.spans
        if fn_name == "backward":
            return self._backward_wrapper(fn)
        if fn_name == "encode":
            per_branch = {b: spans.wrap(fn, f"{span_name}.{b}") for b in ("pem", "pqt")}

            def encode(img, store, cfg, branch="pem", *args, **kwargs):
                return per_branch.get(branch, fn)(img, store, cfg, branch, *args, **kwargs)

            return encode
        traced = spans.wrap(fn, span_name)
        if fn_name == "forward_pem":

            def forward_pem(img, *args, **kwargs):
                spans.note("forward_pem_input", len(spans.start), _digest(img.pixels))
                return traced(img, *args, **kwargs)

            return forward_pem
        if fn_name == "save_checkpoint":

            def save_checkpoint(ckpt, path):
                idx = len(spans.start)
                traced(ckpt, path)
                spans.note("ckpt_bytes", idx, os.path.getsize(path))

            return save_checkpoint
        if fn_name == "eval_crops":

            def eval_crops(img, crop):
                idx = len(spans.start)
                crops = traced(img, crop)
                spans.note("crops", idx, len(crops))
                return crops

            return eval_crops
        return traced

    def _backward_wrapper(self, fn):
        spans = self.spans

        def backward(loss, tape):
            # wrap every node before the span opens, so wrapping is not timed
            classes = []
            for node in tape.nodes:
                op = closure_op_class(node.backward.__qualname__)
                classes.append(op)
                node.backward = spans.wrap(node.backward, "tensor.bwd." + op)
            spans.note("tape_nodes", len(spans.start), classes)
            with spans.span("tensor.backward"):
                return fn(loss, tape)

        return backward

    def install(self) -> None:
        missing = []
        originals = {}
        for module_name, fn_name, span_name in self.targets:
            module = sys.modules.get(module_name)
            fn = getattr(module, fn_name, None) if module is not None else None
            if not callable(fn):
                missing.append(f"{module_name}.{fn_name}")
                continue
            originals[id(fn)] = (fn, self._wrapper(fn_name, span_name, fn))
        if missing:
            raise MissingTargets(missing)
        for module in [m for n, m in sys.modules.items() if n == "tempqt" or n.startswith("tempqt.")]:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

