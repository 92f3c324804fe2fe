"""What the benchmark needs of tempqt by name; each must exist.

``bench/tracer.py`` refuses to run when a name in its ``TARGETS`` is
missing, so a rename or deletion in ``src/`` would break the benchmark
without failing a test here. These tests read the tracer and fail first:
one checks the list, two that the benchmark's entry modules load every
listed module, two that they load no scipy (the package is numpy-only,
and ``scipy.special`` alone would add about 26 MB to every run's peak
RSS), the others that a tape node's backward closure still names the op
the tracer files its time under. The last two read
``bench/workloads.py``: every run config it writes must parse, and the
config and checkpoint fields it reads must exist.
"""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt.config import parse_run_text
from tempqt.decoder import decode, decoder_params
from tempqt.encoder import ModelConfig
from tempqt.params import ParamStore, fill
from tempqt.rng import CounterRng
from tempqt.training import Checkpoint, TrainConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "bench", "tracer.py")
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this checkout's tempqt."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_every_benchmark_target_exists():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{module}.{function}"
        for module, function, _span in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


@pytest.mark.parametrize("entry", ["tempqt.cli", "tempqt.training"])
def test_benchmark_entry_module_loads_every_target_module(entry):
    # the tracer only wraps modules already in sys.modules, and the package
    # imports none of its modules itself; the benchmark's workloads import
    # tempqt.cli and its tests tempqt.training, so each is probed alone in
    # a fresh interpreter
    modules = sorted({module for module, _function, _span in load_tracer().TARGETS})
    probe = f"import sys, {entry}; print(' '.join(m for m in {modules!r} if m not in sys.modules))"
    assert run_fresh(probe).split() == []


@pytest.mark.parametrize("entry", ["tempqt.cli", "tempqt.training"])
def test_benchmark_entry_module_loads_no_scipy(entry):
    probe = f"import sys, {entry}; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(probe).split() == []


def test_tracer_files_gelu_backward_under_gelu():
    # the tracer names a tape node's op from its backward closure's
    # qualname; a small and a large float32 array, 64 and 65,536
    # elements, both take the one float32 kernel
    tracer = load_tracer()
    for size in (64, 65536):
        a = T.Tensor(np.linspace(-3.0, 3.0, size), requires_grad=True)
        with T.Tape() as tape:
            T.gelu(a)
        (node,) = tape.nodes
        assert tracer.closure_op_class(node.backward.__qualname__) == "gelu"


def test_tracer_files_every_decoder_conv_under_conv2d_3x3():
    # the four layer convs and the head, whose resizes fold into its conv
    tracer = load_tracer()
    cfg = ModelConfig()
    store = ParamStore()
    fill(store, decoder_params(cfg), CounterRng(0))
    rng = np.random.default_rng(0)
    tokens = [
        T.Tensor(rng.normal(size=(2, cfg.num_patches, cfg.embed_dim)), requires_grad=True)
        for _ in cfg.selected_layers
    ]
    with T.Tape() as tape:
        decode(tokens, store, cfg)
    weights = {id(t) for name, t in store.items() if name.endswith(".w")}
    convs = [node for node in tape.nodes if any(id(t) in weights for t in node.inputs)]
    assert len(convs) == 5
    assert [tracer.closure_op_class(node.backward.__qualname__) for node in convs] == ["conv2d_3x3"] * 5
    classes = [tracer.closure_op_class(node.backward.__qualname__) for node in tape.nodes]
    assert classes.count("conv2d_3x3") == 5


def test_every_benchmark_run_config_parses(monkeypatch):
    # the benchmark writes each recipe's config as a run.config (and, with
    # other epoch counts, a quality.config) for the CLI; fit_tiny's holds
    # TINY_MODEL and TINY_RECIPE
    workloads = load_workloads(monkeypatch)
    for name in workloads.WORKLOADS:
        config = workloads.recipe(name, 20).config
        run = parse_run_text(workloads._config_text(config))
        assert run.train.epochs_stage1 == config["epochs_stage1"]
    tiny = parse_run_text(workloads._config_text({**workloads.TINY_MODEL, **workloads.TINY_RECIPE}))
    assert tiny.model.embed_dim == workloads.TINY_MODEL["embed_dim"]
    assert (tiny.patch_count, tiny.augment) == (1, False)


def test_config_and_checkpoint_fields_the_benchmark_reads_exist():
    run = parse_run_text("")
    assert isinstance(run.patch_count, int)
    assert isinstance(run.train, TrainConfig)
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    assert {"epochs_stage1", "epochs_stage2", "ablation_mode", "share_backbone"} <= train_fields
    assert {"model_cfg", "train_cfg"} <= {f.name for f in dataclasses.fields(Checkpoint)}
