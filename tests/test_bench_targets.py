"""The benchmark's traced pass wraps tempqt functions by name; each must exist.

``bench/tracer.py`` refuses to run when a name in its ``TARGETS`` is
missing, so a rename or deletion in ``src/`` would break the benchmark
without failing a test here. These tests read the tracer and fail first:
one checks the list, one that a tape node's backward closure still
names the op the tracer files its time under.
"""

import importlib
import importlib.util
import os

import numpy as np

from tempqt import tensor as T

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_target_exists():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{module}.{function}"
        for module, function, _span in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []


def test_tracer_files_gelu_backward_under_gelu():
    # the tracer names a tape node's op from its backward closure's
    # qualname; 64 and 65,536 float32 elements lie on either side of
    # gelu's kernel switch (tensor.GELU_RATIONAL_MIN_SIZE)
    tracer = load_tracer()
    for size in (64, 65536):
        a = T.Tensor(np.linspace(-3.0, 3.0, size), requires_grad=True)
        with T.Tape() as tape:
            T.gelu(a)
        (node,) = tape.nodes
        assert tracer.closure_op_class(node.backward.__qualname__) == "gelu"
