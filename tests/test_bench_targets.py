"""The benchmark's traced pass wraps tempqt functions by name; each must exist.

``bench/tracer.py`` refuses to run when a name in its ``TARGETS`` is
missing, so a rename or deletion in ``src/`` would break the benchmark
without failing a test here. This test reads the list and fails first.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def test_every_benchmark_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{function}"
        for module, function, _span in tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert missing == []
