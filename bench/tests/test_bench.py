"""Tests of the benchmark itself: metric coverage, tracing, and failure modes.

Run from the repository root: ``python -m pytest bench/tests -q``. The
smoke runs use ``--seconds 1``, which scales every workload down to a
few seconds.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import clock  # noqa: E402
import tracer  # noqa: E402
from layers import NoWork, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from tempqt import tensor as T  # noqa: E402
from tempqt import training  # noqa: E402
from tempqt.encoder import tiny_config  # noqa: E402
from tempqt.imaging import GrayImage  # noqa: E402
from tempqt.supervision import PemLossConfig, compute_oem, pem_loss  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return out


def table(stdout: str, title: str) -> dict:
    """name -> unit from one printed metric table."""
    rows, inside = {}, False
    for line in stdout.splitlines():
        if line.startswith("# "):
            inside = line.startswith(f"# {title}")
            continue
        if inside and line and not line.startswith("{"):
            name, _value, unit = line.split()[:3]
            rows[name] = unit
    return rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload):
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    per_layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer_units
    assert table(out.stdout, "per-layer") == per_layer_units

    printed = table(out.stdout, "end-to-end")
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
    assert printed["fail_share"] == "failed/attempted"
    if workload != "score":
        assert {"srocc", "plcc"} <= set(printed)


def test_host_clock_divides_the_probe_speed_out():
    h = clock.HostClock()
    ref = clock.REFERENCE_PROBE_S
    h.starts.extend([0.0, 1.0, 2.0, 3.0])
    h.lengths.extend([ref, ref, 2 * ref, 2 * ref])
    h.costs.extend([0.0, 0.1, 0.0, 0.0])
    # samples at 0 and 2 bracket [0.5, 1.5]; the one at 1 ran inside it
    assert h.seconds(0.5, 1.5) == pytest.approx(0.9 * (1 + 1 + 0.5) / 3)
    assert h.seconds(2.2, 2.4) == pytest.approx(0.2 * 0.5)


def test_host_clock_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with clock.HostClock() as h:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(h.lengths) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert h.seconds(t0, t1) > 0


def test_spec_lists_known_workloads_and_a_largest_setup_bound():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fit_tiny_full_schedule_learns_and_tracing_reproduces_it():
    out = run_bench("--workload", "fit_tiny", "--seed", "3", "--seconds", "20", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    # correct covers the srocc/plcc floor and byte-identical traced outputs
    assert result["correct"], out.stdout[-3000:]
    srocc = float(next(line.split()[1] for line in out.stdout.splitlines() if line.startswith("srocc ")))
    assert srocc > 0.9


def test_untraced_run_reports_end_to_end_metrics_and_seed_changes_inputs():
    runs = [
        run_bench("--workload", "fit_tiny", "--seed", str(seed), "--seconds", "1", "--trace", "0")
        for seed in (1, 2)
    ]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    results = [json.loads(r.stdout.splitlines()[-1]) for r in runs]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for res in results:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        assert all(v["value"] > 0 for v in res["metrics"].values())
    inputs = [
        next(line for line in r.stdout.splitlines() if line.startswith("# inputs_sha256"))
        for r in runs
    ]
    assert inputs[0] != inputs[1]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0")
    out = run_bench(*args, cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout


def _traced_stage1_step():
    cfg = tiny_config()
    store = training.build_pem_store(cfg, seed=0)
    rng = np.random.default_rng(0)
    dist = GrayImage(32, 32, rng.uniform(0.1, 0.9, (32, 32)))
    ref = GrayImage(32, 32, np.clip(dist.pixels + 0.05, 0.0, 1.0))
    spans = tracer.Spans()
    with tracer.Instrumentation(spans):
        with T.Tape() as tape:
            pem = training.forward_pem(dist, store, cfg)
            loss = pem_loss(pem, compute_oem(dist, ref), dist, ref, PemLossConfig())
        T.backward(loss, tape)
    return spans, tape


def test_backward_op_self_times_fit_inside_the_backward_span():
    spans, tape = _traced_stage1_step()
    a = spans.arrays()
    names = np.array(spans.names)[a["name"]]
    dur = a["end"] - a["start"]
    (bwd,) = np.flatnonzero(names == "tensor.backward")
    nodes = np.flatnonzero(np.char.startswith(names.astype(str), "tensor.bwd."))
    assert nodes.size == len(tape.nodes)
    assert np.all(a["parent"][nodes] == bwd)
    assert dur[nodes].sum() <= dur[bwd]
    (note,) = spans.notes["tape_nodes"]
    assert note[0] == bwd and len(note[1]) == len(tape.nodes)


def test_unclassified_closures_count_as_other():
    assert tracer.closure_op_class("conv2d_3x3.<locals>.bwd") == "conv2d_3x3"
    assert tracer.closure_op_class("_slice_axis.<locals>.bwd") == "slice"
    assert tracer.closure_op_class("sub.<locals>.<lambda>") == "other"
    assert tracer.closure_op_class("fused_attention.<locals>.bwd") == "other"


def test_missing_function_fails_loudly_and_patches_nothing():
    targets = tracer.TARGETS + (
        ("tempqt.tensor", "fused_attention", "tensor.fwd.other"),
        ("tempqt.training", "evaluate_all", "training.evaluate_all"),
    )
    before = T.matmul
    with pytest.raises(tracer.MissingTargets) as err:
        tracer.Instrumentation(tracer.Spans(), targets).install()
    assert err.value.names == ("tempqt.tensor.fused_attention", "tempqt.training.evaluate_all")
    assert "tempqt.tensor.fused_attention" in str(err.value)
    assert T.matmul is before


def test_layer_without_work_is_an_error_not_zero():
    spans, _tape = _traced_stage1_step()
    with pytest.raises(NoWork):
        per_layer(spans, False, 0.0)
