#!/usr/bin/env python3
"""tempqt benchmark: one workload per process, end-to-end and per-layer.

    python3 bench/run.py --workload {train_default,fit_tiny,score,all} \\
        --seed N --seconds 20 --trace {0,1}

Run from the repository root. The untraced pass prints the end-to-end
metrics; its times are calibrated to a reference host speed by
clock.HostClock. With ``--trace 1`` a traced pass over the same seed
follows: the first round (its set-ups included), preceded by the same
work untraced as the reference for ``trace.overhead_share``. It prints
the per-layer metrics and must reproduce the untraced pass's
checkpoints and predictions byte for byte. The last line of standard
output is one JSON object: correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1). ``--workload
all`` runs the three workloads one after another, each in its own
process.

BLAS and tempqt threads are pinned to 1 before numpy loads. Work files
live under .bench_work/ and are removed at exit; the traced pass's
spans are kept in .bench_out/<workload>.spans.npz.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "TEMPQT_THREADS": "1"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tempqt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    """HEAD commit, read from .git without running git; None outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, ValueError):  # numpy without dict-mode show_config
        blas = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pinned": {k: os.environ.get(k) for k in PINNED},
    }


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, rows: dict) -> None:
    print(f"# {title}")
    for name, (value, unit, note) in rows.items():
        print(f"{name:36s} {_fmt(value):>14s} {unit:10s} {note}")


def run_all(args, names) -> int:
    """Run every workload in its own process, in turn; worst exit code wins."""
    codes = []
    for name in names:
        sys.stdout.flush()
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # before numpy loads: BLAS reads these once, at import
    os.environ.update(PINNED)

    if not os.path.isfile(os.path.join(SRC, "tempqt", "__init__.py")):
        print(f"error: no tempqt sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import clock
    import layers
    import tracer
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)

    try:
        rec = workloads.recipe(args.workload, args.seconds)
    except ValueError as exc:
        parser.error(str(exc))

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    checks = workloads.Checks()
    try:
        print(f"# tempqt benchmark workload={rec.name} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("# environment " + json.dumps(environment(), sort_keys=True))
        with clock.HostClock() as host:
            plain = workloads.run_pass(rec, args.seed, os.path.join(work, "untraced"), checks)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = workloads.end_to_end(rec, plain, rss_mb, host)
        print("# host probe p10/p50/p90 us " + " ".join(f"{v:.1f}" for v in host.probe_us())
              + f" over {len(host.lengths)} samples; reference {clock.REFERENCE_PROBE_S * 1e6:.0f}")
        print(f"# inputs_sha256 {plain.inputs}")
        report = dict(e2e)
        if plain.quality is not None:
            where = f"{rec.quality_split} split"
            report["srocc"] = (plain.quality[0], "-", where)
            report["plcc"] = (plain.quality[1], "-", where)
        report["fail_share"] = (
            checks.failed / checks.attempted,
            "failed/attempted",
            f"{checks.failed}/{checks.attempted} CLI stages, scoring calls and output checks",
        )
        print_table("end-to-end (untraced)", report)
        metrics = e2e

        if args.trace:
            # the same work untraced right before, so both see the machine in the same state
            reference = workloads.run_pass(rec, args.seed, os.path.join(work, "reference"), checks, rounds=1)
            spans = tracer.Spans()
            with tracer.Instrumentation(spans):
                traced = workloads.run_pass(
                    rec, args.seed, os.path.join(work, "traced"), checks, spans=spans, rounds=1
                )
            for name, digest in plain.outputs.items():
                checks.check(traced.outputs[name] == digest, f"traced run wrote a different {name}")
            overhead = traced.wall_s / reference.wall_s - 1.0
            metrics = layers.per_layer(spans, rec.train_in_setup, overhead)
            print_table("per-layer (traced; nothing waits on a queue or pool, so waited time is 0)", metrics)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans.save(os.path.join(out_dir, f"{rec.name}.spans.npz"))
    except (workloads.StageFailed, tracer.MissingTargets, layers.NoWork) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    for problem in checks.problems:
        print(f"# check failed: {problem}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
