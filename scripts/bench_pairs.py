#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed-base S

Pair i runs ``bench/run.py --workload W --seed S+i --trace 0`` in the
PARENT checkout and then in CHANGE, or the other way round on odd i, so
neither side always runs first. Runs go one at a time, never two at
once. The run length and each metric's direction and bound are read
from CHANGE's BENCHMARK.json, so both sides run for the same time.

Each run's last standard-output line is its JSON result, and its
``# inputs_sha256`` line is the digest of the data it set up. If any run
exits non-zero, prints no result or reads ``correct: false``, or if the
two runs of a pair set up different inputs (the sides did not do the
same work), the script stops and reports nothing. Otherwise it prints,
per end-to-end metric, each side's median and quartiles, the change of
the medians, and how many pairs the change won (ties count for
neither). ``gain`` marks a metric where the change won at least nine
tenths of the pairs and the medians differ, in the change's favour, by
more than the distance between the parent's quartiles. ``worse`` marks
a median that is worse than the parent's by more than the metric's
bound. ``unresolved`` marks a metric whose parent runs spread, quartile
to quartile, wider than its bound, unless every change run beats every
parent run: there the pairs cannot show that the metric held.

Keep PARENT and CHANGE in the same directory (say, two siblings). Some
metrics move with where the checkout lives, not with its code: fit_tiny's
``setup_s`` has read 21.6 % apart for identical set-up code. The script
warns on stderr when the two sit in different directories.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

WIN_SHARE = 0.9


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> tuple:
    """One untraced benchmark run in ``checkout``; its metrics and its inputs' digest."""
    cmd = [
        sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: run in {checkout} (seed {seed}) exited {proc.returncode}\n{proc.stderr.strip()}"
        )
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise SystemExit(f"error: run in {checkout} (seed {seed}) printed no JSON result") from None
    if not result.get("correct"):
        raise SystemExit(
            f"error: run in {checkout} (seed {seed}) reads correct: false "
            f"({result.get('failed')}/{result.get('attempted')} failed); nothing reported"
        )
    inputs = next((ln.split()[2] for ln in lines if ln.startswith("# inputs_sha256 ")), None)
    return result["metrics"], inputs


def quartiles(values: list) -> tuple:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(med), float(q3)


def spread(q1: float, med: float, q3: float) -> str:
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if os.path.dirname(parent) != os.path.dirname(change):
        print("warning: PARENT and CHANGE are in different directories; metrics that move "
              "with the checkout's location, such as setup_s, may differ for that alone",
              file=sys.stderr)
    with open(os.path.join(change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        inputs = {}
        for side in order:
            metrics, inputs[side] = run_once(parent if side == "parent" else change, args.workload, seed,
                                             spec["run_seconds"])
            runs[side].append(metrics)
        if inputs["parent"] != inputs["change"]:
            raise SystemExit(
                f"error: at seed {seed} the parent's inputs_sha256 is {inputs['parent']} and the "
                f"change's {inputs['change']}: the two did not do the same work; nothing reported"
            )
        print(f"# pair {i + 1}/{args.pairs} seed {seed}, {order[0]} first", file=sys.stderr, flush=True)

    print(f"# workload {args.workload}, {args.pairs} pairs, seeds {args.seed_base}.."
          f"{args.seed_base + args.pairs - 1}; median [q1, q3] per side")
    print(f"{'metric':24s} {'parent':>30s} {'change':>30s} {'delta':>8s} {'won':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in runs["parent"][0]:
            continue
        p = [r[name]["value"] for r in runs["parent"]]
        c = [r[name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        delta = (cm - pm) / pm if pm else float("nan")
        verdict = "-"
        if wins >= WIN_SHARE * args.pairs and sign * (cm - pm) > p3 - p1:
            verdict = "gain"
        elif -sign * delta > metric["bound"]:
            verdict = "worse"
        elif pm and (p3 - p1) / abs(pm) > metric["bound"] and not all(
            sign * (cv - pv) > 0 for cv in c for pv in p
        ):
            verdict = "unresolved"
        print(f"{name:24s} {spread(p1, pm, p3):>30s} {spread(c1, cm, c3):>30s} {delta:+8.1%} "
              f"{f'{wins}/{args.pairs}':>6s}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
