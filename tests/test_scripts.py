"""The helper scripts under scripts/: argument checks and the pair verdicts."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")


# ---------------------------------------------------------------------------
# make_textures.py


def _make_textures(*args):
    env = dict(os.environ)
    src = str(SCRIPTS.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "make_textures.py"), *args],
        env=env, capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize("flag,value", [("--count", "-3"), ("--count", "0"), ("--size", "0"), ("--size", "-8")])
def test_make_textures_rejects_a_non_positive_count_or_size(tmp_path, flag, value):
    out = tmp_path / "bases"
    proc = _make_textures("--out", str(out), flag, value)
    assert proc.returncode == 2
    assert f"{flag} must be positive, got {value}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_make_textures_writes_count_images(tmp_path):
    out = tmp_path / "bases"
    proc = _make_textures("--out", str(out), "--count", "2", "--size", "8")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["texture_000.pgm", "texture_001.pgm"]


# ---------------------------------------------------------------------------
# bench_pairs.py verdicts


PARENT = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75


def test_nine_of_ten_wins_beyond_the_parent_spread_is_a_gain():
    change = [p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    row = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert row.wins == 9
    assert row.verdict == "gain"
    assert row.parent == pytest.approx((102.25, 104.5, 106.75))
    assert row.delta == pytest.approx((row.change[1] - 104.5) / 104.5)


def test_eight_of_ten_wins_is_no_gain():
    change = [p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]]
    row = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert (row.wins, row.verdict) == (8, "-")


def test_a_median_gap_inside_the_parent_spread_is_no_gain():
    row = bench_pairs.compare(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)
    assert (row.wins, row.verdict) == (10, "-")


def test_ties_count_for_neither_side():
    # eight wins and two ties: the ties do not reach the nine tenths a gain needs
    change = [p + 10.0 for p in PARENT[:8]] + PARENT[8:]
    row = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert (row.wins, row.verdict) == (8, "-")
    same = bench_pairs.compare(PARENT, list(PARENT), "higher", 0.25)
    assert (same.wins, same.delta, same.verdict) == (0, 0.0, "-")
    # nor are ties losses: a change that only ties the parent is never worse
    assert bench_pairs.compare(PARENT, list(PARENT), "lower", 0.05).verdict == "-"


def test_a_median_worse_than_the_bound_is_worse():
    row = bench_pairs.compare(PARENT, [0.7 * p for p in PARENT], "higher", 0.25)
    assert row.delta == pytest.approx(-0.3)
    assert row.verdict == "worse"
    assert bench_pairs.compare(PARENT, [0.8 * p for p in PARENT], "higher", 0.25).verdict == "-"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0 + i for i in range(10)]  # quartiles 3.25 and 7.75 about a median of 5.5
    row = bench_pairs.compare(parent, [p + 0.1 for p in parent], "higher", 0.25)
    assert row.verdict == "unresolved"


def test_a_wide_parent_spread_resolves_when_every_change_run_wins():
    # the change beats every parent run, but by less than the parent's spread: no gain either
    parent = [1.0] * 5 + [10.0] * 5
    row = bench_pairs.compare(parent, [10.5] * 10, "higher", 0.25)
    assert row.parent[2] - row.parent[0] > 0.25 * row.parent[1]
    assert (row.wins, row.verdict) == (10, "-")


def test_a_lower_is_better_metric_flips_every_rule():
    gain = bench_pairs.compare(PARENT, [p - 10.0 for p in PARENT], "lower", 0.25)
    assert (gain.wins, gain.verdict) == (10, "gain")
    worse = bench_pairs.compare(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)
    assert (worse.wins, worse.verdict) == (0, "worse")
    # a higher median is not a gain when lower is better, however often it wins as "higher"
    assert bench_pairs.compare(PARENT, [p + 10.0 for p in PARENT], "lower", 0.25).verdict == "-"
    unresolved = bench_pairs.compare([1.0 + i for i in range(10)], [i + 0.9 for i in range(10)], "lower", 0.25)
    assert unresolved.verdict == "unresolved"

