"""Smoke test of the benchmark: tiny inputs, every workload, both modes.

Run from the repository root (about a minute):

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from checks import Expectations, format_grid  # noqa: E402
from jobs import check_stream  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_every_declared_workload_is_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = run_bench("--workload", "mcar_mixed", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_same_seed_same_input_and_other_seed_other_input():
    w = WORKLOADS["mcar_mixed"]
    a, b, c = w.make(5, 0, True), w.make(5, 0, True), w.make(6, 0, True)
    np.testing.assert_array_equal(a.masked, b.masked)
    assert not np.array_equal(np.isnan(a.masked), np.isnan(c.masked))


@pytest.fixture
def table():
    """Expectations of a tiny input, and a valid filled table: the truth
    clipped to each column's observed range and snapped to its levels."""
    data = WORKLOADS["mcar_mixed"].make(1, 0, True)
    exp = Expectations(data)
    values = np.clip(data.truth, exp.lo, exp.hi)
    for j, levels in exp.levels.items():
        values[:, j] = levels[np.abs(values[:, j, None] - levels).argmin(axis=1)]
    return exp, np.where(exp.missing, format_grid(values), exp.cells)


def test_checks_accept_the_truth(table):
    exp, filled = table
    assert exp.check_filled(filled, "imputed") == []


@pytest.mark.parametrize("breakage", ["empty", "observed", "range", "level"])
def test_checks_catch_each_broken_output(table, breakage):
    exp, filled = table
    i, j = np.argwhere(exp.missing)[0]
    if breakage == "empty":
        filled[i, j] = ""
    elif breakage == "observed":
        i, j = np.argwhere(~exp.missing)[0]
        filled[i, j] = "12345"
    elif breakage == "range":
        filled[i, j] = format(exp.hi[j] + 1.0, ".6g")
    else:
        j = exp.data.kinds.index("ordinal")
        i = np.flatnonzero(exp.missing[:, j])[0]
        filled[i, j] = "2.5"
    assert exp.check_filled(filled, "imputed")


def test_interval_checks(table):
    exp, filled = table
    truth = exp.data.truth
    lower = np.where(exp.missing, format_grid(truth - 1.0), "")
    upper = np.where(exp.missing, format_grid(truth + 1.0), "")
    problems, cov = exp.check_intervals(lower, upper)
    assert problems == [] and cov == 1.0
    assert exp.check_intervals(upper, lower)[0]          # lower > upper
    lower[~exp.missing] = "0"                             # bound at observed cell
    assert exp.check_intervals(lower, upper)[0]


def test_stream_checks_count_failed_rows(table):
    exp, filled = table
    n_train = 25
    markers = ["1"] * n_train + ["0"] * (len(filled) - n_train)
    echo = np.where(np.arange(len(filled))[:, None] < n_train, exp.cells, filled)
    lines = [",".join(exp.data.names + ["warmup"])] + [
        ",".join(list(row) + [m]) for row, m in zip(echo, markers)]
    assert check_stream(exp, lines, n_train)["failed"] == 0
    broken = lines.copy()
    broken[-1] = broken[-1][:-1] + "1"                    # wrong warmup marker
    assert check_stream(exp, broken, n_train)["failed"] == 1
    assert check_stream(exp, lines[:-1] + [None], n_train)["failed"] == len(filled)
