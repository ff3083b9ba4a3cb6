"""The summary that ``tools/inproc.py`` prints over alternating in-process
job times, on fixed timings (no worktree, no CLI run)."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))     # inproc.py imports pairs.py beside it
_spec = importlib.util.spec_from_file_location("inproc", _TOOLS / "inproc.py")
inproc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inproc)

# six rounds of three inputs; the change takes 0.8 of the parent's time
PARENT = [[0.060, 0.050, 0.040], [0.066, 0.048, 0.044], [0.062, 0.052, 0.038],
          [0.058, 0.050, 0.042], [0.064, 0.046, 0.040], [0.060, 0.054, 0.036]]
CHANGE = [[t * 0.8 for t in r] for r in PARENT]


def test_each_side_has_its_median_and_minimum_over_all_jobs():
    summary = inproc.summarize({"parent": PARENT, "change": CHANGE})
    assert summary["parent"] == {"median": pytest.approx(0.050), "min": 0.036}
    assert summary["change"]["median"] == pytest.approx(0.040)
    assert summary["change"]["min"] == pytest.approx(0.0288)


def test_each_round_is_one_value():
    summary = inproc.summarize({"parent": PARENT, "change": CHANGE})
    assert summary["rounds"] == 6 and summary["faster"] == 6
    hl = summary["log_ratio"]
    # six equal round values: the estimate and both ends of the interval
    for key in ("hl", "lo", "hi"):
        assert hl[key] == pytest.approx(math.log(0.8))
    assert hl["resolved"]


def test_a_round_is_the_median_of_its_inputs():
    # one input of three slower in every round: each round reads 0.9
    change = [[p * f for p, f in zip(r, (0.5, 0.9, 1.2))] for r in PARENT]
    summary = inproc.summarize({"parent": PARENT, "change": change})
    assert summary["rounds"] == 6 and summary["faster"] == 6
    assert summary["log_ratio"]["hl"] == pytest.approx(math.log(0.9))


def test_a_tie_is_not_faster_and_too_few_rounds_do_not_resolve():
    # 15 pairs, all but three faster, yet only five rounds
    change = [list(PARENT[0])] + CHANGE[1:5]
    summary = inproc.summarize({"parent": PARENT[:5], "change": change})
    assert summary["rounds"] == 5 and summary["faster"] == 4
    assert summary["log_ratio"]["lo"] is None
    assert not summary["log_ratio"]["resolved"]


def test_report_prints_both_sides_and_the_interval(capsys):
    inproc.report(inproc.summarize({"parent": PARENT, "change": CHANGE}))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "parent: median 50.00 ms, min 36.00 ms"
    assert lines[1] == "change: median 40.00 ms, min 28.80 ms"
    assert lines[2] == ("change/parent over 6 rounds (median of each round's inputs): "
                        "HL -20.0% [-20.0%, -20.0%], resolved yes; "
                        "change faster in 6/6 rounds")
