"""The summary that ``tools/pairs.py`` prints over alternating benchmark
runs, on synthetic run results (no git worktree, no benchmark run)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [{"name": "rows_per_s", "better": "higher"},
           {"name": "job_s", "better": "lower"}]


def run(**values):
    """One ``bench/run.py`` result line holding the given metric values."""
    return {"metrics": {k: {"value": v} for k, v in values.items()},
            "failed": 0, "attempted": 10}


def report(capsys, parent, change) -> dict:
    """The printed row of each metric, split on whitespace, by name."""
    pairs.report(METRICS, {"parent": parent, "change": change})
    rows = map(str.split, capsys.readouterr().out.splitlines())
    return {row[0]: row for row in rows if row[0] in ("rows_per_s", "job_s")}


class TestQuartiles:
    def test_one_value_is_every_quartile(self):
        assert pairs.quartiles([3.5]) == (3.5, 3.5, 3.5)

    def test_several_values_inclusive(self):
        assert pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (2.0, 3.0, 4.0)
        assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


class TestReport:
    def test_wins_follow_the_better_direction_and_ties_count_for_neither(self,
                                                                        capsys):
        # pair 1: the change is higher; pair 2: a tie; pair 3: the change is lower
        parent = [run(rows_per_s=v, job_s=v) for v in (100.0, 110.0, 120.0)]
        change = [run(rows_per_s=v, job_s=v) for v in (130.0, 110.0, 100.0)]
        rows = report(capsys, parent, change)
        assert rows["rows_per_s"][-1] == "1/3"     # higher is better: pair 1
        assert rows["job_s"][-1] == "1/3"          # lower is better: pair 3
        # medians 110 -> 110 over a parent IQR of 10
        assert rows["rows_per_s"][-3:-1] == ["+0.0%", "+0.00"]

    def test_a_metric_missing_from_one_run_leaves_its_pair_out(self, capsys):
        parent = [run(rows_per_s=100.0, job_s=1.0), run(job_s=1.0),
                  run(rows_per_s=100.0, job_s=1.0)]
        change = [run(rows_per_s=120.0, job_s=0.5)] * 3
        rows = report(capsys, parent, change)
        assert rows["rows_per_s"][-1] == "2/2"
        assert rows["job_s"][-1] == "3/3"

    def test_zero_parent_spread_gives_nan_over_iqr(self, capsys):
        parent = [run(rows_per_s=5.0, job_s=v) for v in (1.0, 2.0, 3.0)]
        change = [run(rows_per_s=6.0, job_s=v) for v in (0.5, 1.0, 1.5)]
        rows = report(capsys, parent, change)
        assert rows["rows_per_s"][-2] == "+nan"
        assert rows["rows_per_s"][-3] == "+20.0%"
        # medians 2 -> 1 over a parent IQR of 1
        assert rows["job_s"][-3:] == ["-50.0%", "-1.00", "3/3"]

    def test_a_metric_no_pair_reported(self, capsys):
        pairs.report(METRICS, {"parent": [run(job_s=1.0)], "change": [run(job_s=1.0)]})
        out = capsys.readouterr().out
        assert "rows_per_s   no pair reported it" in out
        assert "parent failed operations per run: 0/10" in out

