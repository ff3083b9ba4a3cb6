"""The summary that ``tools/pairs.py`` prints and writes over alternating
benchmark runs, on synthetic run results (no benchmark run), and its
cleanup of the parent worktree on a SIGTERM."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "tools" / "pairs.py"
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



class TestSummary:
    def test_each_side_counts_its_own_wins(self):
        parent = [run(rows_per_s=v, job_s=v) for v in (100.0, 110.0, 120.0)]
        change = [run(rows_per_s=v, job_s=v) for v in (130.0, 110.0, 100.0)]
        summary = pairs.summarize(METRICS, {"parent": parent, "change": change})
        rows = summary["rows_per_s"]
        assert (rows["parent"]["won"], rows["change"]["won"], rows["pairs"]) == (1, 1, 3)
        assert (rows["parent"]["q1"], rows["parent"]["median"], rows["parent"]["q3"]) == (
            105.0, 110.0, 115.0)
        assert rows["change"]["median"] == 110.0
        assert summary["job_s"]["better"] == "lower"

    def test_json_keeps_the_other_workloads(self, tmp_path):
        path = tmp_path / "bench.json"
        pairs.write_json(str(path), "stream_replay", {"pairs": 10})
        pairs.write_json(str(path), "mcar_mixed", {"pairs": 5})
        pairs.write_json(str(path), "stream_replay", {"pairs": 12})
        assert json.loads(path.read_text()) == {"mcar_mixed": {"pairs": 5},
                                                "stream_replay": {"pairs": 12}}


def _registered_worktrees() -> set:
    """The worktree paths the repository's git directory lists, read from
    its ``worktrees`` entries as ``git worktree list`` reads them."""
    admin = _ROOT / ".git" / "worktrees"
    if not admin.is_dir():
        return set()
    return {Path((entry / "gitdir").read_text().strip()).parent
            for entry in admin.iterdir() if (entry / "gitdir").exists()}


@pytest.mark.skipif(not (_ROOT / ".git").is_dir(), reason="needs a git checkout")
def test_sigterm_removes_the_worktree_and_kills_the_run(tmp_path):
    # one subprocess: it enters worktree(HEAD) and waits on a child run, as
    # pairs.py waits on bench/run.py; the child writes its pid, then sleeps
    pid_file = tmp_path / "child.pid"
    child = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); " \
            "time.sleep(300)"
    script = (f"import sys; sys.path.insert(0, {str(_PATH.parent)!r}); import pairs\n"
              f"with pairs.worktree('HEAD') as tree:\n"
              f"    print(tree, flush=True)\n"
              f"    pairs.run_child([sys.executable, '-c', {child!r}])\n")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            text=True)
    pid = None
    try:
        tree = Path(proc.stdout.readline().strip())
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.05)
        pid = int(pid_file.read_text())
        assert tree in _registered_worktrees()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        assert tree not in _registered_worktrees()
        assert not tree.exists()
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        pid = None
    finally:    # whatever failed above, leave nothing running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
