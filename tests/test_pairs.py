"""The summary that ``tools/pairs.py`` prints and writes over alternating
benchmark runs, on synthetic run results (no benchmark run), and its
cleanup of the parent worktree on a SIGTERM."""

import importlib.util
import itertools
import json
import os
import random
import signal
import statistics
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


def _signed_rank(diffs) -> int:
    """The Wilcoxon signed-rank statistic: the summed ranks of |d| of the
    positive d (no ties)."""
    order = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    return sum(rank + 1 for rank, i in enumerate(order) if diffs[i] > 0)


class TestHodgesLehmann:
    @pytest.mark.parametrize("n", [6, 7, 8, 10, 12])
    def test_interval_against_a_brute_force_count(self, n):
        rng = random.Random(n)
        diffs = [rng.gauss(0.05, 0.1) for _ in range(n)]
        got = pairs.hodges_lehmann(diffs)
        # the null distribution of T over all 2**n sign patterns, by count
        null = [sum(r + 1 for r in range(n) if signs >> r & 1) for signs in range(2 ** n)]
        k = max(c for c in range(n * (n + 1) // 2)
                if sum(t <= c - 1 for t in null) / 2 ** n <= 0.025)
        walsh = sorted((a + b) / 2 for a, b in itertools.combinations_with_replacement(diffs, 2))
        assert (got["lo"], got["hi"]) == (walsh[k - 1], walsh[-k])
        assert got["hl"] == statistics.median(walsh)
        assert got["resolved"] == (walsh[k - 1] > 0 or walsh[-k] < 0)
        # the interval is the set of shifts the two-sided test keeps: just
        # inside each end T lies within [k, N - k], just outside it does not
        big = len(walsh)
        for end, inward in ((got["lo"], 1.0), (got["hi"], -1.0)):
            for step, kept in ((inward, True), (-inward, False)):
                theta = end + step * 1e-9
                t = _signed_rank([d - theta for d in diffs])
                assert (k <= t <= big - k) == kept, (end, step)

    def test_known_table_value_for_10_pairs(self):
        # n = 10: P(T <= 8) = 25/1024 <= 2.5% < P(T <= 9), so k = 9 of 55
        counts = pairs.signed_rank_counts(10)
        assert sum(counts) == 1024 and sum(counts[:9]) == 25 and sum(counts[:10]) == 33
        got = pairs.hodges_lehmann([float(i) for i in range(1, 11)])
        walsh = sorted((i + j) / 2 for i in range(1, 11) for j in range(i, 11))
        assert (got["lo"], got["hi"], got["resolved"]) == (walsh[8], walsh[46], True)

    def test_five_pairs_never_resolve(self):
        got = pairs.hodges_lehmann([0.1, 0.2, 0.3, 0.4, 0.5])
        assert (got["lo"], got["hi"], got["resolved"]) == (None, None, False)
        assert got["hl"] == 0.3

    def test_summary_keeps_each_pair_and_resolves_a_clear_gain(self, capsys):
        parent = [run(rows_per_s=100.0 + i, job_s=1.0) for i in range(10)]
        change = [run(rows_per_s=140.0 + i, job_s=1.0 + (-1) ** i * 0.01)
                  for i in range(10)]
        summary = pairs.summarize(METRICS, {"parent": parent, "change": change})
        rows = summary["rows_per_s"]
        assert rows["values"][3] == [103.0, 143.0]
        assert rows["log_ratio"]["resolved"] and rows["log_ratio"]["lo"] > 0
        assert not summary["job_s"]["log_ratio"]["resolved"]
        printed = report(capsys, parent, change)
        assert printed["rows_per_s"][-4] == "yes" and printed["job_s"][-4] == "no"


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
