"""Alternating-pair benchmark of the working tree against a parent revision.

Usage, from anywhere inside the repository:

    python3 tools/pairs.py PARENT_REV --workload stream_replay --seed 1 --pairs 5
    python3 tools/pairs.py PARENT_REV --workload mcar_mixed --seed 1 --pairs 5 --json BENCH.json

The script checks out PARENT_REV as a temporary ``git worktree``. It then
runs ``bench/run.py --trace 0`` in that worktree and in the working tree,
``--seconds`` (default 40) each, and swaps which side goes first in every
pair, so that slow drifts of the machine fall on both sides alike. Both
sides run the same seed, so each pair sees the same inputs.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles; the Hodges-Lehmann estimate of the pairs'
change/parent log-ratio with its exact Wilcoxon signed-rank 95% interval,
as percent changes, and whether that interval excludes 0 (``resolved``);
the change of the medians, that change over the parent's interquartile
range, and the number of pairs the working tree won in the metric's
``better`` direction. It also prints the failed operations of every run.
``--json PATH`` also writes that summary, with the pairs each side won and
each pair's two values, under the workload's name in the JSON object at
PATH, keeping the other workloads' entries there. The worktree is removed
at the end, also after an error or a SIGTERM, and a run still going then
is killed with its children. Standard library only; nothing under
``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of each bench/run.py run")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the summary into this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def run_child(cmd: list, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` of ``cmd`` with its output captured, in a process
    group of its own: when this process is interrupted, by an error or a
    SIGTERM (see :func:`worktree`), the group is killed, children and all."""
    with subprocess.Popen(cmd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, start_new_session=True,
                          **kwargs) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def worktree(rev: str):
    """A temporary detached ``git worktree`` of ``rev``, removed on exit,
    also after an error or a SIGTERM, which is raised as SystemExit while
    the worktree exists."""
    previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        with tempfile.TemporaryDirectory(prefix="parent-") as tmp:
            tree = Path(tmp) / "parent"
            try:
                git("worktree", "add", "--detach", str(tree), rev)
                yield tree
            finally:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let cleanup finish
                subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                               cwd=ROOT, capture_output=True)
    finally:
        signal.signal(signal.SIGTERM, previous)


def bench_run(tree: Path, args) -> dict:
    """The JSON result line of one untraced ``bench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = run_child(cmd, cwd=tree)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def signed_rank_counts(n: int) -> list:
    """The number of subsets of the ranks 1..n with each rank sum 0..n(n+1)/2:
    the null distribution of the Wilcoxon signed-rank statistic, times 2**n."""
    counts = [1] + [0] * (n * (n + 1) // 2)
    for rank in range(1, n + 1):
        for total in range(len(counts) - 1, rank - 1, -1):
            counts[total] += counts[total - rank]
    return counts


def hodges_lehmann(diffs: list) -> dict:
    """The Hodges-Lehmann estimate of the center of ``diffs`` (the median
    of their n(n+1)/2 Walsh averages) and its exact Wilcoxon signed-rank
    95% interval [W_(k), W_(N+1-k)], k the largest with P(T <= k-1) <= 2.5%.
    With fewer than 6 values no k >= 1 qualifies: the interval is unbounded
    (None) and never resolved. ``resolved`` when the interval excludes 0."""
    n = len(diffs)
    walsh = sorted((diffs[i] + diffs[j]) / 2 for i in range(n) for j in range(i, n))
    counts, k, tail = signed_rank_counts(n), 0, 0
    while 40 * (tail + counts[k]) <= 2 ** n:     # P(T <= k) <= 2.5%, exactly
        tail += counts[k]
        k += 1
    lo, hi = (walsh[k - 1], walsh[len(walsh) - k]) if k else (None, None)
    return {"hl": statistics.median(walsh), "lo": lo, "hi": hi,
            "resolved": k > 0 and (lo > 0 or hi < 0)}


def summarize(metrics: list, runs: dict) -> dict:
    """Per end-to-end metric: both sides' median and quartiles over the
    pairs that reported it, the pairs each side won in the metric's
    ``better`` direction (a tie counts for neither), each pair's values as
    [parent, change], and :func:`hodges_lehmann` of the pairs' log-ratios
    change/parent (None unless every value is positive); None when no pair
    reported the metric."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        # a run with no finished job reports no metrics; its pair is left out
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            out[name] = None
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = {"parent": sum(sign * (p - c) > 0 for p, c in pairs),
               "change": sum(sign * (c - p) > 0 for p, c in pairs)}
        entry = {"better": metric["better"], "pairs": len(pairs),
                 "values": [list(pair) for pair in pairs], "log_ratio": None}
        if all(p > 0 and c > 0 for p, c in pairs):
            entry["log_ratio"] = hodges_lehmann([math.log(c / p) for p, c in pairs])
        for side, values in zip(("parent", "change"), zip(*pairs)):
            q1, median, q3 = quartiles(list(values))
            entry[side] = {"median": median, "q1": q1, "q3": q3, "won": won[side]}
        out[name] = entry
    return out


def _percent(log_ratio) -> str:
    return "n/a" if log_ratio is None else f"{math.expm1(log_ratio):+.1%}"


def report(metrics: list, runs: dict) -> dict:
    """Print the summary of ``runs`` and return it (see :func:`summarize`)."""
    summary = summarize(metrics, runs)
    print(f"{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
          f" {'HL [95% interval]':<26} {'resolved':<8} {'change':>8} {'/ IQR':>7} {'won':>6}")
    for name, entry in summary.items():
        if entry is None:
            print(f"{name:<12} no pair reported it")
            continue
        (p1, pm, p3), (c1, cm, c3) = [[entry[side][k] for k in ("q1", "median", "q3")]
                                      for side in ("parent", "change")]
        rel = (cm - pm) / pm if pm else float("nan")
        iqr = (cm - pm) / (p3 - p1) if p3 > p1 else float("nan")
        parent, change = (f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                          for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3)))
        hl = entry["log_ratio"] or {"hl": None, "lo": None, "hi": None, "resolved": False}
        interval = f"{_percent(hl['hl'])} [{_percent(hl['lo'])}, {_percent(hl['hi'])}]"
        resolved = "yes" if hl["resolved"] else "no"
        print(f"{name:<12} {parent:<30} {change:<30} {interval:<26} {resolved:<8} "
              f"{rel:>+8.1%} {iqr:>+7.2f} {entry['change']['won']:>3}/{entry['pairs']}")
    for side in ("parent", "change"):
        failed = [f"{r['failed']}/{r['attempted']}" for r in runs[side]]
        print(f"{side} failed operations per run: {', '.join(failed)}")
    return summary


def write_json(path: str, key: str, record: dict) -> None:
    """Set ``key`` to ``record`` in the JSON object at ``path``, keeping
    the other keys of an existing file."""
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else {}
    data[key] = record
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    runs = {"parent": [], "change": []}
    with worktree(rev) as parent_tree:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                result = bench_run(tree, args)
                runs[side].append(result)
                rows = result["metrics"].get("rows_per_s", {}).get("value")
                print(f"pair {k + 1}/{args.pairs} {side}: rows_per_s {rows}, "
                      f"failed {result['failed']}", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g}-s runs; parent {rev[:12]}, change = working tree")
    summary = report(metrics, runs)
    if args.json:
        write_json(args.json, args.workload, {
            "seed": args.seed, "pairs": args.pairs, "seconds": args.seconds,
            "parent": rev, "change": "working tree", "head": git("rev-parse", "HEAD"),
            "metrics": summary,
            "failed": {side: [[r["failed"], r["attempted"]] for r in runs[side]]
                       for side in runs}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
