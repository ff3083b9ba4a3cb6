"""Alternating-pair benchmark of the working tree against a parent revision.

Usage, from anywhere inside the repository:

    python3 tools/pairs.py PARENT_REV --workload stream_replay --seed 1 --pairs 5

The script checks out PARENT_REV as a temporary ``git worktree``. It then
runs ``bench/run.py --trace 0`` in that worktree and in the working tree,
``--seconds`` (default 40) each, and swaps which side goes first in every
pair, so that slow drifts of the machine fall on both sides alike. Both
sides run the same seed, so each pair sees the same inputs.

For each end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the change of the medians, that change over the
parent's interquartile range, and the number of pairs the working tree
won in the metric's ``better`` direction. It also prints the failed
operations of every run. The worktree is removed at the end, also after
an error. Standard library only; nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


@contextlib.contextmanager
def worktree(rev: str):
    """A temporary detached ``git worktree`` of ``rev``, removed on exit,
    also after an error."""
    with tempfile.TemporaryDirectory(prefix="parent-") as tmp:
        tree = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(tree), rev)
        try:
            yield tree
        finally:
            git("worktree", "remove", "--force", str(tree))


def bench_run(tree: Path, args) -> dict:
    """The JSON result line of one untraced ``bench/run.py`` run in ``tree``."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
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


def report(metrics: list, runs: dict) -> None:
    print(f"{'metric':<12} {'parent median [q1, q3]':<30} {'change median [q1, q3]':<30}"
          f" {'change':>8} {'/ IQR':>7} {'won':>6}")
    for metric in metrics:
        name = metric["name"]
        # a run with no finished job reports no metrics; its pair is left out
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            print(f"{name:<12} no pair reported it")
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in pairs)
        (p1, pm, p3), (c1, cm, c3) = (quartiles(list(side)) for side in zip(*pairs))
        rel = (cm - pm) / pm if pm else float("nan")
        iqr = (cm - pm) / (p3 - p1) if p3 > p1 else float("nan")
        parent, change = (f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
                          for q1, m, q3 in ((p1, pm, p3), (c1, cm, c3)))
        print(f"{name:<12} {parent:<30} {change:<30} {rel:>+8.1%} {iqr:>+7.2f} "
              f"{won:>3}/{len(pairs)}")
    for side in ("parent", "change"):
        failed = [f"{r['failed']}/{r['attempted']}" for r in runs[side]]
        print(f"{side} failed operations per run: {', '.join(failed)}")


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
    report(metrics, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
