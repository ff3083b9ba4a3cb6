"""In-process job times of the CLI, the working tree against a parent
revision, in alternating fresh interpreters.

Usage, from anywhere inside the repository:

    python3 tools/inproc.py PARENT_REV --workload mcar_mixed --seed 1 --inputs 6 --rounds 8

The script writes inputs 0..N-1 of the workload and seed as CSV (a child
interpreter makes them with ``bench/workloads.py``, as the benchmark does)
and checks out PARENT_REV as a temporary ``git worktree``. Each of the R
rounds then starts one fresh interpreter per side, the side that goes first
alternating by round. The interpreter imports its tree's ``copulafill.cli``,
runs ``cli.main`` once on input 0 untimed, so that imports, caches and lazy
set-up are done, and then times one ``cli.main`` call on each input with
the workload's arguments (``stream`` for a stream workload, ``impute`` for
the others). No benchmark harness, fork or interpreter start-up is inside a
timed call, so this resolves changes that 40-s ``tools/pairs.py`` runs of a
short job cannot.

It prints each side's median and minimum over all its timed jobs. The jobs
of one round share two interpreters and one stretch of machine load, so
their log-ratios are not independent: each round is reduced to the median
change/parent log-ratio of its inputs, and the Hodges-Lehmann estimate of
those R round values, with its exact Wilcoxon signed-rank 95% interval
(``tools/pairs.py``'s functions), is printed as percent changes, with the
rounds in which the change was faster. Fewer than 6 rounds never resolve. The worktree is removed at the end, also after
an error or a SIGTERM. Standard library only; nothing under ``bench/`` is
changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, _percent, git, hodges_lehmann, run_child, worktree

# writes the inputs and prints the CLI command and the workload's arguments
_MAKE_INPUTS = """
import json, sys
from outputs import format_csv
from workloads import WORKLOADS
name, seed, count, folder = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
workload = WORKLOADS[name]
for index in range(count):
    data = workload.make(seed, index)
    with open(f"{folder}/in{index}.csv", "w", encoding="utf-8") as fh:
        fh.write(format_csv(data.names, data.masked))
print(json.dumps(["stream" if workload.stream else "impute", list(workload.cli_args)]))
"""

# runs the first job untimed, then times every job; prints the times in s
_TIME_JOBS = """
import json, sys, time
from copulafill.cli import main
jobs = json.loads(sys.argv[1])
if main(jobs[0]) != 0:
    sys.exit("the warm-up job failed")
times = []
for argv in jobs:
    start = time.perf_counter()
    code = main(argv)
    times.append(time.perf_counter() - start)
    if code != 0:
        sys.exit(f"copulafill {' '.join(argv)} exited {code}")
print(json.dumps(times))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=int, default=6,
                        help="number of inputs, from index 0")
    parser.add_argument("--rounds", type=int, default=8,
                        help="fresh interpreters per side")
    args = parser.parse_args(argv)
    if args.inputs < 1 or args.rounds < 1:
        parser.error("--inputs and --rounds must be >= 1")
    return args


def child(code: str, args: list, paths: list, cwd: Path) -> str:
    """The output of ``python -c code args`` run with ``paths`` on
    PYTHONPATH; an error when it fails."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = run_child([sys.executable, "-c", code, *args], cwd=cwd, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"child in {cwd} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def summarize(times: dict) -> dict:
    """``times[side]`` holds one list of job times a round, one time an
    input. Each side's median and minimum over all its jobs; each round's
    median change/parent log-ratio over its inputs, with ``hodges_lehmann``
    of those round values and the rounds the change was faster in."""
    out = {}
    for side in ("parent", "change"):
        flat = [t for r in times[side] for t in r]
        out[side] = {"median": statistics.median(flat), "min": min(flat)}
    rounds = [statistics.median(math.log(c / p) for p, c in zip(*pair))
              for pair in zip(times["parent"], times["change"])]
    out.update(rounds=len(rounds), faster=sum(r < 0 for r in rounds),
               log_ratio=hodges_lehmann(rounds))
    return out


def report(summary: dict) -> None:
    for side in ("parent", "change"):
        print(f"{side}: median {summary[side]['median'] * 1e3:.2f} ms, "
              f"min {summary[side]['min'] * 1e3:.2f} ms")
    hl = summary["log_ratio"]
    print(f"change/parent over {summary['rounds']} rounds (median of each round's "
          f"inputs): HL {_percent(hl['hl'])} [{_percent(hl['lo'])}, "
          f"{_percent(hl['hi'])}], resolved {'yes' if hl['resolved'] else 'no'}; "
          f"change faster in {summary['faster']}/{summary['rounds']} rounds")


def main(argv=None) -> int:
    args = parse_args(argv)
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="inproc-") as tmp, \
            worktree(rev) as parent_tree:
        tmp = Path(tmp)
        command, cli_args = json.loads(child(
            _MAKE_INPUTS, [args.workload, str(args.seed), str(args.inputs), str(tmp)],
            [ROOT / "tools", ROOT / "bench", ROOT / "src"], ROOT))
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                out = tmp / f"{side}.csv"
                jobs = [[command, str(tmp / f"in{i}.csv"), "-o", str(out), *cli_args]
                        for i in range(args.inputs)]
                times[side].append(json.loads(child(
                    _TIME_JOBS, [json.dumps(jobs)], [tree / "src"], tmp)))
            print(f"round {k + 1}/{args.rounds}: parent "
                  f"{statistics.median(times['parent'][-1]) * 1e3:.2f} ms, change "
                  f"{statistics.median(times['change'][-1]) * 1e3:.2f} ms (medians)",
                  file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, inputs 0-{args.inputs - 1}, "
          f"{args.rounds} rounds; parent {rev[:12]}, change = working tree")
    report(summarize(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
