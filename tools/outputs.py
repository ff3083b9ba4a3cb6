"""Output cells of the CLI that differ between a parent revision and the
working tree, on a benchmark workload's seeded inputs.

Usage, from anywhere inside the repository:

    python3 tools/outputs.py PARENT_REV --workload stream_replay --seed 1 --inputs 3
    python3 tools/outputs.py PARENT_REV --workload stream_replay --seed 1 --truth
    python3 tools/outputs.py PARENT_REV --workload mcar_mixed --seed 1 -- --ci quantile

The script writes inputs 0..N-1 of the workload and seed as CSV (with
``bench/workloads.py``, as the benchmark makes them), checks out PARENT_REV
as a temporary ``git worktree`` and runs the CLI once in each tree with the
workload's arguments: ``stream`` for a stream workload, ``impute`` for the
others. ``--truth`` also passes each input's complete table to ``stream``
as its revealed rows. Flags after ``--`` are passed to the CLI in both trees,
after the workload's own, so that a path no workload runs (``--ci quantile``,
``--mode minibatch-offline``) can be compared too. Every file the CLI writes
is compared cell by cell as text; each cell whose bytes differ is listed,
and a summary line per file gives the count. It exits 1 when any cell
differs. The worktree is removed at the end, also after an error or a
SIGTERM, and a CLI run still going then is killed. Standard library, plus ``bench/workloads.py`` to make the inputs;
nothing under ``bench/`` changes.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import tempfile
from pathlib import Path

from pairs import ROOT, git, run_child, worktree


def parse_args(argv=None):
    """The parsed options, with the CLI flags after ``--`` as ``extra``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=int, default=3,
                        help="number of inputs, from index 0")
    parser.add_argument("--truth", action="store_true",
                        help="stream workloads: reveal each row's complete values")
    args = parser.parse_args(argv[:cut])
    if args.inputs < 1:
        parser.error("--inputs must be >= 1")
    args.extra = argv[cut + 1:]
    return args


def format_csv(names, values) -> str:
    """A table as the benchmark writes it: 6 significant digits, empty
    cells for NaN."""
    lines = [",".join(names)]
    lines += [",".join("" if math.isnan(x) else format(x, ".6g") for x in row)
              for row in values.tolist()]
    return "\n".join(lines) + "\n"


def diff_cells(name: str, parent: str, change: str) -> list:
    """One line for each cell of CSV text ``parent`` whose bytes differ in
    ``change``; a cell that only one side has differs too. Lines and
    columns count from 1, the header being line 1."""
    rows = [list(csv.reader(io.StringIO(text))) for text in (parent, change)]
    out = []
    for line in range(max(map(len, rows))):
        a, b = (side[line] if line < len(side) else [] for side in rows)
        for col in range(max(len(a), len(b))):
            x, y = (r[col] if col < len(r) else None for r in (a, b))
            if x != y:
                out.append(f"{name}: line {line + 1}, column {col + 1}: "
                           f"{x!r} -> {y!r}")
    return out


def run_cli(tree: Path, args: list) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = run_child([sys.executable, "-m", "copulafill.cli", *args], cwd=tree, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"copulafill {' '.join(args)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.truth and not workload.stream:
        raise SystemExit("--truth needs a stream workload")
    rev = git("rev-parse", "--verify", args.parent + "^{commit}")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp, \
            worktree(rev) as parent_tree:
        tmp = Path(tmp)
        for index in range(args.inputs):
            data = workload.make(args.seed, index)
            in_path = tmp / f"in{index}.csv"
            in_path.write_text(format_csv(data.names, data.masked), encoding="utf-8")
            extra = []
            if args.truth:
                truth_path = tmp / f"truth{index}.csv"
                truth_path.write_text(format_csv(data.names, data.truth),
                                      encoding="utf-8")
                extra = ["--truth", str(truth_path)]
            command = "stream" if workload.stream else "impute"
            files = {}
            for side, tree in (("parent", parent_tree), ("change", ROOT)):
                out_dir = tmp / f"{side}{index}"
                out_dir.mkdir()
                run_cli(tree, [command, str(in_path), "-o", str(out_dir / "out.csv"),
                               *workload.cli_args, *extra, *args.extra])
                files[side] = {p.name: p.read_text(encoding="utf-8")
                               for p in sorted(out_dir.iterdir())}
            for name in sorted(files["parent"].keys() | files["change"].keys()):
                label = f"input {index} {name}"
                lines = diff_cells(label, files["parent"].get(name, ""),
                                   files["change"].get(name, ""))
                cells = sum(len(row) for row in csv.reader(
                    io.StringIO(files["change"].get(name, ""))))
                print("\n".join(lines + [f"{label}: {len(lines)} of {cells} "
                                         f"cells differ"]))
                differing += len(lines)
    flags = " ".join(args.extra)
    print(f"{args.workload}, seed {args.seed}, inputs 0-{args.inputs - 1}"
          f"{', --truth' if args.truth else ''}{', ' + flags if flags else ''}: "
          f"{differing} cells differ from {rev[:12]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
