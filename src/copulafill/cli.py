"""Command-line front end: fit/impute, streaming, and evaluation over CSV.

Exit codes, which ``main`` alone decides by exception type: 0 success, 1 a
rejected option value or output path (ConfigError), 2 input parse failure
(ParseError), 3 fit or numeric failure (any other ValueError). Output CSVs
keep the input header and column order; floats have 6 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .copula_em import (FitConfig, _prepare_fit, default_stepsize, fit_minibatch_offline,
                        fit_standard)
from .data_model import (
    ConfigError,
    DataTable,
    format_row,
    iter_csv_rows,
    parse_type_overrides,
    read_csv,
    read_header,
    write_csv,
)
from .evaluation import coverage, mae, smae
from .imputer import _impute
from .lrgc import fit_lrgc
from .streaming import StreamConfig, answer, fold, init_stream


class ParseError(Exception):
    """Input file parse failure (exit 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulafill",
        description="Gaussian copula imputation for incomplete mixed-type CSV tables",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    imp = sub.add_parser("impute", formatter_class=fmt,
                         help="fit a model and write the imputed CSV")
    imp.add_argument("input", help="input CSV (header required; missing = empty or NaN)")
    imp.add_argument("-o", "--output", required=True, help="imputed CSV path")
    imp.add_argument("--mode", default="standard",
                     choices=["standard", "minibatch-offline"],
                     help="training mode")
    imp.add_argument("--tol", type=float, default=0.01, help="EM convergence tolerance")
    imp.add_argument("--max-iter", type=int, default=50, help="maximum EM iterations")
    imp.add_argument("--batch-size", type=int, default=100, help="mini-batch size")
    imp.add_argument("--num-pass", type=int, default=2,
                     help="data passes for minibatch-offline")
    imp.add_argument("--stepsize-c", type=float, default=5.0,
                     help="c in the step size schedule c/(c+t)")
    imp.add_argument("--rank", type=int, default=0,
                     help="if > 0, fit the low-rank model with this rank")
    imp.add_argument("--min-ord-ratio", type=float, default=0.1,
                     help="mode-frequency threshold for type detection")
    imp.add_argument("--types", default="",
                     help="comma list of per-column type overrides (empty = auto)")
    imp.add_argument("--alpha", type=float, default=0.05,
                     help="confidence level for --ci is 1 - alpha")
    imp.add_argument("--ci", default="", choices=["", "analytic", "quantile"],
                     help="also write <output>_ci_lower/upper.csv")
    imp.add_argument("--multiple", type=int, default=0, metavar="N",
                     help="also write N sampled imputations <output>_impK.csv")
    imp.add_argument("--corr-out", default="", help="write the fitted correlation CSV")
    imp.add_argument("--seed", type=int, default=0, help="random seed")
    imp.add_argument("--verbose", action="store_true", help="print per-iteration lines")

    st = sub.add_parser("stream", formatter_class=fmt,
                        help="impute rows line by line (file or -, stdin)")
    st.add_argument("input", help="input CSV path or - for stdin")
    st.add_argument("-o", "--output", default="-", help="output CSV path or - for stdout")
    st.add_argument("--truth", default="",
                    help="CSV of revealed rows; must agree at observed cells")
    st.add_argument("--window-size", type=int, default=200,
                    help="marginal window length")
    st.add_argument("--const-stepsize", type=float, default=0.1,
                    help="constant correlation step size")
    st.add_argument("--batch-size", type=int, default=40,
                    help="rows per correlation update")
    st.add_argument("--decay", type=float, default=1.0,
                    help="imputation decay weight in (0, 1]")
    st.add_argument("--n-train", type=int, default=25,
                    help="warmup rows used to initialize the model")
    st.add_argument("--min-ord-ratio", type=float, default=0.1,
                    help="mode-frequency threshold for type detection")
    st.add_argument("--types", default="",
                    help="comma list of per-column type overrides (empty = auto)")

    ev = sub.add_parser("evaluate", formatter_class=fmt,
                        help="score imputations against withheld truth")
    ev.add_argument("--truth", required=True, help="complete ground-truth CSV")
    ev.add_argument("--masked", required=True, help="masked input CSV")
    ev.add_argument("--imputed", required=True, help="imputed CSV to score")
    ev.add_argument("--ci-lower", default="", help="lower CI bound CSV")
    ev.add_argument("--ci-upper", default="", help="upper CI bound CSV")
    return parser


def _read_table(path: str) -> DataTable:
    try:
        return read_csv(path)
    except (OSError, ValueError) as err:
        raise ParseError(f"{path}: {err}") from None


def _derived_path(output: str, suffix: str) -> Path:
    out = Path(output)
    return out.with_name(out.stem + suffix + out.suffix)


def _file_id(path):
    """One key for every spelling of a file, hard links included: its
    device and inode, or its resolved path while it does not exist."""
    with contextlib.suppress(OSError):
        st = os.stat(path)
        return st.st_dev, st.st_ino
    return os.path.realpath(path)


def _check_outputs(inputs, outputs) -> None:
    """Refuse, before anything is read, an output path in no existing
    directory, one that is a directory, or one that names an input or an
    earlier output: a write there fails late or replaces a file the command
    reads or writes. Both arguments list (flag, path) pairs; "" (none) and
    "-" (a standard stream) are skipped."""
    seen = {_file_id(path): what for what, path in inputs if path not in ("", "-")}
    for what, path in (pair for pair in outputs if pair[1] not in ("", "-")):
        if not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if (key := _file_id(path)) in seen:
            raise ConfigError(f"cannot write {path}: it is the {seen[key]} file")
        seen[key] = what


@contextlib.contextmanager
def _output_errors(path):
    """Raise a failed write to ``path`` as ConfigError; a closed pipe stays
    the BrokenPipeError that ``main`` exits 0 on."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def _write(path, values, names) -> None:
    with _output_errors(path):
        write_csv(path, values, names)


def _cmd_impute(args) -> int:
    if args.multiple < 0:
        raise ConfigError("--multiple must be nonnegative")
    if not 0 < args.alpha < 1:
        raise ConfigError("--alpha must be in (0, 1)")
    if args.rank < 0:  # 0 selects the dense model
        raise ConfigError(f"--rank must be nonnegative, got {args.rank}")
    config = FitConfig(
        tol=args.tol,
        max_iter=args.max_iter,
        batch_size=args.batch_size,
        num_pass=args.num_pass,
        stepsize=functools.partial(default_stepsize, c=args.stepsize_c),
        seed=args.seed,
        verbose=args.verbose,
    )
    ci_paths = [_derived_path(args.output, "_ci_" + b) for b in ("lower", "upper") if args.ci]
    draw_paths = [_derived_path(args.output, f"_imp{k + 1}") for k in range(args.multiple)]
    _check_outputs([("input", args.input)],
                   [("-o", args.output), *[("--ci", path) for path in ci_paths],
                    *[("--multiple", path) for path in draw_paths],
                    ("--corr-out", args.corr_out)])

    table = _read_table(args.input)
    types = parse_type_overrides(args.types, table.n_cols) if args.types else None
    # the table is encoded once: the fit and the imputation share it
    prep = _prepare_fit(table, types, args.min_ord_ratio)
    if args.rank > 0:
        model = fit_lrgc(prep, args.rank, config)
    elif args.mode == "minibatch-offline":
        model = fit_minibatch_offline(prep, config)
    else:
        model = fit_standard(prep, config)
    # one solve gives the imputation, the bounds of --ci and the draws
    result, draws = _impute(model, table.values, ci=args.ci, alpha=args.alpha,
                            num=args.multiple, seed=args.seed,
                            bounds=(prep.lower, prep.upper))
    _write(args.output, result.imputed, table.col_names)
    for path, bound in zip(ci_paths, (result.ci_lower, result.ci_upper)):
        _write(path, bound, table.col_names)
    for k, path in enumerate(draw_paths):
        _write(path, draws[k], table.col_names)
    if args.corr_out:
        _write(args.corr_out, model.correlation(), table.col_names)
    return 0


def _check_header(path: str, names, source: str, expected) -> None:
    """Refuse a file whose header is not ``expected``, the header of
    ``source``: its columns would be read as others."""
    for k, pair in enumerate(itertools.zip_longest(names, expected)):
        if pair[0] != pair[1]:
            got, want = ("none" if name is None else repr(name) for name in pair)
            raise ParseError(f"{path}: header column {k + 1} is {got} where "
                             f"{source} has {want}")


def _csv_rows(fh, path: str):
    """Yield the header names of an open CSV file, then its rows; parse
    and read failures name the file."""
    reader = csv.reader(fh)
    try:
        header = read_header(reader)
        yield header
        yield from iter_csv_rows(reader, header)
    except (OSError, ValueError) as err:
        raise ParseError(f"{path}: {err}") from None


def _paired(rows, truth, truth_path):
    """Yield (row, revealed row or None), one truth row per input row."""
    for i, row in enumerate(rows, start=1):
        revealed = next(truth, None) if truth else None
        if truth and revealed is None:
            raise ParseError(f"{truth_path}: row {i} is missing: the truth "
                             f"file has fewer rows than the input")
        yield row, revealed


def _cmd_stream(args) -> int:
    config = StreamConfig(
        window_size=args.window_size,
        const_stepsize=args.const_stepsize,
        batch_size=args.batch_size,
        decay=args.decay,
        n_train=args.n_train,
    )
    _check_outputs([("input", args.input), ("--truth", args.truth)],
                   [("-o", args.output)])

    with contextlib.ExitStack() as stack:
        def open_csv(path, mode="r"):
            return stack.enter_context(open(path, mode, newline="", encoding="utf-8"))

        # both headers and --types are read before -o is opened, so a stream
        # refused by them leaves the output path as it was
        try:
            rows = _csv_rows(sys.stdin if args.input == "-" else open_csv(args.input),
                             args.input)
            truth = _csv_rows(open_csv(args.truth), args.truth) if args.truth else None
        except OSError as err:
            raise ParseError(str(err)) from None
        names = next(rows)
        if truth is not None:
            _check_header(args.truth, next(truth), args.input, names)
        types = parse_type_overrides(args.types, len(names)) if args.types else None
        pairs = _paired(rows, truth, args.truth)
        # entered before -o is opened, so it also takes a failure to close it;
        # a failed read is a ParseError by now
        stack.enter_context(_output_errors(args.output))
        out_fh = sys.stdout if args.output == "-" else open_csv(args.output, "w")

        csv.writer(out_fh, lineterminator="\n").writerow(names + ["warmup"])
        warmup_train = []
        for _, (row, revealed) in zip(range(config.n_train), pairs):
            warmup_train.append(row if revealed is None else revealed)
            out_fh.write(format_row(row) + ",1\n")
        out_fh.flush()
        if len(warmup_train) < config.n_train:
            raise ParseError(f"{args.input}: fewer rows than --n-train={config.n_train}")

        state = init_stream(DataTable(np.array(warmup_train), names), config,
                            types=types, min_ord_ratio=args.min_ord_ratio)
        # a row's line goes out before the row is folded in, so the fold
        # runs while the reader takes the line and sends the next row
        for row, revealed in pairs:
            imputed, folded = answer(state, row, revealed)
            out_fh.write(format_row(imputed) + ",0\n")
            out_fh.flush()
            fold(state, *folded)
    return 0


def _cmd_evaluate(args) -> int:
    paths = [args.truth, args.masked, args.imputed]
    if bool(args.ci_lower) != bool(args.ci_upper):
        missing = "--ci-upper" if args.ci_lower else "--ci-lower"
        raise ConfigError(f"--ci-lower and --ci-upper go together: {missing} is missing")
    if args.ci_lower:
        paths += [args.ci_lower, args.ci_upper]
    tables = [_read_table(path) for path in paths]
    for path, table in zip(paths[1:], tables[1:]):
        _check_header(path, table.col_names, args.truth, tables[0].col_names)
    if len({t.values.shape for t in tables}) > 1:
        raise ParseError("tables differ in shape: " + ", ".join(
            f"{path} {t.n_rows}x{t.n_cols}" for path, t in zip(paths, tables)))
    truth, masked, imputed, *bounds = tables
    scores = smae(imputed, truth, masked)
    print(f"{'column':<20} {'smae':>8}")
    for name, s in zip(truth.col_names, scores):
        shown = f"{s:.3f}" if np.isfinite(s) else "n/a"
        print(f"{name:<20} {shown:>8}")
    mean_smae = np.nanmean(scores) if np.isfinite(scores).any() else float("nan")
    print(f"{'mean smae':<20} {mean_smae:>8.3f}")
    print(f"{'pooled mae':<20} {mae(imputed, truth, masked):>8.3f}")
    if bounds:
        print(f"coverage: {coverage(*bounds, truth, masked):.3f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; classify them as flag validation
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "impute": _cmd_impute,
        "stream": _cmd_stream,
        "evaluate": _cmd_evaluate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"copulafill: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"copulafill: parse failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # numpy's LinAlgError is one too
        what = "fit" if args.command == "impute" else args.command
        print(f"copulafill: {what} failed: {err}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. head); exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
