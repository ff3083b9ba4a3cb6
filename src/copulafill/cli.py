"""Command-line front end: fit/impute, streaming, and evaluation over CSV.

Exit codes: 0 success, 1 flag validation, 2 input parse failure, 3 fit or
numeric failure. Output CSVs keep the input header and column order; floats
are printed with 6 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .copula_em import FitConfig, _prepare_fit, fit_minibatch_offline, fit_standard
from .data_model import (
    DataTable,
    format_row,
    iter_csv_rows,
    parse_type_overrides,
    read_csv,
    read_header,
    write_csv,
)
from .evaluation import coverage, mae, smae
from .imputer import _QUANTILE_DRAWS, _impute, _quantile_bounds
from .lrgc import fit_lrgc
from .streaming import StreamConfig, init_stream, step


class CliError(Exception):
    """Flag/semantic validation failure (exit 1)."""


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


def _write(path, values, names) -> None:
    try:
        write_csv(path, values, names)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err.strerror}") from None


def _cmd_impute(args) -> int:
    if args.multiple < 0:
        raise CliError("--multiple must be nonnegative")
    if not 0 < args.alpha < 1:
        raise CliError("--alpha must be in (0, 1)")
    try:
        config = FitConfig(
            tol=args.tol,
            max_iter=args.max_iter,
            batch_size=args.batch_size,
            num_pass=args.num_pass,
            stepsize=lambda t, c=args.stepsize_c: c / (c + t),
            seed=args.seed,
            verbose=args.verbose,
        )
    except ValueError as err:
        raise CliError(str(err)) from None
    for path in filter(None, (args.output, args.corr_out)):
        if not Path(path).parent.is_dir():  # caught before the fit
            raise CliError(f"cannot write {path}: no directory {Path(path).parent}")

    table = _read_table(args.input)
    try:
        types = (parse_type_overrides(args.types, table.n_cols)
                 if args.types else None)
        # width-dependent preconditions are still flag validation
        if args.mode == "minibatch-offline" and args.batch_size < table.n_cols:
            raise ValueError(
                f"mini-batch training needs batch size >= number of columns "
                f"({args.batch_size} < {table.n_cols}); use --rank for wide data"
            )
        if args.rank and not 1 <= args.rank < table.n_cols:
            raise ValueError(
                f"--rank must satisfy 1 <= rank < n_cols, got {args.rank} "
                f"(n_cols={table.n_cols})"
            )
    except ValueError as err:
        raise CliError(str(err)) from None

    try:
        # the table is encoded once: the fit and the imputation share it
        prep = _prepare_fit(table, types, args.min_ord_ratio)
        if args.rank > 0:
            model = fit_lrgc(prep, args.rank, config)
        elif args.mode == "minibatch-offline":
            model = fit_minibatch_offline(prep, config)
        else:
            model = fit_standard(prep, config)
        # one solve gives the imputation, the analytic bounds and the draws;
        # the quantile bounds take the first _QUANTILE_DRAWS of those draws
        quantile_draws = _QUANTILE_DRAWS if args.ci == "quantile" else 0
        result, draws = _impute(model, table.values,
                                alpha=args.alpha if args.ci == "analytic" else None,
                                num=max(args.multiple, quantile_draws), seed=args.seed,
                                bounds=(prep.lower, prep.upper))
    except (ValueError, np.linalg.LinAlgError) as err:
        print(f"copulafill: fit failed: {err}", file=sys.stderr)
        return 3

    _write(args.output, result.imputed, table.col_names)
    if args.ci:
        lo, hi = result.ci_lower, result.ci_upper
        if quantile_draws:
            lo, hi = _quantile_bounds(draws[:quantile_draws], table.values, args.alpha)
        _write(_derived_path(args.output, "_ci_lower"), lo, table.col_names)
        _write(_derived_path(args.output, "_ci_upper"), hi, table.col_names)
    if args.multiple:
        for k in range(args.multiple):
            _write(_derived_path(args.output, f"_imp{k + 1}"), draws[k],
                   table.col_names)
    if args.corr_out:
        _write(args.corr_out, model.correlation(), table.col_names)
    return 0


def _cmd_stream(args) -> int:
    try:
        config = StreamConfig(
            window_size=args.window_size,
            const_stepsize=args.const_stepsize,
            batch_size=args.batch_size,
            decay=args.decay,
            n_train=args.n_train,
        )
    except ValueError as err:
        raise CliError(str(err)) from None

    with contextlib.ExitStack() as stack:
        def open_csv(path, mode="r"):
            return stack.enter_context(open(path, mode, newline="", encoding="utf-8"))

        try:
            in_fh = sys.stdin if args.input == "-" else open_csv(args.input)
            truth_fh = open_csv(args.truth) if args.truth else None
        except OSError as err:
            raise ParseError(str(err)) from None
        try:
            out_fh = sys.stdout if args.output == "-" else open_csv(args.output, "w")
        except OSError as err:
            raise CliError(f"cannot write {args.output}: {err.strerror}") from None
        return _run_stream(args, config, in_fh, truth_fh, out_fh)


def _csv_rows(fh, path: str, names=None):
    """Yield the header names of an open CSV file, then its rows parsed
    against ``names`` or that header; parse failures, an infinite cell
    among them, name the file."""
    reader = csv.reader(fh)
    try:
        header = read_header(reader)
        yield header
        names = names or header
        for row in iter_csv_rows(reader, names):
            if math.inf in row or -math.inf in row:
                j = next(j for j, x in enumerate(row) if abs(x) == math.inf)
                # the reader is at the row's line; the header is line 1
                raise ValueError(f"row {reader.line_num - 1}, column {names[j]!r}: "
                                 f"{row[j]} is infinite; cells must be finite "
                                 f"or missing")
            yield row
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from None


def _paired(rows, truth, truth_path):
    """Yield (row, revealed row or None), one truth row per input row."""
    for i, row in enumerate(rows, start=1):
        revealed = next(truth, None) if truth else None
        if truth and revealed is None:
            raise ParseError(f"{truth_path}: row {i} is missing: the truth "
                             f"file has fewer rows than the input")
        yield row, revealed


def _run_stream(args, config, in_fh, truth_fh, out_fh) -> int:
    rows = _csv_rows(in_fh, args.input)
    names = next(rows)
    try:
        types = parse_type_overrides(args.types, len(names)) if args.types else None
    except ValueError as err:
        raise CliError(str(err)) from None
    truth = None
    if truth_fh is not None:
        truth = _csv_rows(truth_fh, args.truth, names)
        next(truth)
    pairs = _paired(rows, truth, args.truth)

    csv.writer(out_fh, lineterminator="\n").writerow(names + ["warmup"])

    warmup_train = []
    for _ in range(config.n_train):
        try:
            row, revealed = next(pairs)
        except StopIteration:
            raise ParseError(
                f"{args.input}: fewer rows than --n-train={config.n_train}"
            ) from None
        warmup_train.append(row if revealed is None else revealed)
        out_fh.write(format_row(row) + ",1\n")
    out_fh.flush()

    try:
        state = init_stream(DataTable(np.array(warmup_train), names), config,
                            types=types, min_ord_ratio=args.min_ord_ratio)
    except ValueError as err:
        print(f"copulafill: stream initialization failed: {err}", file=sys.stderr)
        return 3

    for row, revealed in pairs:
        try:
            imputed, state = step(state, row, revealed)
        except ValueError as err:
            print(f"copulafill: stream step failed: {err}", file=sys.stderr)
            return 3
        out_fh.write(format_row(imputed) + ",0\n")
        out_fh.flush()
    return 0


def _cmd_evaluate(args) -> int:
    paths = [args.truth, args.masked, args.imputed]
    if args.ci_lower and args.ci_upper:
        paths += [args.ci_lower, args.ci_upper]
    tables = [_read_table(path) for path in paths]
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
    except CliError as err:
        print(f"copulafill: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"copulafill: parse failure: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. head); exit quietly
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
