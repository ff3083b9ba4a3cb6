"""Incomplete mixed-type data tables and per-column variable type detection."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
ORDINAL = "ordinal"
LOWER_TRUNCATED = "lower_truncated"
UPPER_TRUNCATED = "upper_truncated"
TWOSIDED_TRUNCATED = "twosided_truncated"

VAR_TAGS = (CONTINUOUS, ORDINAL, LOWER_TRUNCATED, UPPER_TRUNCATED, TWOSIDED_TRUNCATED)

# tokens treated as a missing cell when parsing CSV (case-insensitive)
_NA_TOKENS = {"", "nan"}


class ConfigError(ValueError):
    """A value that the caller sets is out of range: a setting, an option
    or a type override, not the data. The CLI exits 1 on it."""


@dataclass(frozen=True)
class VariableType:
    """Column type tag plus the truncation point(s) for truncated columns.

    ``lower`` is the truncation value alpha of lower/two-sided truncated
    columns, ``upper`` the value beta of upper/two-sided truncated columns.
    Unset (None) bounds of user-specified types are filled from the observed
    data when the marginal is fitted; set bounds must have lower < upper.
    """

    tag: str
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.tag not in VAR_TAGS:
            raise ValueError(f"unknown variable type tag {self.tag!r}")
        for name, val in (("lower", self.lower), ("upper", self.upper)):
            if val is not None and not np.isfinite(val):
                raise ValueError(f"truncation bound {name}={val} must be finite")
        if self.lower is not None and self.upper is not None and self.lower >= self.upper:
            raise ValueError(f"truncation bounds cross: lower={self.lower} is not "
                             f"below upper={self.upper}")

    @property
    def has_lower_bound(self) -> bool:
        return self.tag in (LOWER_TRUNCATED, TWOSIDED_TRUNCATED)

    @property
    def has_upper_bound(self) -> bool:
        return self.tag in (UPPER_TRUNCATED, TWOSIDED_TRUNCATED)


@dataclass
class DataTable:
    """An n x p grid of optional real cell values. NaN marks a missing cell."""

    values: np.ndarray
    col_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"table values must be 2-D, got shape {vals.shape}")
        bad = np.isinf(vals)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(f"cell ({i}, {j}) is infinite; cells must be finite or missing")
        self.values = vals
        if not self.col_names:
            self.col_names = [f"col{j}" for j in range(vals.shape[1])]
        elif len(self.col_names) != vals.shape[1]:
            raise ValueError(
                f"{len(self.col_names)} column names for {vals.shape[1]} columns"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def observed_mask(self) -> np.ndarray:
        return ~np.isnan(self.values)


def _is_continuous_counts(counts: np.ndarray, min_ord_ratio: float) -> bool:
    # renormalized mode frequency below the threshold; an empty remainder is
    # never continuous (ties at the threshold count as concentrated)
    return len(counts) > 0 and counts.max() / counts.sum() < min_ord_ratio


def _detect_column(col: np.ndarray, min_ord_ratio: float) -> VariableType:
    uniques, counts = np.unique(col, return_counts=True)
    n = counts.sum()
    if counts.max() / n < min_ord_ratio:
        return VariableType(CONTINUOUS)
    lower_conc = counts[0] / n >= min_ord_ratio
    upper_conc = counts[-1] / n >= min_ord_ratio
    if lower_conc and upper_conc:
        if _is_continuous_counts(counts[1:-1], min_ord_ratio):
            return VariableType(TWOSIDED_TRUNCATED, lower=uniques[0], upper=uniques[-1])
    elif lower_conc:
        if _is_continuous_counts(counts[1:], min_ord_ratio):
            return VariableType(LOWER_TRUNCATED, lower=uniques[0])
    elif upper_conc:
        if _is_continuous_counts(counts[:-1], min_ord_ratio):
            return VariableType(UPPER_TRUNCATED, upper=uniques[-1])
    return VariableType(ORDINAL)


def detect_variable_types(
    table: DataTable, min_ord_ratio: float = 0.1
) -> list[VariableType]:
    """Guess each column's variable type from the observed value frequencies.

    A column is continuous when its mode frequency is below ``min_ord_ratio``;
    lower/upper/two-sided truncated when the min/max/both carry at least
    ``min_ord_ratio`` of the mass and the remaining values, with frequencies
    renormalized, are continuous by the same rule; ordinal otherwise.
    """
    if not 0 < min_ord_ratio < 1:
        raise ConfigError(f"min_ord_ratio must be in (0, 1), got {min_ord_ratio}")
    out = []
    for j, name in enumerate(table.col_names):
        col = table.values[:, j]
        col = col[~np.isnan(col)]
        if col.size == 0:
            raise ValueError(f"column {name!r} has no observed values")
        out.append(_detect_column(col, min_ord_ratio))
    return out


def parse_type_overrides(spec: str, n_cols: int) -> list[VariableType | None]:
    """Parse a comma list of per-column type overrides.

    Empty tokens and the token ``auto`` leave the column to automatic
    detection. Truncation bounds of overridden truncated columns are filled
    from the observed data at fit time.
    """
    tokens = [t.strip().lower() for t in spec.split(",")]
    if len(tokens) != n_cols:
        raise ConfigError(f"--types lists {len(tokens)} entries for {n_cols} columns")
    out: list[VariableType | None] = []
    for tok in tokens:
        if tok in ("", "auto"):
            out.append(None)
        elif tok in VAR_TAGS:
            out.append(VariableType(tok))
        else:
            raise ConfigError(f"unknown variable type {tok!r}")
    return out


def read_csv(path_or_buf) -> DataTable:
    """Read a CSV with a header row.

    A cell is missing when it is empty, blank, or reads ``nan`` in any
    case; every other cell must be a finite number as Python's ``float``
    reads it, and ``-0`` reads as 0. Parse errors name the row and column.
    """
    if hasattr(path_or_buf, "read"):
        return _read_csv_stream(path_or_buf)
    with open(path_or_buf, newline="", encoding="utf-8") as fh:
        return _read_csv_stream(fh)


def _read_csv_stream(fh) -> DataTable:
    reader = csv.reader(fh)
    names = read_header(reader)
    rows = list(iter_csv_rows(reader, names))
    vals = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return DataTable(vals, names)


def read_header(reader) -> list[str]:
    """Header names of a ``csv.reader``: stripped, and then unique."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: a header row is required") from None
    names = [h.strip() for h in header]
    dups = [name for name, count in Counter(names).items() if count > 1]
    if dups:
        raise ValueError(f"duplicate column name {dups[0]!r} in the header")
    return names


def iter_csv_rows(reader, names):
    """Lazily parse the data rows of a ``csv.reader`` to lists of floats, -0
    read as 0. Blank lines are skipped; a bad or infinite cell raises
    ValueError naming its row and column, a row of the wrong width its row."""
    nan = float("nan")
    for i, rec in enumerate(reader):
        if not rec:
            continue
        if len(rec) != len(names):
            raise ValueError(f"row {i + 1} has {len(rec)} fields, expected {len(names)}")
        try:
            # float() strips whitespace and reads nan in any case itself,
            # so this gives the bits of _parse_cell on every token it takes
            vals = [nan if t == "" else float(t) + 0.0 for t in rec]
        except ValueError:   # a blank NA token, or a bad cell to name
            vals = [_parse_cell(tok, i, names[j]) for j, tok in enumerate(rec)]
        if math.inf in vals or -math.inf in vals:
            j = next(j for j, x in enumerate(vals) if abs(x) == math.inf)
            raise ValueError(f"row {i + 1}, column {names[j]!r}: {vals[j]} is "
                             f"infinite; cells must be finite or missing")
        yield vals


def _parse_cell(token: str, row: int, col: str) -> float:
    tok = token.strip()
    if tok.lower() in _NA_TOKENS:
        return np.nan
    try:
        return float(tok) + 0.0
    except ValueError:
        raise ValueError(
            f"row {row + 1}, column {col!r}: cannot parse {token!r} as a number"
        ) from None


def format_row(row) -> str:
    """The CSV line of one row of values, without its line end: Python's
    ``.6g`` format of each value as a float, and an empty field for a
    missing (NaN) cell. One ``%`` operation formats the whole row."""
    vals = np.asarray(row, dtype=float).tolist()
    # "%g" spells every NaN "nan", and no number holds those letters
    return (",".join(["%.6g"] * len(vals)) % tuple(vals)).replace("nan", "")


def write_csv(path_or_buf, values: np.ndarray, col_names: list[str]) -> None:
    """Write a value grid as CSV under a header row of ``col_names``.

    Each cell is Python's ``.6g`` format of its value as a float (6
    significant digits), and a missing (NaN) cell is an empty field. The
    dialect is the ``csv`` module's default with ``\\n`` line ends, so a
    field is quoted only when it needs to be: a name holding a comma or a
    quote, or the lone empty field of a one-column row.
    """
    if hasattr(path_or_buf, "write"):
        _write_csv_stream(path_or_buf, values, col_names)
    else:
        with open(path_or_buf, "w", newline="", encoding="utf-8") as fh:
            _write_csv_stream(fh, values, col_names)


def _write_csv_stream(fh: io.TextIOBase, values: np.ndarray, col_names) -> None:
    csv.writer(fh, lineterminator="\n").writerow(col_names)
    values = np.atleast_2d(values)
    # an empty line of one column is its lone empty field, which csv quotes
    empty = '""' if values.shape[1] == 1 else ""
    # one row's line at a time, so the extra memory is one row
    fh.writelines(f"{format_row(row) or empty}\n" for row in values)
