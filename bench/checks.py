"""Correctness checks on the CSV files the copulafill CLI writes.

Each check returns a list of problems; an operation with any problem
counts as failed. Cells are compared as the strings the CLI wrote: the
input holds 6-significant-digit values, which the CLI must echo unchanged
at observed cells.
"""

from __future__ import annotations

import numpy as np

from copulafill.evaluation import coverage, smae
from workloads import ORDINAL

# Floor for nominal 95% analytic intervals, held by the mean coverage over a
# run's inputs. One 100-row input's coverage is too variable for a floor:
# over 300 inputs its sd was 0.013 and its minimum 0.880, with normal fits.
MIN_COVERAGE = 0.90


def format_grid(values: np.ndarray) -> np.ndarray:
    """Cell strings of a value grid: 6 significant digits, NaN -> ''."""
    return np.array([["" if np.isnan(x) else format(x, ".6g") for x in row]
                     for row in values], dtype=object)


def parse_lines(lines):
    return np.array([line.split(",") for line in lines], dtype=object)


def to_float(grid: np.ndarray) -> np.ndarray:
    return np.where(grid == "", "nan", grid).astype(float)


class Expectations:
    """What every output of one input table must satisfy."""

    def __init__(self, data):
        self.data = data
        self.cells = format_grid(data.masked)
        self.missing = np.isnan(data.masked)
        self.lo = np.nanmin(data.masked, axis=0)
        self.hi = np.nanmax(data.masked, axis=0)
        self.levels = {j: np.unique(data.masked[~self.missing[:, j], j])
                       for j, kind in enumerate(data.kinds) if kind == ORDINAL}

    def input_text(self) -> str:
        lines = [",".join(self.data.names)] + [",".join(row) for row in self.cells]
        return "\n".join(lines) + "\n"

    def check_filled(self, grid, label, rows=slice(None)):
        """An imputed table or draw: complete, observed cells unchanged,
        imputed cells inside each column's observed range and levels."""
        want, missing = self.cells[rows], self.missing[rows]
        if grid.shape != want.shape:
            return [f"{label}: shape {grid.shape}, expected {want.shape}"]
        problems = []
        if (grid == "").any():
            problems.append(f"{label}: {int((grid == '').sum())} empty cells")
        changed = (grid != want) & ~missing
        if changed.any():
            i, j = np.argwhere(changed)[0]
            problems.append(f"{label}: observed cell ({i}, {j}) changed "
                            f"from {want[i, j]!r} to {grid[i, j]!r}")
        if problems:
            return problems
        values = to_float(grid)
        outside = missing & ((values < self.lo) | (values > self.hi))
        if outside.any():
            i, j = np.argwhere(outside)[0]
            problems.append(f"{label}: imputed {values[i, j]} at ({i}, {j}) is "
                            f"outside the observed range of column {j}")
        for j, levels in self.levels.items():
            bad = missing[:, j] & ~np.isin(values[:, j], levels)
            if bad.any():
                problems.append(f"{label}: imputed {values[bad, j][0]} is not "
                                f"an observed level of ordinal column {j}")
        return problems

    def check_header(self, header, label):
        if list(header) != list(self.data.names):
            return [f"{label}: header {header[:4]}... differs from the input"]
        return []

    def smae(self, values, rows=slice(None)) -> float:
        return float(np.nanmean(smae(values, self.data.truth[rows],
                                     self.data.masked[rows])))

    def check_intervals(self, lower, upper):
        """Analytic intervals: present exactly at missing cells and
        ordered. Also returns the share of masked truths they cover."""
        if lower.shape != self.cells.shape or upper.shape != self.cells.shape:
            return ["intervals: shape differs from the input"], float("nan")
        problems = []
        for label, grid in (("ci_lower", lower), ("ci_upper", upper)):
            if (grid[~self.missing] != "").any():
                problems.append(f"{label}: a bound is present at an observed cell")
            if (grid[self.missing] == "").any():
                problems.append(f"{label}: a bound is missing at a missing cell")
        if problems:
            return problems, float("nan")
        lo, hi = to_float(lower), to_float(upper)
        if (lo[self.missing] > hi[self.missing]).any():
            problems.append("intervals: lower bound above upper bound")
        return problems, coverage(lo, hi, self.data.truth, self.data.masked)
