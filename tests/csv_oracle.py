"""Per-cell reference for the CSV writer.

The package formats each table row in one pass over Python floats. This
module keeps the direct form: every numpy cell is tested with ``np.isnan``
and formatted on its own with ``format(float(x), ".6g")``. Tests compare
the package's output against it byte for byte; nothing in ``src/``
imports it.
"""

from __future__ import annotations

import csv
import io

import numpy as np


def format_cell(x) -> str:
    if np.isnan(x):
        return ""
    return format(float(x), ".6g")


def write_csv(values, col_names) -> str:
    """The CSV text of a value grid under a header of ``col_names``."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(col_names)
    for row in np.atleast_2d(values):
        writer.writerow([format_cell(x) for x in row])
    return fh.getvalue()
