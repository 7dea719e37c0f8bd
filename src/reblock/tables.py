"""Text tables parsed in bulk by NumPy's C reader.

Surface meshes and model CSVs are read with :func:`parse_table`.  A reader
that gets ``None`` back for a whole file parses it again in parts, down to
single lines, with the same call, only to find the first bad line and say
why it is bad.
"""

from __future__ import annotations

import warnings

import numpy as np


def parse_table(
    lines: list[str], dtype, cols: int | None, delimiter: str | None = None
) -> np.ndarray | None:
    """The first ``cols`` fields of each line (all, as many on each, if None)
    as one ``dtype`` table from one ``np.loadtxt`` call; None when a line is
    blank or short or a field is not a plain ASCII number of that type.

    Fields are split on whitespace, or on ``delimiter``; with a delimiter
    a field may be double-quoted, on one line.
    """
    if not lines:  # np.loadtxt warns on empty input
        return np.empty((0, cols or 3), dtype)
    try:
        with warnings.catch_warnings():  # NumPy < 2 warns, then reads '1.0' as an int
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype, comments=None, delimiter=delimiter,
                quotechar=delimiter and '"', usecols=cols and range(cols), ndmin=2,
            )
    except (ValueError, Warning):
        return None
    # np.loadtxt skips a blank line, and a quote left open joins the next one
    return table if len(table) == len(lines) else None
