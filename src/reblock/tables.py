"""Text files read as UTF-8, and tables parsed in bulk by NumPy's C reader.

Model CSVs, surface meshes and instruction files are read with
:func:`read_text`.  Surface meshes and model CSVs are parsed with
:func:`parse_table`.  A reader that gets ``None`` back for a whole file
parses it again in parts, down to single lines, with the same call, only
to find the first bad line and say why it is bad.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError


def read_text(path: Path) -> str:
    """The file's text as UTF-8, after a byte-order mark if it has one.

    Bytes that are not UTF-8 raise ``path:line: not valid UTF-8``, the line
    counted by newlines up to the first such byte.
    """
    data = path.read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not valid UTF-8") from None


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
