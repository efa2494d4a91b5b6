"""CSV input and atomic text output shared by the package's file formats.

Every CSV file the package reads (order tables, grid functions, operator
matrices) follows one set of rules: blank lines are skipped, '#' lines are
comments and a `# key=value` comment is a directive, rows that are not all
numbers are headers while no data row has been read, and such a row after
the first data row is an error naming path:line.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def read_table(path, columns: int | None = None) -> tuple[np.ndarray, dict[str, str]]:
    """Numeric rows of a CSV file as a 2-D array, and its `# key=value` directives.

    Every data row must have `columns` fields, or as many as the first data
    row when columns is None; ValueError names path:line otherwise.  A file
    without data rows gives an array with no rows.
    """
    rows: list[list[float]] = []
    directives: dict[str, str] = {}
    width = columns
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line[1:].partition("=")
                if eq:
                    directives[key.strip()] = val.strip()
                continue
            try:
                row = [float(x) for x in line.split(",")]
            except ValueError:
                if not rows:
                    continue
                raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}") from None
            if width is None:
                width = len(row)
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: need {width} columns, got {len(row)}")
            rows.append(row)
    return np.asarray(rows, dtype=float).reshape(len(rows), width or 0), directives


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
