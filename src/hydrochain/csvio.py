"""Deterministic CSV emission (bit-identical output for identical inputs).

Floats are written as format(x, ".17g"), ints as digits and bools as 1/0. A
writer may format a block of rows with a "%.17g" template through write_text:
'%.17g' % x == format(x, '.17g') for every float, so the text is the same.
"""

from __future__ import annotations

import os

import numpy as np


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_text(path, header, chunks) -> None:
    """The header line, then each pre-formatted chunk of lines as it is."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(chunks)


def write_csv(path, header, rows) -> None:
    def line(row):
        return ",".join(format(x, ".17g") if type(x) is float else _fmt(x) for x in row) + "\n"

    write_text(path, header, map(line, rows))

