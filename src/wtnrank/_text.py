"""Writers shared by the artifacts.

All files the package emits go through these functions so that two runs on
identical inputs stay byte-identical. Every CSV artifact is written by
:func:`write_columns`, the one place a number is formatted: floats use their
shortest round-trip ``repr``, ints their digits, cells are separated by ","
and lines end in "\n" regardless of platform. JSON keys are sorted and
nothing carries a timestamp.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_lines(path, lines) -> Path:
    """Write text lines with "\n" endings in one call; returns the path written."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{line}\n" for line in lines))
    return path


def write_columns(path, header, columns) -> Path:
    """Write the ``header`` names, then row i of every column, as one CSV file.

    A numpy array column is written as the ``repr`` of each ``tolist()``
    value; any other column is a sequence of str, written as it is. Columns
    of unequal length raise ValueError.
    """
    lengths = sorted({len(column) for column in columns})
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {lengths} for {path}")
    cells = [map(repr, column.tolist()) if isinstance(column, np.ndarray) else column for column in columns]
    return write_lines(path, [",".join(header), *map(",".join, zip(*cells))])


def write_json(path, payload: dict) -> Path:
    """Dump a manifest dict with sorted keys and a trailing newline."""
    return write_lines(path, [json.dumps(payload, sort_keys=True, indent=2)])
