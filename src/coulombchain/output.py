"""CSV and run-manifest writers, each an atomic replace. Imports only the
stdlib, numpy and `errors`, so the package exports them without `cli`."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from itertools import chain, islice

import numpy as np

from .errors import InvalidParameter


@dataclasses.dataclass
class RunManifest:
    """Inputs and outputs of one CLI run; JSON-serialized next to the CSVs."""

    subcommand: str
    params: dict
    grids: dict
    version: str
    wall_time_s: float
    outputs: list

    def write(self, path: str) -> None:
        _atomic_write(path, [json.dumps(dataclasses.asdict(self), indent=2,
                                        sort_keys=True), "\n"])


def _atomic_write(path: str, chunks) -> None:
    """Stream the str `chunks` into a temp file beside `path`, then replace
    `path` with it; on any error the temp file goes and `path` is as it was."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Rows per `%` format. From 256 to 4096 rows, a 100k x 3 float table times
# alike; 1024 such rows make about 60 kB of text.
_BLOCK_ROWS = 1024


def _format_for(cls: type, column: str) -> str:
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(cls, (float, np.floating)):
        return "%.17g"
    raise InvalidParameter(f"column {column!r} holds a {cls.__name__}; cells "
                           "must be str, integers, booleans or real floats")


def _csv_chunks(header, rows):
    """The header line, then one str per block of up to _BLOCK_ROWS rows."""
    ncol = len(header)
    yield ",".join(header) + "\n"
    rows = iter(rows)
    while block := list(map(tuple, islice(rows, _BLOCK_ROWS))):
        widths = set(map(len, block)) - {ncol}
        if widths:
            raise InvalidParameter(
                f"row of width {widths.pop()} in a {ncol}-column table")
        cells = list(chain.from_iterable(block))
        formats = []
        for j, column in enumerate(header):
            by_type = {cls: _format_for(cls, column)
                       for cls in set(map(type, cells[j::ncol]))}
            fmt, *others = set(by_type.values())
            if others:
                # Formats mix within the block: print the column cell by cell.
                cells[j::ncol] = [by_type[type(c)] % c for c in cells[j::ncol]]
                fmt = "%s"
            formats.append(fmt)
        yield ((",".join(formats) + "\n") * len(block)) % tuple(cells)


def emit_csv(header, rows, path: str) -> None:
    """Write a rectangular table: header row, >= 12 significant digits,
    newline-terminated, no locale formatting, atomic replace.

    Cells print as str, integers (booleans as 1/0) or %.17g floats; any
    other cell type is an InvalidParameter naming its column. `rows` is
    any iterable of rows (iterables of cells), taken 1024 at a time; each
    block is one `%` format through a template with one format per column,
    picked from the cell types that column holds in the block. A column
    whose cells need different formats in one block prints cell by cell,
    which gives the same bytes. Blocks stream into the temp file, so
    neither the lines nor the whole text is held; a bad row in any block
    leaves `path` as it was."""
    _atomic_write(path, _csv_chunks(header, rows))
