"""CSV and run-manifest writers, each an atomic replace. Imports only the
stdlib, numpy and `errors`, so the package exports them without `cli`."""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from itertools import islice, pairwise

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
        text = json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)
        _atomic_write(path, [text.encode(), b"\n"])


def _atomic_write(path: str, chunks) -> None:
    """Stream the bytes `chunks` into a temp file beside `path`, then replace
    `path` with it; on any error the temp file goes and `path` is as it was."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Columns:
    """A table given by its columns: equal-length 1-D numpy arrays or
    sequences of cells. Arrays are kept as they are, not copied, and
    `emit_csv` formats a float array a block at a time. A Columns iterates
    as rows, so it stands wherever rows do."""

    def __init__(self, *columns):
        self.columns = tuple(c if isinstance(c, np.ndarray) else list(c)
                             for c in columns)
        if any(c.ndim != 1 for c in self.columns
               if isinstance(c, np.ndarray)):
            raise InvalidParameter("table columns must be 1-D")
        lengths = sorted({len(c) for c in self.columns})
        if len(lengths) > 1:
            raise InvalidParameter(f"table columns of unequal lengths "
                                   f"{', '.join(map(str, lengths))}")

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return zip(*self.columns)


# Row input is taken _VECTOR_ROWS rows at a time. A Columns table is cut
# into blocks of equal size, at most _COLUMN_BLOCK_ROWS rows, which are
# sliced, not copied. The float columns of a block of _VECTOR_ROWS rows or
# more are formatted as arrays; a shorter block prints cell by cell, which
# is as fast at that size. So no array of a kilobyte or less is made:
# buffers that small are kept for reuse once freed, by numpy and by the C
# allocator, and one kept in the middle of the C heap stops it from
# shrinking after the run's large arrays are gone.
_COLUMN_BLOCK_ROWS = 4096
_VECTOR_ROWS = _COLUMN_BLOCK_ROWS // 2


def _format_for(cls: type, column: str) -> str:
    if issubclass(cls, str):
        return "%s"
    if issubclass(cls, (bool, np.bool_, int, np.integer)):
        return "%d"
    if issubclass(cls, (float, np.floating)):
        return "%.17g"
    raise InvalidParameter(f"column {column!r} holds a {cls.__name__}; cells "
                           "must be str, integers, booleans or real floats")


def _cell_texts(cells, column: str) -> list:
    """Each cell printed with the format of its type."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    formats = {cls: _format_for(cls, column) for cls in set(map(type, cells))}
    return [formats[type(c)] % c for c in cells]


def _text_block(columns, header) -> bytes:
    """The lines of a block, printed cell by cell."""
    texts = [_cell_texts(c, column) for c, column in zip(columns, header)]
    return "".join(",".join(r) + "\n" for r in zip(*texts)).encode()


def _blocks(header, rows):
    """(row count, columns) of each block of the table."""
    ncol = len(header)
    if isinstance(rows, Columns):
        if len(rows.columns) != ncol:
            raise InvalidParameter(f"row of width {len(rows.columns)} in a "
                                   f"{ncol}-column table")
        n = len(rows)
        blocks = max(1, -(-n // _COLUMN_BLOCK_ROWS))
        for i, j in pairwise(n * k // blocks for k in range(blocks + 1)):
            yield j - i, [c[i:j] for c in rows.columns]
        return
    rows = iter(rows)
    while block := list(map(tuple, islice(rows, _VECTOR_ROWS))):
        widths = set(map(len, block)) - {ncol}
        if widths:
            raise InvalidParameter(
                f"row of width {widths.pop()} in a {ncol}-column table")
        yield len(block), list(zip(*block))


def _csv_chunks(header, rows):
    """The header line, then the bytes of each block."""
    yield (",".join(header) + "\n").encode()
    t = None
    for n, columns in _blocks(header, rows):
        if not columns:
            yield b"\n" * n
        elif n < _VECTOR_ROWS:
            yield _text_block(columns, header)
        else:
            if t is None:
                from . import _csvfloat
                t = _csvfloat.tables()
            yield _csvfloat.vector_block(columns, header, t)


def emit_csv(header, rows, path: str) -> None:
    """Write a rectangular table: header row, >= 12 significant digits,
    newline-terminated, no locale formatting, UTF-8, atomic replace.

    Cells print as str, integers (booleans as 1/0) or %.17g floats; any
    other cell type is an InvalidParameter naming its column. `rows` is
    any iterable of rows (iterables of cells), taken 2048 rows at a time,
    or a `Columns` table, sliced into blocks of 2048 to 4096 rows. In a
    block of 2048 rows or more a float column, whether a float array or a
    column of float cells, is formatted by a vectorised %.17g; any other
    column, and any shorter block, prints cell by cell with the format of
    each cell's type. The bytes equal formatting each cell alone.
    Blocks stream into the temp file, so neither the lines nor the whole
    text is held; a bad row or cell in any block leaves `path` as it was."""
    _atomic_write(path, _csv_chunks(header, rows))
