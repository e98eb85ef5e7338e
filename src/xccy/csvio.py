"""Columnar CSV output.

Every CSV the engine writes (scenario paths, replayed wealth, the BSDE value
surface) is a grid of values indexed by path and time, with the path id and
the time repeated on every row; :func:`write_grid` writes each of them.
:func:`write_rows` renders each entry of a column once per block of rows,
however often broadcasting repeats it (a 2-D column whose rows all repeat
one, as the BSDE surface of a domestic trade, renders that row alone), and
writes the rows in blocks of bounded size.
"""

from __future__ import annotations

import numpy as np

ROWS_PER_WRITE = 1 << 16  # bounds the rendered text held at once


def _cells(column: np.ndarray, shape: tuple[int, int]) -> list[str]:
    """``str`` of each entry, broadcast to ``shape`` and flattened row-major."""
    text = np.array([str(x) for x in column.ravel().tolist()], dtype=object).reshape(column.shape)
    return np.broadcast_to(text, shape).ravel().tolist()


def write_rows(fh, *columns) -> None:
    """Write one CSV row per element of the columns broadcast to 2-D, row-major.

    A cell is ``str`` of its value as a Python scalar; for a float that is its
    ``repr``, so every double round-trips. A column is a scalar, a 1-D array
    (one entry per column of the grid, e.g. the times) or a 2-D array (e.g.
    ``path_ids[:, None]`` or the values themselves); a 2-D column whose first
    stride is 0 is rendered as its first row, as a 1-D column is.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows, width = np.broadcast_shapes(*(c.shape for c in columns))
    # a zero first stride repeats one row on every row: render that row, then broadcast it
    columns = [c[:1] if c.ndim == 2 and c.strides[0] == 0 else c for c in columns]
    step = max(1, ROWS_PER_WRITE // width)
    for a in range(0, n_rows, step):
        shape = (min(step, n_rows - a), width)
        block = [c[a : a + step] if c.ndim == 2 and c.shape[0] > 1 else c for c in columns]
        fh.writelines(",".join(row) + "\n" for row in zip(*(_cells(c, shape) for c in block)))


def write_grid(path, names, times, blocks) -> None:
    """Write the CSV file ``path`` with header ``path_id,time,*names``, then each block's rows.

    A block holds one column per name, each a scalar or an (n_paths, n_times)
    array, and gets one row per path and time of ``times``, path-major, led by
    the path id 0 .. n_paths - 1 and the time (:func:`write_rows`).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["path_id", "time", *names]) + "\n")
        for columns in blocks:
            n_paths = np.broadcast_shapes(*(np.shape(c) for c in columns))[0]
            write_rows(fh, np.arange(n_paths)[:, None], times, *columns)
