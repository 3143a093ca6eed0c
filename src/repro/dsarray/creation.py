"""Constructors for ds-arrays.

Partitioning in-memory data spawns one load task per block — this is
what produces the "631 tasks managed by PyCOMPSs" the paper reports for
the 500x500 blocking of the preprocessed PhysioNet matrix.
"""

from __future__ import annotations

import numpy as np

from repro.dsarray import blocking as bk
from repro.dsarray.array import Array, _submit_rows


def array(data: np.ndarray, block_size: tuple[int, int]) -> Array:
    """Partition an in-memory 2-D array into a ds-array."""
    data = np.asarray(data)
    if data.ndim == 1:
        data = data.reshape(-1, 1)
    if data.ndim != 2:
        raise ValueError(f"ds-array is 2-D, got ndim={data.ndim}")
    rows = bk.grid(data.shape[0], block_size[0])
    cols = bk.grid(data.shape[1], block_size[1])
    grid = _submit_rows(
        [
            [(bk.slice_block, (data, r0, r1, c0, c1)) for c0, c1 in cols]
            for r0, r1 in rows
        ]
    )
    return Array(grid, shape=data.shape, block_size=block_size)


def full(shape: tuple[int, int], block_size: tuple[int, int], value: float) -> Array:
    rows = bk.grid(shape[0], block_size[0])
    cols = bk.grid(shape[1], block_size[1])
    grid = _submit_rows(
        [
            [(bk.full_block, (r1 - r0, c1 - c0, value)) for c0, c1 in cols]
            for r0, r1 in rows
        ]
    )
    return Array(grid, shape=shape, block_size=block_size)


def zeros(shape: tuple[int, int], block_size: tuple[int, int]) -> Array:
    return full(shape, block_size, 0.0)


def ones(shape: tuple[int, int], block_size: tuple[int, int]) -> Array:
    return full(shape, block_size, 1.0)
