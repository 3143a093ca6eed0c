"""Functional operations on ds-arrays beyond the Array methods:
stacking and persistence."""

from __future__ import annotations

import numpy as np

from repro.dsarray import blocking as bk
from repro.dsarray.array import Array


def vstack(arrays: list[Array]) -> Array:
    """Stack ds-arrays vertically (same column count and block size).

    Block grids are concatenated row-wise; when an array's trailing
    stripe is ragged (smaller than the block size), it is merged with
    the next array's rows through re-blocking tasks.
    """
    if not arrays:
        raise ValueError("nothing to stack")
    first = arrays[0]
    for a in arrays[1:]:
        if a.shape[1] != first.shape[1]:
            raise ValueError("column counts differ")
        if a.block_size != first.block_size:
            raise ValueError("block sizes differ")
    total_rows = sum(a.shape[0] for a in arrays)
    bs = first.block_size
    ragged = any(a.shape[0] % bs[0] != 0 for a in arrays[:-1])
    if not ragged:
        grid = [row for a in arrays for row in a.blocks]
        return Array(grid, shape=(total_rows, first.shape[1]), block_size=bs)
    # general path: gather stripes and re-block
    stripes = [s for a in arrays for s in a.stripe_futures()]
    merged = bk.vstack_blocks(stripes)
    col_ranges = bk.grid(first.shape[1], bs[1])
    row_ranges = bk.grid(total_rows, bs[0])
    grid = [
        [bk.slice_block(merged, r0, r1, c0, c1) for c0, c1 in col_ranges]
        for r0, r1 in row_ranges
    ]
    return Array(grid, shape=(total_rows, first.shape[1]), block_size=bs)


def save_npz(a: Array, path) -> None:
    """Persist a ds-array (materialised) with its blocking metadata."""
    np.savez_compressed(
        path,
        data=a.collect(),
        block_rows=np.array([a.block_size[0]]),
        block_cols=np.array([a.block_size[1]]),
    )


def load_npz(path) -> Array:
    """Load a ds-array written by :func:`save_npz`, re-partitioning it
    with its original block size (one load task per block)."""
    from repro.dsarray.creation import array as make_array

    blob = np.load(path, allow_pickle=False)
    return make_array(
        blob["data"],
        block_size=(int(blob["block_rows"][0]), int(blob["block_cols"][0])),
    )
