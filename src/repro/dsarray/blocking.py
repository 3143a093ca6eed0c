"""Block-partitioning helpers: grid geometry and block tasks.

Every task body here is a whole-array numpy operation on its blocks;
none loops over rows or elements in Python.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import task


def grid(dim: int, block: int) -> list[tuple[int, int]]:
    """(start, stop) ranges covering ``range(dim)`` in chunks of *block*."""
    if block < 1:
        raise ValueError("block size must be >= 1")
    return [(i, min(i + block, dim)) for i in range(0, dim, block)]


def n_blocks(dim: int, block: int) -> int:
    return (dim + block - 1) // block


@task(returns=1)
def slice_block(data: np.ndarray, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Cut one block out of a full array (used when partitioning
    in-memory data — the load tasks of the paper's workflows)."""
    return np.ascontiguousarray(data[r0:r1, c0:c1])


@task(returns=1)
def full_block(shape_r: int, shape_c: int, value: float) -> np.ndarray:
    return np.full((shape_r, shape_c), value)


@task(returns=1)
def hstack_blocks(blocks: list) -> np.ndarray:
    """Merge one row-stripe's blocks into a single 2-D array."""
    return np.hstack(blocks) if len(blocks) > 1 else np.asarray(blocks[0])


@task(returns=1)
def vstack_blocks(blocks: list) -> np.ndarray:
    return np.vstack(blocks) if len(blocks) > 1 else np.asarray(blocks[0])


@task(returns=1)
def transpose_block(block: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(block.T)


@task(returns=1)
def matmul_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


@task(returns=1)
def add_reduce(blocks: list) -> np.ndarray:
    out = np.array(blocks[0], copy=True)
    for b in blocks[1:]:
        out += b
    return out


@task(returns=1)
def apply_block(func, block: np.ndarray) -> np.ndarray:
    return func(block)


@task(returns=1)
def take_rows_from_stripes(stripes: list, offsets: list, indices: np.ndarray) -> np.ndarray:
    """Select global *indices* rows out of vertically-stacked stripes.

    ``stripes`` are the per-stripe merged arrays, ``offsets`` their
    starting global row.  Used by row fancy-indexing and K-fold splits.
    One gather: the indices are located in all stripes at once and each
    stripe they touch is copied from with a single fancy index.
    """
    idx = np.asarray(indices, dtype=np.intp)
    which = np.searchsorted(offsets, idx, side="right") - 1
    dtype = np.result_type(*{s.dtype for s in stripes})
    out = np.empty((len(idx), *stripes[0].shape[1:]), dtype=dtype)
    for s in np.unique(which):
        hit = which == s
        out[hit] = stripes[s][idx[hit] - offsets[s]]
    return out
