"""Block-distributed 2-D array — the dislib ``ds-array`` analog.

An :class:`Array` is a grid of blocks; each block is either a concrete
``numpy.ndarray`` or a runtime future produced by a task.  All
operations are expressed as tasks on blocks, so using an :class:`Array`
inside a :class:`repro.runtime.Runtime` automatically yields a parallel
workflow whose graph matches the dislib executions shown in the paper.
Without a runtime, the same code runs eagerly on plain arrays.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.dsarray import blocking as bk
from repro.runtime import wait_on
from repro.runtime.active import active_runtime


def _submit_rows(call_rows: list[list[tuple]]) -> list[list[Any]]:
    """Run a row-major grid of ``(task, args)`` calls.

    Inside a runtime the whole grid is deferred and submitted as one
    ``submit_many`` batch: the submit-path locking is paid once per
    array operation instead of once per block, and the ready blocks
    enter the scheduler with one grouped wakeup.  Without a runtime
    each call runs eagerly on plain arrays, exactly like calling the
    task directly.
    """
    rt = active_runtime()
    if rt is None:
        return [[fn(*args) for fn, args in row] for row in call_rows]
    futures = rt.submit_many(
        [fn.defer(*args) for row in call_rows for fn, args in row]
    )
    it = iter(futures)
    return [[next(it) for _ in row] for row in call_rows]


class Array:
    """A dense 2-D array partitioned in regular blocks.

    Parameters
    ----------
    blocks:
        Row-major grid (list of rows of blocks); entries are ndarrays
        or futures resolving to ndarrays.
    shape:
        Global (rows, cols).
    block_size:
        Regular block shape; trailing blocks may be smaller.
    """

    def __init__(
        self,
        blocks: list[list[Any]],
        shape: tuple[int, int],
        block_size: tuple[int, int],
    ):
        if shape[0] < 0 or shape[1] < 0:
            raise ValueError("negative shape")
        if block_size[0] < 1 or block_size[1] < 1:
            raise ValueError("block_size must be positive")
        expected = (bk.n_blocks(shape[0], block_size[0]), bk.n_blocks(shape[1], block_size[1]))
        got = (len(blocks), len(blocks[0]) if blocks else 0)
        if shape[0] > 0 and got != expected:
            raise ValueError(f"block grid {got} does not match shape {shape} / {block_size}")
        self._blocks = blocks
        self._shape = shape
        self._block_size = block_size

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def block_size(self) -> tuple[int, int]:
        return self._block_size

    @property
    def n_blocks(self) -> tuple[int, int]:
        return (len(self._blocks), len(self._blocks[0]) if self._blocks else 0)

    @property
    def blocks(self) -> list[list[Any]]:
        return self._blocks

    def row_ranges(self) -> list[tuple[int, int]]:
        return bk.grid(self._shape[0], self._block_size[0])

    def col_ranges(self) -> list[tuple[int, int]]:
        return bk.grid(self._shape[1], self._block_size[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ds-array(shape={self._shape}, block_size={self._block_size}, "
            f"n_blocks={self.n_blocks})"
        )

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def collect(self) -> np.ndarray:
        """Synchronise every block and assemble the full ndarray."""
        rows = []
        for row in self._blocks:
            concrete = [np.asarray(b) for b in wait_on(list(row))]
            rows.append(np.hstack(concrete) if len(concrete) > 1 else concrete[0])
        if not rows:
            return np.empty(self._shape)
        return np.vstack(rows) if len(rows) > 1 else rows[0]

    def persist(self) -> "Array":
        """Materialise every block into the runtime's shared-memory
        object store, in place.

        Pending futures are synchronised first; blocks become
        :class:`~repro.runtime.store.ObjectRef` handles that downstream
        tasks on the process backend consume zero-copy (results that
        already live in the store keep their existing ref — no copy).
        A no-op outside a runtime.  Returns ``self`` for chaining."""
        from repro.runtime import is_future, is_ref
        from repro.runtime.future import resolve_futures

        rt = active_runtime()
        if rt is None:
            return self
        for row in self._blocks:
            for j, block in enumerate(row):
                if is_future(block):
                    rt.wait_on(block)  # ensure the producer finished
                    block = resolve_futures(block)
                if is_ref(block):
                    row[j] = block
                elif isinstance(block, np.ndarray):
                    row[j] = rt.put(block)
        return self

    # ------------------------------------------------------------------
    # stripe access (what the ML estimators consume)
    # ------------------------------------------------------------------
    def iter_row_stripes(self) -> Iterator[list[Any]]:
        """Yield each horizontal stripe as its list of blocks."""
        for row in self._blocks:
            yield list(row)

    def stripe_futures(self) -> list[Any]:
        """One future (or array) per stripe holding the merged stripe."""
        return [bk.hstack_blocks(list(row)) for row in self._blocks]

    def stripe_offsets(self) -> list[int]:
        return [r0 for r0, _ in self.row_ranges()]

    # ------------------------------------------------------------------
    # structural ops
    # ------------------------------------------------------------------
    @property
    def T(self) -> "Array":
        return self.transpose()

    def transpose(self) -> "Array":
        grid = [
            [bk.transpose_block(self._blocks[i][j]) for i in range(self.n_blocks[0])]
            for j in range(self.n_blocks[1])
        ]
        return Array(
            grid,
            shape=(self._shape[1], self._shape[0]),
            block_size=(self._block_size[1], self._block_size[0]),
        )

    def map_blocks(self, func: Callable[[np.ndarray], np.ndarray]) -> "Array":
        """Apply a shape-preserving function to every block (one task
        each, submitted as a single batch)."""
        grid = _submit_rows(
            [[(bk.apply_block, (func, b)) for b in row] for row in self._blocks]
        )
        return Array(grid, self._shape, self._block_size)

    def __matmul__(self, other: "Array") -> "Array":
        """Block matrix multiply: one task per (i, k, j) product plus a
        reduction task per output block."""
        if not isinstance(other, Array):
            return NotImplemented  # type: ignore[return-value]
        if self._shape[1] != other._shape[0]:
            raise ValueError(f"matmul shape mismatch: {self._shape} @ {other._shape}")
        if self._block_size[1] != other._block_size[0]:
            raise ValueError("inner block sizes must match for matmul")
        nbi, nbk = self.n_blocks
        nbj = other.n_blocks[1]
        # One batch for every (i, k, j) product, then a second batch
        # for the per-output-block reductions (a reduction consumes
        # futures of the first batch, so it cannot join it).
        partials = _submit_rows(
            [
                [
                    (bk.matmul_pair, (self._blocks[i][k], other._blocks[k][j]))
                    for k in range(nbk)
                ]
                for i in range(nbi)
                for j in range(nbj)
            ]
        )
        if nbk == 1:
            flat = [p[0] for p in partials]
        else:
            reduced = _submit_rows([[(bk.add_reduce, (p,))] for p in partials])
            flat = [row[0] for row in reduced]
        grid = [[flat[i * nbj + j] for j in range(nbj)] for i in range(nbi)]
        return Array(
            grid,
            shape=(self._shape[0], other._shape[1]),
            block_size=(self._block_size[0], other._block_size[1]),
        )

    # ------------------------------------------------------------------
    # row selection / slicing
    # ------------------------------------------------------------------
    def take_rows(self, indices: Sequence[int], block_size: tuple[int, int] | None = None) -> "Array":
        """Gather arbitrary rows into a new ds-array (K-fold splits)."""
        indices = np.asarray(indices, dtype=int)
        if indices.size and (indices.min() < 0 or indices.max() >= self._shape[0]):
            raise IndexError("row index out of range")
        bs = block_size or self._block_size
        stripes = self.stripe_futures()
        offsets = self.stripe_offsets()
        out_rows = []
        for r0, r1 in bk.grid(len(indices), bs[0]):
            stripe = bk.take_rows_from_stripes(stripes, offsets, indices[r0:r1])
            out_rows.append(stripe)
        # re-split columns of each produced stripe
        grid_out: list[list[Any]] = []
        col_ranges = bk.grid(self._shape[1], bs[1])
        for stripe in out_rows:
            grid_out.append(
                [bk.slice_block(stripe, 0, 10**9, c0, c1) for c0, c1 in col_ranges]
            )
        return Array(grid_out, shape=(len(indices), self._shape[1]), block_size=bs)

    def __getitem__(self, key) -> "Array":
        if isinstance(key, int):
            key = slice(key, key + 1)
        if isinstance(key, slice):
            rows = range(*key.indices(self._shape[0]))
            return self.take_rows(list(rows))
        if isinstance(key, tuple) and len(key) == 2:
            rkey, ckey = key
            sub = self if rkey == slice(None) else self[rkey]
            if ckey == slice(None):
                return sub
            if not isinstance(ckey, slice):
                raise TypeError("column index must be a slice")
            c0, c1, step = ckey.indices(sub.shape[1])
            if step != 1:
                raise ValueError("column slicing with step != 1 not supported")
            stripes = sub.stripe_futures()
            bs = sub.block_size
            col_ranges = bk.grid(c1 - c0, bs[1])
            grid_out = [
                [
                    bk.slice_block(stripe, 0, 10**9, c0 + a, c0 + b)
                    for a, b in col_ranges
                ]
                for stripe in stripes
            ]
            return Array(grid_out, shape=(sub.shape[0], c1 - c0), block_size=bs)
        raise TypeError(f"unsupported index {key!r}")
