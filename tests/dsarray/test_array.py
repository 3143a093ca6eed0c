"""ds-array semantics, with and without a runtime."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.runtime import Runtime


@pytest.fixture(params=["none", "sequential", "threads"])
def runtime_mode(request):
    """Every test runs eagerly, sequentially-tasked, and threaded."""
    if request.param == "none":
        yield None
    else:
        workers = 4 if request.param == "threads" else None
        with Runtime(executor=request.param, max_workers=workers) as rt:
            yield rt


def test_partition_and_collect(runtime_mode, rng):
    x = rng.standard_normal((53, 31))
    a = ds.array(x, block_size=(10, 8))
    assert a.shape == (53, 31)
    assert a.n_blocks == (6, 4)
    np.testing.assert_allclose(a.collect(), x)


def test_1d_input_becomes_column(runtime_mode):
    a = ds.array(np.arange(7.0), block_size=(3, 1))
    assert a.shape == (7, 1)
    np.testing.assert_allclose(a.collect().ravel(), np.arange(7.0))


def test_3d_input_rejected():
    with pytest.raises(ValueError):
        ds.array(np.zeros((2, 2, 2)), block_size=(1, 1))


def test_bad_block_size():
    with pytest.raises(ValueError):
        ds.array(np.zeros((4, 4)), block_size=(0, 2))


def test_block_grid_geometry():
    a = ds.zeros((10, 10), block_size=(4, 4))
    assert a.n_blocks == (3, 3)
    assert a.row_ranges() == [(0, 4), (4, 8), (8, 10)]


def test_exact_division_geometry():
    a = ds.zeros((8, 8), block_size=(4, 4))
    assert a.n_blocks == (2, 2)


def test_creation_task_count():
    """Partitioning creates one task per block (paper: 631 load tasks)."""
    with Runtime(executor="sequential") as rt:
        ds.array(np.zeros((100, 100)), block_size=(10, 10))
        assert rt.graph.count_by_name()["slice_block"] == 100


def test_zeros_ones_full(runtime_mode):
    z = ds.zeros((5, 5), (2, 2)).collect()
    o = ds.ones((5, 5), (2, 2)).collect()
    f = ds.full((5, 5), (2, 2), 3.5).collect()
    assert z.sum() == 0 and o.sum() == 25 and f[0, 0] == 3.5


def test_transpose(runtime_mode, rng):
    x = rng.standard_normal((13, 7))
    a = ds.array(x, (5, 3))
    np.testing.assert_allclose(a.T.collect(), x.T)
    assert a.T.shape == (7, 13)
    assert a.T.block_size == (3, 5)


def test_matmul(runtime_mode, rng):
    x = rng.standard_normal((12, 9))
    y = rng.standard_normal((9, 7))
    a = ds.array(x, (5, 4))
    b = ds.array(y, (4, 3))
    c = a @ b
    assert c.shape == (12, 7)
    np.testing.assert_allclose(c.collect(), x @ y, rtol=1e-10)


def test_matmul_single_inner_block(runtime_mode, rng):
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((4, 5))
    c = ds.array(x, (3, 4)) @ ds.array(y, (4, 2))
    np.testing.assert_allclose(c.collect(), x @ y, rtol=1e-10)


def test_matmul_mismatch():
    a = ds.zeros((4, 4), (2, 2))
    b = ds.zeros((5, 4), (2, 2))
    with pytest.raises(ValueError):
        a @ b
    c = ds.zeros((4, 4), (3, 2))
    with pytest.raises(ValueError):
        a @ c


def test_map_blocks(runtime_mode, rng):
    x = rng.standard_normal((10, 10))
    a = ds.array(x, (3, 3))
    np.testing.assert_allclose(a.map_blocks(np.abs).collect(), np.abs(x))


def test_take_rows(runtime_mode, rng):
    x = rng.standard_normal((20, 6))
    a = ds.array(x, (7, 3))
    idx = [0, 5, 19, 3, 3]
    sub = a.take_rows(idx)
    assert sub.shape == (5, 6)
    np.testing.assert_allclose(sub.collect(), x[idx])


def test_take_rows_out_of_range():
    a = ds.zeros((5, 3), (2, 2))
    with pytest.raises(IndexError):
        a.take_rows([7])


def reference_take_rows_from_stripes(stripes, offsets, indices):
    """The gather as it was before it became whole-array: one
    ``searchsorted`` and one row view per index.  Kept as the oracle."""
    bounds = list(offsets) + [offsets[-1] + stripes[-1].shape[0]]
    parts = []
    for idx in np.asarray(indices):
        s = int(np.searchsorted(bounds, idx, side="right")) - 1
        parts.append(stripes[s][idx - offsets[s]])
    return np.array(parts)


@pytest.mark.parametrize("rows_per_stripe", [[5, 5, 5, 2], [4, 9, 1], [17]])
def test_take_rows_from_stripes_matches_reference(rows_per_stripe, rng):
    from repro.dsarray.blocking import take_rows_from_stripes

    n = sum(rows_per_stripe)
    x = rng.standard_normal((n, 3))
    offsets = [0, *np.cumsum(rows_per_stripe)[:-1].tolist()]
    stripes = [x[o : o + k] for o, k in zip(offsets, rows_per_stripe)]
    for indices in (
        np.arange(n),
        rng.permutation(n),
        rng.integers(0, n, 40),  # unsorted, repeated
        np.array([n - 1, 0, 0, n - 1]),
        np.array(offsets),  # every stripe's first row
    ):
        got = take_rows_from_stripes(stripes, offsets, indices)
        want = reference_take_rows_from_stripes(stripes, offsets, indices)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == x[indices].tobytes()


def test_take_rows_from_stripes_keeps_integer_dtype():
    from repro.dsarray.blocking import take_rows_from_stripes

    stripes = [np.arange(6).reshape(3, 2), np.arange(6, 10).reshape(2, 2)]
    got = take_rows_from_stripes(stripes, [0, 3], [4, 1])
    want = reference_take_rows_from_stripes(stripes, [0, 3], [4, 1])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_take_rows_from_stripes_empty_index_keeps_columns(rng):
    from repro.dsarray.blocking import take_rows_from_stripes

    x = rng.standard_normal((6, 4))
    got = take_rows_from_stripes([x[:3], x[3:]], [0, 3], np.array([], dtype=int))
    assert got.shape == (0, 4) and got.dtype == x.dtype
    # the per-row loop collapsed it to shape (0,)
    assert reference_take_rows_from_stripes([x[:3], x[3:]], [0, 3], []).shape == (0,)


def test_getitem_row_slice(runtime_mode, rng):
    x = rng.standard_normal((20, 6))
    a = ds.array(x, (7, 3))
    np.testing.assert_allclose(a[2:11].collect(), x[2:11])
    np.testing.assert_allclose(a[5].collect(), x[5:6])


def test_getitem_row_and_col(runtime_mode, rng):
    x = rng.standard_normal((20, 10))
    a = ds.array(x, (7, 4))
    np.testing.assert_allclose(a[2:11, 3:9].collect(), x[2:11, 3:9])
    np.testing.assert_allclose(a[:, 1:5].collect(), x[:, 1:5])


def test_getitem_errors():
    a = ds.zeros((5, 5), (2, 2))
    with pytest.raises(TypeError):
        a["bad"]
    with pytest.raises(TypeError):
        a[1:2, [1, 2]]
    with pytest.raises(ValueError):
        a[:, ::2]


def test_persist_moves_blocks_into_store(rng):
    from repro.runtime import RuntimeConfig, is_ref

    x = rng.standard_normal((12, 8))
    cfg = RuntimeConfig(executor="threads")
    with Runtime(config=cfg) as rt:
        a = ds.array(x, (5, 4)).persist()
        assert all(is_ref(b) for row in a.blocks for b in row)
        assert rt.store.stats()["n_objects"] == 6
        np.testing.assert_allclose(a.collect(), x)
        doubled = a.map_blocks(lambda b: b * 2)
        np.testing.assert_allclose(doubled.collect(), x * 2)


def test_persist_is_noop_outside_runtime(rng):
    x = rng.standard_normal((4, 4))
    a = ds.array(x, (2, 2)).persist()
    assert all(isinstance(b, np.ndarray) for row in a.blocks for b in row)
    np.testing.assert_allclose(a.collect(), x)


def test_stripe_access(runtime_mode, rng):
    x = rng.standard_normal((10, 6))
    a = ds.array(x, (4, 2))
    stripes = a.stripe_futures()
    from repro.runtime import wait_on

    merged = wait_on(stripes)
    assert [m.shape for m in merged] == [(4, 6), (4, 6), (2, 6)]
    np.testing.assert_allclose(np.vstack(merged), x)
    assert a.stripe_offsets() == [0, 4, 8]
