"""ds-array functional ops: stacking, norms, persistence."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dsarray as ds
from repro.dsarray.ops import load_npz, save_npz, vstack
from repro.runtime import Runtime


def test_vstack_aligned(rng):
    x = rng.standard_normal((8, 6))
    y = rng.standard_normal((12, 6))
    a = ds.array(x, (4, 3))
    b = ds.array(y, (4, 3))
    out = vstack([a, b])
    assert out.shape == (20, 6)
    np.testing.assert_allclose(out.collect(), np.vstack([x, y]))


def test_vstack_ragged(rng):
    x = rng.standard_normal((7, 6))  # ragged trailing stripe
    y = rng.standard_normal((9, 6))
    out = vstack([ds.array(x, (4, 3)), ds.array(y, (4, 3))])
    assert out.shape == (16, 6)
    np.testing.assert_allclose(out.collect(), np.vstack([x, y]))
    # blocks are regular after the re-blocking path
    assert out.n_blocks == (4, 2)


def test_vstack_under_threads(rng):
    x = rng.standard_normal((7, 4))
    y = rng.standard_normal((6, 4))
    with Runtime(executor="threads", max_workers=4):
        out = vstack([ds.array(x, (3, 2)), ds.array(y, (3, 2))]).collect()
    np.testing.assert_allclose(out, np.vstack([x, y]))


def test_vstack_validation(rng):
    a = ds.array(rng.standard_normal((4, 4)), (2, 2))
    b = ds.array(rng.standard_normal((4, 5)), (2, 2))
    with pytest.raises(ValueError):
        vstack([a, b])
    c = ds.array(rng.standard_normal((4, 4)), (2, 4))
    with pytest.raises(ValueError):
        vstack([a, c])
    with pytest.raises(ValueError):
        vstack([])


def test_npz_roundtrip(rng, tmp_path):
    x = rng.standard_normal((10, 6))
    a = ds.array(x, (4, 3))
    path = tmp_path / "arr.npz"
    save_npz(a, path)
    back = load_npz(path)
    assert back.shape == a.shape
    assert back.block_size == a.block_size
    np.testing.assert_allclose(back.collect(), x)


def test_lazy_module_attr():
    assert callable(ds.vstack)
    with pytest.raises(AttributeError):
        ds.does_not_exist
