"""The seeded draws are pinned to a per-grid ``Generator.permutation`` loop.

Every seeded sample in the repository descends from these draws, so the
batched implementation must give the same values, in the same dtype and
shape, and leave the generator at the same stream position as drawing one
grid at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.randomness import (
    mesh_zero_count,
    random_permutation_grid,
    random_permutation_mesh,
    random_zero_one_grid,
    random_zero_one_mesh,
)

SHAPES = [(6, 6), (3, 5), (1, 12)]
DTYPES = [np.int8, np.int16, np.int64, np.float64]
BATCHES = [None, 0, 5, (2, 3), ()]


def _loop_draw(gen, shape, batch, dtype, zeros=None):
    """One ``gen.permutation(base)`` per grid: the definition of the stream."""
    rows, cols = shape
    n_cells = rows * cols
    if zeros is None:
        base = np.arange(n_cells, dtype=dtype)
    else:
        base = np.concatenate(
            [np.zeros(zeros, dtype=dtype), np.ones(n_cells - zeros, dtype=dtype)]
        )
    bshape = () if batch is None else ((batch,) if isinstance(batch, int) else batch)
    grids = [gen.permutation(base) for _ in range(int(np.prod(bshape)))]
    return np.array(grids, dtype=dtype).reshape(*bshape, rows, cols)


@pytest.mark.parametrize("kind", ["permutation", "zero_one"])
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", SHAPES)
def test_draw_matches_per_grid_loop(kind, shape, dtype, batch):
    seed = 1000 * shape[0] + shape[1]
    gen, ref_gen = np.random.default_rng(seed), np.random.default_rng(seed)
    if kind == "permutation":
        drawn = random_permutation_mesh(shape, batch=batch, rng=gen, dtype=dtype)
        expected = _loop_draw(ref_gen, shape, batch, dtype)
    else:
        drawn = random_zero_one_mesh(shape, batch=batch, rng=gen, dtype=dtype)
        zeros = mesh_zero_count(shape[0] * shape[1])
        expected = _loop_draw(ref_gen, shape, batch, dtype, zeros)
    assert drawn.dtype == expected.dtype
    assert drawn.shape == expected.shape
    assert drawn.tobytes() == expected.tobytes()
    # Same stream position afterwards: the next draw agrees too.
    assert gen.integers(2**62) == ref_gen.integers(2**62)


@pytest.mark.parametrize("shape, batch", [((16, 16), 200), ((150, 150), 3)])
def test_chunked_draw_matches_per_grid_loop(shape, batch):
    # Both spill past one chunk of ranks: many grids per chunk, and grids
    # larger than a chunk (one grid per chunk).
    gen, ref_gen = np.random.default_rng(7), np.random.default_rng(7)
    zeros = mesh_zero_count(shape[0] * shape[1])
    drawn = random_zero_one_mesh(shape, batch=batch, rng=gen)
    expected = _loop_draw(ref_gen, shape, batch, np.int8, zeros)
    assert drawn.tobytes() == expected.tobytes()
    drawn = random_permutation_mesh(shape, batch=batch, rng=gen, dtype=np.int32)
    expected = _loop_draw(ref_gen, shape, batch, np.int32)
    assert drawn.tobytes() == expected.tobytes()
    assert gen.integers(2**62) == ref_gen.integers(2**62)


def test_grid_wrappers_match_mesh_draws():
    np.testing.assert_array_equal(
        random_permutation_grid(5, batch=4, rng=3),
        random_permutation_mesh((5, 5), batch=4, rng=3),
    )
    np.testing.assert_array_equal(
        random_zero_one_grid(5, zeros=7, batch=4, rng=3),
        random_zero_one_mesh((5, 5), zeros=7, batch=4, rng=3),
    )


class TestNarrowDtypes:
    @pytest.mark.parametrize(
        "shape, dtype",
        [((17, 17), np.uint8), ((1, 257), np.uint8), ((64, 64), np.float16)],
    )
    def test_overflowing_dtype_is_rejected(self, shape, dtype):
        with pytest.raises(DimensionError, match="cannot hold"):
            random_permutation_mesh(shape, batch=2, dtype=dtype)

    def test_overflowing_dtype_is_rejected_by_grid_draw(self):
        with pytest.raises(DimensionError, match="cannot hold"):
            random_permutation_grid(16, dtype=np.int8)

    @pytest.mark.parametrize(
        "shape, dtype",
        [((1, 128), np.int8), ((16, 16), np.uint8), ((32, 64), np.float16)],
    )
    def test_widest_mesh_a_dtype_holds(self, shape, dtype):
        grid = random_permutation_mesh(shape, rng=0, dtype=dtype)
        assert grid.dtype == dtype
        n_cells = shape[0] * shape[1]
        assert sorted(grid.ravel().tolist()) == list(range(n_cells))

    def test_zero_one_draws_fit_any_dtype(self):
        grid = random_zero_one_mesh((17, 17), rng=0, dtype=np.int8)
        assert int((grid == 0).sum()) == mesh_zero_count(289)


@pytest.mark.parametrize("draw", [random_permutation_mesh, random_zero_one_mesh])
@pytest.mark.parametrize("batch", [-1, (2, -3)])
def test_negative_batch_is_rejected(draw, batch):
    with pytest.raises(DimensionError, match="batch"):
        draw((4, 4), batch=batch, rng=0)
