"""The seeded draws are pinned to a per-grid ``Generator.permutation`` loop.

Every seeded sample in the repository descends from these draws, so the
batched implementation must give the same values, in the same dtype and
shape, and leave the generator at the same stream position as drawing one
grid at a time.  The C draw is also checked against the NumPy path it
falls back to, ``Generator.permuted``, for every NumPy bit generator.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import randomness
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


# ---------------------------------------------------------------------------
# The C draw against NumPy's shuffles.
# ---------------------------------------------------------------------------

C_DRAW = randomness._shuffler(np.dtype(np.int64), 2) is not None
needs_c = pytest.mark.skipif(
    not C_DRAW, reason="the C draw is unavailable: no working C compiler"
)
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
# 1 and 2 cells, and meshes either side of the 64- and 256-value masks.
EDGE_SHAPES = [(1, 1), (1, 2), (7, 9), (8, 8), (5, 13), (15, 17), (16, 16), (1, 257)]


def _same_generators(bit_generator, seed, buffered, count=3):
    """``count`` generators in one state.  ``buffered`` first draws one
    32-bit word, so a 64-bit bit generator holds the other half."""
    gens = [np.random.Generator(bit_generator(seed)) for _ in range(count)]
    if buffered:
        for gen in gens:
            raw = gen.bit_generator.ctypes
            raw.next_uint32(raw.state)
    return gens


def _three_draws(monkeypatch, gens, kind, shape, batch, dtype):
    """The C draw, the ``Generator.permuted`` path and the per-grid loop,
    one generator each."""
    zeros = None if kind == "permutation" else mesh_zero_count(shape[0] * shape[1])
    draw = random_permutation_mesh if kind == "permutation" else random_zero_one_mesh
    kwargs = {} if zeros is None else {"zeros": zeros}
    c_draw = draw(shape, batch=batch, rng=gens[0], dtype=dtype, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(randomness, "_shuffler", lambda dtype, n_cells: None)
        numpy_draw = draw(shape, batch=batch, rng=gens[1], dtype=dtype, **kwargs)
    return c_draw, numpy_draw, _loop_draw(gens[2], shape, batch, dtype, zeros)


def _assert_same_stream(gens):
    # MT19937 keeps its key as an array: compare the states as JSON.
    states = [
        json.dumps(gen.bit_generator.state, default=np.ndarray.tolist) for gen in gens
    ]
    assert states[1] == states[0] and states[2] == states[0]
    nexts = [(gen.integers(2**62), gen.permutation(10).tolist()) for gen in gens]
    assert nexts[1] == nexts[0] and nexts[2] == nexts[0]


@needs_c
@pytest.mark.parametrize("kind", ["permutation", "zero_one"])
@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_c_draw_matches_numpy_shuffles(monkeypatch, bit_generator, buffered, shape, kind):
    gens = _same_generators(bit_generator, 1000 * shape[0] + shape[1], buffered)
    if buffered and bit_generator is not np.random.MT19937:
        assert gens[0].bit_generator.state["has_uint32"] == 1
    dtype = np.int64 if kind == "permutation" else np.int8
    c_draw, numpy_draw, loop_draw = _three_draws(monkeypatch, gens, kind, shape, 6, dtype)
    assert c_draw.tobytes() == numpy_draw.tobytes() == loop_draw.tobytes()
    _assert_same_stream(gens)


@needs_c
@pytest.mark.parametrize("kind", ["permutation", "zero_one"])
@pytest.mark.parametrize(
    "dtype", [np.int8, np.uint8, np.int16, np.int32, np.int64, np.float16, np.float64]
)
def test_c_draw_matches_numpy_shuffles_in_every_dtype(monkeypatch, dtype, kind):
    shape = (1, 100) if kind == "permutation" else (9, 9)
    gens = _same_generators(np.random.PCG64, 5, buffered=True)
    c_draw, numpy_draw, loop_draw = _three_draws(monkeypatch, gens, kind, shape, 7, dtype)
    assert c_draw.dtype == numpy_draw.dtype == loop_draw.dtype == dtype
    assert c_draw.tobytes() == numpy_draw.tobytes() == loop_draw.tobytes()
    _assert_same_stream(gens)


@needs_c
@pytest.mark.parametrize("kind", ["permutation", "zero_one"])
@pytest.mark.parametrize(
    "shape, batch",
    # Batch 0, and batches spilling past one chunk of the NumPy path: many
    # grids per chunk, a grid count not dividing into chunks, and grids
    # larger than a chunk.
    [((8, 8), 0), ((16, 16), 100), ((1, 257), 70), ((130, 130), 2)],
)
def test_c_draw_matches_numpy_shuffles_across_chunks(monkeypatch, shape, batch, kind):
    assert batch == 0 or batch * shape[0] * shape[1] > randomness._CHUNK_CELLS
    gens = _same_generators(np.random.PCG64, 11, buffered=False)
    c_draw, numpy_draw, loop_draw = _three_draws(
        monkeypatch, gens, kind, shape, batch, np.int64 if kind == "permutation" else np.int8
    )
    assert c_draw.shape == (batch, *shape)
    assert c_draw.tobytes() == numpy_draw.tobytes() == loop_draw.tobytes()
    _assert_same_stream(gens)


@needs_c
def test_meshes_past_the_32_bit_bound_shuffle_in_numpy(monkeypatch):
    """NumPy draws 64-bit words for a swap bound of 2**32 or more, which the
    C kernel does not: such meshes take the NumPy path.  Shown with the
    limit lowered to 64 cells."""
    monkeypatch.setattr(randomness, "_C_MAX_CELLS", 64)
    assert randomness._shuffler(np.dtype(np.int64), 64) is not None
    assert randomness._shuffler(np.dtype(np.int64), 65) is None
    for shape in [(8, 8), (5, 13)]:
        gens = _same_generators(np.random.PCG64, 3, buffered=True)
        c_draw, numpy_draw, loop_draw = _three_draws(
            monkeypatch, gens, "permutation", shape, 4, np.int64
        )
        assert c_draw.tobytes() == numpy_draw.tobytes() == loop_draw.tobytes()
        _assert_same_stream(gens)


def test_draws_of_items_c_does_not_swap_take_the_numpy_path():
    assert randomness._shuffler(np.dtype(object), 16) is None
    assert randomness._shuffler(np.dtype(np.complex128), 16) is None
    grid = random_permutation_mesh((3, 4), rng=2, dtype=np.complex128)
    expected = np.random.default_rng(2).permutation(np.arange(12, dtype=np.complex128))
    assert grid.ravel().tobytes() == expected.tobytes()


DIGEST_CHILD = """
import hashlib, json, sys
from repro import _clib
import repro.randomness as randomness
loaded_at_import = _clib._library is not None
digest = hashlib.blake2b(digest_size=8)
for batch in (None, 3, 40):
    for shape in ((1, 12), (7, 7), (16, 16)):
        digest.update(randomness.random_zero_one_mesh(shape, batch=batch, rng=7).tobytes())
        digest.update(randomness.random_permutation_mesh(shape, batch=batch, rng=7).tobytes())
print(json.dumps({
    "digest": digest.hexdigest(),
    "loaded_at_import": loaded_at_import,
    "c_draw": randomness._shuffler(randomness.np.dtype("int64"), 2) is not None,
}))
"""


def _run_digest_child(env):
    src = str(Path(randomness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", DIGEST_CHILD], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@needs_c
def test_without_a_compiler_the_draws_are_unchanged(tmp_path):
    """A process whose ``$CC`` does not run shuffles in NumPy, to the
    byte, and builds nothing; no process loads the library at import."""
    digest = hashlib.blake2b(digest_size=8)
    for batch in (None, 3, 40):
        for shape in ((1, 12), (7, 7), (16, 16)):
            digest.update(random_zero_one_mesh(shape, batch=batch, rng=7).tobytes())
            digest.update(random_permutation_mesh(shape, batch=batch, rng=7).tobytes())
    with_c = _run_digest_child(dict(os.environ))
    without_c = _run_digest_child(
        dict(os.environ, CC="/nonexistent/cc", XDG_CACHE_HOME=str(tmp_path))
    )
    assert with_c == {"digest": digest.hexdigest(), "loaded_at_import": False, "c_draw": True}
    assert without_c == {"digest": digest.hexdigest(), "loaded_at_import": False, "c_draw": False}
    assert not list(tmp_path.iterdir()), "nothing was built"
