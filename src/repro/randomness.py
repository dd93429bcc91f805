"""Seeded random inputs for the experiments.

Everything the Monte-Carlo harness consumes comes from here: random
permutation grids (the paper's "random permutation of N numbers, all N!
permutations equally likely") and uniformly random 0-1 matrices with a fixed
number of zeroes (the matrices :math:`\\mathcal{A}^{01}` of the analysis).

All generators take either a :class:`numpy.random.Generator`, a seed, or a
:class:`numpy.random.SeedSequence`, so every experiment is reproducible from
a single recorded root seed, and independent trial streams are spawned with
``SeedSequence.spawn`` (never by incrementing seeds).

A batch of grids is drawn in one pass: every grid gets a shuffled
``arange(rows*cols)`` of ranks from one ``Generator.permuted`` call along
rows, and a 0-1 matrix is its ranks thresholded at the zero count.  Values
and stream position are exactly those of one ``Generator.permutation``
call per grid, the definition ``tests/test_randomness.py`` pins them to.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DimensionError

__all__ = [
    "as_generator",
    "spawn_generators",
    "as_seed_sequence",
    "seed_provenance",
    "shard_counts",
    "shard_seed_sequence",
    "random_permutation_grid",
    "random_zero_one_grid",
    "random_permutation_mesh",
    "random_zero_one_mesh",
    "paper_zero_count",
    "mesh_zero_count",
]

SeedLike = int | None | np.random.SeedSequence | np.random.Generator

# Cells per chunk of drawn ranks: bounds the intp scratch of one draw
# (128 KiB) whatever the batch size, so a draw's peak memory is about its
# output's.
_CHUNK_CELLS = 1 << 14


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` to a :class:`numpy.random.Generator`."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)

def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from one root seed."""
    if isinstance(seed, np.random.Generator):
        # Derive a fresh SeedSequence from the generator's own stream.
        seed = np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seed.spawn(count)]


def as_seed_sequence(seed: SeedLike | tuple[int, ...]) -> np.random.SeedSequence:
    """Coerce ``seed`` to a :class:`numpy.random.SeedSequence`.

    Accepts ints, tuples of ints (the experiments' ``(root, side, salt)``
    convention), ``None`` (fresh OS entropy), and ``SeedSequence`` itself.
    :class:`numpy.random.Generator` is rejected: a generator is a consumed
    stream, not a replayable seed, and the campaign layer needs seeds that
    can be re-derived identically on every worker.
    """
    if isinstance(seed, np.random.Generator):
        raise DimensionError(
            "a Generator cannot be used as a shardable seed; pass an int, "
            "a tuple of ints, or a SeedSequence"
        )
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def seed_provenance(seed: "SeedLike | tuple[int, ...] | list") -> object:
    """A JSON-serializable record of ``seed`` for manifests and result meta.

    Ints, int tuples/lists, and ``None`` pass through (tuples as lists, the
    JSON round-trip form).  A :class:`numpy.random.SeedSequence` is recorded
    as its defining ``{"entropy": ..., "spawn_key": [...]}`` pair — enough
    to reconstruct the exact stream — instead of being silently dropped.  A
    :class:`numpy.random.Generator` is a consumed stream with no replayable
    identity, so it is recorded as the explicit marker ``"<generator>"``
    rather than pretending the run had no seed at all.
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return None if seed is None else int(seed)
    if isinstance(seed, (tuple, list)):
        return [int(v) for v in seed]
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if entropy is not None and not isinstance(entropy, (int, np.integer)):
            entropy = [int(v) for v in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {
            "entropy": entropy,
            "spawn_key": [int(v) for v in seed.spawn_key],
        }
    if isinstance(seed, np.random.Generator):
        return "<generator>"
    return repr(seed)


def shard_counts(trials: int, shard_size: int) -> list[int]:
    """Trial counts per shard: full shards of ``shard_size`` plus a remainder.

    The plan depends only on ``(trials, shard_size)``, never on worker
    count, which is what makes campaign aggregates worker-count invariant.
    """
    if trials < 1:
        raise DimensionError(f"trials must be positive, got {trials}")
    if shard_size < 1:
        raise DimensionError(f"shard_size must be positive, got {shard_size}")
    full, rest = divmod(trials, shard_size)
    return [shard_size] * full + ([rest] if rest else [])


def shard_seed_sequence(
    seed: SeedLike | tuple[int, ...], index: int
) -> np.random.SeedSequence:
    """The ``index``-th child stream of ``SeedSequence(seed)``.

    Equal to ``as_seed_sequence(seed).spawn(n)[index]`` for any ``n >
    index`` (``SeedSequence.spawn`` keys children only by their spawn
    position), so any worker can re-derive its shard's stream from just
    ``(root seed, shard index)`` — no spawned state needs shipping.
    """
    if index < 0:
        raise DimensionError(f"shard index must be >= 0, got {index}")
    root = as_seed_sequence(seed)
    return np.random.SeedSequence(root.entropy, spawn_key=(*root.spawn_key, index))


def _check_mesh_shape(shape: tuple[int, int]) -> tuple[int, int]:
    try:
        rows, cols = (int(v) for v in shape)
    except (TypeError, ValueError):
        raise DimensionError(
            f"mesh shape must be a (rows, cols) pair, got {shape!r}"
        ) from None
    if rows < 1 or cols < 1:
        raise DimensionError(f"mesh dimensions must be positive, got {shape!r}")
    return rows, cols


def _batch_shape(batch: int | tuple[int, ...] | None) -> tuple[int, ...]:
    bshape = () if batch is None else ((batch,) if isinstance(batch, int) else tuple(batch))
    if any(n < 0 for n in bshape):
        raise DimensionError(f"batch sizes must be >= 0, got {batch!r}")
    return bshape


def _check_holds(dtype: np.dtype | type, top: int) -> None:
    """Reject a fixed-width ``dtype`` that cannot represent ``0 .. top``."""
    dtype = np.dtype(dtype)
    if dtype.kind in "iu":
        limit = int(np.iinfo(dtype).max)
    elif dtype.kind in "fc":
        limit = 2 ** (np.finfo(dtype).nmant + 1)  # largest exact integer run
    elif dtype.kind == "b":
        limit = 1
    else:
        return
    if top > limit:
        raise DimensionError(f"dtype {dtype} cannot hold the values 0 .. {top}")


def _draw(
    shape: tuple[int, int],
    batch: int | tuple[int, ...] | None,
    rng: SeedLike,
    dtype: np.dtype | type,
    zeros: int | None = None,
) -> np.ndarray:
    """The one draw path: a shuffled ``arange(rows*cols)`` of ranks per grid.

    A permutation draw (``zeros`` None) is the ranks cast to ``dtype``; a
    0-1 draw is ``ranks >= zeros``.  ``Generator.permuted`` along rows makes
    the same Fisher-Yates swaps as one ``Generator.permutation`` call per
    grid, and the swap positions do not depend on the values shuffled, so
    both kinds consume the stream exactly as that per-grid loop did.  Ranks
    are drawn in row chunks of at most ``_CHUNK_CELLS`` cells into one
    ``intp`` scratch buffer; the stream is row-sequential, so chunking
    changes no value.
    """
    bshape = _batch_shape(batch)
    rows, cols = shape
    n_cells = rows * cols
    total = math.prod(bshape)
    out = np.empty((total, n_cells), dtype=dtype)
    gen = as_generator(rng)
    chunk = max(1, _CHUNK_CELLS // n_cells)
    scratch = np.empty((min(chunk, total), n_cells), dtype=np.intp)
    for start in range(0, total, chunk):
        dest = out[start : start + chunk]
        ranks = scratch[: len(dest)]
        ranks[...] = np.arange(n_cells)
        gen.permuted(ranks, axis=1, out=ranks)
        if zeros is None:
            dest[...] = ranks
        else:
            np.greater_equal(ranks, zeros, out=dest)
    return out.reshape(*bshape, rows, cols)


def random_permutation_mesh(
    shape: tuple[int, int],
    *,
    batch: int | tuple[int, ...] | None = None,
    rng: SeedLike = None,
    dtype: np.dtype | type = np.int64,
) -> np.ndarray:
    """Uniformly random permutation(s) of ``0 .. rows*cols - 1`` on a mesh.

    Shape-general form of :func:`random_permutation_grid` — linear
    topologies draw ``(1, n)`` arrays from it.  Returns
    ``(rows, cols)`` when ``batch`` is None, else ``(*batch, rows, cols)``.
    Each grid consumes the stream like one ``Generator.permutation`` call,
    so square draws are byte-identical to :func:`random_permutation_grid`.
    Raises :class:`DimensionError` when ``dtype`` cannot hold
    ``rows*cols - 1``.
    """
    rows, cols = _check_mesh_shape(shape)
    _check_holds(dtype, rows * cols - 1)
    return _draw((rows, cols), batch, rng, dtype)


def random_permutation_grid(
    side: int,
    *,
    batch: int | tuple[int, ...] | None = None,
    rng: SeedLike = None,
    dtype: np.dtype | type = np.int64,
) -> np.ndarray:
    """Uniformly random permutation(s) of ``0 .. side*side - 1`` on a mesh.

    Returns shape ``(side, side)`` when ``batch`` is None, else
    ``(*batch, side, side)``.
    """
    if side < 1:
        raise DimensionError(f"side must be positive, got {side}")
    return random_permutation_mesh(
        (side, side), batch=batch, rng=rng, dtype=dtype
    )


def paper_zero_count(side: int) -> int:
    """Number of zeroes in the paper's threshold matrix :math:`\\mathcal{A}^{01}`.

    For even side ``2n`` the smallest ``2n^2`` entries become zeroes (half of
    the mesh); for odd side ``2n+1`` the appendix substitutes zeroes for the
    smallest ``2n^2 + 2n + 1 = (N+1)/2`` entries.
    """
    if side < 1:
        raise DimensionError(f"side must be positive, got {side}")
    n_cells = side * side
    return n_cells // 2 if side % 2 == 0 else (n_cells + 1) // 2


def mesh_zero_count(n_cells: int) -> int:
    """Zero count for a threshold matrix on any ``n_cells``-cell mesh.

    ``ceil(n_cells / 2)``: reduces to :func:`paper_zero_count` for square
    meshes of either parity (even side ``2n`` has an even cell count, odd
    side the appendix's ``(N+1)/2``), and gives linear arrays the matching
    half-zeroes convention.
    """
    if n_cells < 1:
        raise DimensionError(f"cell count must be positive, got {n_cells}")
    return (n_cells + 1) // 2


def random_zero_one_mesh(
    shape: tuple[int, int],
    *,
    zeros: int | None = None,
    batch: int | tuple[int, ...] | None = None,
    rng: SeedLike = None,
    dtype: np.dtype | type = np.int8,
) -> np.ndarray:
    """Uniformly random 0-1 meshes with exactly ``zeros`` zeroes.

    Shape-general form of :func:`random_zero_one_grid`; ``zeros`` defaults
    to :func:`mesh_zero_count`.
    """
    rows, cols = _check_mesh_shape(shape)
    n_cells = rows * cols
    if zeros is None:
        zeros = mesh_zero_count(n_cells)
    if not 0 <= zeros <= n_cells:
        raise DimensionError(f"zeros={zeros} out of range for {n_cells} cells")
    return _draw((rows, cols), batch, rng, dtype, zeros)


def random_zero_one_grid(
    side: int,
    *,
    zeros: int | None = None,
    batch: int | tuple[int, ...] | None = None,
    rng: SeedLike = None,
    dtype: np.dtype | type = np.int8,
) -> np.ndarray:
    """Uniformly random 0-1 matrices with exactly ``zeros`` zeroes.

    ``zeros`` defaults to :func:`paper_zero_count`, matching the distribution
    of :math:`\\mathcal{A}^{01}` for a uniformly random permutation.
    """
    if side < 1:
        raise DimensionError(f"side must be positive, got {side}")
    return random_zero_one_mesh(
        (side, side), zeros=zeros, batch=batch, rng=rng, dtype=dtype
    )
