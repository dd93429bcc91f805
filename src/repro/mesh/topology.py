"""Mesh-of-processors topology (the paper's machine model).

A ``rows x cols`` mesh where each processor has up to four neighbours —
the paper's ``sqrt(N) x sqrt(N)`` mesh, Section 1's ``1 x N`` linear
array and any rectangle in between — plus, when built with
``wraparound=True``, the extra wires the row-major algorithms require: a
link from cell ``(h, cols-1)`` to ``(h+1, 0)`` for ``h = 0 .. rows-2``,
continuing the row-major linear order across row boundaries ("the penalty
of having a wrap-around comparison is that extra wires are required").

The topology is independent of any algorithm; the executor in
:mod:`repro.mesh.machine` checks every scheduled comparator against the
link set, so running a row-major schedule on a mesh without wrap wires
raises :class:`~repro.errors.MissingWireError` — reproducing the paper's
observation that without those wires a column of small values can never
disperse.

If :mod:`networkx` is available, :meth:`MeshTopology.graph` exposes the
topology as a graph for diameter/path computations; the core functionality
has no networkx dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DimensionError

__all__ = ["Cell", "MeshTopology"]

Cell = tuple[int, int]


def _norm_edge(a: Cell, b: Cell) -> tuple[Cell, Cell]:
    return (a, b) if a <= b else (b, a)


@dataclass
class MeshTopology:
    """The wiring of a ``rows x cols`` mesh of processors.

    Attributes
    ----------
    rows, cols:
        Mesh shape (``sqrt(N)`` each on the paper's square mesh, ``1`` and
        ``N`` on the linear array).
    wraparound:
        Whether the extra wrap-around wires from the end of each row to the
        start of the next are present.  A one-column mesh of several rows
        refuses them (:class:`~repro.errors.DimensionError`).
    """

    rows: int
    cols: int
    wraparound: bool = False
    _links: set[tuple[Cell, Cell]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(
                f"mesh shape must be positive, got {self.rows}x{self.cols}"
            )
        if self.wraparound and self.cols == 1 and self.rows > 1:
            # Each wrap wire (h, 0)-(h+1, 0) would be the column wire itself.
            raise DimensionError(
                f"a {self.rows}x1 mesh has no wrap-around wires: each would be a column wire"
            )
        links: set[tuple[Cell, Cell]] = set()
        for r in range(self.rows):
            for c in range(self.cols):
                if c + 1 < self.cols:
                    links.add(_norm_edge((r, c), (r, c + 1)))
                if r + 1 < self.rows:
                    links.add(_norm_edge((r, c), (r + 1, c)))
        if self.wraparound:
            for h in range(self.rows - 1):
                links.add(_norm_edge((h, self.cols - 1), (h + 1, 0)))
        self._links = links

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    def cells(self) -> list[Cell]:
        return [(r, c) for r in range(self.rows) for c in range(self.cols)]

    def has_link(self, a: Cell, b: Cell) -> bool:
        """Whether processors ``a`` and ``b`` share a wire."""
        return _norm_edge(a, b) in self._links

    def links(self) -> set[tuple[Cell, Cell]]:
        """All wires, as normalized (sorted) cell pairs."""
        return set(self._links)

    def num_links(self) -> int:
        return len(self._links)

    def num_wrap_links(self) -> int:
        """How many of the links are wrap-around wires."""
        if not self.wraparound:
            return 0
        return self.rows - 1

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Processors sharing a wire with ``cell``."""
        r, c = cell
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DimensionError(
                f"cell {cell} out of range for a {self.rows}x{self.cols} mesh"
            )
        return [b if a == cell else a for a, b in sorted(self._links) if cell in (a, b)]

    def diameter(self) -> int:
        """Graph diameter.

        Without wrap wires this is ``(rows-1) + (cols-1)`` — the paper's
        ``2 sqrt(N) - 2`` on the square mesh; with them it can only shrink,
        which the tests confirm via networkx.
        """
        if not self.wraparound:
            return (self.rows - 1) + (self.cols - 1)
        graph = self.graph()
        import networkx as nx

        return nx.diameter(graph)

    def graph(self):
        """The topology as a :class:`networkx.Graph` (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.cells())
        g.add_edges_from(self._links)
        return g
