"""Tests for the mesh topology substrate."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import DimensionError
from repro.mesh.topology import MeshTopology

# Square meshes, rectangles both ways round, and linear arrays.
SHAPES = [(2, 2), (4, 4), (7, 7), (3, 5), (5, 2), (1, 8), (1, 1)]


class TestLinks:
    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_grid_link_count(self, rows, cols):
        topo = MeshTopology(rows, cols)
        assert topo.num_links() == rows * (cols - 1) + cols * (rows - 1)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 4), (7, 7), (3, 4), (5, 2), (1, 8)])
    def test_wrap_adds_rows_minus_one_links(self, rows, cols):
        plain = MeshTopology(rows, cols)
        wrapped = MeshTopology(rows, cols, wraparound=True)
        assert wrapped.num_links() == plain.num_links() + rows - 1
        assert wrapped.num_wrap_links() == rows - 1
        assert plain.num_wrap_links() == 0

    def test_has_link_neighbors(self):
        topo = MeshTopology(4, 4)
        assert topo.has_link((0, 0), (0, 1))
        assert topo.has_link((2, 1), (1, 1))
        assert not topo.has_link((0, 0), (1, 1))
        assert not topo.has_link((0, 3), (1, 0))

    def test_wrap_link_present_only_with_flag(self):
        assert MeshTopology(4, 4, wraparound=True).has_link((0, 3), (1, 0))
        assert not MeshTopology(4, 4).has_link((0, 3), (1, 0))

    def test_rectangular_wrap_links_join_row_ends(self):
        topo = MeshTopology(3, 6, wraparound=True)
        assert topo.has_link((0, 5), (1, 0))
        assert topo.has_link((1, 5), (2, 0))
        assert not topo.has_link((2, 5), (0, 0))

    def test_linear_array_is_a_path(self):
        topo = MeshTopology(1, 6)
        assert topo.links() == {((0, c), (0, c + 1)) for c in range(5)}
        assert set(topo.neighbors((0, 2))) == {(0, 1), (0, 3)}
        assert topo.neighbors((0, 0)) == [(0, 1)]

    def test_neighbors_interior(self):
        topo = MeshTopology(4, 4)
        assert set(topo.neighbors((1, 1))) == {(0, 1), (2, 1), (1, 0), (1, 2)}

    def test_neighbors_corner_with_wrap(self):
        topo = MeshTopology(4, 4, wraparound=True)
        assert (1, 0) in topo.neighbors((0, 3))
        assert (0, 3) in topo.neighbors((1, 0))

    @pytest.mark.parametrize("cell", [(4, 0), (0, 6), (-1, 0)])
    def test_bad_cell(self, cell):
        with pytest.raises(DimensionError):
            MeshTopology(4, 6).neighbors(cell)

    @pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (0, 0)])
    def test_bad_shape(self, rows, cols):
        with pytest.raises(DimensionError):
            MeshTopology(rows, cols)

    @pytest.mark.parametrize("rows", [2, 3, 8])
    def test_one_column_mesh_refuses_wrap_wires(self, rows):
        """On a ``rows x 1`` mesh each wrap wire would be a column wire, so
        counting them would report wires that are not there."""
        with pytest.raises(DimensionError, match="wrap-around"):
            MeshTopology(rows, 1, wraparound=True)
        assert MeshTopology(1, 1, wraparound=True).num_wrap_links() == 0


class TestDiameter:
    @pytest.mark.parametrize("side", [2, 3, 5])
    def test_plain_diameter_is_paper_bound(self, side):
        assert MeshTopology(side, side).diameter() == 2 * (side - 1)

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_plain_diameter_matches_networkx(self, rows, cols):
        topo = MeshTopology(rows, cols)
        assert topo.diameter() == (rows - 1) + (cols - 1)
        assert topo.diameter() == nx.diameter(topo.graph())

    @pytest.mark.parametrize("rows, cols", [(6, 6), (3, 8), (1, 10)])
    def test_wrap_cannot_increase_diameter(self, rows, cols):
        wrapped = MeshTopology(rows, cols, wraparound=True)
        assert wrapped.diameter() <= MeshTopology(rows, cols).diameter()

    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 5), (1, 4)])
    def test_graph_nodes(self, rows, cols):
        topo = MeshTopology(rows, cols)
        graph = topo.graph()
        assert graph.number_of_nodes() == rows * cols == topo.n_cells
        assert graph.number_of_edges() == topo.num_links()
