"""Structural tests for the assembled thermal RC network."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.rc_network import assemble
from repro.thermal.stack import build_stack


@pytest.fixture(scope="module")
def network():
    cfg = StackConfig.square(1000.0)
    grid = GridSpec(cfg.outline, 8, 8)
    stack = build_stack(cfg, grid)
    return stack, assemble(stack)


class TestNetworkStructure:
    def test_matrix_symmetric(self, network):
        _, net = network
        diff = (net.conductance - net.conductance.T).tocoo()
        assert np.abs(diff.data).max() < 1e-9 if diff.nnz else True

    def test_row_sums_equal_boundary(self, network):
        """Kirchhoff: internal conductances cancel in row sums; what
        remains is each node's conductance to ambient."""
        _, net = network
        row_sums = np.asarray(net.conductance.sum(axis=1)).ravel()
        assert np.allclose(row_sums, net.boundary, atol=1e-9)

    def test_diagonal_dominance(self, network):
        _, net = network
        m = net.conductance.tocsr()
        diag = m.diagonal()
        for i in range(0, m.shape[0], 97):  # sample rows
            row = m.getrow(i)
            off = np.abs(row.data).sum() - abs(diag[i])
            assert diag[i] >= off - 1e-9

    def test_capacitances_positive(self, network):
        _, net = network
        assert np.all(net.capacitance > 0)

    def test_node_indexing(self, network):
        """Nodes number layer-major: node (layer, row, col) is the raveled
        index into ``grid_shape``."""
        stack, net = network
        nx, ny = stack.grid.nx, stack.grid.ny
        assert net.grid_shape == (stack.num_layers, ny, nx)
        assert net.num_nodes == stack.num_layers * ny * nx
        index = np.arange(net.num_nodes).reshape(net.grid_shape)
        assert index[0, 0, 1] == 1
        assert index[0, 1, 0] == nx
        assert index[1, 0, 0] == nx * ny

    def test_power_vector_placement(self, network):
        stack, net = network
        grid = stack.grid
        pm0 = np.zeros(grid.shape)
        pm0[2, 3] = 1.5
        q = net.power_vector([pm0, np.zeros(grid.shape)])
        active0 = stack.layer_index("die0_active")
        assert q.reshape(net.grid_shape)[active0, 2, 3] == 1.5
        assert q.sum() == pytest.approx(1.5)

    def test_power_vector_shape_check(self, network):
        _, net = network
        with pytest.raises(ValueError):
            net.power_vector([np.zeros((3, 3)), np.zeros((3, 3))])

    def test_boundary_only_on_extreme_layers(self, network):
        stack, net = network
        n_per_layer = stack.grid.nx * stack.grid.ny
        interior = net.boundary[n_per_layer:-n_per_layer]
        assert np.all(interior == 0.0)
        assert np.all(net.boundary[:n_per_layer] > 0)
        assert np.all(net.boundary[-n_per_layer:] > 0)
