"""Topology layer: 2.5D interposer stacks pinned against oracles.

Three contracts from the topology refactor:

* the 3D path through :class:`TopologyConfig` is *bit-identical* to the
  ``topology=None`` ``build_stack`` call — same layer arrays, same
  assembled conductance matrix, one solver-cache entry;
* the 2.5D interposer stack solves the same physics: its steady state
  matches a dense ``numpy.linalg.solve`` oracle and conserves energy;
* the flow-level plumbing (JobSpec -> FlowConfig -> run_flow) leaves the
  default 3D/static cell digest-identical to the pre-topology path.
"""

import numpy as np
import pytest

from repro.layout.die import StackConfig
from repro.layout.grid import GridSpec
from repro.thermal.rc_network import assemble
from repro.thermal.stack import GAP_CELLS, TOPOLOGY_KINDS, TopologyConfig, build_stack
from repro.thermal.steady_state import SolverCache, SteadyStateSolver


@pytest.fixture(scope="module")
def small():
    cfg = StackConfig.square(1200.0)
    grid = GridSpec(cfg.outline, 6, 6)
    density = np.zeros(grid.shape)
    density[2:4, 2:4] = 0.8
    return cfg, grid, density


class TestTopologyConfig:
    def test_kinds_registry(self):
        assert TOPOLOGY_KINDS == ("3d", "2.5d")

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown topology kind 'stacked'"):
            TopologyConfig(kind="stacked")

    def test_unknown_kind_rejected_at_wire_boundary(self):
        """The wire document (``JobSpec.from_json``) raises the exact
        ValueError construction raises."""
        from repro.api import JobSpec

        doc = JobSpec(benchmark="n100", topology="2.5d").to_json()
        with pytest.raises(
            ValueError,
            match="unknown topology kind 'planar'; expected one of 3d, 2.5d",
        ):
            JobSpec.from_json(dict(doc, topology="planar"))


class TestThreeDBitIdentity:
    """kind='3d' must fall out as the *degenerate* case, byte for byte."""

    def test_layers_bit_identical(self, small):
        cfg, grid, density = small
        legacy = build_stack(cfg, grid, tsv_density=density)
        topo = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="3d")
        )
        assert [l.name for l in topo.layers] == [l.name for l in legacy.layers]
        for a, b in zip(legacy.layers, topo.layers):
            assert a.thickness == b.thickness
            assert np.array_equal(a.k_vertical, b.k_vertical)
            assert np.array_equal(a.k_lateral, b.k_lateral)
            assert np.array_equal(a.capacity, b.capacity)
        assert np.array_equal(legacy.r_bottom_map, topo.r_bottom_map)
        assert topo.die_sites is None and topo.site_shape is None

    def test_assembled_matrix_bit_identical(self, small):
        cfg, grid, density = small
        ga = assemble(build_stack(cfg, grid, tsv_density=density)).conductance
        gb = assemble(
            build_stack(cfg, grid, tsv_density=density,
                        topology=TopologyConfig(kind="3d"))
        ).conductance
        assert np.array_equal(ga.data, gb.data)
        assert np.array_equal(ga.indices, gb.indices)
        assert np.array_equal(ga.indptr, gb.indptr)

    def test_one_cache_entry_per_3d_system(self, small):
        """``topology=None`` and ``TopologyConfig("3d")`` spell one system:
        one factorization, one cache entry, the same solver object."""
        cfg, grid, density = small
        cache = SolverCache()
        plain = cache.solver(cfg, grid, density)
        via_topology = cache.solver(
            cfg, grid, density, topology=TopologyConfig(kind="3d")
        )
        assert via_topology is plain
        assert cache.counters() == {"hits": 1, "misses": 1, "entries": 1}


class TestInterposerStack:
    def test_structure(self, small):
        cfg, grid, density = small
        topo = TopologyConfig(kind="2.5d")
        stack = build_stack(cfg, grid, tsv_density=density, topology=topo)
        # dies side by side: shared grid widens, per-die maps keep shape
        assert stack.grid.ny == grid.ny
        assert stack.grid.nx == 2 * grid.nx + GAP_CELLS
        assert stack.die_map_shape() == grid.shape
        assert stack.die_sites == [(0, 0), (0, grid.nx + GAP_CELLS)]
        # both dies inject into the single shared active layer
        li = stack.layer_index("die_active")
        assert stack.power_layers() == [(li, 0), (li, 1)]

    def test_site_slices_disjoint(self, small):
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        cells = np.zeros(stack.grid.shape, dtype=int)
        for d in range(cfg.num_dies):
            cells[stack.site_slice(d)] += 1
        assert cells.max() == 1  # sites never overlap

    def test_power_vector_routes_to_sites(self, small):
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        net = assemble(stack)
        pm0 = np.arange(grid.ny * grid.nx, dtype=float).reshape(grid.shape)
        q = net.power_vector([pm0, np.zeros(grid.shape)])
        npl = stack.grid.nx * stack.grid.ny
        li = stack.layer_index("die_active")
        layer = q[li * npl : (li + 1) * npl].reshape(stack.grid.shape)
        assert np.array_equal(layer[stack.site_slice(0)], pm0)
        assert float(np.abs(layer[stack.site_slice(1)]).sum()) == 0.0
        assert q.sum() == pytest.approx(pm0.sum())

    def test_steady_state_matches_dense_oracle(self, small):
        """The direct solve of the 2.5D network == dense numpy.linalg.solve."""
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        solver = SteadyStateSolver(stack)
        pm = np.zeros(grid.shape)
        pm[1, 1] = 0.8
        pm[4, 4] = 0.3
        maps = [pm, 0.5 * pm[::-1, ::-1].copy()]
        result = solver.solve(maps)

        net = solver.network
        rhs = net.power_vector(maps) + net.boundary * stack.ambient
        t_dense = np.linalg.solve(net.conductance.toarray(), rhs)
        rise = np.abs(t_dense - stack.ambient).max()
        assert rise > 0.1  # the oracle comparison is not vacuous
        assert np.max(np.abs(result.nodal - t_dense)) <= 1e-10 * max(rise, 1.0)

    def test_energy_balance(self, small):
        """Heat leaving through the boundaries equals injected power."""
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        solver = SteadyStateSolver(stack)
        pm = np.full(grid.shape, 2.0 / grid.nx / grid.ny)
        result = solver.solve([pm, pm])
        net = solver.network
        outflow = float(np.sum(net.boundary * (result.nodal - stack.ambient)))
        assert outflow == pytest.approx(4.0, rel=1e-6)

    def test_die_maps_keep_grid_shape(self, small):
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        pm = np.full(grid.shape, 0.01)
        result = SteadyStateSolver(stack).solve([pm, pm])
        assert [m.shape for m in result.die_maps] == [grid.shape] * 2

    def test_neighbour_die_heats_across_interposer(self, small):
        """One hot die warms its neighbour through the shared interposer —
        the cross-die coupling the 2.5D side-channel discussion rests on."""
        cfg, grid, density = small
        stack = build_stack(
            cfg, grid, tsv_density=density, topology=TopologyConfig(kind="2.5d")
        )
        pm = np.full(grid.shape, 3.0 / grid.nx / grid.ny)
        result = SteadyStateSolver(stack).solve([pm, np.zeros(grid.shape)])
        assert result.die_maps[0].mean() > result.die_maps[1].mean()
        assert result.die_maps[1].mean() > stack.ambient + 0.05


class TestFlowPlumbingDigest:
    """The default 3D/static cell through the new plumbing is digest-
    identical to the pre-topology direct-FlowConfig path."""

    def test_jobspec_path_matches_legacy_flowconfig_path(self):
        from repro.api import JobSpec
        from repro.benchmarks import load
        from repro.core.config import FlowConfig
        from repro.core.flow import run_flow
        from repro.core.store import artifact_digest
        from repro.floorplan.annealer import AnnealConfig

        circuit, stack = load("n100")

        def digest(metrics):
            doc = metrics.to_dict()
            # runtime and cache-state-dependent counters are excluded
            # from oracle digests, as everywhere else in the suite
            doc.pop("runtime_s")
            doc.pop("degradations", None)
            return artifact_digest("flow-metrics", doc)

        spec = JobSpec(
            benchmark="n100", mode="power_aware", seed=3,
            iterations=40, grid=16,
            topology="3d", mitigation_mode="static",
        )
        via_spec = run_flow(circuit, stack, spec.to_flow_config()).metrics

        legacy = FlowConfig(
            mode="power_aware",
            anneal=AnnealConfig(iterations=40, seed=3),
            verify_nx=16, verify_ny=16,
        )
        via_legacy = run_flow(circuit, stack, legacy).metrics

        assert digest(via_spec) == digest(via_legacy)
        # and the serialized record carries no new keys for the default
        # cell — stored sweeps from before the topology layer still match
        assert "topology" not in via_legacy.to_dict()
        assert "mitigation_mode" not in via_legacy.to_dict()
        assert "dvfs_baseline_r" not in via_legacy.to_dict()
