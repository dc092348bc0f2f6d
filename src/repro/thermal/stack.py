"""Layer-stack builder for the two-die face-to-back 3D IC.

Builds the ordered layer list the RC solver discretizes.  Layer order from
the package (bottom) to the heatsink (top), for the paper's stacking style
(Fig. 1: two dies, face-to-back, heatsink atop the upper die):

    0  die0 bulk silicon      (thick carrier of the bottom die)
    1  die0 active layer      <- power injection of die 0
    2  die0 BEOL metal stack
    3  bond / adhesive layer  <- TSVs penetrate (modified conductivity)
    4  die1 thinned bulk Si   <- TSVs penetrate (modified conductivity)
    5  die1 active layer      <- power injection of die 1
    6  die1 BEOL metal stack
    7  TIM
    8  heat spreader (Cu)
    9  heatsink base (Cu)     -> convective boundary to ambient

The secondary heat path exits the bottom of layer 0 through a lumped
package resistance (Sec. 3 "the secondary path conducting heat towards
the package").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..layout.die import StackConfig
from ..layout.geometry import Rect
from ..layout.grid import GridSpec
from .materials import (
    BEOL,
    BOND,
    COPPER,
    SILICON,
    TIM,
    Material,
    tsv_composite_capacity,
    tsv_composite_lateral,
    tsv_composite_vertical,
)

__all__ = [
    "Layer",
    "ThermalStack",
    "TopologyConfig",
    "TOPOLOGY_KINDS",
    "build_stack",
    "layer_shape",
    "stack_for_floorplan",
    "normalize_tsv_densities",
    "DIMENSIONS",
]

#: supported stack topologies: the paper's vertical 3D stack, and a 2.5D
#: interposer layout (dies side-by-side, heat paths down into a shared
#: interposer through micro-bump fields)
TOPOLOGY_KINDS = ("3d", "2.5d")


#: 2.5D interposer geometry: substrate silicon, redistribution layer and
#: micro-bump/underfill gap thicknesses (m), and the mold-compound spacer
#: columns between adjacent die sites (grid cells)
INTERPOSER_THICKNESS = 100e-6
RDL_THICKNESS = 10e-6
MICROBUMP_THICKNESS = 30e-6
GAP_CELLS = 2


@dataclass(frozen=True)
class TopologyConfig:
    """Which physical stacking style the thermal model discretizes.

    ``kind="3d"`` is the degenerate case: :func:`build_stack` takes the
    exact vertical-stack path, and every solver-cache key equals the one
    of ``topology=None``.  ``kind="2.5d"`` places the dies side-by-side
    on a silicon interposer: each die keeps its own ``(ny, nx)`` analysis
    grid as a *site* on a wider shared grid, so power maps, leakage
    metrics, and every solver stay shape-compatible with the 3D path.
    """

    kind: str = "3d"

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{', '.join(TOPOLOGY_KINDS)}"
            )


def is_interposer(topology: Optional[TopologyConfig]) -> bool:
    """Whether ``topology`` is the 2.5D layout (``None`` is the 3D stack)."""
    return topology is not None and topology.kind == "2.5d"


@dataclass
class Layer:
    """One discretized layer: thickness plus per-cell property maps."""

    name: str
    thickness: float  # m
    k_vertical: np.ndarray  # (ny, nx) W/(m K)
    k_lateral: np.ndarray  # (ny, nx) W/(m K)
    capacity: np.ndarray  # (ny, nx) J/(m^3 K)
    #: index of the die whose power map feeds this layer, or None
    power_die: Optional[int] = None

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise ValueError(f"layer {self.name!r}: non-positive thickness")


#: Layer thicknesses in metres.
DIMENSIONS: Dict[str, float] = {
    "bulk_thick": 300e-6,  # bottom-die carrier silicon
    "bulk_thin": 100e-6,  # thinned upper-die silicon (TSV layer)
    "active": 2e-6,
    "beol": 12e-6,
    "bond": 20e-6,
    "tim": 50e-6,
    "spreader": 1000e-6,
    "sink": 6900e-6,
}


#: per-area boundary resistances to ambient (K m^2 / W): the heatsink
#: path atop the stack, and the secondary package path below it, which
#: TSV landing pads strengthen toward ``r_bottom_tsv_area``
R_TOP_AREA = 2.0e-5
R_BOTTOM_AREA = 1.0e-3
#: ambient temperature (K); the paper reports peaks w.r.t. 293 K
AMBIENT = 293.0
#: copper fraction of a TSV footprint (barrel vs. keep-out)
COPPER_FILL_FRACTION = 0.35


@dataclass
class ThermalStack:
    """The full discretized stack plus its bottom boundary."""

    grid: GridSpec
    layers: List[Layer]
    #: per-cell bottom resistance map (K m^2 / W): ``R_BOTTOM_AREA``
    #: blended toward ``r_bottom_tsv_area`` where TSVs connect to the
    #: package through micro-bump/redistribution stacks, locally
    #: strengthening the secondary heat path
    r_bottom_map: np.ndarray
    #: 2.5D interposer layouts: per-die ``(row0, col0)`` offsets of each
    #: die's site on the shared grid.  ``None`` (the 3D stack) means every
    #: die's maps span the whole grid.
    die_sites: Optional[List[Tuple[int, int]]] = None
    #: 2.5D: the ``(ny, nx)`` shape of each die site — the shape callers'
    #: per-die power/thermal maps keep across both topologies
    site_shape: Optional[Tuple[int, int]] = None
    #: whether any TSV or dummy-TSV density pierces the stack (the
    #: spectral backend smooths such systems along z)
    has_tsvs: bool = False
    #: every stack sits at :data:`AMBIENT`
    ambient: ClassVar[float] = AMBIENT

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_nodes(self) -> int:
        return self.num_layers * self.grid.nx * self.grid.ny

    def layer_index(self, name: str) -> int:
        for i, layer in enumerate(self.layers):
            if layer.name == name:
                return i
        raise KeyError(f"no layer named {name!r}")

    def power_layers(self) -> List[Tuple[int, int]]:
        """(layer index, die index) for every power-injecting layer.

        On a 2.5D interposer stack every die injects into its own site of
        the single shared active layer.
        """
        if self.die_sites is not None:
            li = self.layer_index("die_active")
            return [(li, d) for d in range(len(self.die_sites))]
        return [
            (i, layer.power_die)
            for i, layer in enumerate(self.layers)
            if layer.power_die is not None
        ]

    def die_map_shape(self) -> Tuple[int, int]:
        """Shape of per-die power/thermal maps (the site shape in 2.5D)."""
        return self.site_shape if self.site_shape is not None else self.grid.shape

    def site_slice(self, die: int) -> Tuple[slice, slice]:
        """(row, col) slices of a die's cells within a full-grid layer map.

        The 3D stack returns full slices — per-die maps span the grid —
        so callers can index uniformly across both topologies.
        """
        if self.die_sites is None:
            return (slice(None), slice(None))
        r0, c0 = self.die_sites[die]
        sy, sx = self.site_shape
        return (slice(r0, r0 + sy), slice(c0, c0 + sx))


def _uniform(
    material: Material, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = np.full(shape, material.conductivity)
    return k, k.copy(), np.full(shape, material.capacity)


def normalize_tsv_densities(
    stack_cfg: StackConfig,
    grid: GridSpec,
    tsv_density,
) -> Dict[Tuple[int, int], np.ndarray]:
    """Canonicalize the accepted TSV-density forms to a per-pair dict.

    Accepted forms:

    * ``None`` — no TSVs anywhere (empty dict);
    * a single ``(ny, nx)`` array — density of the (0, 1) interface, the
      two-die form the exploration study passes;
    * a mapping ``{(d, d+1): array}`` over adjacent die pairs.

    Every array is shape-checked against the grid; unknown or
    non-adjacent pairs are rejected.
    """
    shape = grid.shape
    valid_pairs = set(stack_cfg.die_pairs()) or {(0, 1)}

    def _check(arr: np.ndarray, pair: Tuple[int, int]) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.shape != shape:
            raise ValueError(
                f"tsv_density for pair {pair}: shape {arr.shape} != grid shape {shape}"
            )
        return arr

    if tsv_density is None:
        return {}
    if isinstance(tsv_density, np.ndarray):
        return {(0, 1): _check(tsv_density, (0, 1))}
    if isinstance(tsv_density, Mapping):
        out: Dict[Tuple[int, int], np.ndarray] = {}
        for pair, arr in tsv_density.items():
            pair = (int(pair[0]), int(pair[1]))
            if pair not in valid_pairs:
                raise ValueError(
                    f"tsv_density pair {pair} is not an adjacent pair of a "
                    f"{stack_cfg.num_dies}-die stack"
                )
            out[pair] = _check(arr, pair)
        return out
    raise TypeError(
        "tsv_density must be None, an array or a {pair: array} mapping "
        f"(got {type(tsv_density).__name__})"
    )


def _any_tsvs(densities: Dict[Tuple[int, int], np.ndarray]) -> bool:
    return any(bool(np.any(arr > 0.0)) for arr in densities.values())


def layer_shape(stack_cfg: StackConfig, grid: GridSpec, topology=None) -> Tuple[int, int]:
    """``(ny, nx)`` of one layer of :func:`build_stack`'s system: the die
    grid in 3D, the shared grid of all die sites and gaps in 2.5D."""
    if not is_interposer(topology):
        return grid.shape
    ny, nx = grid.shape
    num_dies = stack_cfg.num_dies
    return ny, num_dies * nx + max(num_dies - 1, 0) * GAP_CELLS


def _bottom_resistance(density: np.ndarray, r_bottom_tsv_area: float) -> np.ndarray:
    """Per-cell package-path resistance: ``R_BOTTOM_AREA`` blended toward
    ``r_bottom_tsv_area`` with TSV density (conductances add in parallel)."""
    return 1.0 / ((1.0 - density) / R_BOTTOM_AREA + density / r_bottom_tsv_area)


def build_stack(
    stack_cfg: StackConfig,
    grid: GridSpec,
    tsv_density=None,
    r_bottom_tsv_area: float = 8.0e-5,
    topology: Optional[TopologyConfig] = None,
) -> ThermalStack:
    """Build the thermal stack for a face-to-back 3D IC.

    ``tsv_density`` gives the TSV *footprint* density maps between
    adjacent dies in any of the forms accepted by
    :func:`normalize_tsv_densities` (single array = the (0, 1) interface;
    per-pair mapping for taller stacks); the copper fraction of a
    footprint (barrel vs. keep-out) is :data:`COPPER_FILL_FRACTION`.

    TSVs act as vertical heat pipes in two ways: they raise the composite
    conductivity of the bond and thinned-bulk layers they pierce, and —
    because TSV landing pads stack onto micro-bumps and the package
    redistribution — they locally strengthen the secondary heat path
    (per-cell bottom resistance blends :data:`R_BOTTOM_AREA` toward
    ``r_bottom_tsv_area`` with TSV density).  Tiers are built bottom-up
    in one loop: die 0 on the thick bulk, each die ``d >= 1`` on the bond
    layer ``bond{d-1}{d}`` and a thinned bulk, both pierced by that
    interface's TSVs, and every die with its active and BEOL layers; the
    TIM, spreader and heat sink close the stack.  Only the (0, 1) density
    feeds the secondary-path blending, since only those TSVs land on the
    package redistribution.

    ``topology`` selects the stacking style; ``None`` and ``kind="3d"``
    take the vertical-stack path below, while ``kind="2.5d"`` builds the
    side-by-side interposer layout (:func:`_build_interposer_stack`).
    """
    densities = normalize_tsv_densities(stack_cfg, grid, tsv_density)
    if is_interposer(topology):
        return _build_interposer_stack(stack_cfg, grid, densities, r_bottom_tsv_area)
    shape = grid.shape
    zeros = np.zeros(shape)

    def copper_for(pair: Tuple[int, int]) -> np.ndarray:
        return np.clip(densities.get(pair, zeros) * COPPER_FILL_FRACTION, 0.0, 1.0)

    layers: List[Layer] = []

    def add_uniform(
        name: str, material: Material, thickness: float,
        power_die: int | None = None,
    ) -> None:
        kv, kl, cap = _uniform(material, shape)
        layers.append(Layer(name, thickness, kv, kl, cap, power_die))

    def add_tsv_layer(name: str, base: Material, thickness: float, copper: np.ndarray) -> None:
        layers.append(
            Layer(
                name,
                thickness,
                np.asarray(tsv_composite_vertical(base, copper)),
                np.asarray(tsv_composite_lateral(base, copper)),
                np.asarray(tsv_composite_capacity(base, copper)),
            )
        )

    for die in range(stack_cfg.num_dies):
        if die == 0:
            add_uniform("die0_bulk", SILICON, DIMENSIONS["bulk_thick"])
        else:
            # the interface below this die and its thinned bulk, both
            # pierced by that interface's TSVs
            copper = copper_for((die - 1, die))
            add_tsv_layer(f"bond{die - 1}{die}", BOND, DIMENSIONS["bond"], copper)
            add_tsv_layer(f"die{die}_bulk", SILICON, DIMENSIONS["bulk_thin"], copper)
        add_uniform(f"die{die}_active", SILICON, DIMENSIONS["active"], power_die=die)
        add_uniform(f"die{die}_beol", BEOL, DIMENSIONS["beol"])
    # cooling assembly
    add_uniform("tim", TIM, DIMENSIONS["tim"])
    add_uniform("spreader", COPPER, DIMENSIONS["spreader"])
    add_uniform("sink", COPPER, DIMENSIONS["sink"])

    return ThermalStack(
        grid=grid,
        layers=layers,
        r_bottom_map=_bottom_resistance(densities.get((0, 1), zeros), r_bottom_tsv_area),
        has_tsvs=_any_tsvs(densities),
    )


def _build_interposer_stack(
    stack_cfg: StackConfig,
    grid: GridSpec,
    densities: Dict[Tuple[int, int], np.ndarray],
    r_bottom_tsv_area: float,
) -> ThermalStack:
    """The 2.5D layout: flip-chip dies side-by-side on a silicon interposer.

    Every die keeps its caller-facing ``(ny, nx)`` grid as a *site* on a
    wider shared grid (same cell geometry), separated by
    :data:`GAP_CELLS` columns of mold compound.  Layer order from the
    package (bottom) to the heatsink (top):

        0  interposer bulk Si     <- secondary path to the package
        1  interposer RDL         (lateral spreading between dies)
        2  micro-bump/underfill   <- per-die bump fields (TSV densities)
        3  die BEOL (face-down)   mold compound between sites
        4  die active             <- per-site power injection
        5  die thinned bulk Si
        6  TIM / 7 spreader / 8 sink (shared cooling assembly)

    The per-pair TSV densities of :func:`normalize_tsv_densities` are
    reused unchanged: the pair ``(d, d+1)`` field becomes interposer
    routing whose micro-bump landing pads sit under *both* endpoint
    dies, raising the composite bump-layer conductivity there and — like
    3D TSVs on the package redistribution — locally strengthening the
    secondary path under the interposer.
    """
    site_shape = grid.shape
    ny, nx = site_shape
    num_dies = stack_cfg.num_dies
    _, nx_total = layer_shape(stack_cfg, grid, TopologyConfig("2.5d"))
    outline = grid.outline
    wide = GridSpec(
        Rect(outline.x, outline.y, outline.w * (nx_total / nx), outline.h),
        nx=nx_total,
        ny=ny,
    )
    sites = [(0, d * (nx + GAP_CELLS)) for d in range(num_dies)]
    wide_shape = wide.shape

    per_die = [np.zeros(site_shape) for _ in range(num_dies)]
    for (a, b), arr in densities.items():
        per_die[a] = per_die[a] + arr
        per_die[b] = per_die[b] + arr
    bump = np.zeros(wide_shape)
    for d, (r0, c0) in enumerate(sites):
        bump[r0 : r0 + ny, c0 : c0 + nx] = np.clip(per_die[d], 0.0, 1.0)
    copper = np.clip(bump * COPPER_FILL_FRACTION, 0.0, 1.0)

    def patterned(die_mat: Material, fill_mat: Material):
        """Per-cell maps: die material under sites, filler between them."""
        k = np.full(wide_shape, fill_mat.conductivity)
        cap = np.full(wide_shape, fill_mat.capacity)
        for r0, c0 in sites:
            k[r0 : r0 + ny, c0 : c0 + nx] = die_mat.conductivity
            cap[r0 : r0 + ny, c0 : c0 + nx] = die_mat.capacity
        return k, k.copy(), cap

    layers: List[Layer] = []

    def add_uniform(name: str, material: Material, thickness: float) -> None:
        kv, kl, cap = _uniform(material, wide_shape)
        layers.append(Layer(name, thickness, kv, kl, cap))

    add_uniform("interposer_bulk", SILICON, INTERPOSER_THICKNESS)
    add_uniform("interposer_rdl", BEOL, RDL_THICKNESS)
    layers.append(
        Layer(
            "microbump",
            MICROBUMP_THICKNESS,
            np.asarray(tsv_composite_vertical(BOND, copper)),
            np.asarray(tsv_composite_lateral(BOND, copper)),
            np.asarray(tsv_composite_capacity(BOND, copper)),
        )
    )
    kv, kl, cap = patterned(BEOL, BOND)
    layers.append(Layer("die_beol", DIMENSIONS["beol"], kv, kl, cap))
    kv, kl, cap = patterned(SILICON, BOND)
    layers.append(Layer("die_active", DIMENSIONS["active"], kv, kl, cap))
    kv, kl, cap = patterned(SILICON, BOND)
    layers.append(Layer("die_bulk", DIMENSIONS["bulk_thin"], kv, kl, cap))
    add_uniform("tim", TIM, DIMENSIONS["tim"])
    add_uniform("spreader", COPPER, DIMENSIONS["spreader"])
    add_uniform("sink", COPPER, DIMENSIONS["sink"])

    # bump-dense cells land on interposer TSVs into the package: blend the
    # secondary-path resistance exactly like the 3D stack's (0, 1) pattern
    return ThermalStack(
        grid=wide,
        layers=layers,
        r_bottom_map=_bottom_resistance(bump, r_bottom_tsv_area),
        die_sites=sites,
        site_shape=site_shape,
        has_tsvs=_any_tsvs(densities),
    )


def stack_for_floorplan(
    floorplan, grid: GridSpec, topology: Optional[TopologyConfig] = None
) -> ThermalStack:
    """Build the thermal stack for a floorplan's full TSV pattern.

    The stack-level analogue of
    :meth:`~repro.thermal.steady_state.SolverCache.solver_for_floorplan`:
    density maps come from ``floorplan.tsv_densities(grid)`` over *all*
    adjacent die pairs, never the single-``(0, 1)``-pair form (the
    standing audit rule ``tests/test_call_site_audit.py`` enforces).
    """
    return build_stack(
        floorplan.stack,
        grid,
        tsv_density=floorplan.tsv_densities(grid),
        topology=topology,
    )
