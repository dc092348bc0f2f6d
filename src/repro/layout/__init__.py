"""Layout substrate (the paper's Sec. 2 system model: stacked dies + TSVs).

Geometry, modules, nets, die stacks, TSV islands (signal and dummy
thermal), analysis grids, and the `Floorplan3D` container every other
layer consumes.  `CompiledNetlist` is the one compiled form of a
netlist: wirelength, signal-TSV sites and the timing layer's Elmore
delays all read its per-net pin extents.  Floorplans live in memory
only; what a run stores is its `FlowMetrics` record.
"""

from .die import StackConfig
from .floorplan import Floorplan3D
from .geometry import Point, Rect, total_overlap_area
from .grid import GridSpec, rasterize_power
from .module import Module, ModuleKind, Placement
from .net import CompiledNetlist, Net, Terminal
from .tsv import TSV, TSVIsland, TSVKind, place_island, place_regular_grid, tsv_density_map

__all__ = [
    "StackConfig",
    "Floorplan3D",
    "Point",
    "Rect",
    "total_overlap_area",
    "GridSpec",
    "rasterize_power",
    "Module",
    "ModuleKind",
    "Placement",
    "CompiledNetlist",
    "Net",
    "Terminal",
    "TSV",
    "TSVIsland",
    "TSVKind",
    "place_island",
    "place_regular_grid",
    "tsv_density_map",
]
